"""Hash-chained, tamper-evident ledger over trace events.

Every trace event has an injective byte encoding: one type byte (1 for a
governance check, 2 for an I/O entry), the big-endian 4-byte length of
the UTF-8 text field, the text (stage or canonical directive), and for a
check one more byte, 1 if it passed and 0 if not. A ledger entry is an
immutable ``NamedTuple`` of the event, its encoding, the previous
entry's hash, and ``sha256(prev_hash || data)``. The chain is rooted at
32 zero bytes.

An entry is well formed when its stored data is its event's encoding
and its stored hash satisfies the hash equation; a ledger is valid when
every entry is well formed and linked to the one before. On a ledger
from ``parse_ledger`` (``_decoded``) the first half holds by
construction, as ``encode_event(decode_event(b)) == b`` for every
accepted ``b``, and is not rechecked. A recorded event changed under
the stored hashes breaks well-formedness (``algebra.tamper_check``).

File format (UTF-8, LF): header line ``GOVLEDGER v1 sha256``, then one
line per entry: ``hex(prev_hash) hex(hash) base64(data)``. Each line
ends in LF, the last too, and none is empty; a CRLF file is refused.
Only the lines and fields ``format_ledger`` writes are read, so each
ledger has one text: a hash
field is exactly 64 lowercase hex digits, and the base64 field is read
in strict mode (a non-ASCII or non-base64 character or misplaced
padding is a ``ValueError``) and must have zero padding bits.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Iterable, NamedTuple

from .trace import GovEntry, IoEntry, Trace, TraceEvent

GENESIS_HASH = bytes(32)
_new = tuple.__new__  # a NamedTuple from its fields, without its Python __new__

_TYPE_GOV = 0x01
_TYPE_IO = 0x02
_HEAD = struct.Struct(">BI")  # type byte, UTF-8 length of the text field


def encode_event(ev: TraceEvent) -> bytes:
    if type(ev) is GovEntry:
        raw = ev.stage.encode("utf-8")
        return _HEAD.pack(_TYPE_GOV, len(raw)) + raw + (b"\x01" if ev.passed else b"\x00")
    if type(ev) is IoEntry:
        raw = ev.directive.encode("utf-8")
        return _HEAD.pack(_TYPE_IO, len(raw)) + raw
    raise TypeError(f"not a trace event: {ev!r}")


def decode_event(data: bytes) -> TraceEvent:
    if len(data) < 5:
        raise ValueError("truncated event data")
    kind, n = _HEAD.unpack_from(data)
    end = 5 + n
    raw = data[5:end]
    text = raw.decode("utf-8")
    if len(raw) != n:
        raise ValueError("truncated event field")
    if kind == _TYPE_IO:
        if len(data) != end:
            raise ValueError("trailing bytes after io entry")
        return _new(IoEntry, (text,))
    if kind == _TYPE_GOV:
        if len(data) != end + 1 or data[end] > 1:
            raise ValueError("malformed governance entry")
        return _new(GovEntry, (text, data[end] == 1))
    raise ValueError(f"unknown event type byte {kind:#x}")


def entry_hash(prev_hash: bytes, data: bytes) -> bytes:
    return sha256(prev_hash + data).digest()


class LedgerEntry(NamedTuple):
    event: TraceEvent
    data: bytes
    prev_hash: bytes
    hash: bytes


@dataclass(frozen=True)
class Ledger:
    entries: tuple
    _decoded: bool = field(default=False, init=False, repr=False, compare=False)

    def events(self) -> Trace:
        return tuple(e.event for e in self.entries)


def trace_to_ledger(trace: Iterable[TraceEvent]) -> Ledger:
    entries = []
    prev = GENESIS_HASH
    for ev in trace:
        data = encode_event(ev)
        h = entry_hash(prev, data)
        entries.append(_new(LedgerEntry, (ev, data, prev, h)))
        prev = h
    return Ledger(tuple(entries))


def ledger_valid(ledger: Ledger) -> "tuple[bool, int | None]":
    """(True, None) for a valid ledger, else (False, first bad index)."""
    prev = GENESIS_HASH
    for i, entry in enumerate(ledger.entries):
        if (entry.prev_hash != prev or entry.hash != entry_hash(prev, entry.data)
                or not (ledger._decoded or entry.data == encode_event(entry.event))):
            return False, i
        prev = entry.hash
    return True, None


def _substitute(entries, idx: int, new_event: TraceEvent, keep_data: bool) -> Ledger:
    old = entries[idx]
    data = old.data if keep_data else encode_event(new_event)
    return Ledger((*entries[:idx], old._replace(event=new_event, data=data), *entries[idx + 1:]))


LEDGER_HEADER = "GOVLEDGER v1 sha256"


def format_ledger(ledger: Ledger) -> str:
    lines = [LEDGER_HEADER + "\n"]
    prev, prev_hex = GENESIS_HASH, GENESIS_HASH.hex()
    for e in ledger.entries:
        link = prev_hex if e.prev_hash == prev else e.prev_hash.hex()
        prev, prev_hex = e.hash, e.hash.hex()
        lines.append(f"{link} {prev_hex} {binascii.b2a_base64(e.data).decode()}")  # ends in LF
    return "".join(lines)


def _hash_field(text: str, line_no: int) -> bytes:
    # bytes.fromhex alone also takes uppercase digits and skips whitespace
    try:
        h = bytes.fromhex(text)
    except ValueError:
        h = b""
    if len(h) != 32 or h.hex() != text:
        raise ValueError(f"line {line_no}: hash field is not 64 lowercase hex digits")
    return h


def parse_ledger(text: str) -> Ledger:
    lines = text.split("\n")
    if lines[0] != LEDGER_HEADER:
        raise ValueError("missing ledger header")
    entries = []
    link, h = GENESIS_HASH.hex(), GENESIS_HASH  # the previous entry's hash field
    for line_no, line in enumerate(lines[1:-1], 2):
        try:
            prev_text, hash_text, b64 = line.split(" ")
        except ValueError:
            problem = "malformed ledger entry" if line else "empty line"
            raise ValueError(f"line {line_no}: {problem}") from None
        prev_hash = h if prev_text == link else _hash_field(prev_text, line_no)
        link, h = hash_text, _hash_field(hash_text, line_no)
        data = binascii.a2b_base64(b64, strict_mode=True)
        # strict mode ignores the padding bits, which only a padded field has
        if b64[-1:] == "=" and binascii.b2a_base64(data, newline=False).decode() != b64:
            raise ValueError(f"line {line_no}: base64 field has nonzero padding bits")
        entries.append(_new(LedgerEntry, (decode_event(data), data, prev_hash, h)))
    if lines[-1]:
        raise ValueError(f"line {len(lines)}: no LF at the end of the file")
    ledger = Ledger(tuple(entries))
    object.__setattr__(ledger, "_decoded", True)
    return ledger
