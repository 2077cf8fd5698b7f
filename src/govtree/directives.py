"""The fixed directive signature: every effect the runtime can request.

There are exactly 14 directive variants, each a ``NamedTuple`` equal only
to its own type (``itree.own_type_eq``) whose fields are printable scalars
(strings and ints). ``SIGNATURE`` is the one table of them: in a fixed
order, it maps each variant to the name of its answer (None for a unit
answer) and to the one capability it requires (None for the bookkeeping
``RecordStep`` and ``Observability``). Every named answer is an ``Answer``
record, built like them, whose content starts with that name, lowercased. ``DIRECTIVE_TYPES``, ``DirectiveEvent``, ``ANSWER_TYPES`` and
``capability_for_directive`` are read off it, as are the bounds that
``program.compile_ast`` builds and ``boundary.EFFECTFUL_VARIANTS``.

This module also owns the canonical textual encoding used by traces,
ledger entries, and mock and sampled answers: ``TAG{field=value,...}``
with fields in declaration order and no added whitespace. Delimiter
characters and backslashes inside string values are backslash-escaped so
the encoding stays injective. The template of each variant is read
once, from its fields, at import, and filled with its values by position.

Mock answers and checker samples are read off a SHA-256 digest of the
seed and the directive's encoding, with no generator seeded. Unit-answered
directives (``RecordStep``, ``Broadcast``, ``EmitEvent``, ``Observability``)
have the one answer ``None`` and hash nothing. A ``ResponseSampler`` derives
each directive's samples once and keeps them in a bounded table keyed by
the directive's encoding.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Union

from .itree import ITree, _new, own_type_eq, ret


@own_type_eq
class LLMCall(NamedTuple):
    model: str
    prompt: str


@own_type_eq
class HTTPRequest(NamedTuple):
    method: str
    url: str
    body: str


@own_type_eq
class FileOp(NamedTuple):
    op: str
    path: str


@own_type_eq
class CallMachine(NamedTuple):
    machine: str
    payload: str


@own_type_eq
class MemoryOp(NamedTuple):
    op: str
    key: str
    value: str


@own_type_eq
class DBOp(NamedTuple):
    query: str


@own_type_eq
class ExecOp(NamedTuple):
    command: str


@own_type_eq
class RecordStep(NamedTuple):
    step: str


@own_type_eq
class Broadcast(NamedTuple):
    channel: str
    message: str


@own_type_eq
class EmitEvent(NamedTuple):
    name: str
    payload: str


@own_type_eq
class GraphQLRequest(NamedTuple):
    endpoint: str
    query: str


@own_type_eq
class WebSocketOp(NamedTuple):
    op: str
    url: str
    message: str


@own_type_eq
class MCPCall(NamedTuple):
    server: str
    method: str


@own_type_eq
class Observability(NamedTuple):
    message: str


# The answer of every record-answered directive; unit-answered ones
# answer with None.
@own_type_eq
class Answer(NamedTuple):
    status: int
    content: str


class Capability(Enum):
    """The finite capability universe gating effectful directives."""

    LLM_REASON = "llm_reason"
    MEMORY = "memory"
    MACHINE_CALL = "machine_call"
    HTTP = "http"
    FILE = "file"
    DB = "db"
    EXEC = "exec"
    BROADCAST = "broadcast"
    WEBSOCKET = "websocket"


# variant: (name of its answer or None, capability or None)
SIGNATURE: dict[type, tuple[str | None, Capability | None]] = {
    LLMCall: ("LLMResponse", Capability.LLM_REASON),
    HTTPRequest: ("HTTPResponse", Capability.HTTP),
    FileOp: ("FileResult", Capability.FILE),
    CallMachine: ("CallMachineResult", Capability.MACHINE_CALL),
    MemoryOp: ("MemoryResult", Capability.MEMORY),
    DBOp: ("DBResult", Capability.DB),
    ExecOp: ("ExecResult", Capability.EXEC),
    RecordStep: (None, None),
    Broadcast: (None, Capability.BROADCAST),
    EmitEvent: (None, Capability.BROADCAST),
    GraphQLRequest: ("HTTPResponse", Capability.HTTP),
    WebSocketOp: ("WebSocketResult", Capability.WEBSOCKET),
    MCPCall: ("CallMachineResult", Capability.MACHINE_CALL),
    Observability: (None, None),
}

DIRECTIVE_TYPES = tuple(SIGNATURE)
DirectiveEvent = Union[DIRECTIVE_TYPES]
ANSWER_TYPES = {t: None if name is None else Answer for t, (name, _) in SIGNATURE.items()}
# The content prefix of each variant's answers: its answer's name, lowercased.
_PREFIXES = {t: None if name is None else name.lower() for t, (name, _) in SIGNATURE.items()}
_CAPABILITY_FOR = {t: cap for t, (_, cap) in SIGNATURE.items()}


def directive_tag(d: DirectiveEvent) -> str:
    """The variant name of a directive; injective over the 14 variants."""
    return type(d).__name__


def capability_for_directive(d: DirectiveEvent) -> Capability | None:
    """The capability a directive requires, or None for bookkeeping ones."""
    return _CAPABILITY_FOR[type(d)]


# Per directive type: its ``TAG{name=%s,...}`` template, fields in declaration order.
_LAYOUTS = {t: t.__name__ + "{" + ",".join(f"{f}=%s" for f in t._fields) + "}"
            for t in DIRECTIVE_TYPES}


# The last directive encoded and its encoding, as one tuple so that
# concurrent callers never pair one directive with another's encoding. A
# governed step encodes its directive for the trace and then again for the
# mock answer; directives are immutable, so one object has one encoding.
_last_encoded: tuple = (object(), "")


def encode_directive(d: DirectiveEvent) -> str:
    """Canonical text form ``TAG{field=value,...}``; injective.

    Each string value is escaped character by character: a backslash goes
    in front of ``\\``, ``{``, ``}``, ``,`` and ``=``, and a newline
    becomes ``\\n``. Other values are written with ``format``. Encoding
    the directive object just encoded again returns the same string.
    """
    global _last_encoded
    last = _last_encoded
    if last[0] is d:
        return last[1]
    enc = _encode(d)
    _last_encoded = (d, enc)
    return enc


def _encode(d: DirectiveEvent) -> str:
    values = []
    for v in d:  # by position: a NamedTuple's field names read slower
        if isinstance(v, str):
            # Backslashes first, so that the ones added after stay single.
            v = (v.replace("\\", "\\\\").replace("{", "\\{").replace("}", "\\}")
                 .replace(",", "\\,").replace("=", "\\=").replace("\n", "\\n"))
        else:
            v = f"{v}"
        values.append(v)
    return _LAYOUTS[type(d)] % tuple(values)


def _digest(*parts) -> bytes:
    return hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()


def derive_rng(*parts) -> random.Random:
    """A deterministic RNG keyed by the given parts, stable across runs."""
    return random.Random(int.from_bytes(_digest(*parts)[:8], "big"))


def _answer(prefix: str, *parts) -> Answer:
    """Status and content number from bytes 0-8 and 8-16 of the digest."""
    digest = _digest(*parts)
    status = 100 + int.from_bytes(digest[:8], "big") % 500
    n = int.from_bytes(digest[8:16], "big") % 1_000_000
    return _new(Answer, (status, f"{prefix}-{n}"))


def mock_answer(seed: int, d: DirectiveEvent):
    """The answer a seeded mock environment gives ``d``: ``None``, with no
    encoding or hashing, if ``d`` is unit-answered, else one read off the
    digest of the seed and the canonical encoding of ``d``."""
    prefix = _PREFIXES[type(d)]
    if prefix is None:
        return None
    return _answer(prefix, "mock", seed, encode_directive(d))


Handler = Callable[[DirectiveEvent], ITree]
_UNIT = ret(None)  # a forced tree never changes, so unit answers share one


def mock_handler(seed: int) -> Handler:
    """A pure base handler: answers every directive with ``mock_answer``.

    The returned trees contain no events; same seed and directive always
    produce the same answer.
    """
    return lambda d: _UNIT if (answer := mock_answer(seed, d)) is None else ret(answer)


# Entries a sampler's answer table holds before it is cleared: one sampler
# may serve a whole campaign, so the table must stay bounded.
SAMPLER_TABLE_SIZE = 4096


@dataclass(frozen=True)
class ResponseSampler:
    """Finite, deterministic answer sampling for directive events.

    Unit-answered directives have one answer, record-answered ones
    ``samples_per_event``: sample ``i`` is read off the digest of ``(seed,
    i, encoding)``. Used by checkers that quantify over answers.

    The checkers ask for the answers of the same directive many times, so
    each sampler keeps a table from a directive's canonical encoding to
    its answers, cleared whenever it reaches ``SAMPLER_TABLE_SIZE``
    entries. The key is the encoding, not the directive, because
    directive equality takes ``1 == True`` while the encoding, and so the
    answer stream, tells them apart. The table takes no part in equality,
    hashing or ``repr``.
    """

    seed: int = 0
    samples_per_event: int = 2
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def answers(self, event: DirectiveEvent) -> tuple:
        prefix = _PREFIXES[type(event)]
        if prefix is None:
            return (None,)
        enc = encode_directive(event)
        table = self._table
        found = table.get(enc)
        if found is None:
            if len(table) >= SAMPLER_TABLE_SIZE:
                table.clear()
            found = table[enc] = tuple(
                _answer(prefix, "sample", self.seed, i, enc)
                for i in range(self.samples_per_event)
            )
        return found
