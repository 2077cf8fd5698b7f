"""Event encoding, hash chaining, validity, and tamper detection."""

import binascii
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from govtree.algebra import tamper_check
from govtree.directives import DIRECTIVE_TYPES
from govtree.gen import gen_directive, gen_trace, gen_trace_event
from govtree.ledger import (
    GENESIS_HASH,
    LEDGER_HEADER,
    LedgerEntry,
    Ledger,
    _substitute,
    decode_event,
    encode_event,
    entry_hash,
    format_ledger,
    ledger_valid,
    parse_ledger,
    trace_to_ledger,
)
from govtree.trace import GovEntry, IoEntry
from govtree.directives import encode_directive


def test_encoding_distinct_for_all_io_tags():
    rng = random.Random(0)
    events = [IoEntry(encode_directive(gen_directive(rng, t.__name__))) for t in DIRECTIVE_TYPES]
    encodings = {encode_event(ev) for ev in events}
    assert len(encodings) == 14


def test_pass_bit_distinguishes_checks():
    assert encode_event(GovEntry("s", True)) != encode_event(GovEntry("s", False))


@given(st.integers(0, 10**9))
def test_encode_decode_round_trip(seed):
    ev = gen_trace_event(random.Random(seed))
    assert decode_event(encode_event(ev)) == ev


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        decode_event(b"")
    with pytest.raises(ValueError):
        decode_event(b"\x07\x00\x00\x00\x01x")
    with pytest.raises(ValueError):
        decode_event(encode_event(GovEntry("s", True)) + b"junk")
    with pytest.raises(ValueError):
        decode_event(encode_event(IoEntry("DBOp{query=q}"))[:-1])


def test_empty_trace_gives_valid_empty_ledger():
    ledger = trace_to_ledger(())
    assert ledger.entries == ()
    assert ledger_valid(ledger) == (True, None)


def test_chain_links():
    trace = (GovEntry("LLMCall", True), IoEntry("LLMCall{model=m,prompt=p}"))
    ledger = trace_to_ledger(trace)
    assert len(ledger.entries) == 2
    assert ledger.entries[0].prev_hash == GENESIS_HASH
    assert ledger.entries[1].prev_hash == ledger.entries[0].hash
    assert ledger.entries[1].hash == entry_hash(
        ledger.entries[0].hash, ledger.entries[1].data
    )
    assert ledger_valid(ledger) == (True, None)


def test_ledger_completeness_positional():
    rng = random.Random(2)
    for _ in range(200):
        trace = gen_trace(rng, rng.randrange(10))
        ledger = trace_to_ledger(trace)
        assert ledger.events() == trace
        for ev in trace:
            assert any(e.event == ev for e in ledger.entries)
        for e in ledger.entries:
            assert e.event in trace
        assert ledger_valid(ledger) == (True, None)


def test_corrupting_hash_invalidates_at_index():
    trace = gen_trace(random.Random(3), 5)
    ledger = trace_to_ledger(trace)
    bad = list(ledger.entries)
    e = bad[1]
    flipped = bytes([e.hash[0] ^ 1]) + e.hash[1:]
    bad[1] = LedgerEntry(e.event, e.data, e.prev_hash, flipped)
    ok, index = ledger_valid(Ledger(tuple(bad)))
    assert not ok and index == 1


def test_event_substitution_detected():
    trace = (GovEntry("LLMCall", True), GovEntry("FileOp", False), IoEntry("DBOp{query=q}"))
    ledger = trace_to_ledger(trace)
    bad = list(ledger.entries)
    e = bad[0]
    bad[0] = LedgerEntry(GovEntry("LLMCall", False), e.data, e.prev_hash, e.hash)
    ok, index = ledger_valid(Ledger(tuple(bad)))
    assert not ok and index == 0
    # replacing an io tag with a different one, data kept consistent
    e2 = ledger.entries[2]
    bad2 = list(ledger.entries)
    new_event = IoEntry("ExecOp{command=q}")
    bad2[2] = LedgerEntry(new_event, encode_event(new_event), e2.prev_hash, e2.hash)
    ok2, index2 = ledger_valid(Ledger(tuple(bad2)))
    assert not ok2 and index2 == 2


def test_tamper_check_detects_everything():
    rng = random.Random(4)
    ledger = trace_to_ledger(gen_trace(rng, 8))
    report = tamper_check(ledger, mutations=500, seed=9)
    assert report.passed and report.trials == 500


def test_tamper_check_requires_entries():
    with pytest.raises(ValueError):
        tamper_check(trace_to_ledger(()), 10, 0)


def test_file_format_round_trip():
    trace = gen_trace(random.Random(5), 6)
    ledger = trace_to_ledger(trace)
    text = format_ledger(ledger)
    assert text.splitlines()[0] == "GOVLEDGER v1 sha256"
    parsed = parse_ledger(text)
    assert parsed == ledger
    assert ledger_valid(parsed) == (True, None)


def test_parse_rejects_missing_header():
    with pytest.raises(ValueError):
        parse_ledger("nope\n")


def test_well_governed_traces_produce_valid_ledgers():
    from govtree.directives import mock_handler
    from govtree.gen import gen_input, gen_program_ast
    from govtree.governance import PERMISSIVE, govern, interpret_governed
    from govtree.program import compile_ast
    from govtree.trace import well_governed

    for i in range(100):
        rng = random.Random(i)
        ast = gen_program_ast(rng)
        out = interpret_governed(
            govern(mock_handler(i)), PERMISSIVE, compile_ast(ast)(gen_input(rng)), 100000
        )
        assert well_governed(out.trace)
        assert ledger_valid(trace_to_ledger(out.trace)) == (True, None)


trace_events = st.one_of(
    st.builds(GovEntry, st.text(), st.booleans()),
    st.builds(IoEntry, st.text()),
)


@given(trace_events)
def test_encode_decode_round_trip_over_unicode(ev):
    assert decode_event(encode_event(ev)) == ev


@given(st.lists(trace_events, max_size=12))
def test_file_format_round_trip_over_unicode(events):
    ledger = trace_to_ledger(events)
    assert parse_ledger(format_ledger(ledger)) == ledger
    assert ledger_valid(ledger) == (True, None)


def one_entry_ledger_text():
    return format_ledger(trace_to_ledger((IoEntry("DBOp{query=q}"),)))


@pytest.mark.parametrize("column, corrupt", [
    (2, lambda data: data + "é"),  # non-ASCII in the base64 field
    (2, lambda data: data[:4] + "*" + data[4:]),  # not a base64 digit
    (2, lambda data: data[:-1]),  # an incomplete quad
    (0, lambda hex_hash: hex_hash[:-1]),  # odd-length hex
    (1, lambda hex_hash: "zz" + hex_hash[2:]),  # not a hex digit
])
def test_parse_rejects_malformed_fields(column, corrupt):
    header, line = one_entry_ledger_text().splitlines()
    fields = line.split(" ")
    fields[column] = corrupt(fields[column])
    with pytest.raises(ValueError):
        parse_ledger(f"{header}\n{' '.join(fields)}\n")


# --- parse once, verify over stored bytes ---------------------------------------
#
# The reference codec below is the straightforward one: every field parsed,
# every event decoded and every entry re-encoded on verification. The
# optimised parser and verifier must agree with it on every text.

def _reference_decode_event(data):
    if len(data) < 5:
        raise ValueError("truncated event data")
    kind, n = struct.unpack_from(">BI", data)
    end = 5 + n
    raw = data[5:end]
    if len(raw) != n:
        raise ValueError("truncated event field")
    text = raw.decode("utf-8")
    if kind == 0x02:
        if len(data) != end:
            raise ValueError("trailing bytes after io entry")
        return IoEntry(text)
    if kind == 0x01:
        if len(data) != end + 1 or data[end] > 1:
            raise ValueError("malformed governance entry")
        return GovEntry(text, data[end] == 1)
    raise ValueError(f"unknown event type byte {kind:#x}")


def _reference_parse_ledger(text):
    # every line ends in LF and none is empty, so the text after the last
    # LF is empty and no other piece of the split is
    lines = text.split("\n")
    if lines[0] != LEDGER_HEADER:
        raise ValueError("missing ledger header")
    entries = []
    for line_no, line in enumerate(lines[1:-1], 2):
        if not line:
            raise ValueError(f"line {line_no}: empty line")
        parts = line.split(" ")
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: malformed ledger entry")
        for field in parts[:2]:
            if not re.fullmatch("[0-9a-f]{64}", field):
                raise ValueError(f"line {line_no}: hash field is not 64 lowercase hex digits")
        prev_hash = bytes.fromhex(parts[0])
        h = bytes.fromhex(parts[1])
        try:
            data = binascii.a2b_base64(parts[2], strict_mode=True)
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
        if binascii.b2a_base64(data, newline=False).decode("ascii") != parts[2]:
            raise ValueError(f"line {line_no}: base64 field has nonzero padding bits")
        try:
            event = _reference_decode_event(data)
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
        entries.append(LedgerEntry(event, data, prev_hash, h))
    if lines[-1]:
        raise ValueError(f"line {len(lines)}: no LF at the end of the file")
    return Ledger(tuple(entries))


def _reference_ledger_valid(ledger):
    prev = GENESIS_HASH
    for i, entry in enumerate(ledger.entries):
        if (entry.prev_hash != prev or entry.data != encode_event(entry.event)
                or entry.hash != entry_hash(entry.prev_hash, entry.data)):
            return False, i
        prev = entry.hash
    return True, None


def _reference_format_ledger(ledger):
    lines = [LEDGER_HEADER]
    for e in ledger.entries:
        lines.append(
            f"{e.prev_hash.hex()} {e.hash.hex()} "
            f"{binascii.b2a_base64(e.data, newline=False).decode('ascii')}"
        )
    return "".join(line + "\n" for line in lines)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as e:
        return type(e), str(e)


# Characters that matter to the format: hex digits of both cases, base64
# digits and padding, the field and line separators, and what must be refused.
EDIT_CHARS = st.sampled_from(list("0aAfF9z+/= \t\r\n\x00é "))


@st.composite
def edited_ledger_texts(draw):
    events = draw(st.lists(trace_events, max_size=5))
    # events repeat in real ledgers (one governance check per stage)
    events += draw(st.lists(st.sampled_from(events), max_size=3)) if events else []
    text = format_ledger(trace_to_ledger(events))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("change", "insert", "delete", "duplicate", "upper", "dup-line", "blank-line")
        ))
        # the header is refused whole; edit the entry lines
        i = draw(st.integers(min(len(LEDGER_HEADER) + 1, len(text) - 1), len(text) - 1))
        if kind == "change" and text:
            text = text[:i] + draw(EDIT_CHARS) + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + draw(EDIT_CHARS) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        elif kind == "duplicate":
            text = text[:i] + text[i:i + 1] + text[i:]
        elif kind == "upper":
            j = draw(st.integers(i, len(text)))
            text = text[:i] + text[i:j].upper() + text[j:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
            lines.insert(k, lines[k] if kind == "dup-line" else "")
            text = "\n".join(lines)
    return text


@settings(max_examples=400)
@given(edited_ledger_texts())
def test_parse_ledger_agrees_with_reference_parser(text):
    got, expected = _outcome(parse_ledger, text), _outcome(_reference_parse_ledger, text)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    if got[0] == "ok":
        assert ledger_valid(got[1]) == _reference_ledger_valid(expected[1])


@st.composite
def event_bytes(draw):
    """Byte strings near the event encoding: a type byte, a length that may
    be off, UTF-8 or arbitrary bytes, and an optional trailing byte."""
    kind = draw(st.integers(0, 3))
    raw = draw(st.one_of(st.text().map(lambda s: s.encode("utf-8")), st.binary(max_size=8)))
    n = len(raw) + draw(st.sampled_from((0, 0, 0, -1, 1)))
    tail = draw(st.sampled_from((b"", b"", b"\x00", b"\x01", b"\x02")))
    return struct.pack(">BI", kind, max(n, 0)) + raw + tail


@settings(max_examples=500)
@given(st.one_of(event_bytes(), st.binary(max_size=12)))
def test_encode_inverts_decode_on_every_accepted_byte_string(data):
    try:
        ev = decode_event(data)
    except ValueError:
        return
    assert encode_event(ev) == data


def _parsed(n, seed):
    return parse_ledger(format_ledger(trace_to_ledger(gen_trace(random.Random(seed), n))))


@pytest.mark.parametrize("keep_data", [True, False])
def test_parsed_ledger_with_a_substituted_entry_is_rejected_there(keep_data):
    rng = random.Random(6)
    for trial in range(60):
        parsed = _parsed(6, trial)
        assert ledger_valid(parsed) == (True, None)
        idx = rng.randrange(6)
        new_event = gen_trace_event(rng)
        while new_event == parsed.entries[idx].event:
            new_event = gen_trace_event(rng)
        mutated = _substitute(list(parsed.entries), idx, new_event, keep_data)
        assert ledger_valid(mutated) == _reference_ledger_valid(mutated) == (False, idx)


def test_ledger_rebuilt_from_parsed_entries_is_checked_event_against_data():
    parsed = _parsed(5, 11)
    assert ledger_valid(Ledger(parsed.entries)) == (True, None)
    for idx in range(5):
        entries = list(parsed.entries)
        e = entries[idx]
        flipped = GovEntry(e.event.stage, not e.event.passed) if type(e.event) is GovEntry \
            else IoEntry(e.event.directive + "x")
        entries[idx] = e._replace(event=flipped)
        rebuilt = Ledger(tuple(entries))
        assert ledger_valid(rebuilt) == _reference_ledger_valid(rebuilt) == (False, idx)


def test_tamper_check_reports_on_parsed_and_built_ledgers():
    for seed in range(5):
        built = trace_to_ledger(gen_trace(random.Random(seed), 8))
        parsed = parse_ledger(format_ledger(built))
        for ledger in (built, parsed):
            report = tamper_check(ledger, mutations=200, seed=seed)
            assert report.fails == report.trials == 200


@pytest.mark.parametrize("seed", range(20))
def test_format_ledger_writes_every_stored_link(seed):
    # dropped, swapped and rewritten entries break the chain; each line
    # must still carry its own entry's prev_hash, not the line before's hash
    rng = random.Random(seed)
    entries = list(trace_to_ledger(gen_trace(rng, 6)).entries)
    i, j = sorted(rng.sample(range(len(entries)), 2))
    for broken in (
        entries[:i] + entries[i + 1:],
        entries[:i] + [entries[j]] + entries[i + 1:j] + [entries[i]] + entries[j + 1:],
        entries[:i] + [entries[i]._replace(prev_hash=rng.randbytes(32))] + entries[i + 1:],
        [entries[0]._replace(prev_hash=entries[1].hash)] + entries[1:],
    ):
        ledger = Ledger(tuple(broken))
        text = format_ledger(ledger)
        assert text == _reference_format_ledger(ledger)
        parsed = parse_ledger(text)
        assert parsed == ledger
        assert ledger_valid(parsed) == _reference_ledger_valid(ledger)


def test_every_pinned_ledger_text_verifies():
    from test_pinned_runs import PINNED_RUNS, PINNED_TAU_RUNS

    texts = [pinned[4] for pinned in (*PINNED_RUNS.values(), *PINNED_TAU_RUNS.values())]
    for text in texts:
        assert ledger_valid(parse_ledger(text)) == (True, None)


def test_importing_the_ledger_loads_no_generator_or_campaign():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, govtree.ledger; "
             "print(sorted({'govtree.gen', 'govtree.algebra'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout == "[]\n"
