"""Event encoding, hash chaining, validity, and tamper detection."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from govtree.directives import DIRECTIVE_TYPES
from govtree.gen import gen_directive, gen_trace, gen_trace_event
from govtree.ledger import (
    GENESIS_HASH,
    LedgerEntry,
    Ledger,
    decode_event,
    encode_event,
    entry_hash,
    format_ledger,
    ledger_valid,
    parse_ledger,
    tamper_check,
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
    assert report.all_detected and report.mutations == 500


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
