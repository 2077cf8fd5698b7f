"""Trace extraction, the well-governed predicate, and trace composition."""

import random
from unittest.mock import ANY

import hypothesis.strategies as st
import pytest
from hypothesis import given

from govtree.directives import (
    DIRECTIVE_TYPES,
    FileOp,
    LLMCall,
    encode_directive,
    mock_handler,
)
from govtree.gen import gen_trace
from govtree.governance import DENYING, PERMISSIVE, govern, interpret_governed
from govtree.itree import Ret, ret, vis
from govtree.algebra import check_trace_of_bind
from govtree.trace import (
    GovEntry,
    IoEntry,
    format_trace,
    parse_trace,
    well_governed,
)

INPUT = {"op": "input"}
STATUS = {"op": "fst", "args": [INPUT]}  # an answer enters as (status, content)


def test_empty_trace_is_well_governed():
    assert well_governed(())


def test_check_then_io_is_well_governed():
    assert well_governed((GovEntry("LLMCall", True), IoEntry("LLMCall{model=m,prompt=p}")))


def test_bare_io_is_not_well_governed():
    assert not well_governed((IoEntry("FileOp{op=read,path=x}"),))


def test_failed_check_does_not_approve():
    assert not well_governed((GovEntry("FileOp", False), IoEntry("FileOp{op=read,path=x}")))


def test_an_approval_releases_only_its_own_tag():
    # a check on one stage does not launder I/O of another variant
    io = IoEntry("LLMCall{model=m,prompt=p}")
    assert not well_governed((GovEntry("Observability", True), io))
    assert not well_governed((GovEntry("LLMCall#h3", True), io))
    # a failing check leaves the last passing one standing, either way
    assert well_governed((GovEntry("LLMCall", True), GovEntry("Observability", False), io))
    assert not well_governed((GovEntry("Observability", True), GovEntry("LLMCall", False), io))
    # the tag ends at the first brace, whatever the fields hold
    assert well_governed((GovEntry("MemoryOp", True), IoEntry("MemoryOp{op=put,key=\\{,value=v}")))


def test_flag_resets_after_io_by_default():
    trace = (
        GovEntry("LLMCall", True),
        IoEntry("LLMCall{model=m,prompt=p}"),
        IoEntry("LLMCall{model=m,prompt=q}"),
    )
    assert not well_governed(trace)


@given(st.integers(0, 10000))
def test_prepending_checks_preserves_well_governedness(seed):
    rng = random.Random(seed)
    trace = gen_trace(rng, rng.randrange(6))
    if well_governed(trace):
        assert well_governed((GovEntry("LLMCall", rng.random() < 0.5),) + trace) or True
        # a non-passing prepended check cannot hurt; a passing one never does
        assert well_governed((GovEntry("LLMCall", True),) + trace)
        assert well_governed((GovEntry("LLMCall", False),) + trace) == well_governed(trace)


def test_trace_of_pure_run_is_empty():
    out = interpret_governed(govern(mock_handler(0)), PERMISSIVE, ret(1), 100)
    assert out.trace == ()


def test_trace_of_permitted_llm_call():
    d = LLMCall("m", "p")
    out = interpret_governed(
        govern(mock_handler(0)), PERMISSIVE, vis(d, lambda x: ret(None)), 1000
    )
    assert out.trace == (GovEntry("LLMCall", True), IoEntry(encode_directive(d)))


def test_trace_of_denied_file_op():
    d = FileOp("read", "/etc/passwd")
    out = interpret_governed(
        govern(mock_handler(0)), DENYING, vis(d, lambda x: ret(None)), 1000
    )
    assert out.trace == (GovEntry("FileOp", False),)


def test_entries_equal_only_entries_of_their_own_type():
    assert GovEntry("a", True) != ("a", True)
    assert not GovEntry("a", True) == ("a", True)
    assert ("a", True) != GovEntry("a", True)
    assert IoEntry("x") != Ret("x")
    assert not IoEntry("x") == Ret("x")
    assert Ret("x") != IoEntry("x")
    assert not Ret("x") == IoEntry("x")
    assert (Ret("x"),) != (IoEntry("x"),)
    assert (IoEntry("x"),) != (Ret("x"),)
    assert IoEntry("x") == ANY and GovEntry("a", True) == ANY  # other objects still decide
    assert IoEntry("x") != ("x",)
    assert GovEntry("a", 1) == GovEntry("a", True)
    assert not GovEntry("a", 1) != GovEntry("a", True)
    assert GovEntry("a", True) != GovEntry("a", False)
    assert IoEntry("x") == IoEntry("x") and IoEntry("x") != IoEntry("y")


def test_entries_hash_repr_and_immutability():
    g, io = GovEntry("LLMCall", True), IoEntry("DBOp{query=q}")
    assert hash(g) == hash(("LLMCall", True)) and hash(io) == hash(("DBOp{query=q}",))
    assert len({g, GovEntry("LLMCall", True), io, IoEntry("DBOp{query=q}")}) == 2
    assert repr(g) == "GovEntry(stage='LLMCall', passed=True)"
    assert repr(io) == "IoEntry(directive='DBOp{query=q}')"
    assert repr((g, io)) == (
        "(GovEntry(stage='LLMCall', passed=True), IoEntry(directive='DBOp{query=q}'))"
    )
    for entry, name in ((g, "stage"), (g, "passed"), (io, "directive")):
        with pytest.raises(AttributeError):
            setattr(entry, name, "changed")
        assert not hasattr(entry, "__dict__")


def test_trace_of_bind_pure():
    f = {"kind": "code", "expr": INPUT}
    g = {"kind": "code", "expr": {"op": "add", "args": [INPUT, {"op": "int", "value": 1}]}}
    v = check_trace_of_bind(f, g, 1, PERMISSIVE, mock_handler(0), 100)
    assert v.is_holds


def test_trace_of_bind_two_calls():
    f = {"kind": "reason", "model": "m", "prompt": {"op": "str", "value": "p"}, "extract": STATUS}
    g = {"kind": "call", "machine": "calc", "payload": INPUT, "extract": STATUS}
    v = check_trace_of_bind(f, g, None, PERMISSIVE, mock_handler(1), 1000)
    assert v.is_holds


def test_trace_of_bind_campaign():
    from govtree.gen import gen_input, gen_program_ast

    for i in range(200):
        rng = random.Random(i)
        f_ast = gen_program_ast(rng, max_depth=3, max_directives=3)
        x = gen_input(rng)
        k_ast = gen_program_ast(rng, max_depth=2, max_directives=2)
        v = check_trace_of_bind(f_ast, k_ast, x, PERMISSIVE, mock_handler(i), 100000)
        assert v.is_holds, (i, v.describe())


def test_every_governed_run_trace_is_well_governed():
    # 10,000 random programs and policies, zero violations
    from govtree.directives import derive_rng
    from govtree.gen import gen_input, gen_policy, gen_program_ast
    from govtree.program import compile_ast

    for i in range(10_000):
        rng = derive_rng("wg-campaign", i)
        ast = gen_program_ast(rng, max_depth=4, max_directives=4)
        policy = gen_policy(rng)
        out = interpret_governed(
            govern(mock_handler(rng.randrange(2**32))),
            policy,
            compile_ast(ast)(gen_input(rng)),
            100_000,
        )
        assert well_governed(out.trace), (i, out.trace)


def test_format_parse_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        trace = gen_trace(rng, rng.randrange(8))
        assert parse_trace(format_trace(trace)) == trace
    # the format is LF-only: other line breaks inside a field stay in it
    for sep in ("\r", "\x1c", "\x85", "\u2028"):
        d = LLMCall("m", f"one{sep}two")
        trace = (GovEntry("LLMCall", True), IoEntry(encode_directive(d)))
        assert parse_trace(format_trace(trace)) == trace


@st.composite
def unicode_traces(draw):
    """Traces of check entries and I/O entries of directives whose fields
    are any Unicode text."""
    events = []
    for _ in range(draw(st.integers(0, 6))):
        t = draw(st.sampled_from(DIRECTIVE_TYPES))
        if draw(st.booleans()):
            events.append(GovEntry(t.__name__, draw(st.booleans())))
        else:
            d = t(*[draw(st.text()) for _ in t._fields])
            events.append(IoEntry(encode_directive(d)))
    return tuple(events)


@given(unicode_traces())
def test_format_parse_round_trip_over_unicode(trace):
    assert parse_trace(format_trace(trace)) == trace


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace("WHAT is this\n")
    with pytest.raises(ValueError):
        parse_trace("GOV stage maybe\n")


@pytest.mark.parametrize("text, error", [
    ("\n", "line 1: empty line"),
    ("\n\n", "line 1: empty line"),
    ("GOV LLMCall pass\n\nIO LLMCall{model=m,prompt=p}\n", "line 2: empty line"),
    ("GOV LLMCall pass", "line 1: no LF at the end of the file"),
    ("GOV LLMCall pass\nIO LLMCall{model=m,prompt=p}", "line 2: no LF at the end of the file"),
], ids=["lf", "two-lfs", "inner-empty-line", "no-lf", "no-final-lf"])
def test_parse_reads_only_what_format_writes(text, error):
    # one text per trace, as for a ledger: empty, or LF-terminated with no empty line
    with pytest.raises(ValueError) as exc:
        parse_trace(text)
    assert str(exc.value) == error
    assert parse_trace("") == ()
