"""Program file parsing, the expression language, and compilation."""

import itertools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from govtree.capability import cap_singleton
from govtree.directives import Capability, mock_handler
from govtree.gen import gen_expr, gen_input, gen_program_ast
from govtree.governance import PERMISSIVE, govern, interpret_governed
from govtree.itree import run_pure
from govtree.program import (
    Program,
    ProgramError,
    ast_caps,
    compile_ast,
    eval_expr,
    format_value,
    parse_program,
    serialize_program,
    to_bool,
    to_int,
    to_str,
    validate_ast,
    validate_expr,
)


def test_parse_minimal_program():
    p = parse_program('{"version": 1, "input": 3, "body": {"kind": "code", "expr": {"op": "input"}}}')
    assert p.input_value == 3
    assert run_pure(p.compile()(p.input_value), 10) == (True, 3)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ProgramError):
        parse_program('{"version": 1, "input": 0, "body": {"kind": "teleport"}}')


def test_parse_rejects_unknown_expression_op():
    with pytest.raises(ProgramError):
        validate_expr({"op": "frobnicate", "args": []})


def test_parse_rejects_bad_version_and_values():
    with pytest.raises(ProgramError):
        parse_program('{"version": 2, "input": 0, "body": {"kind": "code", "expr": {"op": "unit"}}}')
    with pytest.raises(ProgramError):
        parse_program('{"version": 1, "input": [1, 2, 3], "body": {"kind": "code", "expr": {"op": "unit"}}}')


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_parse_requires_the_integer_version_1(version):
    # both equal 1 in Python, but neither is the integer 1
    with pytest.raises(ProgramError):
        parse_program(
            '{"version": ' + version + ', "input": 0, "body": {"kind": "code", "expr": {"op": "unit"}}}'
        )


def test_pair_values_parse_as_tuples():
    p = parse_program(
        '{"version": 1, "input": [1, ["a", null]], "body": {"kind": "code", "expr": {"op": "input"}}}'
    )
    assert p.input_value == (1, ("a", None))


def test_coercions():
    assert to_int("abc") == 3 and to_int(True) == 1 and to_int(None) == 0
    assert to_int((2, "xy")) == 4
    assert to_str(7) == "7" and to_str((1, "a")) == "1:a" and to_str(None) == ""
    assert to_bool("") is False and to_bool((0, 0)) is True and to_bool(0) is False


def test_expression_totality_guards():
    assert eval_expr({"op": "mod", "args": [{"op": "int", "value": 5}, {"op": "int", "value": 0}]}, 0) == 0
    assert eval_expr({"op": "fst", "args": [{"op": "int", "value": 9}]}, 0) == 9


@given(st.integers(0, 10**9))
def test_generated_expressions_total_and_deterministic(seed):
    rng = random.Random(seed)
    expr = gen_expr(rng, depth=3)
    validate_expr(expr)
    x = gen_input(rng)
    assert eval_expr(expr, x) == eval_expr(expr, x)


def test_tensor_duplicates_non_pair_input():
    ast = {
        "kind": "tensor",
        "left": {"kind": "code", "expr": {"op": "input"}},
        "right": {"kind": "code", "expr": {"op": "input"}},
    }
    assert run_pure(compile_ast(ast)(5), 20) == (True, (5, 5))


def test_branch_compiles_to_one_arm():
    ast = {
        "kind": "branch",
        "pred": {"op": "lt", "args": [{"op": "input"}, {"op": "int", "value": 10}]},
        "then": {"kind": "code", "expr": {"op": "str", "value": "small"}},
        "else": {"kind": "code", "expr": {"op": "str", "value": "big"}},
    }
    assert run_pure(compile_ast(ast)(5), 20) == (True, "small")
    assert run_pure(compile_ast(ast)(50), 20) == (True, "big")


def test_register_machine_node_validation():
    bad = {"kind": "register_machine", "registers": 1, "fuel": 5, "program": [["decjz", 0, 9]]}
    with pytest.raises(ProgramError):
        validate_ast(bad)
    ok = {"kind": "register_machine", "registers": 1, "fuel": 5, "program": [["inc", 0], ["halt"]]}
    validate_ast(ok)
    out = interpret_governed(govern(mock_handler(0)), PERMISSIVE, compile_ast(ok)(None), 1000)
    assert out.completed and out.value is None
    assert len(out.trace) == 2  # one check, one observability io


def test_ast_caps():
    assert ast_caps({"kind": "code", "expr": {"op": "input"}}) == frozenset()
    reason_ast = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
                  "extract": {"op": "fst", "args": [{"op": "input"}]}}
    assert ast_caps(reason_ast) == cap_singleton(Capability.LLM_REASON)
    seq = {"kind": "seq", "steps": [
        reason_ast,
        {"kind": "call", "machine": "c", "payload": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
    ]}
    assert ast_caps(seq) == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))


def test_serialize_round_trip():
    for i in range(50):
        rng = random.Random(i)
        program = Program(gen_input(rng), gen_program_ast(rng, allow_register=True))
        text = serialize_program(program)
        again = parse_program(text)
        assert again == program


# Program values: ints, booleans, null, any Unicode text, and pairs of them.
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)


def with_texts(ast, texts):
    """``ast`` with each model, memory op, machine and string literal
    replaced by the next of ``texts``, in a fixed walk order."""
    if isinstance(ast, list):
        return [with_texts(a, texts) for a in ast]
    if not isinstance(ast, dict):
        return ast
    out = {k: with_texts(v, texts) for k, v in ast.items()}
    for key in ("model", "mop", "machine"):
        if key in out:
            out[key] = next(texts)
    if out.get("op") == "str":
        out["value"] = next(texts)
    return out


@given(st.integers(0, 2**32 - 1), VALUES, st.lists(st.text(), min_size=1))
def test_serialize_round_trip_over_unicode(seed, input_value, texts):
    ast = gen_program_ast(random.Random(seed), allow_register=True)
    program = Program(input_value, with_texts(ast, itertools.cycle(texts)))
    text = serialize_program(program)
    again = parse_program(text)
    # the text comparison also tells True from 1, which == does not
    assert again == program and serialize_program(again) == text


def test_format_value():
    assert format_value((1, ("a", None))) == '[1, ["a", null]]'
    assert format_value(7) == "7"
