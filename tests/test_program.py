"""Program file parsing, the expression language, and compilation."""

import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import govtree.program
from govtree.capability import (
    CapMorphism,
    cap_empty,
    cap_seq_compose,
    cap_singleton,
    cap_tensor,
    dual_guarantee_check,
    within_caps_check,
)
from govtree.category import DecJz, Halt, Inc, RegisterProgram
from govtree.directives import Capability, ResponseSampler, mock_handler
from govtree.gen import gen_expr, gen_input, gen_policy, gen_program_ast
from govtree.governance import PERMISSIVE, govern, interpret_governed
from govtree.itree import eutt_bounded, run_pure
from govtree.program import (
    Program,
    ProgramError,
    compile_ast,
    eval_expr,
    format_value,
    parse_program,
    serialize_program,
    to_bool,
    to_int,
    to_str,
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
        compile_ast(bad)
    ok = {"kind": "register_machine", "registers": 1, "fuel": 5, "program": [["inc", 0], ["halt"]]}
    compile_ast(ok)
    out = interpret_governed(govern(mock_handler(0)), PERMISSIVE, compile_ast(ok)(None), 1000)
    assert out.completed and out.value is None
    assert len(out.trace) == 2  # one check, one observability io


def test_ast_caps():
    assert compile_ast({"kind": "code", "expr": {"op": "input"}}).caps == frozenset()
    reason_ast = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
                  "extract": {"op": "fst", "args": [{"op": "input"}]}}
    assert compile_ast(reason_ast).caps == cap_singleton(Capability.LLM_REASON)
    seq = {"kind": "seq", "steps": [
        reason_ast,
        {"kind": "call", "machine": "c", "payload": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
    ]}
    compiled = compile_ast(seq)
    assert compiled.caps == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))
    assert type(compiled) is CapMorphism and compiled._fields == ("morph", "caps")
    assert Program(0, seq).caps() == compiled.caps


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


def test_compile_ast_makes_no_closure_cells():
    # A cell would be made on every call, whatever the node kind.
    assert compile_ast.__code__.co_cellvars == ()
    assert compile_ast.__code__.co_freevars == ()


def test_program_compiles_once_and_only_when_asked(monkeypatch):
    calls = []
    compile_node = govtree.program.compile_ast

    def counting(node):
        calls.append(node)
        return compile_node(node)

    monkeypatch.setattr(govtree.program, "compile_ast", counting)
    program = Program(0, gen_program_ast(random.Random(3), allow_register=True))
    assert calls == []
    parsed = parse_program(serialize_program(program))
    nodes = len(calls)
    assert nodes > 0
    assert parsed.compile() is parsed.compile()
    assert len(calls) == nodes  # parse_program kept the morphism it compiled
    morphism = program.compile()
    assert program.compile() is morphism and len(calls) == 2 * nodes


# --- one walk: compile_ast refuses what the separate validator refused ---------
#
# The oracle is the validator that ran before compiling did the checks: a
# second walk over the same grammar, raising the same messages in the same
# depth-first order.

_ORACLE_NODE_KINDS = (
    "code", "reason", "memory", "call", "seq", "tensor", "branch",
    "register_machine",
)


def _oracle_require_str(node, key):
    if not isinstance(node.get(key), str):
        raise ProgramError(f"{node.get('kind')} needs a string {key!r}")


def _oracle_register(node):
    registers = node.get("registers")
    fuel = node.get("fuel")
    listing = node.get("program")
    if type(registers) is not int or registers < 1:
        raise ProgramError("register_machine needs a positive register count")
    if type(fuel) is not int or fuel < 0:
        raise ProgramError("register_machine needs a non-negative fuel")
    if not isinstance(listing, list):
        raise ProgramError("register_machine needs an instruction list")
    instructions = []
    for ins in listing:
        if not isinstance(ins, list) or not ins:
            raise ProgramError(f"malformed instruction {ins!r}")
        name = ins[0]
        if name == "inc" and len(ins) == 2:
            instructions.append(Inc(ins[1]))
        elif name == "decjz" and len(ins) == 3:
            instructions.append(DecJz(ins[1], ins[2]))
        elif name == "halt" and len(ins) == 1:
            instructions.append(Halt())
        else:
            raise ProgramError(f"unknown instruction {ins!r}")
    try:
        RegisterProgram(tuple(instructions), registers)
    except ValueError as e:
        raise ProgramError(str(e)) from None


def _oracle_validate_ast(node):
    if not isinstance(node, dict) or "kind" not in node:
        raise ProgramError(f"node must be an object with a kind: {node!r}")
    kind = node["kind"]
    if kind not in _ORACLE_NODE_KINDS:
        raise ProgramError(f"unknown node kind {kind!r}")
    if kind == "code":
        validate_expr(node.get("expr"))
    elif kind == "reason":
        _oracle_require_str(node, "model")
        validate_expr(node.get("prompt"))
        validate_expr(node.get("extract"))
    elif kind == "memory":
        _oracle_require_str(node, "mop")
        validate_expr(node.get("key"))
        validate_expr(node.get("value"))
        validate_expr(node.get("extract"))
    elif kind == "call":
        _oracle_require_str(node, "machine")
        validate_expr(node.get("payload"))
        validate_expr(node.get("extract"))
    elif kind == "seq":
        steps = node.get("steps")
        if not isinstance(steps, list) or not steps:
            raise ProgramError("seq needs a nonempty list of steps")
        for s in steps:
            _oracle_validate_ast(s)
    elif kind == "tensor":
        _oracle_validate_ast(node.get("left"))
        _oracle_validate_ast(node.get("right"))
    elif kind == "branch":
        validate_expr(node.get("pred"))
        _oracle_validate_ast(node.get("then"))
        _oracle_validate_ast(node.get("else"))
    else:
        _oracle_register(node)


def _oracle_ast_caps(node):
    """The capability bound of a well-formed AST, by a walk of its own."""
    kind = node["kind"]
    if kind == "reason":
        return frozenset((Capability.LLM_REASON,))
    if kind == "memory":
        return frozenset((Capability.MEMORY,))
    if kind == "call":
        return frozenset((Capability.MACHINE_CALL,))
    if kind == "seq":
        return frozenset().union(*map(_oracle_ast_caps, node["steps"]))
    if kind == "tensor":
        return _oracle_ast_caps(node["left"]) | _oracle_ast_caps(node["right"])
    if kind == "branch":
        return _oracle_ast_caps(node["then"]) | _oracle_ast_caps(node["else"])
    return frozenset()


# What an edit writes: each value is wrong for some keys and right for others,
# so edits drop keys, change types, name unknown kinds and ops, give the wrong
# number of arguments, bad literals, empty steps and bad register listings.
EDIT_VALUES = st.sampled_from([
    None, 0, -1, 2, 1.5, True, "", "x", "teleport", "frobnicate",
    "code", "seq", "register_machine", "input", "int", "str", "add", "fst",
    "inc", "decjz", "halt",
    [], [0], [{"op": "input"}], [{"op": "input"}] * 3,
    [["inc", 0]], [["inc"]], [["decjz", 0, 9]], [["halt", 1]], [[]], ["inc"],
    [["inc", "x"]], [["inc", 0.5]], [["inc", True]], [["decjz", 0, None]],
    {}, {"op": "input"}, {"op": "int", "value": "7"}, {"op": "str", "value": 7},
    {"op": "frobnicate", "args": []}, {"op": "len", "args": []},
    {"kind": "code", "expr": {"op": "input"}}, {"kind": "teleport"}, {"kind": "seq", "steps": []},
])
EDIT_KEYS = (
    "kind", "op", "args", "value", "expr", "model", "prompt", "extract", "mop", "key",
    "machine", "payload", "steps", "left", "right", "pred", "then", "else",
    "registers", "fuel", "program",
)


def _containers(x):
    """Every dict and list in ``x``, ``x`` first, in a fixed order."""
    if isinstance(x, dict):
        children = list(x.values())
    elif isinstance(x, list):
        children = x
    else:
        return []
    return [x] + [c for child in children for c in _containers(child)]


@st.composite
def edited_asts(draw):
    ast = gen_program_ast(random.Random(draw(st.integers(0, 2**32 - 1))), allow_register=True)
    ast = json.loads(json.dumps(ast))  # no dict shared between two places
    for _ in range(draw(st.integers(0, 3))):
        site = draw(st.sampled_from(_containers(ast) or [None]))
        value = copy.deepcopy(draw(EDIT_VALUES))
        if site is None or draw(st.integers(0, 19)) == 0:
            ast = value  # the body itself
        elif isinstance(site, dict):
            # mostly a key the site has; sometimes one it may lack
            own = sorted(site) if site and draw(st.integers(0, 3)) else EDIT_KEYS
            key = draw(st.sampled_from(own))
            if key in site and draw(st.booleans()):
                del site[key]
            else:
                site[key] = value
        else:
            action = draw(st.sampled_from(("delete", "replace", "append")))
            if action != "append" and site:
                i = draw(st.integers(0, len(site) - 1))
                if action == "delete":
                    del site[i]
                else:
                    site[i] = value
            else:
                site.append(value)
    return ast


def _verdict(check, *args):
    try:
        check(*args)
    except ProgramError as e:
        return str(e)
    return "accepted"


@settings(max_examples=600)
@given(edited_asts(), st.integers(0, 99))
def test_compiling_refuses_what_the_validator_refused(ast, input_value):
    text = json.dumps({"version": 1, "input": input_value, "body": ast})
    body = json.loads(text)["body"]
    expected = _verdict(_oracle_validate_ast, body)
    assert _verdict(parse_program, text) == expected
    if expected == "accepted":
        assert parse_program(text).caps() == _oracle_ast_caps(body)


_STEP = {"kind": "code", "expr": {"op": "input"}}


def _machine(registers=1, fuel=1, program=None):
    return {"kind": "register_machine", "registers": registers, "fuel": fuel,
            "program": [["halt"]] if program is None else program}


# One body per refusal message, so each is reached whatever the edits draw.
@pytest.mark.parametrize("body", [
    [_STEP],
    {"kind": "teleport"},
    {"kind": "code"},
    {"kind": "code", "expr": {"op": "frobnicate", "args": []}},
    {"kind": "code", "expr": {"op": "len", "args": []}},
    {"kind": "code", "expr": {"op": "add", "args": [{"op": "input"}]}},
    {"kind": "code", "expr": {"op": "int", "value": "7"}},
    {"kind": "code", "expr": {"op": "str", "value": 7}},
    {"kind": "code", "expr": {"op": "int", "value": True}},
    {"kind": "reason", "prompt": {"op": "input"}, "extract": {"op": "input"}},
    {"kind": "memory", "mop": "put", "key": {"op": "input"}, "value": 3, "extract": {"op": "input"}},
    {"kind": "call", "machine": "calc", "payload": {"op": "input"}},
    {"kind": "seq", "steps": []},
    {"kind": "seq", "steps": _STEP},
    {"kind": "tensor", "left": _STEP},
    {"kind": "branch", "pred": {"op": "input"}, "then": _STEP, "else": {"kind": "teleport"}},
    _machine(registers=0),
    _machine(fuel=-1),
    # a boolean count or fuel is not an integer either
    _machine(registers=True, fuel=True),
    _machine(fuel=True),
    _machine(program="halt"),
    _machine(program=[[]]),
    _machine(program=[["jump", 0]]),
    _machine(program=[["inc", 1]]),
    _machine(program=[["decjz", 0, 5]]),
    # operands that are not integers: a string, a float, a boolean, null
    _machine(program=[["inc", "x"], ["halt"]]),
    _machine(program=[["inc", 0.5], ["halt"]]),
    _machine(program=[["inc", True], ["halt"]]),
    _machine(program=[["decjz", 0, None], ["halt"]]),
    # with two faults, the first in depth-first order is the one reported
    {"kind": "seq", "steps": [{"kind": "code", "expr": 1}, {"kind": "teleport"}]},
    {"kind": "tensor", "left": {"kind": "teleport"}, "right": {"kind": "code"}},
])
def test_compiling_refuses_each_malformed_shape(body):
    expected = _verdict(_oracle_validate_ast, body)
    assert expected != "accepted"
    text = json.dumps({"version": 1, "input": 0, "body": body})
    assert _verdict(parse_program, text) == expected


def test_compiled_caps_equal_the_oracle():
    rng = random.Random(5)
    kinds = set()
    for i in range(3000):
        ast = gen_program_ast(
            rng, max_depth=i % 7, max_directives=rng.randrange(0, 9), allow_register=True
        )
        compiled = compile_ast(ast)
        assert compiled.caps == _oracle_ast_caps(ast), i
        # every node kind is built by a capability constructor
        assert type(compiled) is CapMorphism, i
        assert compiled != tuple(compiled) and tuple(compiled) != compiled, i
        kinds.add(ast["kind"])
    assert len(kinds) == 8  # every kind at the root


@pytest.mark.parametrize("body", [
    {"kind": "bogus"},
    {"kind": "seq"},
    [_STEP],
    {"kind": "tensor", "left": {"kind": "reason"}, "right": _STEP},
    {"kind": "branch", "pred": {"op": "input"}, "then": _STEP},
])
def test_caps_of_a_malformed_body_is_the_compilers_error(body):
    with pytest.raises(ProgramError) as compiled:
        compile_ast(body)
    with pytest.raises(ProgramError) as bound:
        Program(0, body).caps()
    assert str(bound.value) == str(compiled.value)


# --- the paper's claims on compiled programs ---------------------------------

SAMPLER = ResponseSampler(seed=0)


def test_empty_bound_programs_emit_only_bookkeeping():
    rng = random.Random(17)
    empty = 0
    for _ in range(400):
        ast = gen_program_ast(rng, allow_register=True)
        m = compile_ast(ast)
        if m.caps == cap_empty():
            empty += 1
            assert within_caps_check(cap_empty(), m(gen_input(rng)), 4096, SAMPLER).is_holds
    assert empty >= 100


def test_dual_guarantee_holds_on_compiled_programs():
    rng = random.Random(19)
    effectful = decided = 0
    for i in range(500):
        m = compile_ast(gen_program_ast(rng, max_depth=3, max_directives=3, allow_register=True))
        verdict = dual_guarantee_check(
            m, mock_handler(i), gen_policy(rng), [gen_input(rng)], 256, SAMPLER
        )
        assert not verdict.is_fails, (i, verdict.describe())
        effectful += bool(m.caps)
        decided += verdict.is_holds
    assert effectful >= 200 and decided >= 400  # not vacuous


def test_cap_composition_of_compiled_programs_carries_the_oracle_bound():
    rng = random.Random(23)
    for i in range(300):
        left, right = gen_program_ast(rng, max_depth=3), gen_program_ast(rng, max_depth=3)
        third = gen_program_ast(rng, max_depth=3)
        f, g, h = compile_ast(left), compile_ast(right), compile_ast(third)
        seq = cap_seq_compose(f, g)
        par = cap_tensor(f, g)
        assert seq.caps == _oracle_ast_caps({"kind": "seq", "steps": [left, right]})
        assert par.caps == _oracle_ast_caps({"kind": "tensor", "left": left, "right": right})
        # n-ary composition is the left-nested binary one: same bound, same tree
        flat, nested = cap_seq_compose(f, g, h), cap_seq_compose(seq, h)
        assert flat.caps == nested.caps == _oracle_ast_caps(
            {"kind": "seq", "steps": [left, right, third]}
        )
        a = gen_input(rng)
        assert eutt_bounded(flat(a), nested(a), 256, SAMPLER).is_holds, i
