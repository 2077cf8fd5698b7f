"""Program file parsing, the expression language, and compilation."""

import copy
import enum
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import govtree.program
from govtree import reference
from govtree.boundary import register_tree_steps
from govtree.capability import (
    CapMorphism,
    cap_empty,
    cap_singleton,
    dual_guarantee_check,
    within_caps_check,
)
from govtree.directives import Capability, ResponseSampler, mock_handler
from govtree.gen import gen_expr, gen_input, gen_policy, gen_program_ast, gen_register_ast
from govtree.governance import PERMISSIVE, govern, interpret_governed
from govtree.itree import eutt_bounded, run_pure
from govtree.program import (
    Program,
    ProgramError,
    compile_ast,
    compile_expr,
    eval_form,
    format_value,
    parse_program,
    serialize_program,
    to_bool,
    to_int,
    to_str,
    value_to_json,
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
        compile_expr({"op": "frobnicate", "args": []}, {})


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


def _value(expr, x):
    """The value of ``expr`` on ``x``, compiled alone."""
    return eval_form(compile_expr(expr, {}), x)


def test_expression_totality_guards():
    assert _value({"op": "mod", "args": [{"op": "int", "value": 5}, {"op": "int", "value": 0}]}, 0) == 0
    assert _value({"op": "fst", "args": [{"op": "int", "value": 9}]}, 0) == 9


@given(st.integers(0, 10**9))
def test_generated_expressions_total_and_deterministic(seed):
    rng = random.Random(seed)
    form = compile_expr(gen_expr(rng, depth=3), {})
    x = gen_input(rng)
    assert eval_form(form, x) == eval_form(form, x)


# Values of every type the language has: negative ints, booleans, empty and
# other strings, unit, and pairs nested on either side.
_VALUE_POOL = (
    -7, -1, 0, 2, True, False, "", "ab", "x:y", None,
    (1, "a"), (-3, (True, "")), ((None, 4), ("z", False)),
)


def _same(a, b):
    """Equal values of equal types; pairs are compared part by part."""
    if type(a) is not type(b):
        return False
    return all(map(_same, a, b)) if type(a) is tuple else a == b


def _every_op_on_the_pool():
    """(expression, input) pairs: each op of the grammar applied to the pool,
    a binary op to every ordered pair of pool values."""
    arg = {"op": "input"}
    halves = [{"op": "fst", "args": [arg]}, {"op": "snd", "args": [arg]}]
    yield {"op": "unit"}, 0
    yield from (({"op": "int", "value": v}, None) for v in (-7, 0, 5))
    yield from (({"op": "str", "value": v}, None) for v in ("", "ab"))
    for op, arity in _ORACLE_ARITY.items():
        if arity == 0:
            continue
        if arity == 1:
            cases = (({"op": op, "args": [arg]}, v) for v in _VALUE_POOL)
        else:
            cases = (({"op": op, "args": halves}, pair)
                     for pair in itertools.product(_VALUE_POOL, repeat=2))
        yield from cases
    yield from ((arg, v) for v in _VALUE_POOL)


def test_every_expression_op_agrees_with_the_reference_evaluator():
    seen = set()
    for expr, x in _every_op_on_the_pool():
        got, want = _value(expr, x), reference._eval(expr, x)
        assert _same(got, want), (expr, x, got, want)
        seen.add(expr["op"])
    assert seen == set(_ORACLE_ARITY)


# Edits of one expression: a field set to a value of the wrong type, an
# unknown or misplaced op, the wrong number of arguments, or dropped.
_EXPR_EDITS = (
    None, 0, -1, 1.5, True, "", "x", "\ud800", "frobnicate", "input", "int", "str", "unit",
    "add", "fst", "not", [], [0], [{"op": "input"}], [{"op": "input"}] * 3, {},
    {"op": "input"}, {"op": "int", "value": "7"}, {"op": "str", "value": 7},
    {"op": "int", "value": False}, {"op": "len", "args": []},
)


def _edited_expr(rng):
    expr = gen_expr(rng, depth=3)
    for _ in range(rng.randrange(1, 3)):
        site = rng.choice(_containers(expr))
        value = copy.deepcopy(rng.choice(_EXPR_EDITS))
        if isinstance(site, dict):
            key = rng.choice(("op", "args", "value"))
            if key in site and rng.random() < 0.3:
                del site[key]
            else:
                site[key] = value
        elif site:
            site[rng.randrange(len(site))] = value
    return expr


def test_expression_semantics_are_pinned():
    # 20,000 generated expressions on every pool value, then 2,000 edited
    # ones: each refusal agrees with the oracle, and the digests hold every
    # value by repr (so 1 and True differ) and every refusal message
    rng = random.Random(28)
    values = hashlib.sha256()
    for _ in range(20_000):
        form = compile_expr(gen_expr(rng, depth=3), {})
        values.update("|".join(repr(eval_form(form, x)) for x in _VALUE_POOL).encode() + b"\n")
    refusals = hashlib.sha256()
    for _ in range(2_000):
        expr = _edited_expr(rng)
        text, expected = repr(expr), _verdict(_oracle_expr, expr)
        try:
            form = compile_expr(expr, {})
        except ProgramError as e:
            assert str(e) == expected, text
            outcome = f"refused {e}"
        else:
            assert expected == "accepted", text
            outcome = "|".join(repr(eval_form(form, x)) for x in _VALUE_POOL)
        refusals.update(f"{text}\n{outcome}\n".encode())
    assert (values.hexdigest(), refusals.hexdigest()) == (
        "e41ff79bec3e2339e69597c7bd0a368beba9e75d932a0d46f873befe2e762b88",
        "91cda1347e3a6cf0011d05c015dddd29870442c5b41a414dca24cc5426ef30a5",
    )


def _reachable(code):
    """Every object reachable from ``code`` through tuples, ``code`` first."""
    out, todo = [], [code]
    while todo:
        x = todo.pop()
        out.append(x)
        if type(x) is tuple:
            todo.extend(x)
    return out


def _code(morphism):
    return morphism.morph.args[0]


def test_compiled_code_holds_no_expression_dict():
    # the machine reads compiled forms only, never a program file's dicts
    rng = random.Random(31)
    for i in range(300):
        code = _code(compile_ast(gen_program_ast(rng, allow_register=True)))
        assert not any(type(x) is dict for x in _reachable(code)), i


def test_equal_expressions_compile_to_one_form_per_parse():
    extract = {"op": "add", "args": [{"op": "fst", "args": [{"op": "input"}]},
                                     {"op": "len", "args": [{"op": "snd", "args": [{"op": "input"}]}]}]}
    step = {"kind": "call", "machine": "calc", "payload": {"op": "input"}, "extract": extract}
    text = json.dumps({"version": 1, "input": 0, "body": {"kind": "seq", "steps": [step] * 1600}})
    first, second = (_code(parse_program(text).compile()) for _ in range(2))
    extracts = {id(ins[1]) for ins in first[1:] if ins[0] == govtree.program._EXTRACT}
    assert len(extracts) == 1
    # no table outlives its parse: the two parses share no compiled form
    forms = [{id(x) for ins in c[1:] for x in _reachable(ins)[1:] if type(x) is tuple}
             for c in (first, second)]
    assert forms[0] and not forms[0] & forms[1]


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


def dumps_text(program: Program) -> str:
    """The canonical text as ``json.dumps`` writes it, its pure-Python
    encoder being the one that honours ``indent``."""
    doc = {"version": 1, "input": value_to_json(program.input_value), "body": program.body}
    return json.dumps(doc, indent=2) + "\n"


def test_serializer_agrees_with_json_dumps_on_generated_programs():
    rng = random.Random(2024)
    for i in range(2000):
        ast = gen_program_ast(rng, allow_register=i % 2 == 0, force_effectful=i % 3 == 0)
        program = Program(gen_input(rng), ast)
        assert serialize_program(program) == dumps_text(program), i


CODE = {"kind": "code", "expr": {"op": "input"}}
Tag = enum.IntEnum("Tag", "A B")
EDGE_PROGRAMS = {
    "text": Program(
        "caf\u00e9 \u2028 \U0001f600 \ud800 \x00\x1f\x7f \" \\ \t\n",
        {"kind": "reason", "model": "m\u00fc\"\\", "prompt": {"op": "str", "value": "\udfff\r"},
         "extract": {"op": "input"}},
    ),
    "empty containers": Program(None, {**CODE, "note": [], "meta": {}, "deeper": [[], {}, [{}]]}),
    "bools next to ints": Program(
        (True, (1, False)),
        {"kind": "code", "expr": {"op": "int", "value": 0}, "flags": [True, 1, False, 0, None]},
    ),
    "a 40-digit int": Program(10**40 - 1, {"kind": "code", "expr": {"op": "int", "value": -10**39}}),
    "nested pairs": Program(
        ((1, ("a", None)), (True, ((2, 3), ""))),
        {"kind": "code", "expr": {"op": "pair", "args": [CODE["expr"], CODE["expr"]]}},
    ),
    "keys json converts": Program(0, {**CODE, "note": {3: "a", None: "b", False: "c", 2.5: "d"}}),
    "a tuple and an int subclass": Program(0, {**CODE, "note": (Tag.B, ("x",))}),
}


@pytest.mark.parametrize("name", EDGE_PROGRAMS)
def test_serializer_agrees_with_json_dumps_on_edge_values(name):
    program = EDGE_PROGRAMS[name]
    assert serialize_program(program) == dumps_text(program)


def test_serializer_writes_json_float_spellings_from_a_parsed_body():
    text = ('{"version": 1, "input": 0, "body": {"kind": "code", "expr": {"op": "input"}, '
            '"note": [NaN, Infinity, -Infinity, 1.5, -0.0, 1e300]}}')
    program = parse_program(text)  # compile_ast ignores the note
    written = serialize_program(program)
    assert written == dumps_text(program)
    assert '"note": [\n      NaN,\n      Infinity,\n      -Infinity,\n      1.5,' in written


def test_serializer_writes_the_deepest_seq_parse_program_accepts():
    def document(n):
        body = '{"kind": "seq", "steps": [' * n + json.dumps(CODE) + "]}" * n
        return f'{{"version": 1, "input": 0, "body": {body}}}'

    def accepted(n):
        try:
            parse_program(document(n))
        except ProgramError:
            return False
        return True

    lo, hi = 1, 1024  # accepted(lo) and not accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    program = parse_program(document(lo))
    assert lo > 400 and serialize_program(program) == dumps_text(program)


def test_serializer_refuses_what_json_refuses():
    program = Program(0, {**CODE, "tags": {1, 2}})
    with pytest.raises(TypeError):
        dumps_text(program)
    with pytest.raises(TypeError):
        serialize_program(program)


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
# depth-first order. It calls no checking code of ``program``'s own.

_ORACLE_NODE_KINDS = (
    "code", "reason", "memory", "call", "seq", "tensor", "branch",
    "register_machine",
)


_ORACLE_ARITY = {
    **dict.fromkeys(("input", "int", "str", "unit"), 0),
    **dict.fromkeys(("fst", "snd", "len", "not"), 1),
    **dict.fromkeys(("add", "sub", "mul", "mod", "concat", "pair", "eq", "lt", "and", "or"), 2),
}


def _oracle_expr(expr):
    if not isinstance(expr, dict) or "op" not in expr:
        raise ProgramError(f"expression must be an object with an op: {expr!r}")
    op = expr["op"]
    arity = _ORACLE_ARITY.get(op) if type(op) is str else None
    if arity is None:
        raise ProgramError(f"unknown expression op {op!r}")
    if op == "int" and type(expr.get("value")) is not int:
        raise ProgramError("int literal needs an integer value")
    if op == "str":
        if not isinstance(expr.get("value"), str):
            raise ProgramError("str literal needs a string value")
        try:
            expr["value"].encode("utf-8")
        except UnicodeEncodeError:
            raise ProgramError("str literal holds an unpaired surrogate") from None
    if arity == 0:
        return
    args = expr.get("args")
    if not isinstance(args, list) or len(args) != arity:
        raise ProgramError(f"{op} takes {'one argument' if arity == 1 else 'two arguments'}")
    for a in args:
        _oracle_expr(a)


def _oracle_require_str(node, key):
    if not isinstance(node.get(key), str):
        raise ProgramError(f"{node.get('kind')} needs a string {key!r}")


def _oracle_register(node):
    registers = node.get("registers")
    fuel = node.get("fuel")
    listing = node.get("program")
    if type(registers) is not int or registers < 1:
        raise ProgramError("register_machine needs a positive register count")
    if registers > 64:
        raise ProgramError("register_machine allows at most 64 registers")
    if type(fuel) is not int or fuel < 0:
        raise ProgramError("register_machine needs a non-negative fuel")
    if not isinstance(listing, list):
        raise ProgramError("register_machine needs an instruction list")
    # every instruction's shape first, then each one's operands in order
    for ins in listing:
        if not isinstance(ins, list) or not ins:
            raise ProgramError(f"malformed instruction {ins!r}")
        if (ins[0], len(ins)) not in (("inc", 2), ("decjz", 3), ("halt", 1)):
            raise ProgramError(f"unknown instruction {ins!r}")
    for i, ins in enumerate(listing):
        operands = ins[1:]
        if any(type(x) is not int for x in operands):
            raise ProgramError(f"instruction {i}: operands must be integers")
        if operands and not 0 <= operands[0] < registers:
            raise ProgramError(f"instruction {i}: register out of range")
        if len(operands) == 2 and not 0 <= operands[1] < len(listing):
            raise ProgramError(f"instruction {i}: jump target out of range")


def _oracle_validate_ast(node):
    if not isinstance(node, dict) or "kind" not in node:
        raise ProgramError(f"node must be an object with a kind: {node!r}")
    kind = node["kind"]
    if kind not in _ORACLE_NODE_KINDS:
        raise ProgramError(f"unknown node kind {kind!r}")
    if kind == "code":
        _oracle_expr(node.get("expr"))
    elif kind == "reason":
        _oracle_require_str(node, "model")
        _oracle_expr(node.get("prompt"))
        _oracle_expr(node.get("extract"))
    elif kind == "memory":
        _oracle_require_str(node, "mop")
        _oracle_expr(node.get("key"))
        _oracle_expr(node.get("value"))
        _oracle_expr(node.get("extract"))
    elif kind == "call":
        _oracle_require_str(node, "machine")
        _oracle_expr(node.get("payload"))
        _oracle_expr(node.get("extract"))
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
        _oracle_expr(node.get("pred"))
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
    {"kind": "code", "expr": {"op": "len", "args": [{"op": "input"}] * 3}},
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
    _machine(registers=65),
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
    # kinds that are not strings, some unhashable
    {"kind": []},
    {"kind": {}},
    {"kind": None},
    {"kind": 1},
])
def test_compiling_refuses_each_malformed_shape(body):
    expected = _verdict(_oracle_validate_ast, body)
    assert expected != "accepted"
    text = json.dumps({"version": 1, "input": 0, "body": body})
    assert _verdict(parse_program, text) == expected


def test_register_count_is_bounded():
    # every step writes each register out, so the count is capped
    tree = compile_ast(_machine(registers=64, fuel=5, program=[["inc", 63], ["halt"]]))(None)
    assert register_tree_steps(tree, 50) == ["pc=0;regs=" + "0," * 63 + "1"]
    with pytest.raises(ProgramError) as refused:
        compile_ast(_machine(registers=65, program=[["inc", 64], ["halt"]]))
    assert str(refused.value) == "register_machine allows at most 64 registers"


# Register-node edits: a field set to a value of the wrong type or range, a
# field dropped, an instruction inserted, an operand or an opcode replaced.
_REGISTER_FIELD_EDITS = (
    ("registers", (0, -1, 1, 3, 64, True, 2.0, "2", None)),
    ("fuel", (0, -1, True, 1.5, None, "3")),
    ("program", ("halt", {}, [], [[]], [["halt"]], None)),
)
_INSERTED = ([], "inc", 0, ["inc"], ["inc", 0, 1], ["jump", 0], ["halt", 1], [["inc", 0]],
             ["decjz", 0], ["decjz", 1, 0], ["inc", 1], ["halt"], [None])
_OPCODES = ("inc", "decjz", "halt", "jump", "", None, 0)
_OPERANDS = (True, False, -1, 0, 1, 2, 5, 1.0, "0", None, [0])


def _mutated_register_node(rng):
    node = gen_register_ast(rng)
    for _ in range(rng.randrange(3)):
        listing = node.get("program")
        roll = rng.random()
        if roll < 0.15:
            key, values = rng.choice(_REGISTER_FIELD_EDITS)
            node[key] = rng.choice(values)
        elif roll < 0.2:
            del node[rng.choice(sorted(node))]
        elif not isinstance(listing, list) or not listing:
            continue
        elif roll < 0.5:
            listing.insert(rng.randrange(len(listing) + 1), rng.choice(_INSERTED))
        else:
            ins = rng.choice(listing)
            if isinstance(ins, list) and len(ins) > 1 and roll < 0.9:
                ins[rng.randrange(1, len(ins))] = rng.choice(_OPERANDS)
            elif isinstance(ins, list) and ins:
                ins[0] = rng.choice(_OPCODES)
    return node


def test_mutated_register_nodes_are_pinned():
    # 10,000 seeded edited register nodes: each refusal message agrees with
    # the oracle, and the digest of every node with its refusal or its run's
    # steps holds the compiler's outcomes byte for byte
    rng = random.Random(24)
    digest = hashlib.sha256()
    for _ in range(10_000):
        node = _mutated_register_node(rng)
        text, expected = json.dumps(node), _verdict(_oracle_validate_ast, node)
        try:
            compiled = compile_ast(node)
        except ProgramError as e:
            assert str(e) == expected, text
            outcome = f"refused {e}"
        else:
            assert expected == "accepted", text
            outcome = "accepted " + "|".join(
                register_tree_steps(compiled(None), 4 * node["fuel"] + 8))
        digest.update(f"{text}\n{outcome}\n".encode())
    assert digest.hexdigest() == (
        "f6eaa345ade250b125cef89b5c2dd7fb64c5eb081c0371913ba667bb20e3c374"
    )


def test_compiled_caps_equal_the_oracle():
    rng = random.Random(5)
    kinds = set()
    for i in range(3000):
        ast = gen_program_ast(
            rng, max_depth=i % 7, max_directives=rng.randrange(0, 9), allow_register=True
        )
        compiled = compile_ast(ast)
        assert compiled.caps == _oracle_ast_caps(ast), i
        # the result is a CapMorphism, equal only to its own type
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
        pair = {"kind": "seq", "steps": [left, right]}
        seq = compile_ast(pair)
        par = compile_ast({"kind": "tensor", "left": left, "right": right})
        assert seq.caps == _oracle_ast_caps({"kind": "seq", "steps": [left, right]})
        assert par.caps == _oracle_ast_caps({"kind": "tensor", "left": left, "right": right})
        # n-ary composition is the left-nested binary one: same bound, same tree
        flat = compile_ast({"kind": "seq", "steps": [left, right, third]})
        nested = compile_ast({"kind": "seq", "steps": [pair, third]})
        assert flat.caps == nested.caps == _oracle_ast_caps(
            {"kind": "seq", "steps": [left, right, third]}
        )
        a = gen_input(rng)
        assert eutt_bounded(flat.morph(a), nested.morph(a), 256, SAMPLER).is_holds, i
