"""The monoidal laws on compiled program nodes, and ``register_machine``
nodes: their translation in ``program`` against the oracle in ``reference``."""

import ast
import gc
import inspect
import json
import random
import textwrap
from pathlib import Path

from govtree import program, reference
from govtree.algebra import (
    ASSOCIATOR,
    ASSOCIATOR_INV,
    BRAIDING,
    IDENTITY,
    LEFT_UNITOR,
    LEFT_UNITOR_INV,
    RIGHT_UNITOR,
    RIGHT_UNITOR_INV,
    _compare_paths,
    check_hexagon,
    check_pentagon,
    check_triangle,
    interp_tensor_distribute_check,
    no_check_operator,
)
from govtree.boundary import (
    check_register_agreement,
    enumerate_register_programs,
    register_tree_steps,
)
from govtree.capability import within_caps_check
from govtree.directives import (
    Answer,
    LLMCall,
    Observability,
    ResponseSampler,
    mock_handler,
)
from govtree.governance import gov_safe_check, govern
from govtree.itree import Ret, Vis, bind, eutt_bounded, ret, run_pure, spin, vis
from govtree.gen import gen_register_program
from govtree.program import Program, compile_ast, parse_program, serialize_program
from govtree.reference import register_steps

import pytest

SAMPLER = ResponseSampler(seed=0)


# Program nodes: each primitive sends its input as the directive's text and
# extracts the answer's status (an answer enters as (status, content)).
INPUT = {"op": "input"}
STATUS = {"op": "fst", "args": [INPUT]}
REASON = {"kind": "reason", "model": "m", "prompt": INPUT, "extract": STATUS}
MEMORY = {"kind": "memory", "mop": "put", "key": INPUT, "value": {"op": "str", "value": "v"},
          "extract": STATUS}
CALL = {"kind": "call", "machine": "calc", "payload": INPUT, "extract": STATUS}


def arith(op, n):
    """The code node ``op(input, n)``: ``arith("add", 1)`` is x+1."""
    return {"kind": "code", "expr": {"op": op, "args": [INPUT, {"op": "int", "value": n}]}}


def seq(*steps):
    return {"kind": "seq", "steps": list(steps)}


def tensor(left, right):
    return {"kind": "tensor", "left": left, "right": right}


def machine(listing, registers, fuel):
    """The ``register_machine`` node of ``listing``."""
    return {"kind": "register_machine", "registers": registers, "fuel": fuel,
            "program": listing}


def reason_inc():
    return compile_ast(REASON)


def run_node(node, a):
    return run_pure(compile_ast(node)(a), 10)


def test_code_is_pure_application():
    assert run_node(arith("add", 1), 4) == (True, 5)


def test_reason_emits_one_llm_call():
    node = reason_inc()(7).step()
    assert type(node) is Vis and node.event == LLMCall("m", "7")
    assert type(node.cont(SAMPLER.answers(node.event)[0]).step()) is Ret


def test_seq_compose_pure():
    m = compile_ast(seq(arith("add", 1), arith("mul", 2)))
    assert run_pure(m(3), 10) == (True, 8)


def test_identity_laws():
    f = reason_inc()
    assert eutt_bounded(compile_ast(seq(IDENTITY, REASON))(5), f(5), 100, SAMPLER).is_holds
    assert eutt_bounded(compile_ast(seq(REASON, IDENTITY))(5), f(5), 100, SAMPLER).is_holds


def test_seq_associativity_random_primitives():
    # the machine's left-nested seq against a bind onto the right-nested one
    prims = (REASON, MEMORY, CALL, arith("mul", 3))
    rng = random.Random(5)
    for _ in range(30):
        f, g, h = (rng.choice(prims) for _ in range(3))
        lhs = compile_ast(seq(seq(f, g), h))
        first, rest = compile_ast(f), compile_ast(seq(g, h))
        a = rng.randrange(100)
        assert eutt_bounded(lhs(a), bind(first(a), rest), 300, SAMPLER).is_holds


def test_category_laws_on_random_composites():
    # identity and associativity over generated composites, depth <= 6
    from govtree.gen import gen_input, gen_program_ast

    rng = random.Random(13)
    for i in range(60):
        f, g, h = (gen_program_ast(rng, max_depth=2, max_directives=2) for _ in range(3))
        a = gen_input(rng)
        assert eutt_bounded(
            compile_ast(seq(IDENTITY, f))(a), compile_ast(f)(a), 2000, SAMPLER
        ).is_holds
        assert eutt_bounded(
            compile_ast(seq(f, IDENTITY))(a), compile_ast(f)(a), 2000, SAMPLER
        ).is_holds
        lhs = compile_ast(seq(seq(f, g), h))(a)
        rhs = bind(compile_ast(f)(a), compile_ast(seq(g, h)))
        assert eutt_bounded(lhs, rhs, 2000, SAMPLER).is_holds, i


def test_tensor_of_identities_is_identity():
    p = (3, "x")
    lhs = compile_ast(tensor(IDENTITY, IDENTITY))(p)
    assert eutt_bounded(lhs, compile_ast(IDENTITY)(p), 50, SAMPLER).is_holds


def test_tensor_pure_fragment_closed():
    lhs = compile_ast(tensor(arith("add", 1), arith("mul", 2)))
    halves = [{"op": "fst", "args": [INPUT]}, {"op": "snd", "args": [INPUT]}]
    rhs = compile_ast({"kind": "code", "expr": {"op": "pair", "args": [
        {"op": "add", "args": [halves[0], {"op": "int", "value": 1}]},
        {"op": "mul", "args": [halves[1], {"op": "int", "value": 2}]}]}})
    assert eutt_bounded(lhs((3, 4)), rhs((3, 4)), 50, SAMPLER).is_holds


def test_tensor_runs_left_then_right():
    m = compile_ast(tensor(REASON, CALL))
    node = m((1, 2)).step()
    assert node.event == LLMCall("m", "1")


def test_tensor_composites_are_governed():
    gh = govern(mock_handler(0))
    tree = gh.transform(compile_ast(tensor(REASON, CALL))((1, 2)))
    assert gov_safe_check(tree, False, 1000, SAMPLER).is_holds


def test_branch_picks_one_arm():
    even = {"op": "eq", "args": [{"op": "mod", "args": [INPUT, {"op": "int", "value": 2}]},
                                 {"op": "int", "value": 0}]}
    m = compile_ast({"kind": "branch", "pred": even,
                     "then": {"kind": "code", "expr": {"op": "str", "value": "even"}},
                     "else": REASON})
    assert run_pure(m(2), 10) == (True, "even")
    node = m(3).step()
    assert type(node) is Vis


def test_structural_morphisms():
    assert run_node(ASSOCIATOR, ((1, 2), 3)) == (True, (1, (2, 3)))
    assert run_node(LEFT_UNITOR, (None, 7)) == (True, 7)
    assert run_node(RIGHT_UNITOR, (7, None)) == (True, 7)
    assert run_node(BRAIDING, (1, 2)) == (True, (2, 1))


def test_structural_round_trips():
    rng = random.Random(1)
    for _ in range(50):
        p = ((rng.randrange(9), rng.randrange(9)), rng.randrange(9))
        assert run_node(seq(ASSOCIATOR, ASSOCIATOR_INV), p) == (True, p)
        assert run_node(seq(ASSOCIATOR_INV, ASSOCIATOR), (p[1], p)) == (True, (p[1], p))
        pair = (rng.randrange(9), rng.randrange(9))
        assert run_node(seq(BRAIDING, BRAIDING), pair) == (True, pair)
        a = rng.randrange(9)
        assert run_node(seq(LEFT_UNITOR_INV, LEFT_UNITOR), a) == (True, a)
        assert run_node(seq(RIGHT_UNITOR_INV, RIGHT_UNITOR), a) == (True, a)


def _pent_samples(n, seed=0):
    rng = random.Random(seed)
    return [
        (((rng.randrange(100), rng.randrange(100)), rng.randrange(100)), rng.randrange(100))
        for _ in range(n)
    ]


def _hex_samples(n, seed=2):
    rng = random.Random(seed)
    return [((rng.randrange(100), rng.randrange(100)), rng.randrange(100)) for _ in range(n)]


def test_pentagon():
    assert check_pentagon(_pent_samples(200)).is_holds
    # the expected value, worked out by hand for one concrete tuple
    path1 = compile_ast(seq(ASSOCIATOR, ASSOCIATOR))
    assert run_pure(path1((((1, 2), 3), 4)), 20) == (True, (1, (2, (3, 4))))


def test_triangle():
    samples = [((a, None), b) for a in range(10) for b in range(10)]
    assert check_triangle(samples).is_holds
    path2 = compile_ast(tensor(RIGHT_UNITOR, IDENTITY))
    assert run_pure(path2(((5, None), 6)), 20) == (True, (5, 6))


def test_hexagon_with_direct_oracle():
    samples = _hex_samples(100)
    assert check_hexagon(samples).is_holds
    # oracle: both routes send ((a,b),c) to (b,(c,a))
    path1 = compile_ast(seq(seq(ASSOCIATOR, BRAIDING), ASSOCIATOR))
    for (a, b), c in samples:
        assert run_pure(path1(((a, b), c)), 20) == (True, (b, (c, a)))


def test_coherence_runs_on_the_program_machine(monkeypatch):
    # The laws run on the machine that runs program files: one whose tensor
    # pairs its two results the wrong way round fails the pentagon and the
    # hexagon, whose paths tensor different sides.
    source = textwrap.dedent(inspect.getsource(program._Machine.step))
    pair = "value, stack = (stack[0], value), stack[1]"
    assert source.count(pair) == 1
    scope = dict(vars(program))
    exec(source.replace(pair, "value, stack = (value, stack[0]), stack[1]"), scope)
    monkeypatch.setattr(program._Machine, "step", scope["step"])
    assert check_pentagon(_pent_samples(200)).is_fails
    assert check_hexagon(_hex_samples(100)).is_fails


def test_interp_tensor_distribute():
    h = mock_handler(4)
    inputs = [(a, a + 1) for a in range(20)]
    assert interp_tensor_distribute_check(IDENTITY, IDENTITY, h, inputs, 10000).is_holds
    assert interp_tensor_distribute_check(REASON, CALL, h, inputs, 10000).is_holds


def test_interp_tensor_distribute_campaign():
    rng = random.Random(8)
    prims = (REASON, MEMORY, CALL, arith("mul", 2))
    for i in range(500):
        f = rng.choice(prims)
        g = rng.choice(prims)
        v = interp_tensor_distribute_check(
            f, g, mock_handler(i), [(rng.randrange(50), rng.randrange(50))], 10000
        )
        assert v.is_holds, (i, v.describe())


def test_interp_tensor_distribute_reports_a_failure_after_an_unknown():
    # input 0 never gets its answer; input 1's answers change on every
    # call, so the tensor run's value is not the two runs' pair
    statuses = iter(range(100, 200))

    def h(d):
        return spin() if d.prompt == "0" else ret(Answer(next(statuses), "c"))

    v = interp_tensor_distribute_check(REASON, REASON, h, [(0, 0), (1, 1)], 100)
    assert v.is_fails, v.describe()


def test_compare_paths_reports_a_failure_after_an_unknown():
    # sample 0 emits an event on one path (unknown); sample 1 differs (fails)
    def path1(s):
        return vis(Observability("step"), lambda _x: ret(s)) if s == 0 else ret(s)

    v = _compare_paths(path1, lambda s: ret(2 * s), [0, 1], 64, "probe")
    assert v.is_fails and v.witness == ("probe diverges on 1: 1 != 2",)


def test_register_program_validation():
    with pytest.raises(ValueError):
        compile_ast(machine([["inc", 2]], 2, 0))
    with pytest.raises(ValueError):
        compile_ast(machine([["decjz", 0, 5]], 1, 0))


def test_translate_empty_program():
    assert run_pure(compile_ast(machine([], 2, 10))(None), 10) == (True, None)


def test_translate_two_increments():
    p = machine([["inc", 0], ["inc", 0]], 1, 50)
    steps = register_tree_steps(compile_ast(p)(None), 500)
    # the final observability event shows r0=2
    assert steps == ["pc=0;regs=1", "pc=1;regs=2"]
    ref_steps = list(register_steps(p["program"], 1, 50))
    assert ref_steps == steps and ref_steps[-1] == "pc=1;regs=2"


def test_translate_loop_respects_fuel():
    p = machine([["inc", 0], ["decjz", 1, 0]], 2, 10)  # infinite loop
    steps = register_tree_steps(compile_ast(p)(None), 500)
    assert steps is not None and len(steps) == 10


def test_decjz_jump_and_decrement():
    # transfer r0 (=2) into r1, using r2 as the always-zero jump register
    p = machine(
        [["inc", 0], ["inc", 0], ["decjz", 0, 6], ["inc", 1], ["decjz", 2, 2], ["halt"], ["halt"]],
        3, 50,
    )
    ref_steps = list(register_steps(p["program"], 3, 50))
    assert register_tree_steps(compile_ast(p)(None), 500) == ref_steps == [
        "pc=0;regs=1,0,0", "pc=1;regs=2,0,0", "pc=2;regs=1,0,0", "pc=3;regs=1,1,0",
        "pc=4;regs=1,1,0", "pc=2;regs=0,1,0", "pc=3;regs=0,2,0", "pc=4;regs=0,2,0",
        "pc=2;regs=0,2,0",
    ]
    # the final registers are the last message's
    assert ref_steps[-1].endswith("regs=0,2,0")


def test_register_agreement_random_programs():
    rng = random.Random(9)
    programs = [machine(gen_register_program(rng, max_len=12), 2, 50) for _ in range(300)]
    assert check_register_agreement(programs, SAMPLER).is_holds


def test_register_agreement_exhaustive_small():
    programs = list(enumerate_register_programs(3, 50))
    assert check_register_agreement(programs, SAMPLER).is_holds


def test_enumerated_register_nodes_are_program_bodies():
    # each node round-trips through a program file's text and, compiled
    # from the parsed body, emits the oracle's steps exactly
    nodes = list(enumerate_register_programs(3, 50))
    assert len(nodes) == 5 + 7**2 + 7**3
    for node in nodes:
        parsed = parse_program(serialize_program(Program(None, node)))
        assert parsed.body == node
        want = list(register_steps(node["program"], node["registers"], node["fuel"]))
        assert register_tree_steps(parsed.compile()(None), 4 * 50 + 8) == want, node


@pytest.fixture
def wrong_step(monkeypatch):
    # decjz jumps while its register is still 1: the oracle states the
    # semantics on its own, so the translation no longer agrees with it
    def wrong(ins, pc, regs):
        if ins[0] == "decjz" and regs[ins[1]] <= 1:
            return ins[2], regs
        return step(ins, pc, regs)

    step = program._step
    monkeypatch.setattr(program, "_step", wrong)


def test_register_agreement_fails_on_a_wrong_step(wrong_step):
    programs = list(enumerate_register_programs(3, 50))
    assert check_register_agreement(programs, SAMPLER).is_fails


def test_register_mismatch_names_its_step_and_a_replayable_node(wrong_step):
    p = machine([["inc", 0], ["decjz", 0, 0], ["halt"]], 1, 50)
    chain = program._parse_register(p)  # lists copied as tuples
    assert chain._code == (("inc", 0), ("decjz", 0, 0), ("halt",))
    assert all(type(ins) is list for ins in p["program"])
    v = check_register_agreement([p], SAMPLER)
    node = ('{"kind": "register_machine", "registers": 1, "fuel": 50, '
            '"program": [["inc", 0], ["decjz", 0, 0], ["halt"]]}')
    assert v.witness == (f"register trace mismatch at step 1 for {node}",)
    # the node is a program body: compiled, its run parts from the oracle's at step 1
    body = json.loads(node)
    got = register_tree_steps(compile_ast(body)(None), 500)
    want = list(register_steps(body["program"], body["registers"], body["fuel"]))
    assert got[:1] == want[:1] and got[1] != want[1]


def test_register_oracle_imports_nothing_from_the_translation():
    # every module, and every name imported from one, as dotted paths
    names = set()
    for n in ast.walk(ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))):
        if isinstance(n, ast.ImportFrom):
            names |= {n.module or ""} | {f"{n.module or ''}.{a.name}" for a in n.names}
        elif isinstance(n, ast.Import):
            names |= {a.name for a in n.names}
    assert not {name.rsplit(".", 1)[-1] for name in names} & {"boundary", "program"}, names


def test_translated_programs_are_governed():
    gh = govern(mock_handler(0))
    rng = random.Random(3)
    for _ in range(50):
        p = machine(gen_register_program(rng), 2, 20)
        tree = gh.transform(compile_ast(p)(None))
        assert gov_safe_check(tree, False, 4096, SAMPLER).is_holds


def test_register_machine_translates_once():
    # every input's run reaches the one chain compiled with the node
    m = compile_ast(machine([["inc", 0], ["decjz", 1, 0]], 2, 10))
    assert m(0).step() is m("x").step()


def test_forced_register_state_has_one_successor():
    node = compile_ast(machine([["inc", 0], ["decjz", 1, 0]], 2, 10))(None).step()
    assert type(node) is Vis and node.cont(None) is node.cont(None)


def test_a_forced_register_chain_retains_three_objects_per_state():
    # each forced state keeps itself, its Vis node and its directive, and
    # lets go of the instructions and registers it was built from
    fuel = 4000
    p = machine([["inc", 0], ["decjz", 1, 0]], 2, fuel)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        root = program._parse_register(p)  # the bare chain
        assert len(register_tree_steps(root, 4 * fuel)) == fuel
        retained = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert retained <= 3 * fuel + 2, retained
    state, forced = root, 0
    while type(state.step()) is Vis:
        assert state._code is None and state._regs is None
        state, forced = state.step().cont(None), forced + 1
    assert forced == fuel and state._code is None and state._regs is None


def test_checks_share_one_unrolled_machine(monkeypatch):
    # every sampled path after the reason step, in each of the three checks,
    # reaches the one compiled machine: each of its steps is computed once
    calls = []
    step = program._step
    monkeypatch.setattr(program, "_step", lambda *a: calls.append(1) or step(*a))
    machine = {"kind": "register_machine", "registers": 2, "fuel": 10,
               "program": [["inc", 0], ["decjz", 1, 0]]}
    reason_step = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
                   "extract": {"op": "input"}}
    compiled = compile_ast({"kind": "seq", "steps": [reason_step, machine]})
    handler = mock_handler(0)
    assert gov_safe_check(govern(handler).transform(compiled(1)), False, 4096, SAMPLER).is_holds
    unchecked = no_check_operator().transform(handler).transform(compiled(1))
    assert gov_safe_check(unchecked, False, 4096, SAMPLER).is_fails
    assert within_caps_check(compiled.caps, compiled(1), 4096, SAMPLER).is_holds
    assert len(calls) == 10
