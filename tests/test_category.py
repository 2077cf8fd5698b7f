"""Combinators, structural isomorphisms, coherence, register machines."""

import random

from govtree import category
from govtree.algebra import no_check_operator
from govtree.capability import within_caps_check
from govtree.category import (
    DecJz,
    Halt,
    Inc,
    RegisterProgram,
    _compare_paths,
    associator,
    associator_inv,
    braiding,
    branch,
    call,
    check_hexagon,
    check_pentagon,
    check_register_agreement,
    check_triangle,
    code,
    enumerate_register_programs,
    identity,
    interp_tensor_distribute_check,
    left_unitor,
    memory,
    reason,
    reference_register_run,
    register_machine,
    register_tree_steps,
    right_unitor,
    seq_compose,
    tensor,
    translate_register_program,
)
from govtree.directives import (
    CallMachine,
    LLMCall,
    LLMResponse,
    MemoryOp,
    Observability,
    ResponseSampler,
    mock_handler,
)
from govtree.governance import gov_safe_check, govern
from govtree.itree import Ret, Vis, eutt_bounded, ret, run_pure, spin, vis
from govtree.gen import gen_register_program
from govtree.program import compile_ast

import pytest

SAMPLER = ResponseSampler(seed=0)


def reason_inc():
    return reason(lambda a: LLMCall("m", str(a)), lambda x: x.status)


def memory_put():
    return memory(lambda a: MemoryOp("put", str(a), "v"), lambda x: x.status)


def call_calc():
    return call(lambda a: CallMachine("calc", str(a)), lambda x: x.status)


def test_code_is_pure_application():
    assert run_pure(code(lambda x: x + 1)(4), 10) == (True, 5)


def test_reason_emits_one_llm_call():
    node = reason_inc()(7).step()
    assert type(node) is Vis and node.event == LLMCall("m", "7")
    assert type(node.cont(SAMPLER.answers(node.event)[0]).step()) is Ret


def test_builder_variant_is_enforced():
    bad = reason(lambda a: MemoryOp("get", "k", "v"), lambda x: x)
    with pytest.raises(TypeError):
        bad(1).step()


def test_seq_compose_pure():
    m = seq_compose(code(lambda x: x + 1), code(lambda x: x * 2))
    assert run_pure(m(3), 10) == (True, 8)


def test_identity_laws():
    f = reason_inc()
    assert eutt_bounded(seq_compose(identity, f)(5), f(5), 100, SAMPLER).is_holds
    assert eutt_bounded(seq_compose(f, identity)(5), f(5), 100, SAMPLER).is_holds


def test_seq_associativity_random_primitives():
    prims = (reason_inc(), memory_put(), call_calc(), code(lambda x: x * 3))
    rng = random.Random(5)
    for _ in range(30):
        f, g, h = (rng.choice(prims) for _ in range(3))
        lhs = seq_compose(seq_compose(f, g), h)
        rhs = seq_compose(f, lambda b, g=g, h=h: seq_compose(g, h)(b))
        a = rng.randrange(100)
        assert eutt_bounded(lhs(a), rhs(a), 300, SAMPLER).is_holds


def test_category_laws_on_random_composites():
    # identity and associativity over generated composites, depth <= 6
    from govtree.gen import gen_input, gen_program_ast
    from govtree.program import compile_ast

    rng = random.Random(13)
    for i in range(60):
        parts = [
            compile_ast(gen_program_ast(rng, max_depth=2, max_directives=2))
            for _ in range(3)
        ]
        f, g, h = parts
        a = gen_input(rng)
        assert eutt_bounded(
            seq_compose(identity, f)(a), f(a), 2000, SAMPLER
        ).is_holds
        assert eutt_bounded(
            seq_compose(f, identity)(a), f(a), 2000, SAMPLER
        ).is_holds
        lhs = seq_compose(seq_compose(f, g), h)
        rhs = seq_compose(f, lambda b, g=g, h=h: seq_compose(g, h)(b))
        assert eutt_bounded(lhs(a), rhs(a), 2000, SAMPLER).is_holds, i


def test_tensor_of_identities_is_identity():
    p = (3, "x")
    assert eutt_bounded(tensor(identity, identity)(p), identity(p), 50, SAMPLER).is_holds


def test_tensor_pure_fragment_closed():
    f, g = (lambda a: a + 1), (lambda c: c * 2)
    lhs = tensor(code(f), code(g))
    rhs = code(lambda p: (f(p[0]), g(p[1])))
    assert eutt_bounded(lhs((3, 4)), rhs((3, 4)), 50, SAMPLER).is_holds


def test_tensor_runs_left_then_right():
    m = tensor(reason_inc(), call_calc())
    node = m((1, 2)).step()
    assert node.event == LLMCall("m", "1")


def test_tensor_composites_are_governed():
    gh = govern(mock_handler(0))
    tree = gh.transform(tensor(reason_inc(), call_calc())((1, 2)))
    assert gov_safe_check(tree, False, 1000, SAMPLER).is_holds


def test_branch_picks_one_arm():
    m = branch(lambda a: a % 2 == 0, code(lambda a: "even"), reason_inc())
    assert run_pure(m(2), 10) == (True, "even")
    node = m(3).step()
    assert type(node) is Vis


def test_structural_morphisms():
    assert run_pure(associator(((1, 2), 3)), 10) == (True, (1, (2, 3)))
    assert run_pure(left_unitor((None, 7)), 10) == (True, 7)
    assert run_pure(right_unitor((7, None)), 10) == (True, 7)
    assert run_pure(braiding((1, 2)), 10) == (True, (2, 1))


def test_structural_round_trips():
    from govtree.category import left_unitor_inv, right_unitor_inv

    rng = random.Random(1)
    for _ in range(50):
        p = ((rng.randrange(9), rng.randrange(9)), rng.randrange(9))
        assert run_pure(seq_compose(associator, associator_inv)(p), 10) == (True, p)
        assert run_pure(seq_compose(associator_inv, associator)((p[1], p)), 10) == (True, (p[1], p))
        pair = (rng.randrange(9), rng.randrange(9))
        assert run_pure(seq_compose(braiding, braiding)(pair), 10) == (True, pair)
        a = rng.randrange(9)
        assert run_pure(seq_compose(left_unitor_inv, left_unitor)(a), 10) == (True, a)
        assert run_pure(seq_compose(right_unitor_inv, right_unitor)(a), 10) == (True, a)


def _pent_samples(n, seed=0):
    rng = random.Random(seed)
    return [
        (((rng.randrange(100), rng.randrange(100)), rng.randrange(100)), rng.randrange(100))
        for _ in range(n)
    ]


def test_pentagon():
    assert check_pentagon(_pent_samples(200)).is_holds
    # the expected value, worked out by hand for one concrete tuple
    path1 = seq_compose(associator, associator)
    assert run_pure(path1((((1, 2), 3), 4)), 20) == (True, (1, (2, (3, 4))))


def test_triangle():
    samples = [((a, None), b) for a in range(10) for b in range(10)]
    assert check_triangle(samples).is_holds
    path2 = tensor(right_unitor, identity)
    assert run_pure(path2(((5, None), 6)), 20) == (True, (5, 6))


def test_hexagon_with_direct_oracle():
    rng = random.Random(2)
    samples = [((rng.randrange(100), rng.randrange(100)), rng.randrange(100)) for _ in range(100)]
    assert check_hexagon(samples).is_holds
    # oracle: both routes send ((a,b),c) to (b,(c,a))
    path1 = seq_compose(seq_compose(associator, braiding), associator)
    for (a, b), c in samples:
        assert run_pure(path1(((a, b), c)), 20) == (True, (b, (c, a)))


def test_interp_tensor_distribute():
    h = mock_handler(4)
    inputs = [(a, a + 1) for a in range(20)]
    assert interp_tensor_distribute_check(
        code(lambda x: x), code(lambda x: x), h, inputs, 10000
    ).is_holds
    assert interp_tensor_distribute_check(
        reason_inc(), call_calc(), h, inputs, 10000
    ).is_holds


def test_interp_tensor_distribute_campaign():
    rng = random.Random(8)
    prims = (reason_inc, memory_put, call_calc, lambda: code(lambda x: x * 2))
    for i in range(500):
        f = rng.choice(prims)()
        g = rng.choice(prims)()
        v = interp_tensor_distribute_check(
            f, g, mock_handler(i), [(rng.randrange(50), rng.randrange(50))], 10000
        )
        assert v.is_holds, (i, v.describe())


def test_interp_tensor_distribute_reports_a_failure_after_an_unknown():
    # input 0 never gets its answer; input 1's answers change on every
    # call, so the bind run's value is not the second run's
    statuses = iter(range(100, 200))

    def h(d):
        return spin() if d.prompt == "0" else ret(LLMResponse(next(statuses), "c"))

    v = interp_tensor_distribute_check(reason_inc(), reason_inc(), h, [(0, 0), (1, 1)], 100)
    assert v.is_fails, v.describe()


def test_compare_paths_reports_a_failure_after_an_unknown():
    # sample 0 emits an event on one path (unknown); sample 1 differs (fails)
    def path1(s):
        return vis(Observability("step"), lambda _x: ret(s)) if s == 0 else ret(s)

    v = _compare_paths(path1, lambda s: ret(2 * s), [0, 1], 64, "probe")
    assert v.is_fails and v.witness == ("probe diverges on 1: 1 != 2",)


def test_register_program_validation():
    with pytest.raises(ValueError):
        RegisterProgram((Inc(2),), 2)
    with pytest.raises(ValueError):
        RegisterProgram((DecJz(0, 5),), 1)


def test_translate_empty_program():
    assert run_pure(translate_register_program(RegisterProgram((), 2), 10), 10) == (True, None)


def test_translate_two_increments():
    p = RegisterProgram((Inc(0), Inc(0)), 1)
    steps = register_tree_steps(translate_register_program(p, 50), 500)
    # the final observability event shows r0=2
    assert steps == ["pc=0;regs=1", "pc=1;regs=2"]
    regs, ref_steps = reference_register_run(p, 50)
    assert regs == (2,) and ref_steps == [(0, (1,)), (1, (2,))]


def test_translate_loop_respects_fuel():
    p = RegisterProgram((Inc(0), DecJz(1, 0)), 2)  # infinite loop
    steps = register_tree_steps(translate_register_program(p, 10), 500)
    assert steps is not None and len(steps) == 10


def test_decjz_jump_and_decrement():
    # transfer r0 (=2) into r1, using r2 as the always-zero jump register
    p = RegisterProgram(
        (Inc(0), Inc(0), DecJz(0, 6), Inc(1), DecJz(2, 2), Halt(), Halt()), 3
    )
    regs, ref_steps = reference_register_run(p, 50)
    assert register_tree_steps(translate_register_program(p, 50), 500) == [
        f"pc={pc};regs={','.join(map(str, r))}" for pc, r in ref_steps
    ] == [
        "pc=0;regs=1,0,0", "pc=1;regs=2,0,0", "pc=2;regs=1,0,0", "pc=3;regs=1,1,0",
        "pc=4;regs=1,1,0", "pc=2;regs=0,1,0", "pc=3;regs=0,2,0", "pc=4;regs=0,2,0",
        "pc=2;regs=0,2,0",
    ]
    assert regs == (0, 2, 0)


def test_register_agreement_random_programs():
    rng = random.Random(9)
    programs = [gen_register_program(rng, max_len=12) for _ in range(300)]
    assert check_register_agreement(programs, 50, SAMPLER).is_holds


def test_register_agreement_exhaustive_small():
    programs = list(enumerate_register_programs(3))
    assert check_register_agreement(programs, 50, SAMPLER).is_holds


def test_translated_programs_are_governed():
    gh = govern(mock_handler(0))
    rng = random.Random(3)
    for _ in range(50):
        p = gen_register_program(rng)
        tree = gh.transform(translate_register_program(p, 20))
        assert gov_safe_check(tree, False, 4096, SAMPLER).is_holds


def test_register_machine_translates_once():
    m = register_machine(RegisterProgram((Inc(0), DecJz(1, 0)), 2), 10)
    assert m(0) is m("x")


def test_forced_register_state_has_one_successor():
    node = translate_register_program(RegisterProgram((Inc(0), DecJz(1, 0)), 2), 10).step()
    assert type(node) is Vis and node.cont(None) is node.cont(None)


def test_checks_share_one_unrolled_machine(monkeypatch):
    # every sampled path after the reason step, in each of the three checks,
    # reaches the one compiled machine: each of its steps is computed once
    calls = []
    step = category._step
    monkeypatch.setattr(category, "_step", lambda *a: calls.append(1) or step(*a))
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
