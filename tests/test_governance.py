"""Governance wrapping, interpretation, and the bounded safety check."""

import dataclasses
import random
from pathlib import Path

import pytest

from govtree.directives import (
    FileOp,
    LLMCall,
    ResponseSampler,
    derive_rng,
    directive_tag,
    encode_directive,
    mock_answer,
    mock_handler,
)
from govtree.gen import gen_input, gen_policy, gen_program_ast
from govtree.governance import (
    DENYING,
    PERMISSIVE,
    Gov,
    GovernedHandler,
    Io,
    bare_io,
    check_gate,
    drive,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
    policy_by_name,
    rewrap,
    tag_filter,
)
from govtree.itree import Ret, Vis, bind, eutt_bounded, ret, skip_taus, spin, tau, vis
from govtree.program import compile_ast, parse_program
from govtree.trace import GovEntry, IoEntry

SAMPLER = ResponseSampler(seed=0)
PROGRAMS = Path(__file__).resolve().parents[1] / "programs"


def llm_program(prompt="p"):
    return vis(LLMCall("m", prompt), lambda x: ret(x.status))


def test_govern_passes_ret_through():
    gh = govern(mock_handler(0))

    class NoEvents:
        def answers(self, event):
            return (True, False)

    assert eutt_bounded(gh.transform(ret(4)), ret(4), 10, NoEvents()).is_holds


def test_govern_inserts_check_before_io():
    gh = govern(mock_handler(0))
    tree = gh.transform(llm_program())
    head = tree.step()
    assert type(head) is Vis and type(head.event) is Gov
    assert head.event.stage == "LLMCall"
    released = head.cont(True).step()
    assert type(released) is Vis and type(released.event) is Io
    assert directive_tag(released.event.directive) == "LLMCall"
    done = released.cont(mock_answer(0, released.event.directive)).step()
    assert type(done) is Ret


def test_denied_check_diverges():
    gh = govern(mock_handler(0))
    tree = gh.transform(llm_program())
    denied_branch = tree.step().cont(False)
    node, _, looped = skip_taus(denied_branch, 1000)
    assert node is None and looped
    out = interpret_governed(gh, DENYING, llm_program(), 1000)
    assert not out.completed and out.denied


def test_every_denial_continues_into_one_shared_loop():
    gh = govern(mock_handler(0))
    d1, d2 = LLMCall("m", "p"), FileOp("read", "x")
    denials = [
        check_gate(d1, ret, ret).cont(False),
        check_gate(d2, lambda x: ret(1), ret).cont(False),
        gh.transform(llm_program()).step().cont(False),
        gh.transform(llm_program("q")).step().cont(False),
    ]
    assert all(t is denials[0] for t in denials)
    assert skip_taus(denials[0], 1000) == (None, 1000, True)


def test_check_gate_makes_no_closure_cells():
    # A cell would be made on every directive the gate wraps.
    assert check_gate.__code__.co_cellvars == ()


def test_a_check_is_judged_by_the_directive_it_releases():
    # A gate that labels every check Observability must not launder the
    # directive the check releases past a policy allowing only Observability.
    def launder(d, cont, rec):
        return Vis(Gov("Observability", d), check_gate(d, cont, rec).cont)

    program = parse_program((PROGRAMS / "llm_pipeline.json").read_text(encoding="utf-8"))
    tree = program.compile()(program.input_value)
    policy = policy_by_name("tags:Observability")
    out = interpret_governed(rewrap(mock_handler(0), launder), policy, tree, 4096)
    assert not out.completed and out.denied
    assert out.trace == (GovEntry("Observability", False),)  # the gate's own label


def test_governed_events_equal_only_their_own_type():
    d = LLMCall("m", "p")
    gov, io = Gov("LLMCall", d), Io(d)
    assert gov == Gov("LLMCall", d) and gov != Gov("MemoryOp", d) and io == Io(d)
    for other in (("LLMCall", d), GovEntry("LLMCall", d), Vis("LLMCall", d)):
        assert gov != other and other != gov and not gov == other and not other == gov
    for other in ((d,), IoEntry(d), Ret(d), Gov(d, d)):
        assert io != other and other != io and not io == other and not other == io
    assert hash(gov) == hash(("LLMCall", d)) and hash(io) == hash((d,))
    assert repr(gov) == "Gov(stage='LLMCall', directive=LLMCall(model='m', prompt='p'))"
    assert repr(io) == "Io(directive=LLMCall(model='m', prompt='p'))"
    assert (gov.stage, gov.directive, io.directive) == ("LLMCall", d, d)


def test_eutt_witness_names_differing_governed_events():
    d = LLMCall("m", "p")
    checks = [vis(Gov(stage, d), lambda ok: ret(ok)) for stage in ("LLMCall", "LLMCall#h1")]
    assert eutt_bounded(*checks, 10, SAMPLER).witness == (
        "events differ: Gov(stage='LLMCall', directive=LLMCall(model='m', prompt='p'))"
        " != Gov(stage='LLMCall#h1', directive=LLMCall(model='m', prompt='p'))",
    )
    released = [vis(Io(d), ret), vis(Io(FileOp("read", "x")), ret)]
    assert eutt_bounded(*released, 10, SAMPLER).witness == (
        "events differ: Io(directive=LLMCall(model='m', prompt='p'))"
        " != Io(directive=FileOp(op='read', path='x'))",
    )


def test_interpret_pure_has_empty_trace():
    gh = govern(mock_handler(0))
    out = interpret_governed(gh, PERMISSIVE, ret(42), 100)
    assert out.completed and out.value == 42 and out.trace == ()


def test_interpret_single_llm_call_trace():
    gh = govern(mock_handler(7))
    out = interpret_governed(gh, PERMISSIVE, llm_program("hi"), 1000)
    assert out.completed
    assert out.value == mock_answer(7, LLMCall("m", "hi")).status
    assert out.trace == (
        GovEntry("LLMCall", True),
        IoEntry(encode_directive(LLMCall("m", "hi"))),
    )


def test_interpret_denied_trace_and_flag():
    gh = govern(mock_handler(0))
    out = interpret_governed(gh, DENYING, llm_program(), 1000)
    assert out.trace == (GovEntry("LLMCall", False),)
    assert out.denied and not out.completed and out.value is None


def test_fuel_exhaustion_without_deny_is_not_denied():
    gh = govern(mock_handler(0))
    out = interpret_governed(gh, PERMISSIVE, llm_program(), 1)
    assert not out.completed and not out.denied


def test_tag_filter_policy():
    policy = tag_filter(["LLMCall"])
    gh = govern(mock_handler(0))
    assert interpret_governed(gh, policy, llm_program(), 1000).completed
    file_tree = vis(FileOp("read", "/tmp/x"), lambda x: ret(None))
    out = interpret_governed(gh, policy, file_tree, 1000)
    assert out.denied


def test_policy_by_name_round_trip():
    assert policy_by_name("permissive") is PERMISSIVE
    assert policy_by_name("denying") is DENYING
    p = policy_by_name("tags:LLMCall,MemoryOp")
    assert p.decide("LLMCall", None) and not p.decide("FileOp", None)
    assert not policy_by_name("tags:").decide("LLMCall", None)


@pytest.mark.parametrize("spec", ["tags:LLMcall", "tags:LLMCall, MemoryOp", "tags:Gov"])
def test_policy_by_name_refuses_a_tag_that_names_no_variant(spec):
    with pytest.raises(ValueError, match="unknown directive tag"):
        policy_by_name(spec)


def test_gov_safe_ret_holds_for_any_flag():
    assert gov_safe_check(ret(1), False, 10, SAMPLER).is_holds
    assert gov_safe_check(ret(1), True, 10, SAMPLER).is_holds


def test_gov_safe_bare_io_fails_at_root():
    v = gov_safe_check(bare_io(FileOp("read", "x")), False, 100, SAMPLER)
    assert v.is_fails
    assert "FileOp" in v.witness[-1]


def test_gov_safe_bare_io_with_flag_up_holds():
    v = gov_safe_check(bare_io(FileOp("read", "x")), True, 100, SAMPLER)
    assert v.is_holds


@pytest.mark.parametrize("samples, expected", [
    (0, "unknown (sample-limited)"),
    (1, "fails: io(LLMCall) answered / io(FileOp) without approval"),
])
def test_gov_safe_explores_only_sampled_answers(samples, expected):
    # with no answer for the call, its continuation's unapproved FileOp is never reached
    tree = vis(Io(LLMCall("m", "p")), lambda x: bare_io(FileOp("read", "x")))
    sampler = ResponseSampler(samples_per_event=samples)
    assert gov_safe_check(tree, True, 100, sampler).describe() == expected


def test_gov_safe_spin_is_safe_divergence():
    # the canonical denial loop is detected and provably silent
    assert gov_safe_check(spin(), False, 100, SAMPLER).is_holds
    assert gov_safe_check(spin(), True, 100, SAMPLER).is_holds


def test_gov_safe_bind_spin_stays_unknown_never_fails():
    v = gov_safe_check(bind(spin(), ret), False, 100, SAMPLER)
    assert v.is_unknown


def test_gov_safe_governed_program_holds():
    gh = govern(mock_handler(0))
    v = gov_safe_check(gh.transform(llm_program()), False, 1000, SAMPLER)
    assert v.is_holds


def test_reset_after_io_is_enforced():
    # approval does not survive an I/O event: a second unchecked effect fails
    d = LLMCall("m", "p")
    t = vis(
        Gov("LLMCall", d),
        lambda ok: vis(Io(d), lambda x: bare_io(d)) if ok else ret(None),
    )
    v = gov_safe_check(t, False, 100, SAMPLER)
    assert v.is_fails
    assert any("without approval" in w for w in v.witness)


def test_gov_safe_campaign_never_fails():
    for i in range(300):
        rng = derive_rng("gs-campaign", i)
        ast = gen_program_ast(rng)
        gh = govern(mock_handler(rng.randrange(2**32)))
        tree = gh.transform(compile_ast(ast)(gen_input(rng)))
        v = gov_safe_check(tree, False, 4096, SAMPLER)
        assert not v.is_fails, (i, v.witness)


def test_denial_conservativity_spin_replacement():
    # replacing any continuation with spin never turns the verdict into fails
    d = LLMCall("m", "p")
    gh = govern(mock_handler(0))
    base = gh.transform(llm_program())
    with_spin = vis(
        Gov("LLMCall", d),
        lambda ok: vis(Io(d), lambda x: spin()) if ok else spin(),
    )
    assert not gov_safe_check(base, False, 1000, SAMPLER).is_fails
    assert not gov_safe_check(with_spin, False, 1000, SAMPLER).is_fails


def test_interpret_ungoverned_records_io_only():
    h = mock_handler(3)
    out = interpret_ungoverned(h, llm_program("q"), 1000)
    assert out.completed
    assert out.trace == (IoEntry(encode_directive(LLMCall("m", "q"))),)


def test_goal_preservation_on_permissive_policy():
    # governed and ungoverned interpretation reach the same value
    for i in range(100):
        rng = random.Random(i)
        ast = gen_program_ast(rng)
        x = gen_input(rng)
        h = mock_handler(i)
        governed = interpret_governed(govern(h), PERMISSIVE, compile_ast(ast)(x), 100000)
        plain = interpret_ungoverned(h, compile_ast(ast)(x), 100000)
        assert governed.completed and plain.completed
        assert governed.value == plain.value


# The driver's edge cases, on a program that returns its one LLM answer.

ONE_CALL = LLMCall("m", "p")
CALL_PASSED = GovEntry("LLMCall", True)
CALL_IO = IoEntry(encode_directive(ONE_CALL))


def one_call():
    return vis(ONE_CALL, ret)


@pytest.mark.parametrize(
    "fuel, completed, value, trace",
    [
        (3, True, 7, (CALL_PASSED, CALL_IO)),
        (2, False, None, (CALL_PASSED,)),
        (1, False, None, (CALL_PASSED,)),
    ],
)
def test_governed_answer_tree_taus_cost_fuel(fuel, completed, value, trace):
    gh = govern(lambda d: tau(ret(7)))
    out = interpret_governed(gh, PERMISSIVE, one_call(), fuel)
    assert (out.completed, out.value, out.trace, out.denied) == (
        completed, value, trace, False
    )


@pytest.mark.parametrize("fuel, used", [(1, 1), (2, 2), (3, 3), (10, 3)])
def test_drive_records_the_fuel_it_spent(fuel, used):
    out = interpret_governed(govern(lambda d: tau(ret(7))), PERMISSIVE, one_call(), fuel)
    assert out.fuel_used == used
    assert out == dataclasses.replace(out, fuel_used=used + 1)  # not compared


@pytest.mark.parametrize(
    "reply", [spin, lambda: vis(ONE_CALL, ret)], ids=["spin", "vis"]
)
def test_answer_tree_that_never_returns_ends_the_run(reply):
    gh = govern(lambda d: reply())
    out = interpret_governed(gh, PERMISSIVE, one_call(), 1000)
    assert not out.completed and not out.denied
    assert out.trace == (CALL_PASSED,)


@pytest.mark.parametrize(
    "fuel, completed, trace", [(2, True, (CALL_IO,)), (1, False, ())]
)
def test_ungoverned_answer_tree_taus_cost_fuel(fuel, completed, trace):
    out = interpret_ungoverned(lambda d: tau(ret(7)), one_call(), fuel)
    assert (out.completed, out.trace, out.denied) == (completed, trace, False)


def test_identity_transform_is_not_governed():
    gh = GovernedHandler(base=mock_handler(0), transform=lambda t: t)
    with pytest.raises(TypeError):
        interpret_governed(gh, PERMISSIVE, one_call(), 1000)


def test_denial_after_a_permitted_call():
    tree = vis(ONE_CALL, lambda x: vis(FileOp("read", "/tmp/x"), ret))
    gh = govern(mock_handler(0))
    out = interpret_governed(gh, tag_filter(["LLMCall"]), tree, 1000)
    assert out.denied and not out.completed
    assert out.trace[-1] == GovEntry("FileOp", False)


@pytest.mark.parametrize("passed", [True, False])
def test_drive_reads_denial_off_the_trace(passed):
    # an incomplete run is denied exactly when its trace holds a failing check
    out = drive(vis("e", lambda x: spin()), 10, lambda e: (GovEntry(e, passed), ret(None)))
    assert out.trace == (GovEntry("e", passed),)
    assert not out.completed and out.denied is not passed


def test_governed_step_encodes_its_directive_once(monkeypatch):
    import govtree.directives as directives

    encoded = []
    real = directives._encode
    monkeypatch.setattr(directives, "_encode", lambda d: encoded.append(d) or real(d))
    pipeline = compile_ast({"kind": "seq", "steps": [
        {"kind": "reason", "model": "m", "prompt": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
        {"kind": "memory", "mop": "put", "key": {"op": "str", "value": "k"},
         "value": {"op": "input"}, "extract": {"op": "fst", "args": [{"op": "input"}]}},
        {"kind": "call", "machine": "calc", "payload": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
    ]})
    out = interpret_governed(govern(mock_handler(0)), PERMISSIVE, pipeline("x"), 100)
    assert out.completed
    assert [type(d).__name__ for d in encoded] == ["LLMCall", "MemoryOp", "CallMachine"]
    assert [e.directive for e in out.trace if type(e) is IoEntry] == [real(d) for d in encoded]


# interpret_governed drives the source tree with a check step when the
# handler came from govern; the governed image is what that stands for.

def sweep_handlers(seed):
    """The mock handler, its answer behind two Taus, and a reply that spins."""
    answer = mock_handler(seed)
    return (answer, lambda d: tau(tau(answer(d))), lambda d: spin())


def counting(h):
    calls = []
    return (lambda d: calls.append(d) or h(d)), calls


def test_fused_drive_matches_the_governed_image_at_every_fuel():
    cases, differ = 0, []
    for i in range(300):
        rng = derive_rng("fuel-sweep", 0, i)
        morph = compile_ast(gen_program_ast(rng, allow_register=True))
        x = gen_input(rng)
        policy = gen_policy(rng)
        for k, h in enumerate(sweep_handlers(rng.randrange(2**32))):
            for fuel in range(30):
                fused_h, fused_calls = counting(h)
                image_h, image_calls = counting(h)
                image_gh = GovernedHandler(base=image_h, transform=govern(image_h).transform)
                fused = interpret_governed(govern(fused_h), policy, morph(x), fuel)
                image = interpret_governed(image_gh, policy, morph(x), fuel)
                cases += 1
                if (fused, fused.fuel_used, len(fused_calls)) != (
                    image, image.fuel_used, len(image_calls)
                ):
                    differ.append((i, k, fuel))
    assert cases == 27_000
    assert differ == [], f"{len(differ)} cases differ, first {differ[:5]}"


def test_govern_run_does_not_build_the_image():
    def no_image(t):
        raise AssertionError("the governed image was built")

    gh = GovernedHandler(base=mock_handler(0), transform=no_image, gate=check_gate)
    out = interpret_governed(gh, PERMISSIVE, one_call(), 1000)
    assert out.completed and out.trace == (CALL_PASSED, CALL_IO)
    assert govern(mock_handler(0)).gate is check_gate
