"""The program machine: state keys, what a driven tree retains, and the
shapes of program that stress its stack."""

import gc
import random

import pytest

from govtree.algebra import ADVERSARIAL_OPERATORS
from govtree.capability import within_caps_check
from govtree.cli import main
from govtree.directives import ResponseSampler, mock_handler
from govtree.gen import gen_input, gen_program_ast
from govtree.governance import (
    PERMISSIVE,
    GovernedHandler,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
    policy_by_name,
)
from govtree.itree import Vis
from govtree.program import Program, compile_ast, format_value, serialize_program, state_key
from govtree.reference import run_reference

SAMPLER = ResponseSampler(seed=0)
_IN = {"op": "input"}


def _reason(extract):
    return {"kind": "reason", "model": "m", "prompt": _IN, "extract": extract}


REASON = _reason({"op": "snd", "args": [_IN]})
MEMORY = {"kind": "memory", "mop": "put", "key": {"op": "str", "value": "k"}, "value": _IN,
          "extract": {"op": "fst", "args": [_IN]}}
CALL = {"kind": "call", "machine": "calc", "payload": _IN,
        "extract": {"op": "fst", "args": [_IN]}}
CODE = {"kind": "code", "expr": {"op": "concat", "args": [_IN, {"op": "str", "value": "."}]}}
COUNT = {"kind": "code", "expr": {"op": "add", "args": [{"op": "len", "args": [_IN]},
                                                         {"op": "int", "value": 1}]}}
MACHINE = {"kind": "register_machine", "registers": 2, "fuel": 6,
           "program": [["inc", 0], ["decjz", 1, 0]]}
SHORT = {"op": "lt", "args": [{"op": "len", "args": [_IN]}, {"op": "int", "value": 3}]}


def _branch(then, other):
    return {"kind": "branch", "pred": SHORT, "then": then, "else": other}


def _nested(depth, leaf, innermost, side):
    """``innermost`` under ``depth`` tensors, each with ``leaf`` on its other side."""
    t = innermost
    for _ in range(depth):
        t = {"kind": "tensor", "left": t, "right": leaf} if side == "left" else {
            "kind": "tensor", "left": leaf, "right": t}
    return t


# Shapes the generator rarely draws, each with its input.
SHAPES = {
    "deep-tensors": ({"kind": "tensor", "left": _nested(300, CODE, REASON, "left"),
                      "right": _nested(300, CODE, CALL, "right")}, ("ab", 5)),
    "branch-arms": ({"kind": "tensor", "left": _branch(REASON, CALL),
                     "right": _branch(MEMORY, CODE)}, ("ab", "long")),
    "machine-arm": ({"kind": "tensor", "left": MACHINE, "right": REASON}, ("ab", 5)),
    "machine-step": ({"kind": "seq", "steps": [REASON, MACHINE, CALL]}, "x"),
    "long-seq": ({"kind": "seq", "steps": [
        REASON if i % 500 == 0 else MEMORY if i == 1999 else COUNT for i in range(2000)
    ]}, 7),
}


@pytest.mark.parametrize("policy", ["permissive", "tags:LLMCall,Observability"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fused_image_and_reference_runs_agree(shape, policy):
    body, x = SHAPES[shape]
    morph, policy = compile_ast(body), policy_by_name(policy)
    h = mock_handler(11)
    fused = interpret_governed(govern(h), policy, morph(x), 100_000)
    image_gh = GovernedHandler(base=h, transform=govern(h).transform)
    image = interpret_governed(image_gh, policy, morph(x), 100_000)
    ref = run_reference(body, x, policy, 11)
    assert fused == image == ref  # completion, value, trace and denial
    assert format_value(fused.value) == format_value(ref.value)  # tells True from 1
    assert fused.completed or fused.denied


# What `govtree check` printed for each shape before program files ran on the machine.
CHECKS = {
    "deep-tensors": ("safety: holds", "caps [llm_reason,machine_call]: holds"),
    "branch-arms": ("safety: holds", "caps [llm_reason,machine_call,memory]: holds"),
    "machine-arm": ("safety: holds", "caps [llm_reason]: holds"),
    "machine-step": ("safety: holds", "caps [llm_reason,machine_call]: holds"),
    "long-seq": ("safety: holds", "caps [llm_reason,memory]: holds"),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_check_prints_what_it_printed_on_the_closures(shape, tmp_path, capsys):
    body, x = SHAPES[shape]
    path = tmp_path / "p.json"
    path.write_text(serialize_program(Program(x, body)))
    printed = []
    for mode in ("safety", "caps"):
        assert main(["check", str(path), "--mode", mode]) == 0
        printed.append(capsys.readouterr().out.rstrip("\n"))
    assert tuple(printed) == CHECKS[shape]


# --- state keys -----------------------------------------------------------------

def _after_first_answers(body, x):
    """The trees after the first event of ``body`` on ``x``, one per sampled answer."""
    node = compile_ast(body)(x).step()
    assert type(node) is Vis
    answers = SAMPLER.answers(node.event)
    assert len(set(answers)) == 2
    return [node.cont(a) for a in answers]


def test_paths_that_forget_an_answer_reach_one_key():
    ignores = _reason({"op": "int", "value": 0})
    first, second = _after_first_answers({"kind": "seq", "steps": [ignores, REASON]}, 7)
    assert first is not second
    assert state_key(first) == state_key(second)
    assert hash(state_key(first)) == hash(state_key(second))
    assert first.step().event == second.step().event


def test_an_extract_that_reads_the_answer_reaches_distinct_keys():
    first, second = _after_first_answers({"kind": "seq", "steps": [REASON, REASON]}, 7)
    assert state_key(first) != state_key(second)
    assert len({state_key(first), state_key(second)}) == 2


def test_keys_tell_one_from_true():
    identity = compile_ast({"kind": "code", "expr": _IN})
    one, true = identity(1), identity(True)
    assert one.step() == true.step()  # Ret(1) == Ret(True) to Python
    assert state_key(one) != state_key(true)
    # a pending value on the stack: both stop at the same event
    pair = compile_ast({"kind": "tensor", "left": REASON, "right": CODE})
    one, true = pair(("x", 1)), pair(("x", True))
    assert one.step().event == true.step().event
    assert state_key(one) != state_key(true)


def test_keys_of_two_programs_differ():
    body = {"kind": "code", "expr": _IN}
    assert state_key(compile_ast(body)(1)) != state_key(compile_ast(body)(1))


def test_every_node_has_a_key_and_equal_keys_step_alike():
    # Walk compiled programs through sampled answers: every tree has a
    # hashable key, and two trees with one key step to equal nodes.
    rng = random.Random(26)
    steps_to, visited, shared = {}, 0, 0
    for _ in range(300):
        morph = compile_ast(gen_program_ast(rng, allow_register=True))
        x = gen_input(rng)
        frontier = [morph(x), morph(x)]  # two runs: each node is reached twice
        while frontier and visited < 60_000:
            t = frontier.pop()
            key = state_key(t)
            node = t.step()
            visited += 1
            shape = (type(node), node.event if type(node) is Vis else format_value(node.value))
            if key in steps_to:
                shared += 1
                assert steps_to[key] == shape
            steps_to[key] = shape
            if type(node) is Vis:
                frontier.extend(node.cont(a) for a in SAMPLER.answers(node.event))
    assert shared >= visited // 3  # not vacuous


# --- retention -------------------------------------------------------------------

def _retained(n: int) -> int:
    """Tracked objects that an n-step seq's root, started and driven, keeps
    alive beside its compiled program."""
    step = _reason({"op": "len", "args": [{"op": "snd", "args": [_IN]}]})
    morph = compile_ast({"kind": "seq", "steps": [step] * n})
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        root = morph(0)
        out = interpret_ungoverned(mock_handler(0), root, 10 * n)
        assert out.completed and len(out.trace) == n
        del out
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def test_a_driven_root_retains_no_more_for_a_longer_seq():
    small, large = _retained(200), _retained(1600)
    assert large <= small + 10, (small, large)


def test_driven_and_checked_machines_leave_no_cycles():
    # A Vis continuation is never its own state, and a governed image is
    # built of slotted trees that no node refers back to, so neither a
    # forced node nor a governed handler is freed only by the cyclic
    # collector.
    rng = random.Random(4)
    cases = [(gen_program_ast(rng, allow_register=True), gen_input(rng)) for _ in range(200)]
    operators = [make() for make in ADVERSARIAL_OPERATORS.values()]
    gc.collect()
    gc.disable()
    try:
        for body, x in cases:
            morph = compile_ast(body)
            assert interpret_ungoverned(mock_handler(1), morph(x), 4096).completed
            assert not within_caps_check(morph.caps, morph(x), 4096, SAMPLER).is_fails
            gh = govern(mock_handler(1))
            assert interpret_governed(gh, PERMISSIVE, morph(x), 4096).completed
            assert gov_safe_check(gh.transform(morph(x)), False, 4096, SAMPLER).is_holds
            for op in operators:
                image = op.transform(mock_handler(1)).transform(morph(x))
                gov_safe_check(image, False, 4096, SAMPLER)
        assert gc.collect() == 0
    finally:
        gc.enable()
