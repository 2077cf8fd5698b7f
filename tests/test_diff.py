"""The reference interpreter and the differential campaign."""

import random

from govtree import cli
from govtree.cli import diff_campaign, render_diff
from govtree.directives import LLMCall, mock_answer, mock_handler
from govtree.gen import gen_input, gen_program_ast, gen_policy
from govtree.governance import (
    DENYING, PERMISSIVE, RunOutcome, govern, interpret_governed, tag_filter,
)
from govtree.program import compile_ast
from govtree.reference import BUGS, run_reference
from govtree.trace import GovEntry, IoEntry

import pytest


def test_reference_pure_program():
    ast = {"kind": "code", "expr": {"op": "add", "args": [{"op": "input"}, {"op": "int", "value": 1}]}}
    out = run_reference(ast, 4, PERMISSIVE, 0)
    assert out.completed and out.value == 5 and out.trace == ()


def test_reference_matches_tree_on_llm_call():
    ast = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
           "extract": {"op": "fst", "args": [{"op": "input"}]}}
    ref = run_reference(ast, "hello", PERMISSIVE, 7)
    tree = interpret_governed(govern(mock_handler(7)), PERMISSIVE, compile_ast(ast)("hello"), 10000)
    assert ref == tree
    assert ref.value == mock_answer(7, LLMCall("m", "hello")).status


def test_reference_denial():
    ast = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
           "extract": {"op": "fst", "args": [{"op": "input"}]}}
    out = run_reference(ast, "x", DENYING, 0)
    assert not out.completed and out.denied
    assert out.trace == (GovEntry("LLMCall", False),)


def test_reference_tag_filter_mid_program():
    ast = {"kind": "seq", "steps": [
        {"kind": "reason", "model": "m", "prompt": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
        {"kind": "call", "machine": "c", "payload": {"op": "input"},
         "extract": {"op": "fst", "args": [{"op": "input"}]}},
    ]}
    policy = tag_filter(["LLMCall"])
    ref = run_reference(ast, "x", policy, 3)
    tree = interpret_governed(govern(mock_handler(3)), policy, compile_ast(ast)("x"), 10000)
    assert ref == tree
    assert ref.denied and len(ref.trace) == 3  # gov+io for llm, gov fail for call


def test_reference_register_machine():
    ast = {"kind": "register_machine", "registers": 1, "fuel": 10,
           "program": [["inc", 0], ["inc", 0], ["halt"]]}
    ref = run_reference(ast, None, PERMISSIVE, 0)
    tree = interpret_governed(govern(mock_handler(0)), PERMISSIVE, compile_ast(ast)(None), 10000)
    assert ref == tree
    io_events = [e for e in ref.trace if type(e) is IoEntry]
    assert len(io_events) == 2 and "regs\\=2" in io_events[-1].directive


def test_diff_campaign_clean():
    report = diff_campaign(trials=400, seed=123, fuel=100_000)
    assert report.passed, report.fail_witnesses[:3]
    assert report.trials == 400


def test_diff_campaign_deterministic():
    r1 = diff_campaign(trials=50, seed=9, fuel=100_000)
    r2 = diff_campaign(trials=50, seed=9, fuel=100_000)
    assert render_diff(r1) == render_diff(r2)


@pytest.mark.parametrize("bug", BUGS)
def test_bugged_reference_is_caught(bug):
    report = diff_campaign(trials=400, seed=123, fuel=100_000, bug=bug)
    assert not report.passed


# Renders recorded since answers are read off the digest of their seed and
# encoding: the first ten disagreements in trial order, then the count.
PINNED_DIFF_RENDERS = {
    "mangle-status": (
        "differential campaign: 200 trials\n"
        "disagreement at trial 1: tree=(True, 48050, denied=False, 10 events) ref=(True, 156800, denied=False, 10 events) policy=permissive\n"
        "disagreement at trial 5: tree=(True, 356, denied=False, 2 events) ref=(True, 357, denied=False, 2 events) policy=permissive\n"
        "disagreement at trial 6: tree=(True, (431, 312), denied=False, 4 events) ref=(True, (432, 313), denied=False, 4 events) policy=tags:CallMachine,LLMCall,MemoryOp,Observability\n"
        "disagreement at trial 7: tree=(True, 431, denied=False, 40 events) ref=(True, 184, denied=False, 40 events) policy=tags:CallMachine,LLMCall,MemoryOp,Observability\n"
        "disagreement at trial 9: tree=(True, 235, denied=False, 10 events) ref=(True, 236, denied=False, 10 events) policy=permissive\n"
        "disagreement at trial 10: tree=(True, 283, denied=False, 2 events) ref=(True, 284, denied=False, 2 events) policy=permissive\n"
        "disagreement at trial 14: tree=(True, None, denied=False, 18 events) ref=(True, None, denied=False, 20 events) policy=permissive\n"
        "disagreement at trial 17: tree=(True, ('1461', 323), denied=False, 10 events) ref=(True, ('1471', 372), denied=False, 12 events) policy=permissive\n"
        "disagreement at trial 20: tree=(True, 296, denied=False, 2 events) ref=(True, 297, denied=False, 2 events) policy=permissive\n"
        "disagreement at trial 24: tree=(True, 237, denied=False, 2 events) ref=(True, 238, denied=False, 2 events) policy=permissive\n"
        "disagreements=86 FAIL\n"
    ),
    "drop-gov-trace": (
        "differential campaign: 200 trials\n"
        "disagreement at trial 0: tree=(False, None, denied=True, 1 events) ref=(False, None, denied=True, 0 events) policy=denying\n"
        "disagreement at trial 1: tree=(True, 48050, denied=False, 10 events) ref=(True, 48050, denied=False, 5 events) policy=permissive\n"
        "disagreement at trial 5: tree=(True, 356, denied=False, 2 events) ref=(True, 356, denied=False, 1 events) policy=permissive\n"
        "disagreement at trial 6: tree=(True, (431, 312), denied=False, 4 events) ref=(True, (431, 312), denied=False, 2 events) policy=tags:CallMachine,LLMCall,MemoryOp,Observability\n"
        "disagreement at trial 7: tree=(True, 431, denied=False, 40 events) ref=(True, 431, denied=False, 20 events) policy=tags:CallMachine,LLMCall,MemoryOp,Observability\n"
        "disagreement at trial 9: tree=(True, 235, denied=False, 10 events) ref=(True, 235, denied=False, 5 events) policy=permissive\n"
        "disagreement at trial 10: tree=(True, 283, denied=False, 2 events) ref=(True, 283, denied=False, 1 events) policy=permissive\n"
        "disagreement at trial 11: tree=(False, None, denied=True, 1 events) ref=(False, None, denied=True, 0 events) policy=tags:CallMachine,LLMCall,Observability\n"
        "disagreement at trial 12: tree=(True, 0, denied=False, 2 events) ref=(True, 0, denied=False, 1 events) policy=permissive\n"
        "disagreement at trial 13: tree=(False, None, denied=True, 1 events) ref=(False, None, denied=True, 0 events) policy=denying\n"
        "disagreements=141 FAIL\n"
    ),
    "invert-deny": (
        "differential campaign: 200 trials\n"
        "disagreement at trial 0: tree=(False, None, denied=True, 1 events) ref=(True, (162, (None, 89)), denied=False, 6 events) policy=denying\n"
        "disagreement at trial 11: tree=(False, None, denied=True, 1 events) ref=(True, 384, denied=False, 2 events) policy=tags:CallMachine,LLMCall,Observability\n"
        "disagreement at trial 13: tree=(False, None, denied=True, 1 events) ref=(True, 525, denied=False, 2 events) policy=denying\n"
        "disagreement at trial 19: tree=(False, None, denied=True, 1 events) ref=(True, 1, denied=False, 2 events) policy=tags:\n"
        "disagreement at trial 21: tree=(False, None, denied=True, 1 events) ref=(True, 4, denied=False, 2 events) policy=tags:LLMCall,MemoryOp,Observability\n"
        "disagreement at trial 25: tree=(False, None, denied=True, 1 events) ref=(True, None, denied=False, 10 events) policy=tags:CallMachine,LLMCall,MemoryOp\n"
        "disagreement at trial 26: tree=(False, None, denied=True, 1 events) ref=(True, (3, '9:omega43'), denied=False, 6 events) policy=denying\n"
        "disagreement at trial 29: tree=(False, None, denied=True, 11 events) ref=(True, ((('delta100', 0), None), 488), denied=False, 12 events) policy=tags:CallMachine,Observability\n"
        "disagreement at trial 42: tree=(False, None, denied=True, 1 events) ref=(True, (42, None), denied=False, 10 events) policy=denying\n"
        "disagreement at trial 44: tree=(False, None, denied=True, 1 events) ref=(True, ((234, None), 0), denied=False, 4 events) policy=denying\n"
        "disagreements=38 FAIL\n"
    ),
}


@pytest.mark.parametrize("bug", BUGS)
def test_bugged_reference_render_is_pinned(bug):
    report = diff_campaign(trials=200, seed=123, fuel=100_000, bug=bug)
    assert render_diff(report) == PINNED_DIFF_RENDERS[bug]


def test_unknown_bug_rejected():
    with pytest.raises(ValueError):
        run_reference({"kind": "code", "expr": {"op": "unit"}}, 0, PERMISSIVE, 0, bug="nope")


def test_pipelines_agree_pointwise():
    for i in range(150):
        rng = random.Random(i)
        ast = gen_program_ast(rng, allow_register=True)
        x = gen_input(rng)
        policy = gen_policy(rng)
        seed = rng.randrange(2**32)
        ref = run_reference(ast, x, policy, seed)
        tree = interpret_governed(govern(mock_handler(seed)), policy, compile_ast(ast)(x), 100_000)
        assert ref == tree, (i, ast)


@pytest.mark.parametrize("fuel, starved", [(3, 35), (0, 130)])
def test_fuel_starved_trials_are_unknown_not_disagreements(fuel, starved):
    report = diff_campaign(trials=200, seed=0, fuel=fuel)
    assert (report.fails, report.unknowns) == (0, starved)
    assert render_diff(report).endswith(f"fuel-starved={starved}\ndisagreements=0 PASS\n")


def test_diff_prints_no_fuel_starved_line_when_none_starved():
    assert "fuel-starved" not in render_diff(diff_campaign(trials=50, seed=0, fuel=100_000))


A, B = GovEntry("LLMCall", True), GovEntry("MemoryOp", True)
REFERENCE = RunOutcome(True, 1, (A, B), False)


@pytest.mark.parametrize(
    "tree, verdict",
    [
        (RunOutcome(True, 1, (A, B), False, 2), "holds"),
        (RunOutcome(False, None, (A,), False, 5), "unknown"),  # starved on a prefix
        (RunOutcome(False, None, (), False, 5), "unknown"),
        (RunOutcome(False, None, (A,), False, 4), "fails"),  # stopped with fuel left
        (RunOutcome(False, None, (B,), False, 5), "fails"),  # not a prefix
        (RunOutcome(False, None, (A, B, A), False, 5), "fails"),  # longer than the reference
        (RunOutcome(False, None, (A,), True, 5), "fails"),  # denied
    ],
)
def test_only_a_fuel_starved_prefix_is_unknown(monkeypatch, tree, verdict):
    monkeypatch.setattr(cli, "interpret_governed", lambda gh, policy, t, fuel: tree)
    monkeypatch.setattr(cli, "run_reference", lambda *args, **kwargs: REFERENCE)
    report = diff_campaign(trials=1, seed=0, fuel=5)
    assert (report.holds, report.unknowns, report.fails) == (
        verdict == "holds", verdict == "unknown", verdict == "fails"
    )
