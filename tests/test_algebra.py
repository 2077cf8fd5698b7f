"""Conformance harness: the bundled operator passes, adversaries fail
exactly their targeted axiom."""

from govtree.algebra import (
    BUNDLED_OPERATOR,
    CheckSummary,
    GovernanceOperator,
    check_G1,
    check_G2,
    check_G3,
    check_derived,
    fingerprinting_operator,
    no_check_operator,
    operator_by_name,
    result_mangling_operator,
    run_conformance,
)
from govtree.directives import HTTPRequest, LLMCall, ResponseSampler, mock_handler
from govtree.governance import (
    PERMISSIVE,
    GovernedHandler,
    gov_safe_check,
    govern,
    interpret_governed,
)
from govtree.itree import ret, vis

import pytest

SAMPLER = ResponseSampler(seed=0)
FUEL = 4096
TRIALS = 150
SEED = 2026


def test_bundled_operator_passes_all_axioms():
    assert check_G1(BUNDLED_OPERATOR, TRIALS, FUEL, SAMPLER, SEED).passed
    assert check_G2(BUNDLED_OPERATOR, TRIALS, FUEL, SAMPLER, SEED).passed
    assert check_G3(BUNDLED_OPERATOR, TRIALS, FUEL, SAMPLER, SEED).passed


def test_no_check_operator_fails_exactly_g1():
    op = no_check_operator()
    g1 = check_G1(op, TRIALS, FUEL, SAMPLER, SEED, force_effectful=True)
    assert g1.fails >= 1
    assert check_G2(op, TRIALS, FUEL, SAMPLER, SEED).passed
    assert check_G3(op, TRIALS, FUEL, SAMPLER, SEED).passed


def test_no_check_operator_fails_on_single_http_request():
    op = no_check_operator()
    gh = op.transform(mock_handler(0))
    tree = gh.transform(vis(HTTPRequest("GET", "u", "b"), lambda x: ret(None)))
    assert gov_safe_check(tree, False, FUEL, SAMPLER).is_fails


def test_mangling_operator_fails_exactly_g2():
    op = result_mangling_operator()
    assert check_G1(op, TRIALS, FUEL, SAMPLER, SEED, force_effectful=True).passed
    g2 = check_G2(op, TRIALS, FUEL, SAMPLER, SEED)
    assert g2.fails >= 1
    assert check_G3(op, TRIALS, FUEL, SAMPLER, SEED).passed


def test_mangling_operator_directed_failure():
    # a program whose value is exactly the answer status must differ by one
    op = result_mangling_operator()
    h = mock_handler(0)
    program = lambda: vis(LLMCall("m", "p"), lambda x: ret(x.status))
    governed = interpret_governed(op.transform(h), PERMISSIVE, program(), FUEL)
    plain = interpret_governed(govern(h), PERMISSIVE, program(), FUEL)
    assert governed.value == plain.value + 1


def test_fingerprinting_operator_fails_exactly_g3():
    op = fingerprinting_operator()
    assert check_G1(op, TRIALS, FUEL, SAMPLER, SEED, force_effectful=True).passed
    assert check_G2(op, TRIALS, FUEL, SAMPLER, SEED).passed
    g3 = check_G3(op, TRIALS, FUEL, SAMPLER, SEED)
    assert g3.fails >= 1


def test_g3_same_handler_object_holds_even_for_fingerprinter():
    op = fingerprinting_operator()
    h = mock_handler(5)
    program = vis(LLMCall("m", "p"), lambda x: ret(x.status))
    out1 = interpret_governed(op.transform(h), PERMISSIVE, program, FUEL)
    out2 = interpret_governed(op.transform(h), PERMISSIVE, program, FUEL)
    assert out1 == out2


def test_fingerprint_tokens_outlive_their_handlers():
    # Each handler is freed before the next is made, so the second often
    # gets the first's id; it must still get its own token.
    op = fingerprinting_operator()
    program = vis(LLMCall("m", "p"), lambda x: ret(x.status))
    for seed in range(100):
        out1 = interpret_governed(op.transform(mock_handler(seed)), PERMISSIVE, program, FUEL)
        out2 = interpret_governed(op.transform(mock_handler(seed)), PERMISSIVE, program, FUEL)
        assert out1.trace[0].stage != out2.trace[0].stage, seed


def test_trivial_operator_safe_on_unit_programs():
    def make(h):
        return GovernedHandler(base=h, transform=lambda t: ret(None))

    op = GovernanceOperator("trivial", make)
    g1 = check_G1(op, 50, FUEL, SAMPLER, SEED)
    assert g1.fails == 0


def test_derived_properties_for_bundled_operator():
    derived = check_derived(BUNDLED_OPERATOR, 50, FUEL, SAMPLER, SEED)
    assert set(derived) == {"convergence", "subsumption_pos", "subsumption_neg"}
    for name, summary in derived.items():
        assert summary.passed, name
    assert derived["subsumption_neg"].expect_fails
    assert derived["subsumption_neg"].fails == derived["subsumption_neg"].trials


def test_run_conformance_and_render_deterministic():
    r1 = run_conformance(BUNDLED_OPERATOR, 50, FUEL, SAMPLER, SEED)
    r2 = run_conformance(BUNDLED_OPERATOR, 50, FUEL, SAMPLER, SEED)
    assert r1.passed
    assert r1.render() == r2.render()
    assert "G1[bundled]" in r1.render()


def test_operator_by_name():
    assert operator_by_name("bundled") is BUNDLED_OPERATOR
    assert operator_by_name("no-check").name == "no-check"
    with pytest.raises(ValueError):
        operator_by_name("nonsense")


def test_check_summary_expectation_logic():
    s = CheckSummary("x")
    assert s.passed  # zero trials, zero fails
    neg = CheckSummary("y", expect_fails=True)
    assert not neg.passed  # needs at least one demonstrated failure
