from govtree.boundary import (
    EFFECTFUL_VARIANTS,
    run_coterminous,
)
from govtree.directives import ResponseSampler
from govtree.gen import ast_kind_count, gen_program_ast
from govtree.program import compile_ast

import random

import pytest

SAMPLER = ResponseSampler(seed=0)


def test_twelve_effectful_variants():
    assert len(EFFECTFUL_VARIANTS) == 12


def test_coterminous_report_small_campaign():
    report = run_coterminous(60, 4096, SAMPLER, seed=5)
    assert report.passed
    s = {summary.name: summary for summary in report.summaries}
    assert s["safety"].fails == 0
    assert s["nontrivial"].trials == 12 and s["nontrivial"].fails == 12
    assert s["turing"].fails == 0
    assert s["subsumption_pos"].fails == 0
    assert s["subsumption_neg"].fails == s["subsumption_neg"].trials >= 1
    assert s["cognitive"].fails == 0


def test_fuel_starved_cognitive_trials_are_unknown():
    # Every generated program terminates, so a permissive run cut short at
    # fuel 3 has run out of fuel, which is no counterexample.
    s = {summary.name: summary for summary in run_coterminous(20, 3, SAMPLER, 0).summaries}
    assert s["cognitive"].fails == 0
    assert s["cognitive"].unknowns >= 1


def test_report_deterministic_per_seed():
    r1 = run_coterminous(30, 4096, SAMPLER, seed=8)
    r2 = run_coterminous(30, 4096, SAMPLER, seed=8)
    assert r1.render() == r2.render()


def test_render_mentions_every_field():
    text = run_coterminous(20, 4096, SAMPLER, seed=1).render()
    for word in ("safety", "nontrivial", "turing", "subsumption_pos",
                 "subsumption_neg", "cognitive", "overall"):
        assert word in text


def test_generator_closure():
    # generated programs compile under the program-file compiler, which
    # only admits the expressible node kinds
    for i in range(200):
        rng = random.Random(i)
        ast = gen_program_ast(rng, allow_register=True)
        compile_ast(ast)


@pytest.mark.parametrize("kind", ["code", "reason", "memory", "call"])
def test_must_include_adds_only_the_kind_asked_for(kind):
    for i in range(200):
        base = gen_program_ast(random.Random(i), max_depth=1)
        ast = gen_program_ast(random.Random(i), max_depth=1, must_include=kind)
        if ast_kind_count(base, kind):
            assert ast == base, i
        else:  # the same program, then one node of the kind asked for
            assert ast["steps"][0] == base and len(ast["steps"]) == 2, i
            assert ast["steps"][1]["kind"] == kind, i


def test_must_include_refuses_a_kind_it_cannot_add():
    with pytest.raises(ValueError, match="not an effectful kind: 'seq'"):
        for i in range(200):
            gen_program_ast(random.Random(i), max_depth=0, must_include="seq")
