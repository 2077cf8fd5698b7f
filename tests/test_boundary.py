from govtree.boundary import (
    EFFECTFUL_VARIANTS,
    run_coterminous,
)
from govtree.directives import ResponseSampler
from govtree.gen import gen_program_ast
from govtree.program import compile_ast

import random

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
