from govtree.boundary import (
    EFFECTFUL_VARIANTS,
    render_coterminous,
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
    assert report.safety.fails == 0
    assert report.nontrivial.trials == 12 and report.nontrivial.fails == 12
    assert report.turing.fails == 0
    assert report.subsumption_pos.fails == 0
    assert report.subsumption_neg.fails == report.subsumption_neg.trials >= 1
    assert report.cognitive.fails == 0


def test_report_deterministic_per_seed():
    r1 = run_coterminous(30, 4096, SAMPLER, seed=8)
    r2 = run_coterminous(30, 4096, SAMPLER, seed=8)
    assert render_coterminous(r1) == render_coterminous(r2)


def test_render_mentions_every_field():
    text = render_coterminous(run_coterminous(20, 4096, SAMPLER, seed=1))
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
