"""The boundary report: expressibility and governedness coincide.

Five bundled checks, in six seeded campaigns run by
``algebra.run_campaign`` and returned as one ``algebra.CampaignReport``
titled ``boundary report``. Safety is G1 for the bundled operator, turing
and subsumption (positive and negative) are its derived campaigns, and
nontrivial and cognitive are defined here:

* safety: random expressible programs are governed (no safety failures).
* nontrivial: a bare I/O node for every effectful directive variant is
  demonstrably unsafe; here the failures are the point.
* turing: fuel-unrolled register machine programs are governed too, so
  staying governed costs no computational power.
* subsumption: handlers with content filtering baked in stay governed
  (positive), while unmediated I/O stays excluded (negative).
* cognitive: each of the four primitive roles appears in some generated,
  governed, terminating program.

The reverse inclusion, that every governed program is the image of an
expressible one, holds by construction: the governance wrapper only
accepts directive trees, which are exactly what ``program.compile_ast``
builds from the four primitive kinds (``code`` and the ``PRIMITIVES``
rows) and its combinators. That is an interface fact, documented rather
than tested.
"""

from __future__ import annotations

from .algebra import BUNDLED_OPERATOR, CampaignReport, check_G1, check_derived, run_campaign
from .directives import SIGNATURE, ResponseSampler, mock_handler
from .gen import gen_directive, gen_input, gen_program_ast
from .governance import PERMISSIVE, bare_io, gov_safe_check, govern, interpret_governed
from .itree import Fuel, unknown
from .program import PRIMITIVES, compile_ast

EFFECTFUL_VARIANTS = tuple(t for t, (_, cap) in SIGNATURE.items() if cap is not None)

_PRIMITIVE_ROLES = ("code", *PRIMITIVES)


def run_coterminous(
    trials: int, fuel: Fuel, sampler: ResponseSampler, seed: int
) -> CampaignReport:
    derived = check_derived(BUNDLED_OPERATOR, trials, fuel, sampler, seed)
    derived["convergence"].name = "turing"
    derived["subsumption_pos"].name = "subsumption_pos"
    safety = check_G1(BUNDLED_OPERATOR, trials, fuel, sampler, seed)
    safety.name = "safety"

    def nontrivial(rng, i):
        d = gen_directive(rng, EFFECTFUL_VARIANTS[i].__name__)
        return gov_safe_check(bare_io(d), False, fuel, sampler)

    def cognitive(rng, i):
        role = _PRIMITIVE_ROLES[i % len(_PRIMITIVE_ROLES)]
        ast = gen_program_ast(rng, must_include=role)
        tree = compile_ast(ast)(gen_input(rng))
        gh = govern(mock_handler(rng.randrange(2**32)))
        # Permissive with a mock handler, a run cut short has run out of fuel.
        if not interpret_governed(gh, PERMISSIVE, tree, fuel).completed:
            return unknown("fuel-exhausted")
        return gov_safe_check(gh.transform(tree), False, fuel, sampler)

    return CampaignReport("boundary report", (
        safety,
        run_campaign(
            "nontrivial", "nontrivial", seed, len(EFFECTFUL_VARIANTS), nontrivial,
            expect_fails=True,
        ),
        derived["convergence"],
        derived["subsumption_pos"],
        derived["subsumption_neg"],
        run_campaign("cognitive", "cognitive", seed, trials, cognitive),
    ))
