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
  staying governed costs no computational power. ``check_register_agreement``
  backs it: each ``register_machine`` node, compiled by
  ``program.compile_ast``, emits the steps of ``reference.register_steps``
  and is governed. ``enumerate_register_programs`` yields every small
  node, and ``register_tree_steps`` reads a compiled node's steps.
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

import itertools
import json
from typing import Iterable

from .algebra import BUNDLED_OPERATOR, CampaignReport, check_G1, check_derived, run_campaign
from .directives import SIGNATURE, ResponseSampler, _UNIT, mock_handler
from .gen import gen_directive, gen_input, gen_program_ast
from .governance import PERMISSIVE, bare_io, drive, gov_safe_check, govern, interpret_governed
from .itree import BoundedVerdict, Fuel, ITree, combine_verdicts, fails, unknown
from .program import PRIMITIVES, compile_ast
from .reference import register_steps

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


def register_tree_steps(t: ITree, drive_fuel: int) -> "list | None":
    """The observability messages a compiled register tree emits, driven
    with unit answers, or None if the run did not complete."""
    out = drive(t, drive_fuel, lambda d: (d.message, _UNIT))
    return list(out.trace) if out.completed else None


def enumerate_register_programs(max_len: int, fuel: int) -> "Iterable[dict]":
    """Every two-register ``register_machine`` node of ``fuel`` up to
    ``max_len`` instructions over a small alphabet: ``inc`` and ``decjz`` on
    each register, jumps to instruction 0 or 1 (where in bounds), and ``halt``."""
    for n in range(1, max_len + 1):
        symbols = [["inc", 0], ["inc", 1]]
        symbols += [["decjz", r, t] for r in (0, 1) for t in (0, 1) if t < n]
        symbols.append(["halt"])
        for combo in itertools.product(symbols, repeat=n):
            yield {"kind": "register_machine", "registers": 2, "fuel": fuel,
                   "program": [list(ins) for ins in combo]}


def check_register_agreement(nodes: Iterable[dict], sampler: ResponseSampler) -> BoundedVerdict:
    """Compiled ``register_machine`` nodes agree step-for-step with
    ``reference.register_steps`` on the node's listing, and their governed
    images pass the safety check at fuel 4096. Both walks share the one
    compiled chain's steps."""
    gh = govern(mock_handler(0))

    def agree(node):
        tree = compile_ast(node)(None)
        expected = list(register_steps(node["program"], node["registers"], node["fuel"]))
        got = register_tree_steps(tree, drive_fuel=4 * node["fuel"] + 8)
        if got != expected:
            pairs = enumerate(itertools.zip_longest(got or (), expected))
            at = next((i for i, (a, b) in pairs if a != b), 0)  # 0: a run that did not end
            return fails((f"register trace mismatch at step {at} for {json.dumps(node)}",))
        v = gov_safe_check(gh.transform(tree), False, 4096, sampler)
        if v.is_fails:
            return fails((f"governed register program unsafe: {json.dumps(node)}",) + v.witness)
        return v

    return combine_verdicts(map(agree, nodes))
