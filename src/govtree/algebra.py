"""The seeded campaign loop, and the conformance harness for operators.

An operator is anything that turns a base handler into a governed
handler. The three axioms are checked statistically over seeded random
programs; a reported failure is a real counterexample, a clean run is
evidence, not proof.

* G1 (safety): the governed image of any program passes the bounded
  safety check with the approval flag down.
* G2 (transparency): under a permissive policy, a governed run and an
  ungoverned run of the same program through the same handler agree on
  the result and on the I/O events (governance entries erased).
* G3 (properness): two extensionally equal handlers produce governed
  runs that agree on result and full trace.

Three adversarial operators are bundled to show the axioms are
independent: one inserts no checks (breaks G1 only), one tweaks
permitted answers (breaks G2 only), one stamps a per-handler token into
its check stages (breaks G3 only).

Every campaign (the ones here, the ledger ``tamper_check``, ``boundary``
and the CLI's differential test) is a ``trial(rng, i)`` function run by
``run_campaign``. Trial ``i`` draws from ``derive_rng(label, seed, i)``,
and its verdict is tallied in a ``CheckSummary`` whose ``fail_witnesses``
list every failing trial with its witness. ``CampaignReport`` is the one
report over several summaries (``run_conformance``,
``boundary.run_coterminous``); a single campaign returns its
``CheckSummary``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from .directives import (
    Handler,
    ResponseSampler,
    derive_rng,
    mock_answer,
    mock_handler,
)
from .governance import (
    PERMISSIVE,
    Gov,
    GovernedHandler,
    Io,
    bare_io,
    check_gate,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
    rewrap,
    stage_of,
)
from .itree import BoundedVerdict, Fuel, Vis, fails, holds, ret, unknown
from .trace import IoEntry
from .gen import gen_directive, gen_input, gen_program_ast, gen_register_program, gen_trace_event
from .ledger import Ledger, _substitute, ledger_valid
from .category import translate_register_program
from .program import compile_ast


@dataclass(frozen=True)
class GovernanceOperator:
    name: str
    transform: Callable[[Handler], GovernedHandler]


BUNDLED_OPERATOR = GovernanceOperator("bundled", govern)


def no_check_operator() -> GovernanceOperator:
    """Forwards I/O without inserting any checks; violates G1."""

    def make(h: Handler) -> GovernedHandler:
        def on_vis(d, cont, rec):
            return Vis(Io(d), lambda x: rec(cont(x)))

        return rewrap(h, on_vis)

    return GovernanceOperator("no-check", make)


def result_mangling_operator() -> GovernanceOperator:
    """Checks properly but nudges every permitted record answer before
    handing it to the continuation; violates G2."""

    def mangle(x):
        return x if x is None else replace(x, status=x.status + 1)

    def make(h: Handler) -> GovernedHandler:
        def on_vis(d, cont, rec):
            return check_gate(d, lambda x: cont(mangle(x)), rec)

        return rewrap(h, on_vis)

    return GovernanceOperator("mangle-results", make)


def fingerprinting_operator() -> GovernanceOperator:
    """Stamps a per-handler token into every check stage, distinguishing
    extensionally equal handlers; violates G3."""
    # Keyed on the handler itself, not its id: a freed handler's id is
    # reused, and would hand its token to the next handler.
    tokens: dict[Handler, int] = {}

    def make(h: Handler) -> GovernedHandler:
        token = tokens.setdefault(h, len(tokens))

        def on_vis(d, cont, rec):
            gate = check_gate(d, cont, rec)
            return Vis(Gov(f"{stage_of(d)}#h{token}", d), gate.cont)

        return rewrap(h, on_vis)

    return GovernanceOperator("fingerprint", make)


ADVERSARIAL_OPERATORS = {
    "no-check": no_check_operator,
    "mangle-results": result_mangling_operator,
    "fingerprint": fingerprinting_operator,
}


def operator_by_name(name: str) -> GovernanceOperator:
    if name == "bundled":
        return BUNDLED_OPERATOR
    if name in ADVERSARIAL_OPERATORS:
        return ADVERSARIAL_OPERATORS[name]()
    raise ValueError(f"unknown operator {name!r}")


@dataclass
class CheckSummary:
    """Tally of verdicts over a campaign. ``fail_witnesses`` is its one
    failure record: every failing ``(key, witness)`` in trial order."""

    name: str
    trials: int = 0
    holds: int = 0
    fails: int = 0
    unknowns: int = 0
    expect_fails: bool = False
    fail_witnesses: list = field(default_factory=list)

    def record(self, verdict, key) -> None:
        self.trials += 1
        if verdict.is_fails:
            self.fails += 1
            self.fail_witnesses.append((key, verdict.witness))
        elif verdict.is_unknown:
            self.unknowns += 1
        else:
            self.holds += 1

    @property
    def passed(self) -> bool:
        if self.expect_fails:
            return self.trials > 0 and self.fails == self.trials
        return self.fails == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<18} trials={self.trials:<6} holds={self.holds:<6} "
            f"fails={self.fails:<6} unknowns={self.unknowns:<6} {status}"
        )


@dataclass(frozen=True)
class CampaignReport:
    """A titled set of campaign summaries; it passes when each of them does."""

    title: str
    summaries: tuple

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.summaries)

    def render(self) -> str:
        lines = [self.title] + [s.line() for s in self.summaries]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "".join(line + "\n" for line in lines)


def run_campaign(
    name: str,
    label: str,
    seed: int,
    trials: int,
    trial: Callable[[random.Random, int], BoundedVerdict],
    expect_fails: bool = False,
) -> CheckSummary:
    """The seeded campaign loop: trial ``i`` is
    ``trial(derive_rng(label, seed, i), i)`` and its verdict is recorded
    under key ``i``, so every trial replays from its label, seed and index."""
    summary = CheckSummary(name, expect_fails=expect_fails)
    for i in range(trials):
        summary.record(trial(derive_rng(label, seed, i), i), i)
    return summary


def _trial_program(rng: random.Random, **gen_kwargs) -> tuple:
    """A generated program compiled once on a generated input, and the
    seed for its mock handler."""
    ast = gen_program_ast(rng, **gen_kwargs)
    tree = compile_ast(ast)(gen_input(rng))
    return tree, rng.randrange(2**32)


def check_G1(
    op: GovernanceOperator,
    trials: int,
    fuel: Fuel,
    sampler: ResponseSampler,
    seed: int,
    force_effectful: bool = False,
) -> CheckSummary:
    """Safety: governed images of random programs never fail the bounded
    safety check with the approval flag down."""

    def trial(rng, i):
        tree, handler_seed = _trial_program(rng, force_effectful=force_effectful)
        gh = op.transform(mock_handler(handler_seed))
        return gov_safe_check(gh.transform(tree), False, fuel, sampler)

    return run_campaign(f"G1[{op.name}]", "g1", seed, trials, trial)


def _erase_gov(trace) -> tuple:
    return tuple(ev for ev in trace if type(ev) is IoEntry)


def check_G2(
    op: GovernanceOperator,
    trials: int,
    fuel: Fuel,
    sampler: ResponseSampler,
    seed: int,
    values_only: bool = False,
) -> CheckSummary:
    """Transparency: permissive governed runs match ungoverned runs on
    value and, unless ``values_only``, on the erased event sequence."""

    def trial(rng, i):
        tree, handler_seed = _trial_program(rng)
        h = mock_handler(handler_seed)
        governed = interpret_governed(op.transform(h), PERMISSIVE, tree, fuel)
        plain = interpret_ungoverned(h, tree, fuel)
        if not governed.completed or not plain.completed:
            return unknown("fuel-exhausted")
        if governed.value == plain.value and (
            values_only or _erase_gov(governed.trace) == plain.trace
        ):
            return holds()
        return fails((f"governed {governed.value!r} vs ungoverned {plain.value!r}",))

    name = "goal_preservation" if values_only else "G2"
    return run_campaign(f"{name}[{op.name}]", "g2", seed, trials, trial)


def check_G3(
    op: GovernanceOperator,
    trials: int,
    fuel: Fuel,
    sampler: ResponseSampler,
    seed: int,
) -> CheckSummary:
    """Properness: extensionally equal handlers give identical governed
    runs (value and full trace, check stages included)."""

    def trial(rng, i):
        tree, handler_seed = _trial_program(rng)
        # Both handlers stay alive together: an operator may tell handlers
        # apart by identity, and that is what this axiom must catch.
        h1 = mock_handler(handler_seed)
        h2 = mock_handler(handler_seed)
        out1 = interpret_governed(op.transform(h1), PERMISSIVE, tree, fuel)
        out2 = interpret_governed(op.transform(h2), PERMISSIVE, tree, fuel)
        if out1.completed != out2.completed:
            return fails(("one run completed, the other did not",))
        if not out1.completed:
            return unknown("fuel-exhausted")
        if out1.value == out2.value and out1.trace == out2.trace:
            return holds()
        return fails(("equal handlers, different governed runs",))

    return run_campaign(f"G3[{op.name}]", "g3", seed, trials, trial)


def filtering_handler(seed: int) -> Handler:
    """A base handler with content governance baked in: answers are
    seeded mocks with their content censored."""

    def h(d):
        answer = mock_answer(seed, d)
        if answer is not None:
            answer = replace(answer, content="[filtered]")
        return ret(answer)

    return h


def check_derived(
    op: GovernanceOperator,
    trials: int,
    fuel: Fuel,
    sampler: ResponseSampler,
    seed: int,
) -> dict:
    """The derived safety properties, re-checked on top of the axioms."""

    def convergence(rng, i):
        # Safety again, over fuel-unrolled register programs.
        program = gen_register_program(rng)
        gh = op.transform(mock_handler(rng.randrange(2**32)))
        tree = translate_register_program(program, rng.randrange(1, 16))
        return gov_safe_check(gh.transform(tree), False, fuel, sampler)

    def subsumption_pos(rng, i):
        # Content-filtering handlers are still governed.
        tree, handler_seed = _trial_program(rng)
        gh = op.transform(filtering_handler(handler_seed))
        return gov_safe_check(gh.transform(tree), False, fuel, sampler)

    def subsumption_neg(rng, i):
        # Bare I/O is unsafe, whatever the operator.
        return gov_safe_check(bare_io(gen_directive(rng)), False, fuel, sampler)

    return {
        "convergence": run_campaign(
            f"convergence[{op.name}]", "conv", seed, trials, convergence
        ),
        "subsumption_pos": run_campaign(
            f"subsumption_pos[{op.name}]", "subpos", seed, trials, subsumption_pos
        ),
        "subsumption_neg": run_campaign(
            "subsumption_neg", "subneg", seed, max(1, trials // 10), subsumption_neg,
            expect_fails=True,
        ),
    }


def run_conformance(
    op: GovernanceOperator,
    trials: int,
    fuel: Fuel,
    sampler: ResponseSampler,
    seed: int,
) -> CampaignReport:
    axioms = (
        check_G1(op, trials, fuel, sampler, seed),
        check_G2(op, trials, fuel, sampler, seed),
        check_G3(op, trials, fuel, sampler, seed),
    )
    n = max(1, trials // 5)
    derived = check_derived(op, n, fuel, sampler, seed)
    derived["goal_preservation"] = check_G2(op, n, fuel, sampler, seed, values_only=True)
    return CampaignReport(
        f"conformance report for operator {op.name!r}",
        axioms + tuple(derived[key] for key in sorted(derived)),
    )


def tamper_check(ledger: Ledger, mutations: int, seed: int) -> CheckSummary:
    """Each trial substitutes a random event into a random entry under its
    stored hashes and fails when ``ledger_valid`` rejects the result."""
    if not ledger.entries:
        raise ValueError("tamper_check needs a nonempty ledger")

    def trial(rng, i):
        idx = rng.randrange(len(ledger.entries))
        new_event = gen_trace_event(rng)
        while new_event == ledger.entries[idx].event:
            new_event = gen_trace_event(rng)
        ok, bad = ledger_valid(_substitute(ledger.entries, idx, new_event, rng.random() < 0.5))
        return holds() if ok else fails((f"entry {idx} substituted, rejected at {bad}",))

    return run_campaign("tamper", "tamper", seed, mutations, trial, expect_fails=True)
