"""Campaigns, the conformance harness for operators, and the monoidal laws.

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

The monoidal laws compare paths of program nodes, compiled by
``compile_ast`` and run on the machine that runs program files; each
structural morphism, such as ``BRAIDING``, is one ``code`` node. The
composition laws do the same: ``check_trace_of_bind`` (governed
interpretation distributes over ``seq``) and ``check_bind_within_caps``
(capability bounds compose under ``seq``) build their composite as the
``seq`` of two program nodes, and ``interp_tensor_distribute_check``
shares the trace comparison with the first for ``tensor``.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from .directives import (
    Handler,
    ResponseSampler,
    derive_rng,
    directive_tag,
    mock_answer,
    mock_handler,
)
from .governance import (
    PERMISSIVE,
    Gov,
    GovernancePolicy,
    GovernedHandler,
    Io,
    _resume,
    bare_io,
    check_gate,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
    rewrap,
)
from .itree import (
    BoundedVerdict, Fuel, Vis, _new, combine_verdicts, fails, holds, ret, run_pure, unknown,
)
from .trace import IoEntry
from .gen import gen_directive, gen_input, gen_program_ast, gen_register_program, gen_trace_event
from .ledger import Ledger, _substitute, ledger_valid
from .capability import format_caps, sample_returns, within_caps_check
from .program import compile_ast


@dataclass(frozen=True)
class GovernanceOperator:
    name: str
    transform: Callable[[Handler], GovernedHandler]


BUNDLED_OPERATOR = GovernanceOperator("bundled", govern)


def _forward(d, cont, rec):  # Io(d) with no check before it
    return _new(Vis, (_new(Io, (d,)), partial(_resume, cont, rec)))


def no_check_operator() -> GovernanceOperator:
    """Forwards I/O without inserting any checks; violates G1."""
    return GovernanceOperator("no-check", lambda h: rewrap(h, _forward))


def _mangled(cont, x):  # cont on the answer x, a record answer's status + 1
    return cont(x if x is None else x._replace(status=x.status + 1))


def _mangling_gate(d, cont, rec):  # check_gate, each record answer's status + 1
    return check_gate(d, partial(_mangled, cont), rec)


def result_mangling_operator() -> GovernanceOperator:
    """Checks properly but nudges every permitted record answer before
    handing it to the continuation; violates G2."""
    return GovernanceOperator("mangle-results", lambda h: rewrap(h, _mangling_gate))


def fingerprinting_operator() -> GovernanceOperator:
    """Stamps a per-handler token into every check stage, distinguishing
    extensionally equal handlers; violates G3."""
    # Keyed on the handler itself, not its id: a freed handler's id is
    # reused, and would hand its token to the next handler. The keys are
    # weak, so a campaign keeps no handler alive, and a token is never
    # drawn twice.
    tokens: weakref.WeakKeyDictionary[Handler, int] = weakref.WeakKeyDictionary()
    fresh = itertools.count()

    def make(h: Handler) -> GovernedHandler:
        token = tokens.get(h)
        if token is None:
            token = tokens[h] = next(fresh)

        def on_vis(d, cont, rec):
            gate = check_gate(d, cont, rec)
            return _new(Vis, (_new(Gov, (f"{directive_tag(d)}#h{token}", d)), gate.cont))

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
            answer = answer._replace(content="[filtered]")
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
        listing = gen_register_program(rng)
        gh = op.transform(mock_handler(rng.randrange(2**32)))
        node = {"kind": "register_machine", "registers": 2,
                "fuel": rng.randrange(1, 16), "program": listing}
        return gov_safe_check(gh.transform(compile_ast(node)(None)), False, fuel, sampler)

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


def _op(op: str, *args) -> dict:
    return {"op": op, "args": list(args)}


def _seq(*steps) -> dict:
    return {"kind": "seq", "steps": list(steps)}


def _tensor(left: dict, right: dict) -> dict:
    return {"kind": "tensor", "left": left, "right": right}


_IN, _UNIT = {"op": "input"}, {"op": "unit"}
_FST, _SND = _op("fst", _IN), _op("snd", _IN)

IDENTITY = {"kind": "code", "expr": _IN}
ASSOCIATOR = {"kind": "code", "expr": _op("pair", _op("fst", _FST), _op("pair", _op("snd", _FST), _SND))}
ASSOCIATOR_INV = {"kind": "code", "expr": _op("pair", _op("pair", _FST, _op("fst", _SND)), _op("snd", _SND))}
LEFT_UNITOR = {"kind": "code", "expr": _SND}
LEFT_UNITOR_INV = {"kind": "code", "expr": _op("pair", _UNIT, _IN)}
RIGHT_UNITOR = {"kind": "code", "expr": _FST}
RIGHT_UNITOR_INV = {"kind": "code", "expr": _op("pair", _IN, _UNIT)}
BRAIDING = {"kind": "code", "expr": _op("pair", _SND, _FST)}


def _compare_paths(
    path1: Callable, path2: Callable, samples: Iterable, fuel: Fuel, label: str
) -> BoundedVerdict:
    def compare(s):
        ok1, v1 = run_pure(path1(s), fuel)
        ok2, v2 = run_pure(path2(s), fuel)
        if not ok1 or not ok2:
            return unknown(f"{label}: {v1 if not ok1 else v2}")
        if v1 != v2:
            return fails((f"{label} diverges on {s!r}: {v1!r} != {v2!r}",))
        return holds()

    return combine_verdicts(map(compare, samples))


def check_pentagon(samples: Iterable, fuel: Fuel = 64) -> BoundedVerdict:
    """Both re-association routes from ((A,B),C),D agree on every sample.
    A non-pair is its own ``fst`` and ``snd``, and ``tensor`` duplicates it."""
    path1 = compile_ast(_seq(ASSOCIATOR, ASSOCIATOR))
    path2 = compile_ast(_seq(_tensor(ASSOCIATOR, IDENTITY), ASSOCIATOR, _tensor(IDENTITY, ASSOCIATOR)))
    return _compare_paths(path1, path2, samples, fuel, "pentagon")


def check_triangle(samples: Iterable, fuel: Fuel = 64) -> BoundedVerdict:
    """Re-associating past the unit agrees with dropping it directly.
    A non-pair is its own ``fst`` and ``snd``, and ``tensor`` duplicates it."""
    path1 = compile_ast(_seq(ASSOCIATOR, _tensor(IDENTITY, LEFT_UNITOR)))
    path2 = compile_ast(_tensor(RIGHT_UNITOR, IDENTITY))
    return _compare_paths(path1, path2, samples, fuel, "triangle")


def check_hexagon(samples: Iterable, fuel: Fuel = 64) -> BoundedVerdict:
    """The two braiding routes around the associator agree.
    A non-pair is its own ``fst`` and ``snd``, and ``tensor`` duplicates it."""
    path1 = compile_ast(_seq(ASSOCIATOR, BRAIDING, ASSOCIATOR))
    path2 = compile_ast(_seq(_tensor(BRAIDING, IDENTITY), ASSOCIATOR, _tensor(IDENTITY, BRAIDING)))
    return _compare_paths(path1, path2, samples, fuel, "hexagon")


def _check_whole_run(t, k, whole, join, policy, handler, fuel: Fuel) -> BoundedVerdict:
    """Runs ``t``, then ``k(value)``, then ``whole``, under one policy and
    handler: ``whole`` must end with ``join`` of the two values and its trace
    must be their traces concatenated. Unknown if any run does not complete."""
    gh = govern(handler)
    first = interpret_governed(gh, policy, t, fuel)
    if not first.completed:
        return unknown("fuel-exhausted" if not first.denied else "denied")
    second = interpret_governed(gh, policy, k(first.value), fuel)
    if not second.completed:
        return unknown("fuel-exhausted" if not second.denied else "denied")
    run = interpret_governed(gh, policy, whole, fuel)
    if not run.completed:
        return unknown("whole run did not complete")
    value = join(first.value, second.value)
    if run.value != value:
        return fails((f"value {run.value!r} != the two runs' {value!r}",))
    expected = first.trace + second.trace
    if run.trace == expected:
        return holds()
    return fails((f"trace {run.trace!r} != concatenation {expected!r}",))


def check_trace_of_bind(
    f: dict, g: dict, x, policy: GovernancePolicy, handler: Handler, fuel: Fuel
) -> BoundedVerdict:
    """Interpretation distributes over sequencing: the governed run of
    ``seq(f, g)`` on ``x``, for program nodes ``f`` and ``g``, runs as
    ``f`` on ``x`` and then ``g`` on its value, and ends with ``g``'s value."""
    first, second = compile_ast(f), compile_ast(g)
    both = compile_ast(_seq(f, g))
    return _check_whole_run(first(x), second, both(x), lambda b, d: d, policy, handler, fuel)


def check_bind_within_caps(
    f: dict, g: dict, x, fuel: Fuel, sampler: ResponseSampler
) -> BoundedVerdict:
    """Capability bounds compose under sequencing: for program nodes ``f``
    and ``g``, the bound of ``seq(f, g)`` is the union of theirs, and if
    ``f`` on ``x`` stays within its bound and ``g`` within its own on each
    of ``f``'s sampled returns, the composite on ``x`` stays within the
    union. Unknown if a precondition does not hold."""
    first, second = compile_ast(f), compile_ast(g)
    both = compile_ast(_seq(f, g))
    union = first.caps | second.caps
    if both.caps != union:
        return fails((f"seq bound {format_caps(both.caps)} != union {format_caps(union)}",))
    t = first(x)
    if not within_caps_check(first.caps, t, fuel, sampler).is_holds:
        return unknown("precondition on the first component did not hold")
    pre_g = combine_verdicts(
        within_caps_check(second.caps, second(r), fuel, sampler)
        for r in sample_returns(t, fuel, sampler)
    )
    if not pre_g.is_holds:
        return unknown("precondition on the second component did not hold")
    return within_caps_check(both.caps, both(x), fuel, sampler)


def interp_tensor_distribute_check(
    f: dict,
    g: dict,
    handler: Handler,
    inputs: Iterable,
    fuel: Fuel,
    policy: GovernancePolicy = PERMISSIVE,
) -> BoundedVerdict:
    """Interpretation distributes over ``tensor``: on each input, the
    governed run of ``tensor(f, g)``, for program nodes ``f`` and ``g``,
    ends with the pair of ``f``'s value on its ``fst`` (``RIGHT_UNITOR``)
    and ``g``'s on its ``snd`` (``LEFT_UNITOR``), and its trace is their
    traces concatenated. A non-pair is both halves, as ``tensor`` has it."""
    left, right = compile_ast(_seq(RIGHT_UNITOR, f)), compile_ast(_seq(LEFT_UNITOR, g))
    both = compile_ast(_tensor(f, g))

    def check(p):
        return _check_whole_run(
            left(p), lambda _b: right(p), both(p), lambda b, d: (b, d), policy, handler, fuel
        )

    return combine_verdicts(map(check, inputs))
