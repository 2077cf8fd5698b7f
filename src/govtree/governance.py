"""The governance layer: check-before-effect wrapping of handlers.

``govern`` turns a base handler into a governed handler. The governed
tree emits a boolean check event before every directive; an approving
answer releases the I/O event and the program continues with the
handler's answer, a denying answer sends the computation into silent
divergence. Denial never produces a wrong value, only no value.

``drive`` is the one driver loop: it runs a tree to its Ret, answering
each event by a given rule (the handler-parameterised ``interp`` of
Interaction Trees) after an optional check step. ``govern``'s image is
the specification the checkers, axioms and adversarial operators use,
and ``interp`` over it is ``interp`` over the source tree with the
policy as the check step: so ``interpret_governed`` runs a handler from
``govern`` that way and never builds the image (deforestation), while
other handlers have their image driven. ``interpret_ungoverned`` drives
the source tree with no checks.

``gov_safe_check`` is the bounded safety checker over governed trees:
an I/O node is legal only under an approval flag that is set by a passing
check and cleared again after every I/O node. Check events are explored
on both answers; I/O answers are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .directives import (
    DirectiveEvent,
    Handler,
    ResponseSampler,
    directive_tag,
    encode_directive,
)
from .itree import (
    BoundedVerdict,
    Fuel,
    ITree,
    Ret,
    Tau,
    Vis,
    explore,
    fails,
    holds,
    ret,
    skip_taus,
    spin,
    unknown,
    vis,
)
from .trace import GovEntry, IoEntry, Trace

GovernanceStage = str


@dataclass(frozen=True, slots=True)
class Gov:
    """A pending governance decision: the checkpoint stage plus the
    directive awaiting release. The stage label is the directive tag."""

    stage: GovernanceStage
    directive: DirectiveEvent


@dataclass(frozen=True, slots=True)
class Io:
    directive: DirectiveEvent


def stage_of(d: DirectiveEvent) -> GovernanceStage:
    return directive_tag(d)


@dataclass(frozen=True)
class GovernancePolicy:
    """A pure decision function from (stage, directive) to allow/deny."""

    name: str
    decide: Callable[[GovernanceStage, DirectiveEvent], bool]


PERMISSIVE = GovernancePolicy("permissive", lambda stage, d: True)
DENYING = GovernancePolicy("denying", lambda stage, d: False)


def tag_filter(allowed: Iterable[str]) -> GovernancePolicy:
    allow = frozenset(allowed)
    return GovernancePolicy(
        "tags:" + ",".join(sorted(allow)), lambda stage, d: stage in allow
    )


def policy_by_name(spec: str) -> GovernancePolicy:
    if spec == "permissive":
        return PERMISSIVE
    if spec == "denying":
        return DENYING
    if spec.startswith("tags:"):
        rest = spec[len("tags:"):]
        return tag_filter(t for t in rest.split(",") if t)
    raise ValueError(f"unknown policy {spec!r}")


@dataclass(frozen=True)
class GovernedHandler:
    """A base handler together with its governance wrapping.

    ``transform`` maps a directive program to the governed tree;
    ``base`` answers the released I/O events when the tree is driven.
    ``gate`` is the per-event rule that ``rewrap`` built ``transform`` from.
    """

    base: Handler
    transform: Callable[[ITree], ITree]
    gate: Callable | None = field(default=None, compare=False, repr=False)


def rewrap(h: Handler, on_vis) -> GovernedHandler:
    """The per-event tree transformer: a governed handler whose transform
    maps each directive node through ``on_vis(directive, continuation,
    recurse)``. Ret and Tau pass through."""

    def transform(t: ITree) -> ITree:
        def step():
            node = t.step()
            kind = type(node)
            if kind is Ret:
                return node
            if kind is Tau:
                return Tau(transform(node.rest))
            return on_vis(node.event, node.cont, transform)

        return ITree(step)

    return GovernedHandler(base=h, transform=transform, gate=on_vis)


def check_gate(d: DirectiveEvent, cont, rec):
    """The check-before-effect node for ``d``: a check event whose true
    answer releases ``Io(d)`` and continues with ``rec(cont(answer))``,
    and whose false answer diverges."""

    def after_check(approved: bool) -> ITree:
        if not approved:
            return spin()
        return vis(Io(d), lambda x: rec(cont(x)))

    return Vis(Gov(stage_of(d), d), after_check)


def govern(h: Handler) -> GovernedHandler:
    """Wrap a base handler so every directive is check-gated.

    For each directive ``d`` in the source tree the governed tree emits
    ``Gov(stage, d)``; on a true answer it emits ``Io(d)`` and
    continues the source continuation with the I/O answer, on false it
    diverges. Ret and Tau pass through.
    """
    return rewrap(h, check_gate)


@dataclass(frozen=True)
class RunOutcome:
    """Result of driving a tree: ``completed`` distinguishes a genuine
    Ret (whose value may be None) from divergence or exhaustion."""

    completed: bool
    value: Any
    trace: Trace
    denied: bool


def drive(
    t: ITree, fuel: Fuel, answer: Callable[[Any], "tuple[Any, ITree]"],
    check: Callable[[Any], "tuple[Any, bool]"] | None = None,
) -> RunOutcome:
    """Drive ``t`` to its Ret, answering each event with ``answer``.

    ``answer(event)`` returns ``(entry, reply)``: ``reply`` is the answer
    tree, driven on the same fuel down to its Ret, whose value the
    continuation receives; ``entry`` is appended to the trace once that
    answer has arrived. Every Tau and every event costs one fuel. The run
    is incomplete if fuel runs out, a Tau self-loop is detected, or a
    reply emits an event of its own; it is ``denied`` when it is
    incomplete and its trace holds a failing check. ``check(event)``, if
    given, runs first and returns ``(entry, allowed)``; it costs one fuel
    and its entry is recorded at once. A denial, or no fuel left after
    it, ends the run before ``answer``.
    """
    events: list = []
    while True:
        node, fuel, looped = skip_taus(t, fuel)
        if node is None or looped:
            break
        if type(node) is Ret:
            return RunOutcome(True, node.value, tuple(events), False)
        if fuel <= 0:
            break
        fuel -= 1
        if check is not None:
            entry, allowed = check(node.event)
            events.append(entry)
            if not allowed or fuel <= 0:
                break
            fuel -= 1
        entry, reply = answer(node.event)
        reply, fuel, _ = skip_taus(reply, fuel)
        if type(reply) is not Ret:
            break
        events.append(entry)
        t = node.cont(reply.value)
    denied = any(type(e) is GovEntry and not e.passed for e in events)
    return RunOutcome(False, None, tuple(events), denied)


# The two check answers: a forced tree never changes, so every run shares them.
_VERDICTS = (ret(False), ret(True))


def _perform(h: Handler):
    """The answer rule for released I/O: record it, let ``h`` answer."""
    return lambda d: (IoEntry(encode_directive(d)), h(d))


def interpret_governed(
    gh: GovernedHandler, policy: GovernancePolicy, t: ITree, fuel: Fuel
) -> RunOutcome:
    """Drive ``t`` under ``gh``, recording a trace: the policy decides
    each check, the base handler answers each released directive. A
    handler from ``govern`` drives ``t`` itself with the policy as the
    check step, matching its image event for event and fuel for fuel;
    other handlers drive their image, where any event that is neither a
    check nor I/O is a ``TypeError``."""

    entries: dict = {}  # stage -> its (failing, passing) GovEntry, shared by the run

    def decide(stage, d):
        allowed = bool(policy.decide(stage, d))
        if stage not in entries:
            entries[stage] = (GovEntry(stage, False), GovEntry(stage, True))
        return entries[stage][allowed], allowed

    perform = _perform(gh.base)
    if gh.gate is check_gate:
        return drive(t, fuel, perform, lambda d: decide(stage_of(d), d))

    def answer(ev):
        if type(ev) is Gov:
            entry, allowed = decide(ev.stage, ev.directive)
            return entry, _VERDICTS[allowed]
        if type(ev) is Io:
            return perform(ev.directive)
        raise TypeError(f"not a governed event: {ev!r}")

    return drive(gh.transform(t), fuel, answer)


def interpret_ungoverned(h: Handler, t: ITree, fuel: Fuel) -> RunOutcome:
    """Drive a directive tree directly through the base handler, with no
    checks inserted; records only I/O entries."""
    return drive(t, fuel, _perform(h))


def gov_safe_check(
    t: ITree,
    approved: bool,
    fuel: Fuel,
    sampler: ResponseSampler,
) -> BoundedVerdict:
    """Bounded check of the safety predicate over a governed tree.

    Ret is safe. Check events must be safe on both answers: the true
    branch with the flag set, the false branch with it cleared. An I/O
    event fails outright unless the flag is set, and its continuation is
    checked on sampled answers with the flag cleared again. A detected
    Tau self-loop is proven silent divergence and is safe for any flag;
    fuel running out anywhere else yields unknown.
    """

    def expand(state, fuel: Fuel):
        t, approved = state
        node, fuel, looped = skip_taus(t, fuel)
        if looped:
            return holds()
        if node is None:
            return unknown("fuel-exhausted")
        if type(node) is Ret:
            return holds()
        ev = node.event
        if type(ev) is Gov:
            if fuel <= 0:
                return unknown("fuel-exhausted")
            stage = ev.stage
            return [
                (("check({})=true", stage), (node.cont(True), True), fuel - 1),
                (("check({})=false", stage), (node.cont(False), False), fuel - 1),
            ]
        if type(ev) is Io:
            tag = directive_tag(ev.directive)
            if not approved:
                return fails((f"io({tag}) without approval",))
            if fuel <= 0:
                return unknown("fuel-exhausted")
            label = ("io({}) answered", tag)
            return [
                (label, (node.cont(x), False), fuel - 1)
                for x in sampler.answers(ev.directive)
            ]
        raise TypeError(f"not a governed event: {ev!r}")

    return explore((t, approved), fuel, expand)


def bare_io(d: DirectiveEvent) -> ITree:
    """A governed-signature tree performing ``d`` with no preceding check;
    the canonical unsafe tree."""
    return vis(Io(d), lambda x: ret(None))
