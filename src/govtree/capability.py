"""Capability sets, the trust order, and capability-bounded morphisms.

A capability set is a finite subset of the nine-member capability
universe; union is join, the empty set is bottom, the full universe is
top. ``within_caps_check`` walks a directive tree and fails on the first
event whose required capability is missing; bookkeeping directives need
none and always pass.

Trust is a six-level total order. ``allowed_cap_set`` converts a trust
level plus a declared capability list into the set actually granted:
the top two levels get everything, untrusted code keeps at most the LLM
capability, and the middle levels keep exactly what they declared.

A ``CapMorphism`` is a morphism paired with its capability bound;
calling one applies its morphism. The ``cap_*`` constructors are the
one statement of the bound, and ``program.compile_ast`` builds every
program through them: none for ``code`` and ``register_machine``, one
capability for ``reason``, ``memory`` and ``call``, the union of the
parts under ``cap_seq_compose``, ``cap_tensor`` and ``cap_branch``.
``principality_check`` brute-forces every strict subset of the bound to
show the bound is tight, and ``dual_guarantee_check`` confirms that
staying within the bound and passing governance safety hold at the same
time.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple

from .directives import (
    Capability,
    Handler,
    ResponseSampler,
    capability_for_directive,
    directive_tag,
)
from .governance import (
    GovernancePolicy,
    gov_safe_check,
    govern,
    interpret_governed,
)
from .itree import (
    BoundedVerdict,
    Fuel,
    ITree,
    Ret,
    bind,
    combine_verdicts,
    explore,
    fails,
    holds,
    own_type_eq,
    skip_taus,
    unknown,
)
from . import category
from .category import Morphism
from .trace import well_governed

CapSet = frozenset

NO_CAPS = frozenset()
LLM_CAPS = frozenset((Capability.LLM_REASON,))
MEMORY_CAPS = frozenset((Capability.MEMORY,))
CALL_CAPS = frozenset((Capability.MACHINE_CALL,))


def cap_empty() -> CapSet:
    return NO_CAPS


def cap_singleton(c: Capability) -> CapSet:
    return frozenset((c,))


def cap_union(s1: CapSet, s2: CapSet) -> CapSet:
    return s1 | s2


def cap_full() -> CapSet:
    return frozenset(Capability)


def cap_subset(s1: CapSet, s2: CapSet) -> bool:
    return s1 <= s2


def format_caps(caps: CapSet) -> str:
    return "[" + ",".join(sorted(c.value for c in caps)) + "]"


def within_caps_check(
    caps: CapSet, t: ITree, fuel: Fuel, sampler: ResponseSampler
) -> BoundedVerdict:
    """Every directive in the tree requires a capability in ``caps`` or
    none at all. Continuations are explored on sampled answers."""

    def expand(t: ITree, fuel: Fuel):
        node, fuel, looped = skip_taus(t, fuel)
        if looped:
            return holds()
        if node is None:
            return unknown("fuel-exhausted")
        if type(node) is Ret:
            return holds()
        d = node.event
        needed = capability_for_directive(d)
        if needed is not None and needed not in caps:
            return fails((f"{directive_tag(d)} needs {needed.value}",))
        if fuel <= 0:
            return unknown("fuel-exhausted")
        label = ("{}", directive_tag(d))
        return [(label, node.cont(x), fuel - 1) for x in sampler.answers(d)]

    return explore(t, fuel, expand)


def sample_returns(t: ITree, fuel: Fuel, sampler: ResponseSampler) -> list:
    """Up to 16 return values reachable in ``t`` under sampled answers;
    used to instantiate continuations in compositional checks."""
    found: list = []

    def expand(t: ITree, fuel: Fuel):
        if len(found) >= 16:
            return []
        node, fuel, looped = skip_taus(t, fuel)
        if node is None or looped:
            return []
        if type(node) is Ret:
            found.append(node.value)
            return []
        if fuel <= 0:
            return []
        return [(None, node.cont(x), fuel - 1) for x in sampler.answers(node.event)]

    explore(t, fuel, expand)
    return found


def check_bind_within_caps(
    t: ITree,
    k: Callable[[Any], ITree],
    caps1: CapSet,
    caps2: CapSet,
    fuel: Fuel,
    sampler: ResponseSampler,
) -> BoundedVerdict:
    """Capability bounds compose under bind: if ``t`` stays within caps1
    and every continuation within caps2, the bind stays within the union.
    Weakening into the union needs no walk of its own: the precondition
    puts ``t`` within caps1, and ``within_caps_check`` is monotone in its
    set."""
    if not within_caps_check(caps1, t, fuel, sampler).is_holds:
        return unknown("precondition on the first component did not hold")
    pre_k = combine_verdicts(
        within_caps_check(caps2, k(r), fuel, sampler) for r in sample_returns(t, fuel, sampler)
    )
    if not pre_k.is_holds:
        return unknown("precondition on the continuation did not hold")
    return within_caps_check(cap_union(caps1, caps2), bind(t, k), fuel, sampler)


def no_ambient_effects_check(
    t: ITree, fuel: Fuel, sampler: ResponseSampler
) -> BoundedVerdict:
    """A tree within the empty capability set emits only capability-free
    directives (observability-class bookkeeping)."""
    return within_caps_check(cap_empty(), t, fuel, sampler)


class TrustLevel(Enum):
    UNTRUSTED = 0
    TESTED = 1
    EVALUATED = 2
    REVIEWED = 3
    STDLIB = 4
    SYSTEM = 5


def trust_le(t1: TrustLevel, t2: TrustLevel) -> bool:
    return t1.value <= t2.value


def trust_max(t1: TrustLevel, t2: TrustLevel) -> TrustLevel:
    return t2 if t1.value <= t2.value else t1


def trust_min(t1: TrustLevel, t2: TrustLevel) -> TrustLevel:
    return t1 if t1.value <= t2.value else t2


def allowed_cap_set(level: TrustLevel, declared: Iterable[Capability]) -> CapSet:
    """Grant capabilities by trust: the top two levels get everything,
    untrusted keeps at most the LLM capability, the rest keep exactly
    their declaration."""
    declared_set = frozenset(declared)
    if level in (TrustLevel.SYSTEM, TrustLevel.STDLIB):
        return cap_full()
    if level is TrustLevel.UNTRUSTED:
        return declared_set & cap_singleton(Capability.LLM_REASON)
    return declared_set


@own_type_eq
class CapMorphism(NamedTuple):
    morph: Morphism
    caps: CapSet

    def __call__(self, a) -> ITree:
        return self.morph(a)


_new = tuple.__new__  # a NamedTuple from its fields, without its Python __new__


def cap_code(f) -> CapMorphism:
    return _new(CapMorphism, (category.code(f), NO_CAPS))


def cap_reason(build, extract) -> CapMorphism:
    return _new(CapMorphism, (category.reason(build, extract), LLM_CAPS))


def cap_memory(build, extract) -> CapMorphism:
    return _new(CapMorphism, (category.memory(build, extract), MEMORY_CAPS))


def cap_call(build, extract) -> CapMorphism:
    return _new(CapMorphism, (category.call(build, extract), CALL_CAPS))


def cap_register_machine(p: category.RegisterProgram, fuel: int) -> CapMorphism:
    """Register steps emit only observability directives, which need no
    capability."""
    return _new(CapMorphism, (category.register_machine(p, fuel), NO_CAPS))


def cap_seq_compose(f: CapMorphism, *gs: CapMorphism) -> CapMorphism:
    """``f`` then each of ``gs`` in order; the bound is the union of all."""
    morphs, caps = zip(f, *gs)
    morph = category.seq_compose(*morphs)
    return _new(CapMorphism, (morph, NO_CAPS.union(*caps)))


def cap_tensor(f: CapMorphism, g: CapMorphism) -> CapMorphism:
    fm, fc = f
    gm, gc = g
    return _new(CapMorphism, (category.tensor(fm, gm), fc | gc))


def cap_branch(pred, f: CapMorphism, g: CapMorphism) -> CapMorphism:
    """Either arm may execute, so the bound is the union of both."""
    fm, fc = f
    gm, gc = g
    return _new(CapMorphism, (category.branch(pred, fm, gm), fc | gc))


def _strict_subsets(caps: CapSet):
    members = sorted(caps, key=lambda c: c.value)
    for r in range(len(members)):
        for combo in itertools.combinations(members, r):
            yield frozenset(combo)


def principality_check(
    cm: CapMorphism, inputs: Iterable, fuel: Fuel, sampler: ResponseSampler
) -> BoundedVerdict:
    """The declared bound is minimal: every strict subset fails on some
    input. Holds vacuously for the empty bound."""
    inputs = tuple(inputs)

    def refuted(subset):
        v = combine_verdicts(within_caps_check(subset, cm.morph(a), fuel, sampler) for a in inputs)
        if v.is_holds:
            return fails((f"strict subset {format_caps(subset)} suffices",))
        return holds() if v.is_fails else unknown("could not resolve a strict subset")

    return combine_verdicts(map(refuted, _strict_subsets(cm.caps)))


def dual_guarantee_check(
    cm: CapMorphism,
    handler: Handler,
    policy: GovernancePolicy,
    inputs: Iterable,
    fuel: Fuel,
    sampler: ResponseSampler,
) -> BoundedVerdict:
    """Capability bound and governance safety hold simultaneously.

    For each input: the raw tree stays within ``cm.caps``, the governed
    image passes the safety check, and for good measure the governed run
    under the given policy leaves a well-governed trace.
    """
    gh = govern(handler)

    def guaranteed(a):
        tree = cm.morph(a)  # trees are immutable, so all three walks share one
        v1 = within_caps_check(cm.caps, tree, fuel, sampler)
        if v1.is_fails:
            return fails((f"capability bound violated on {a!r}",) + v1.witness)
        v2 = gov_safe_check(gh.transform(tree), False, fuel, sampler)
        if v2.is_fails:
            return fails((f"governance safety violated on {a!r}",) + v2.witness)
        if not well_governed(interpret_governed(gh, policy, tree, fuel).trace):
            return fails((f"run trace not well governed on {a!r}",))
        return combine_verdicts((v1, v2))

    return combine_verdicts(map(guaranteed, inputs))
