"""Capability lattice, within-caps checking, trust, and cap morphisms."""

import ast
import itertools
import random
import tokenize
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given

from govtree.capability import (
    CapMorphism,
    TrustLevel,
    allowed_cap_set,
    cap_branch,
    cap_call,
    cap_code,
    cap_empty,
    cap_full,
    cap_memory,
    cap_reason,
    cap_seq_compose,
    cap_singleton,
    cap_subset,
    cap_tensor,
    cap_union,
    check_bind_within_caps,
    dual_guarantee_check,
    format_caps,
    no_ambient_effects_check,
    principality_check,
    sample_returns,
    trust_le,
    trust_max,
    trust_min,
    within_caps_check,
)
from govtree.category import seq_compose
from govtree.directives import (
    Capability,
    CallMachine,
    HTTPRequest,
    LLMCall,
    MemoryOp,
    Observability,
    ResponseSampler,
    mock_handler,
)
from govtree.governance import PERMISSIVE
from govtree.itree import bind, ret, vis

SAMPLER = ResponseSampler(seed=0)

caps_sets = st.sets(st.sampled_from(list(Capability))).map(frozenset)


def reason_m():
    return cap_reason(lambda a: LLMCall("m", str(a)), lambda x: x.status)


def memory_m():
    return cap_memory(lambda a: MemoryOp("get", str(a), ""), lambda x: x.status)


def call_m():
    return cap_call(lambda a: CallMachine("calc", str(a)), lambda x: x.status)


def test_union_identity_and_idempotence():
    s = cap_singleton(Capability.MEMORY)
    assert cap_union(cap_empty(), s) == s
    assert cap_union(s, s) == s


def test_union_commutes_on_singleton_and_empty_combos():
    atoms = [cap_empty()] + [cap_singleton(c) for c in Capability]
    for a, b in itertools.product(atoms, repeat=2):
        assert cap_union(a, b) == cap_union(b, a)


@given(caps_sets, caps_sets, caps_sets)
def test_union_laws_random(a, b, c):
    assert cap_union(a, b) == cap_union(b, a)
    assert cap_union(a, cap_union(b, c)) == cap_union(cap_union(a, b), c)
    assert cap_union(a, a) == a
    assert cap_subset(cap_empty(), a) and cap_subset(a, cap_full())


def test_format_caps_sorted():
    caps = cap_union(cap_singleton(Capability.MEMORY), cap_singleton(Capability.DB))
    assert format_caps(caps) == "[db,memory]"


def test_within_caps_examples():
    assert within_caps_check(cap_empty(), ret(5), 10, SAMPLER).is_holds
    v = within_caps_check(cap_empty(), reason_m().morph(1), 50, SAMPLER)
    assert v.is_fails
    assert within_caps_check(
        cap_singleton(Capability.MACHINE_CALL), call_m().morph(1), 50, SAMPLER
    ).is_holds


def test_within_caps_weakening():
    rng = random.Random(0)
    members = list(Capability)
    for _ in range(50):
        small = frozenset(c for c in members if rng.random() < 0.3)
        big = small | frozenset(c for c in members if rng.random() < 0.3)
        tree = seq_compose(reason_m().morph, memory_m().morph)(1)
        v_small = within_caps_check(small, tree, 200, SAMPLER)
        v_big = within_caps_check(big, tree, 200, SAMPLER)
        if v_small.is_holds:
            assert v_big.is_holds


def test_within_full_any_tree():
    tree = seq_compose(reason_m().morph, call_m().morph)(3)
    assert within_caps_check(cap_full(), tree, 200, SAMPLER).is_holds


def test_sample_returns_collects_values():
    values = sample_returns(reason_m().morph(1), 100, SAMPLER)
    assert values and all(isinstance(v, int) for v in values)


def test_bind_within_caps_pure():
    v = check_bind_within_caps(
        ret(1), lambda x: ret(x + 1), cap_empty(), cap_empty(), 100, SAMPLER
    )
    assert v.is_holds


def test_bind_within_caps_reason_then_call():
    v = check_bind_within_caps(
        reason_m().morph(1),
        call_m().morph,
        cap_singleton(Capability.LLM_REASON),
        cap_singleton(Capability.MACHINE_CALL),
        200,
        SAMPLER,
    )
    assert v.is_holds


def test_bind_within_caps_campaign():
    rng = random.Random(4)
    makers = (reason_m, memory_m, call_m, lambda: cap_code(lambda x: x + 1))
    for i in range(300):
        f, g = rng.choice(makers)(), rng.choice(makers)()
        v = check_bind_within_caps(
            f.morph(rng.randrange(50)), g.morph, f.caps, g.caps, 300, SAMPLER
        )
        assert v.is_holds, (i, v.describe())


def test_no_ambient_effects():
    chained = bind(
        vis(Observability("a"), lambda _: vis(Observability("b"), lambda _: ret(1))),
        lambda x: vis(Observability("c"), lambda _: ret(x)),
    )
    assert no_ambient_effects_check(chained, 100, SAMPLER).is_holds
    v = no_ambient_effects_check(
        vis(HTTPRequest("GET", "u", "b"), lambda x: ret(None)), 100, SAMPLER
    )
    assert v.is_fails


def test_no_ambient_effects_generated_campaign():
    # programs built only from code and observability stay in the empty set
    rng = random.Random(6)
    for _ in range(200):
        tree = ret(rng.randrange(10))
        for _ in range(rng.randrange(4)):
            prev = tree
            tree = vis(Observability(f"s{rng.randrange(100)}"), lambda _, p=prev: p)
        assert within_caps_check(cap_empty(), tree, 100, SAMPLER).is_holds
        assert no_ambient_effects_check(tree, 100, SAMPLER).is_holds


def test_trust_order_exhaustive():
    levels = list(TrustLevel)
    assert len(levels) == 6
    for t1, t2 in itertools.product(levels, repeat=2):
        assert trust_le(t1, t2) or trust_le(t2, t1)  # total
        if trust_le(t1, t2) and trust_le(t2, t1):
            assert t1 is t2  # antisymmetric
        assert trust_max(t1, t2) in (t1, t2)
        assert trust_min(t1, t2) in (t1, t2)
        assert trust_le(t1, trust_max(t1, t2)) and trust_le(t2, trust_max(t1, t2))
        assert trust_le(trust_min(t1, t2), t1) and trust_le(trust_min(t1, t2), t2)
    assert trust_max(TrustLevel.SYSTEM, TrustLevel.UNTRUSTED) is TrustLevel.SYSTEM
    assert trust_min(TrustLevel.TESTED, TrustLevel.REVIEWED) is TrustLevel.TESTED
    for t in levels:
        assert trust_le(TrustLevel.UNTRUSTED, t) and trust_le(t, TrustLevel.SYSTEM)


def test_allowed_cap_set():
    assert allowed_cap_set(TrustLevel.SYSTEM, []) == cap_full()
    assert allowed_cap_set(TrustLevel.STDLIB, [Capability.DB]) == cap_full()
    assert allowed_cap_set(
        TrustLevel.UNTRUSTED, [Capability.LLM_REASON, Capability.HTTP]
    ) == cap_singleton(Capability.LLM_REASON)
    assert allowed_cap_set(TrustLevel.UNTRUSTED, [Capability.HTTP]) == cap_empty()
    assert allowed_cap_set(TrustLevel.REVIEWED, [Capability.MEMORY]) == cap_singleton(
        Capability.MEMORY
    )
    # intermediate grant verified against within_caps on a memory-only program
    granted = allowed_cap_set(TrustLevel.REVIEWED, [Capability.MEMORY])
    assert within_caps_check(granted, memory_m().morph(1), 100, SAMPLER).is_holds


def test_primitive_profiles():
    assert cap_code(lambda x: x).caps == cap_empty()
    assert reason_m().caps == cap_singleton(Capability.LLM_REASON)
    assert memory_m().caps == cap_singleton(Capability.MEMORY)
    assert call_m().caps == cap_singleton(Capability.MACHINE_CALL)
    for cm in (cap_code(lambda x: x), reason_m(), memory_m(), call_m()):
        assert within_caps_check(cm.caps, cm.morph(1), 100, SAMPLER).is_holds
        assert principality_check(cm, range(5), 100, SAMPLER).is_holds


def test_code_contributes_nothing():
    g = reason_m()
    composed = cap_seq_compose(cap_code(lambda x: x + 1), g)
    assert cap_subset(composed.caps, g.caps)
    composed_r = cap_seq_compose(g, cap_code(lambda x: x + 1))
    assert cap_subset(composed_r.caps, g.caps)


def test_same_caps_no_escalation():
    f, g = reason_m(), reason_m()
    assert cap_subset(cap_seq_compose(f, g).caps, f.caps)


def test_cap_tensor_union():
    cm = cap_tensor(reason_m(), call_m())
    assert cm.caps == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))
    assert within_caps_check(cm.caps, cm.morph((1, 2)), 200, SAMPLER).is_holds


def test_cap_branch_unions_both_arms():
    cm = cap_branch(lambda a: a > 0, reason_m(), call_m())
    assert cm.caps == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))
    for a in (-1, 1):
        assert within_caps_check(cm.caps, cm.morph(a), 200, SAMPLER).is_holds


def test_principality_rejects_inflated_caps():
    inflated = CapMorphism(cap_tensor(reason_m(), cap_code(lambda x: x)).morph, cap_full())
    inputs = [(a, a) for a in range(5)]
    assert principality_check(inflated, inputs, 200, SAMPLER).is_fails


def test_dual_guarantee_examples():
    h = mock_handler(0)
    assert dual_guarantee_check(
        cap_code(lambda x: x + 1), h, PERMISSIVE, range(5), 1000, SAMPLER
    ).is_holds
    assert dual_guarantee_check(
        cap_seq_compose(reason_m(), memory_m()), h, PERMISSIVE, range(20), 2000, SAMPLER
    ).is_holds


def test_dual_guarantee_composite_campaign():
    rng = random.Random(11)
    makers = (reason_m, memory_m, call_m, lambda: cap_code(lambda x: x * 2))
    for i in range(100):
        f, g = rng.choice(makers)(), rng.choice(makers)()
        cm = rng.choice(
            (
                cap_seq_compose(f, g),
                cap_tensor(f, g),
                cap_branch(lambda a: (a if isinstance(a, int) else a[0]) % 2 == 0, f, g),
            )
        )
        v = dual_guarantee_check(
            cm, mock_handler(i), PERMISSIVE, [rng.randrange(50), (3, 4)], 2000, SAMPLER
        )
        assert v.is_holds, (i, v.describe())


# --- every public name has a caller -------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
CAPABILITY = ROOT / "src" / "govtree" / "capability.py"

# Tests are their only callers today; the capability campaign decides
# whether each joins the shipped path or leaves the module.
PENDING_CAMPAIGN = {"allowed_cap_set", "dual_guarantee_check"}


def _top_level_definitions(tree):
    """Public name -> line span of the statement that defines it."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not name.startswith("_"):
                spans[name] = range(start, node.end_lineno + 1)
    return spans


def _name_tokens(path):
    """(name, line) for every identifier in code; strings and comments
    are not references."""
    with tokenize.open(path) as f:
        return [(tok.string, tok.start[0]) for tok in tokenize.generate_tokens(f.readline)
                if tok.type == tokenize.NAME]


def test_every_public_capability_name_has_a_caller_outside_tests():
    spans = _top_level_definitions(ast.parse(CAPABILITY.read_text(encoding="utf-8")))
    used = set()
    for directory in ("src/govtree", "perfbench", "scripts"):
        for path in (ROOT / directory).glob("*.py"):
            own = path == CAPABILITY
            used.update(name for name, line in _name_tokens(path)
                        if not (own and name in spans and line in spans[name]))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    named_by_criteria = {
        alias.name for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and node.module == "govtree.capability"
        for alias in node.names
    }
    assert PENDING_CAMPAIGN <= set(spans)
    assert sorted(set(spans) - used - named_by_criteria - PENDING_CAMPAIGN) == []
