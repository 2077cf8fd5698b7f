"""Capability lattice, within-caps checking, trust, and cap morphisms."""

import itertools
import random

import pytest
import hypothesis.strategies as st
from hypothesis import given

from govtree.algebra import check_bind_within_caps
from govtree.capability import (
    CapMorphism,
    TrustLevel,
    allowed_cap_set,
    cap_empty,
    cap_full,
    cap_singleton,
    cap_subset,
    cap_union,
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
from govtree.directives import (
    Capability,
    FileOp,
    HTTPRequest,
    LLMCall,
    Observability,
    ResponseSampler,
    mock_handler,
)
from govtree.governance import PERMISSIVE
from govtree.itree import bind, ret, vis
from govtree.program import compile_ast

SAMPLER = ResponseSampler(seed=0)

caps_sets = st.sets(st.sampled_from(list(Capability))).map(frozenset)


# Compiled program nodes: each primitive sends its input as the directive's
# text and extracts the answer's status (an answer enters as (status, content)).
INPUT = {"op": "input"}
STATUS = {"op": "fst", "args": [INPUT]}
REASON = {"kind": "reason", "model": "m", "prompt": INPUT, "extract": STATUS}
MEMORY = {"kind": "memory", "mop": "get", "key": INPUT, "value": {"op": "str", "value": ""},
          "extract": STATUS}
CALL = {"kind": "call", "machine": "calc", "payload": INPUT, "extract": STATUS}


def code_ast(op=None, n=None):
    """A code node: ``op(input, n)``, or the input itself."""
    expr = INPUT if op is None else {"op": op, "args": [INPUT, {"op": "int", "value": n}]}
    return {"kind": "code", "expr": expr}


def seq(*steps):
    return compile_ast({"kind": "seq", "steps": list(steps)})


def tensor(left, right):
    return compile_ast({"kind": "tensor", "left": left, "right": right})


def reason_m():
    return compile_ast(REASON)


def memory_m():
    return compile_ast(MEMORY)


def call_m():
    return compile_ast(CALL)


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


@pytest.mark.parametrize("samples, expected", [
    (0, "unknown (sample-limited)"),
    (1, "fails: LLMCall / FileOp needs file"),
])
def test_within_caps_explores_only_sampled_answers(samples, expected):
    # with no answer for the call, its continuation's FileOp is never reached
    tree = vis(LLMCall("m", "p"), lambda x: vis(FileOp("read", "x"), ret))
    sampler = ResponseSampler(samples_per_event=samples)
    caps = cap_singleton(Capability.LLM_REASON)
    assert within_caps_check(caps, tree, 100, sampler).describe() == expected


def test_within_caps_weakening():
    rng = random.Random(0)
    members = list(Capability)
    for _ in range(50):
        small = frozenset(c for c in members if rng.random() < 0.3)
        big = small | frozenset(c for c in members if rng.random() < 0.3)
        tree = seq(REASON, MEMORY)(1)
        v_small = within_caps_check(small, tree, 200, SAMPLER)
        v_big = within_caps_check(big, tree, 200, SAMPLER)
        if v_small.is_holds:
            assert v_big.is_holds


def test_within_full_any_tree():
    tree = seq(REASON, CALL)(3)
    assert within_caps_check(cap_full(), tree, 200, SAMPLER).is_holds


def test_sample_returns_collects_values():
    values = sample_returns(reason_m().morph(1), 100, SAMPLER)
    assert values and all(isinstance(v, int) for v in values)


def test_bind_within_caps_pure():
    v = check_bind_within_caps(code_ast(), code_ast("add", 1), 1, 100, SAMPLER)
    assert v.is_holds


def test_bind_within_caps_reason_then_call():
    v = check_bind_within_caps(REASON, CALL, 1, 200, SAMPLER)
    assert v.is_holds


def test_bind_within_caps_campaign():
    rng = random.Random(4)
    nodes = (REASON, MEMORY, CALL, code_ast("add", 1))
    for i in range(300):
        f, g = rng.choice(nodes), rng.choice(nodes)
        v = check_bind_within_caps(f, g, rng.randrange(50), 300, SAMPLER)
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
    assert compile_ast(code_ast()).caps == cap_empty()
    assert reason_m().caps == cap_singleton(Capability.LLM_REASON)
    assert memory_m().caps == cap_singleton(Capability.MEMORY)
    assert call_m().caps == cap_singleton(Capability.MACHINE_CALL)
    for cm in (compile_ast(code_ast()), reason_m(), memory_m(), call_m()):
        assert within_caps_check(cm.caps, cm.morph(1), 100, SAMPLER).is_holds
        assert principality_check(cm, range(5), 100, SAMPLER).is_holds


def test_code_contributes_nothing():
    g = reason_m()
    composed = seq(code_ast("add", 1), REASON)
    assert cap_subset(composed.caps, g.caps)
    composed_r = seq(REASON, code_ast("add", 1))
    assert cap_subset(composed_r.caps, g.caps)


def test_same_caps_no_escalation():
    f = reason_m()
    assert cap_subset(seq(REASON, REASON).caps, f.caps)


def test_cap_tensor_union():
    cm = tensor(REASON, CALL)
    assert cm.caps == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))
    assert within_caps_check(cm.caps, cm.morph((1, 2)), 200, SAMPLER).is_holds


def test_cap_branch_unions_both_arms():
    positive = {"op": "lt", "args": [{"op": "int", "value": 0}, INPUT]}
    cm = compile_ast({"kind": "branch", "pred": positive, "then": REASON, "else": CALL})
    assert cm.caps == frozenset((Capability.LLM_REASON, Capability.MACHINE_CALL))
    for a in (-1, 1):
        assert within_caps_check(cm.caps, cm.morph(a), 200, SAMPLER).is_holds


def test_principality_rejects_inflated_caps():
    inflated = CapMorphism(tensor(REASON, code_ast()).morph, cap_full())
    inputs = [(a, a) for a in range(5)]
    assert principality_check(inflated, inputs, 200, SAMPLER).is_fails


def test_dual_guarantee_examples():
    h = mock_handler(0)
    assert dual_guarantee_check(
        compile_ast(code_ast("add", 1)), h, PERMISSIVE, range(5), 1000, SAMPLER
    ).is_holds
    assert dual_guarantee_check(
        seq(REASON, MEMORY), h, PERMISSIVE, range(20), 2000, SAMPLER
    ).is_holds


def test_dual_guarantee_composite_campaign():
    rng = random.Random(11)
    makers = (REASON, MEMORY, CALL, code_ast("mul", 2))
    # the left of a pair, or the input itself, is even
    even = {"op": "eq", "args": [
        {"op": "mod", "args": [{"op": "fst", "args": [INPUT]}, {"op": "int", "value": 2}]},
        {"op": "int", "value": 0},
    ]}
    for i in range(100):
        f, g = rng.choice(makers), rng.choice(makers)
        cm = rng.choice(
            (
                seq(f, g),
                tensor(f, g),
                compile_ast({"kind": "branch", "pred": even, "then": f, "else": g}),
            )
        )
        v = dual_guarantee_check(
            cm, mock_handler(i), PERMISSIVE, [rng.randrange(50), (3, 4)], 2000, SAMPLER
        )
        assert v.is_holds, (i, v.describe())
