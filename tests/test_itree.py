"""Tree construction, observation, bind laws, and bounded equivalence.

The monad-law tests use two routes on purpose: a brute-force path
enumeration that walks both trees node by node, and the fuel-bounded
equivalence checker. The enumeration is the oracle; it shares no code
with eutt_bounded.

A bind is one node over its source, so a left-nested chain of binds
steps one frame per bind. The constant-stack tests run long pipelines
as a program ``seq`` on the program machine instead.
"""

import sys
from contextlib import contextmanager
from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import given

from govtree.directives import mock_handler
from govtree.governance import PERMISSIVE, govern, interpret_governed
from govtree.itree import (
    Ret,
    Tau,
    Vis,
    bind,
    eutt_bounded,
    ret,
    run_pure,
    skip_taus,
    spin,
    tau,
    vis,
)
from govtree.program import compile_ast


@dataclass(frozen=True)
class Evt:
    """Toy event with two possible answers."""

    id: int


class EvtSampler:
    def answers(self, event):
        return (0, 1, 2)


SAMPLER = EvtSampler()


def build(shape):
    """Build a tree from a nested shape tuple."""
    kind = shape[0]
    if kind == "ret":
        return ret(shape[1])
    if kind == "tau":
        return tau(build(shape[1]))
    subs = shape[2]
    return vis(Evt(shape[1]), lambda x: build(subs[x % len(subs)]))


def shapes(max_depth=8):
    # random finite trees, depth <= 8, branching <= 3
    base = st.tuples(st.just("ret"), st.integers(0, 9))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(st.just("tau"), children),
            st.tuples(
                st.just("vis"),
                st.integers(0, 2),
                st.lists(children, min_size=1, max_size=3),
            ),
        ),
        max_leaves=2 ** (max_depth - 2),
    )


def tree_paths(t, depth, fuel=200):
    """Brute-force enumeration of observation paths: the oracle for
    equivalence, independent of eutt_bounded."""
    paths = set()

    def go(t, prefix, depth, fuel):
        node = t.step()
        while type(node) is Tau:
            fuel -= 1
            if fuel <= 0:
                paths.add(prefix + ("...",))
                return
            node = node.rest.step()
        if type(node) is Ret:
            paths.add(prefix + (("ret", node.value),))
            return
        if depth <= 0:
            paths.add(prefix + ("...",))
            return
        for x in SAMPLER.answers(node.event):
            go(node.cont(x), prefix + ((node.event.id, x),), depth - 1, fuel)

    go(t, (), depth, fuel)
    return paths


def test_ret_observes_as_ret():
    assert skip_taus(ret(7), 0) == (Ret(7), 0, False)
    assert skip_taus(ret(None), 0) == (Ret(None), 0, False)


def test_nodes_equal_only_nodes_of_their_own_type():
    k = lambda x: ret(x)  # noqa: E731
    assert Ret(7) == Ret(7) and Ret(7) != Ret(8)
    assert Ret(7) != (7,) and (7,) != Ret(7) and not Ret(7) == (7,)
    assert Tau(None) != Ret(None) and Ret(None) != Tau(None)
    assert Vis(1, k) == Vis(1, k) and Vis(1, k) != (1, k)
    assert hash(Ret(7)) == hash((7,)) and repr(Ret(7)) == "Ret(value=7)"


def test_bind_ret_is_continuation():
    k = lambda x: ret(x + 1)
    assert eutt_bounded(bind(ret(3), k), k(3), 50, SAMPLER).is_holds


def test_observe_costs_fuel_only_for_taus():
    assert skip_taus(tau(ret(1)), 1) == (Ret(1), 0, False)
    assert skip_taus(tau(ret(1)), 5) == (Ret(1), 4, False)
    assert skip_taus(tau(ret(1)), 0) == (None, 0, False)


def test_observe_spin_always_exhausts():
    for fuel in (0, 1, 1000):
        assert skip_taus(spin(), fuel) == (None, fuel, True)


def test_observe_is_pure():
    t = bind(tau(ret(2)), lambda x: ret(x * 2))
    first, _, _ = skip_taus(t, 10)
    second, _, _ = skip_taus(t, 10)
    assert first == second
    assert first is second


def test_vis_head_is_returned_without_answer():
    t = vis(Evt(1), lambda x: ret(x))
    node, _, _ = skip_taus(t, 0)
    assert type(node) is Vis and node.event == Evt(1)


def test_eutt_tau_insensitive():
    assert eutt_bounded(tau(ret(5)), ret(5), 10, SAMPLER).is_holds
    assert eutt_bounded(tau(tau(ret(5))), ret(5), 10, SAMPLER).is_holds


def test_eutt_distinct_rets_fail_at_root():
    v = eutt_bounded(ret(1), ret(2), 10, SAMPLER)
    assert v.is_fails
    assert len(v.witness) == 1


def test_eutt_event_mismatch_fails():
    t1 = vis(Evt(1), lambda x: ret(x))
    t2 = vis(Evt(2), lambda x: ret(x))
    assert eutt_bounded(t1, t2, 10, SAMPLER).is_fails


def test_eutt_spin_vs_ret_fails_spin_vs_spin_holds():
    assert eutt_bounded(spin(), ret(1), 10, SAMPLER).is_fails
    assert eutt_bounded(spin(), spin(), 10, SAMPLER).is_holds


def test_eutt_unknown_on_fuel_exhaustion():
    deep = ret(0)
    for _ in range(50):
        deep = tau(deep)
    v = eutt_bounded(deep, ret(0), 10, SAMPLER)
    assert v.is_unknown and v.reason == "fuel-exhausted"


@given(shapes())
def test_eutt_reflexive(shape):
    t = build(shape)
    assert eutt_bounded(t, build(shape), 500, SAMPLER).is_holds


@given(shapes(), shapes())
def test_eutt_verdict_symmetric(s1, s2):
    v12 = eutt_bounded(build(s1), build(s2), 500, SAMPLER)
    v21 = eutt_bounded(build(s2), build(s1), 500, SAMPLER)
    assert v12.status == v21.status


@given(shapes())
def test_monad_right_unit(shape):
    t = build(shape)
    assert eutt_bounded(bind(t, ret), build(shape), 500, SAMPLER).is_holds


@given(st.integers(0, 9))
def test_monad_left_unit(x):
    k = lambda v: vis(Evt(0), lambda a: ret(v + a))
    assert eutt_bounded(bind(ret(x), k), k(x), 500, SAMPLER).is_holds


@given(shapes())
def test_monad_associativity_enumeration_oracle(shape):
    t = build(shape)
    k = lambda x: vis(Evt(1), lambda a: ret((x, a)))
    h = lambda y: ret(("h", y))
    lhs = bind(bind(build(shape), k), h)
    rhs = bind(t, lambda x: bind(k(x), h))
    assert tree_paths(lhs, 10) == tree_paths(rhs, 10)
    assert eutt_bounded(lhs, rhs, 500, SAMPLER).is_holds


def test_run_pure_values_and_failures():
    assert run_pure(tau(ret(4)), 10) == (True, 4)
    assert run_pure(spin(), 10)[0] is False
    assert run_pure(vis(Evt(1), ret), 10)[0] is False


@contextmanager
def shallow_stack(margin=100):
    """Lower the recursion limit to the current stack depth plus ``margin``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + margin)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def drive_events(t, fuel):
    """Answer every event with 0; returns (value, events seen)."""
    events = []
    while True:
        node, fuel, looped = skip_taus(t, fuel)
        assert node is not None and not looped
        if type(node) is Ret:
            return node.value, events
        events.append(node.event)
        t = node.cont(0)


def test_governed_seq_of_reason_steps_runs_at_constant_stack_depth():
    # a long pipeline composes on the machine, not as a chain of binds
    step = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
            "extract": {"op": "fst", "args": [{"op": "input"}]}}
    tree = compile_ast({"kind": "seq", "steps": [step] * 20_000})(0)
    with shallow_stack():
        out = interpret_governed(govern(mock_handler(0)), PERMISSIVE, tree, 100_000)
    assert out.completed
    assert len(out.trace) == 40_000


def test_seq_of_code_steps_runs_at_constant_stack_depth():
    step = {"kind": "code", "expr": {"op": "add", "args": [{"op": "input"}, {"op": "int", "value": 1}]}}
    morph = compile_ast({"kind": "seq", "steps": [step] * 5_000})
    with shallow_stack():
        assert run_pure(morph(0), 10) == (True, 5_000)


def test_spin_through_reassociated_bind_is_detected():
    node, _, looped = skip_taus(bind(bind(ret(1), ret), lambda _: spin()), 10)
    assert node is None and looped


def test_reassociated_bind_is_memoized():
    t = bind(bind(bind(tau(ret(2)), lambda x: tau(ret(x * 2))), ret), lambda x: ret(x + 1))
    first, _, _ = skip_taus(t, 10)
    second, _, _ = skip_taus(t, 10)
    assert first == Ret(5)
    assert first is second
    assert t.step() is t.step()


def test_bind_leaves_the_inner_bind_unchanged():
    k = lambda x: vis(Evt(x), lambda a: ret(x + a))
    inner = bind(ret(1), k)
    outer = bind(inner, lambda y: ret(("outer", y)))
    assert drive_events(outer, 10) == (("outer", 1), [Evt(1)])
    assert drive_events(inner, 10) == (1, [Evt(1)])


def test_left_and_right_nested_binds_step_through_the_same_nodes():
    f = lambda x: tau(vis(Evt(x), lambda a: ret(x + a)))
    g = lambda y: tau(tau(ret(y * 10)))
    shapes = []
    for t in (bind(bind(tau(ret(1)), f), g), bind(tau(ret(1)), lambda x: bind(f(x), g))):
        kinds, node = [], t.step()
        while type(node) is not Ret:
            kinds.append(type(node).__name__)
            node = node.rest.step() if type(node) is Tau else node.cont(2).step()
        shapes.append((kinds, node.value))
    assert shapes[0] == shapes[1] == (["Tau", "Tau", "Vis", "Tau", "Tau"], 30)
