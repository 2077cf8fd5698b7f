"""Lazy interaction trees with fuel-bounded observation and equivalence.

A program is a potentially infinite tree with three node shapes:

* ``Ret(value)``   -- the computation is done,
* ``Tau(rest)``    -- one silent step, then ``rest``,
* ``Vis(event, cont)`` -- a visible event; ``cont`` maps the event's
  answer to the rest of the tree.

Nothing below a node is built until the node is observed, and every
observed node is memoized, so observation is pure: two observations of
the same tree yield the very same node objects.

Because trees may be infinite, every analysis here is bounded by an
explicit ``fuel`` budget (a per-path step count) and reports a
three-valued ``BoundedVerdict``:

* ``fails``   -- a concrete counterexample path was found; always sound.
* ``holds``   -- the reachable region was exhausted with no discrepancy.
* ``unknown`` -- fuel or sampling ran out before the question resolved.

Every bounded checker is a per-node rule run by :func:`explore`, one
depth-first search with an explicit stack.

:func:`bind` keeps a queue of continuations on one node instead of
nesting a node per bind (the type-aligned sequence of "Reflection
without Remorse", van der Ploeg & Kiselyov 2014), so a left-nested chain
of binds steps in linear time at constant stack depth.

The one place we go beyond plain bounded unfolding is the canonical
divergent tree built by :func:`spin`: it is a self-referential Tau loop,
which the tau-skipping loop recognizes by object identity. Callers can
therefore treat it as *proven* divergence rather than burning fuel on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

Fuel = int


def own_type_eq(cls):  # a NamedTuple class unequal to every tuple of another type
    cls.__eq__ = lambda s, o: (type(o) is cls or not isinstance(o, tuple)) and tuple.__eq__(s, o)
    cls.__ne__ = lambda s, o: (type(o) is not cls and isinstance(o, tuple)) or tuple.__ne__(s, o)
    return cls


@own_type_eq
class Ret(NamedTuple):
    value: Any


@own_type_eq
class Tau(NamedTuple):
    rest: "ITree"


@own_type_eq
class Vis(NamedTuple):
    event: Any
    cont: Callable[[Any], "ITree"]


class FuelExhausted(NamedTuple):
    """Marker returned by ``observe`` when the step budget ran out."""


FUEL_EXHAUSTED = FuelExhausted()


class ITree:
    """A lazily unfolded interaction tree.

    ``step()`` forces and memoizes exactly one node. The constructor takes
    a thunk producing that node; use the module-level helpers (``ret``,
    ``tau``, ``vis``) rather than calling this directly.
    """

    __slots__ = ("_thunk", "_node")

    def __init__(self, thunk: Callable[[], Any] | None):
        self._thunk = thunk
        self._node = None

    def step(self):
        node = self._node
        if node is None:
            node = self._thunk()
            self._node = node
            self._thunk = None
        return node


def _of_node(node) -> ITree:
    t = ITree(None)
    t._node = node
    return t


def ret(value: Any) -> ITree:
    return _of_node(Ret(value))


def tau(rest: ITree) -> ITree:
    return _of_node(Tau(rest))


def vis(event: Any, cont: Callable[[Any], ITree]) -> ITree:
    return _of_node(Vis(event, cont))


def spin() -> ITree:
    """The canonical divergent tree: an infinite stream of Tau steps.

    The returned tree is its own child, so tau-skipping loops can detect
    it by identity (see ``skip_taus``). ``bind(spin(), k)`` wraps it in
    fresh nodes and is *not* detectable; bounded checks on it stay
    ``unknown``, which is the honest answer.
    """
    t = ITree(None)
    t._node = Tau(t)
    return t


class _Bind(ITree):
    """An unforced bind: a source tree and a queue of continuations.

    The queue is a continuation or a pair ``(left, right)`` of queues,
    applied left to right. A bind node's source is never itself an
    unforced bind node (see ``_attach``), so stepping is one loop.
    """

    __slots__ = ("_src", "_ks")

    def __init__(self, src: ITree, ks):
        self._node = None
        self._src = src
        self._ks = ks

    def step(self):
        node = self._node
        if node is None:
            node = _step_bind(self._src, self._ks)
            self._node = node
            self._src = self._ks = None
        return node


def _attach(t: ITree, ks) -> ITree:
    """``t`` followed by the queue ``ks``. An unforced bind node gets the
    queue appended to its own rather than a new layer around it."""
    if type(t) is _Bind and t._node is None:
        return _Bind(t._src, (t._ks, ks))
    return _Bind(t, ks)


def _step_bind(t: ITree, ks):
    """The head node of ``t`` followed by the queue ``ks``.

    Ret heads feed the next continuation in a loop; a continuation that
    returns an unforced bind node has its queue spliced in front of the
    rest. At a Tau or Vis head the remaining queue is re-attached; once
    the queue is empty the head is the inner tree's own node.
    """
    while True:
        node = t.step()
        if ks is None:
            return node
        if type(node) is Tau:
            return Tau(_attach(node.rest, ks))
        if type(node) is Vis:
            cont = node.cont
            return Vis(node.event, lambda x: _attach(cont(x), ks))
        while type(ks) is tuple and type(ks[0]) is tuple:  # rotate left
            (a, b), c = ks
            ks = (a, (b, c))
        k, ks = ks if type(ks) is tuple else (ks, None)
        t = k(node.value)
        if type(t) is _Bind and t._node is None:
            t, ks = t._src, (t._ks if ks is None else (t._ks, ks))


def bind(t: ITree, k: Callable[[Any], ITree]) -> ITree:
    """Sequence ``t`` with ``k``; the monadic bind.

    ``bind(ret(x), k)`` steps directly to ``k(x)``'s head (no extra Tau),
    so the left unit law is definitional, not merely up-to-tau.
    Binds re-associate: ``bind(bind(t, f), g)`` is one node over ``t``
    with the queue ``f, g``, so a left-nested chain steps in amortized
    constant time per node at constant stack depth, and yields the same
    node sequence as the nested form.
    """
    return _attach(t, k)


def skip_taus(t: ITree, fuel: Fuel) -> "tuple[Any, Fuel, bool]":
    """Unfold through Tau nodes, spending one fuel per skip.

    Returns ``(node, fuel_left, looped)``. ``node`` is the first non-Tau
    node, or ``None`` if fuel ran out or a Tau self-loop was detected;
    ``looped`` is True only in the self-loop case (proven divergence).
    """
    node = t.step()
    while type(node) is Tau:
        if node.rest is t:
            return None, fuel, True
        if fuel <= 0:
            return None, 0, False
        fuel -= 1
        t = node.rest
        node = t.step()
    return node, fuel, False


def observe(t: ITree, fuel: Fuel):
    """Force the head of ``t``: the first Ret or Vis node.

    Ret and Vis cost no fuel to report; each Tau skipped on the way costs
    one. Returns ``FUEL_EXHAUSTED`` if the budget runs out first (a Tau
    self-loop exhausts immediately rather than spinning).
    """
    node, _, looped = skip_taus(t, fuel)
    if node is None or looped:
        return FUEL_EXHAUSTED
    return node


HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class BoundedVerdict:
    """Outcome of a bounded check over a possibly infinite tree."""

    status: str
    witness: tuple[str, ...] = ()
    reason: str = ""

    @property
    def is_holds(self) -> bool:
        return self.status == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status == FAILS

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def describe(self) -> str:
        if self.is_fails:
            return "fails: " + " / ".join(self.witness)
        if self.is_unknown:
            return f"unknown ({self.reason})"
        return "holds"


# Verdicts are frozen, so every ``holds`` can be this one.
_HOLDS = BoundedVerdict(HOLDS)


def holds() -> BoundedVerdict:
    return _HOLDS


def fails(witness: Sequence[str]) -> BoundedVerdict:
    return BoundedVerdict(FAILS, witness=tuple(witness))


def unknown(reason: str) -> BoundedVerdict:
    return BoundedVerdict(UNKNOWN, reason=reason)


def combine_verdicts(verdicts) -> BoundedVerdict:
    """All-of combination (Kleene's strong conjunction), lazy: the first
    fails wins, else the first unknown, else holds. Every multi-input check folds here."""
    pending = None
    for v in verdicts:
        if v.is_fails:
            return v
        if v.is_unknown and pending is None:
            pending = v
    return pending if pending is not None else _HOLDS


def explore(root, fuel: Fuel, expand) -> BoundedVerdict:
    """Depth-first bounded search with an explicit stack.

    ``expand(state, fuel)`` judges one node: it returns a verdict for a
    leaf, or a list of children ``(label, state, fuel)`` to visit in
    order. Children are searched depth first, so the result is the first
    ``fails`` in depth-first order, else the first ``unknown``, else
    ``holds``. The search stops at the first ``fails``.

    A label is a tuple ``(fmt, *args)``. Labels stay on parent links and
    are formatted (``fmt.format(*args)``) only to build a ``fails``
    witness: the labels from the root down to the failing node, then the
    failing leaf's own witness. Path length is bounded by fuel alone,
    not by Python's recursion limit.
    """
    stack = [(root, fuel, None)]
    pending = None
    while stack:
        state, fuel, link = stack.pop()
        out = expand(state, fuel)
        if type(out) is list:
            for label, child, child_fuel in reversed(out):
                stack.append((child, child_fuel, (label, link)))
        elif out.status == FAILS:
            labels = []
            while link is not None:
                label, link = link
                labels.append(label[0].format(*label[1:]))
            labels.reverse()
            return fails(tuple(labels) + out.witness)
        elif out.status == UNKNOWN and pending is None:
            pending = out
    return pending if pending is not None else _HOLDS


def eutt_bounded(t1: ITree, t2: ITree, fuel: Fuel, sampler) -> BoundedVerdict:
    """Bounded equivalence up to taus.

    Tau nodes on either side are skipped (one fuel each). Ret nodes must
    carry equal values. Vis nodes must carry equal events, and the
    continuations are compared on every answer the sampler provides for
    the event (one fuel per Vis step). A detected Tau self-loop counts as
    proven divergence: two loops are equivalent, a loop against anything
    convergent is a failure.

    ``sampler`` is any object with ``answers(event) -> sequence``.
    """

    def expand(pair, fuel: Fuel):
        n1, fuel, loop1 = skip_taus(pair[0], fuel)
        n2, fuel, loop2 = skip_taus(pair[1], fuel)
        if loop1 or loop2:
            if loop1 and loop2:
                return holds()
            if n1 is None and n2 is None:
                return unknown("fuel-exhausted")
            side = "left" if loop1 else "right"
            return fails((f"{side} side diverges, other side does not",))
        if n1 is None or n2 is None:
            return unknown("fuel-exhausted")
        k1, k2 = type(n1), type(n2)
        if k1 is Ret and k2 is Ret:
            if n1.value == n2.value:
                return holds()
            return fails((f"Ret {n1.value!r} != Ret {n2.value!r}",))
        if k1 is Vis and k2 is Vis:
            if n1.event != n2.event:
                return fails((f"events differ: {n1.event!r} != {n2.event!r}",))
            if fuel <= 0:
                return unknown("fuel-exhausted")
            answers = sampler.answers(n1.event)
            if not answers:
                return unknown("sample-limited")
            return [
                (("{!r} answered {!r}", n1.event, x), (n1.cont(x), n2.cont(x)), fuel - 1)
                for x in answers
            ]
        return fails((f"node shapes differ: {k1.__name__} vs {k2.__name__}",))

    return explore((t1, t2), fuel, expand)


def run_pure(t: ITree, fuel: Fuel) -> "tuple[bool, Any]":
    """Drive a tree expected to contain no events down to its value.

    Returns ``(True, value)`` on Ret, ``(False, description)`` when fuel
    runs out, the tree diverges, or an event shows up after all.
    """
    node, _, looped = skip_taus(t, fuel)
    if looped:
        return False, "diverges"
    if node is None:
        return False, "fuel-exhausted"
    if type(node) is Vis:
        return False, f"unexpected event {node.event!r}"
    return True, node.value
