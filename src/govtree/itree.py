"""Lazy interaction trees with fuel-bounded observation and equivalence.

A program is a potentially infinite tree with three node shapes:

* ``Ret(value)``   -- the computation is done,
* ``Tau(rest)``    -- one silent step, then ``rest``,
* ``Vis(event, cont)`` -- a visible event; ``cont`` maps the event's
  answer to the rest of the tree.

Nothing below a node is built until the node is observed, and every
observed node is memoized, so observation is pure: two observations of
the same tree yield the very same node objects. Nodes are ``NamedTuple``s
equal only to nodes of their own type (``own_type_eq``). They are built
by ``tuple.__new__`` in the helpers (``ret``, ``tau``, ``vis``), never by
calling the class, whose ``__new__`` is Python code run per node.

Because trees may be infinite, every analysis here is bounded by an
explicit ``fuel`` budget (a per-path step count) and reports a
three-valued ``BoundedVerdict``:

* ``fails``   -- a concrete counterexample path was found; always sound.
* ``holds``   -- the reachable region was exhausted with no discrepancy.
* ``unknown`` -- fuel or sampling ran out before the question resolved.

Every bounded checker is a per-node rule run by :func:`explore`, one
depth-first search with an explicit stack.

:func:`bind` is one node over a source tree and one continuation, so a
left-nested chain of n binds steps n frames deep. Programs compose on
the program machine, where a ``seq`` of n steps runs in a row at
constant stack depth; a long pipeline is written as a ``seq``.

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


class ITree:
    """A lazily unfolded interaction tree.

    ``step()`` returns the tree's one node. A tree has no constructor:
    ``ret``, ``tau`` and ``vis`` build forced trees. An unforced tree is a
    subclass that keeps its state in ``__slots__`` and has its own
    ``step``, which builds the node when first observed, memoizes it in
    ``_node`` and releases the state: ``_Bind`` here, ``program._Machine``,
    ``governance._Image`` and ``program._Register``.
    """

    __slots__ = ("_node",)

    def step(self):
        return self._node


# Trees and nodes are built without running Python code: a tree is an
# ``object.__new__`` with its slots stored, a node a ``tuple.__new__`` of
# its fields.
_tree = object.__new__
_new = tuple.__new__  # a NamedTuple from its fields, without its Python __new__


def ret(value: Any) -> ITree:
    t = _tree(ITree)
    t._node = _new(Ret, (value,))
    return t


def tau(rest: ITree) -> ITree:
    t = _tree(ITree)
    t._node = _new(Tau, (rest,))
    return t


def vis(event: Any, cont: Callable[[Any], ITree]) -> ITree:
    t = _tree(ITree)
    t._node = _new(Vis, (event, cont))
    return t


def spin() -> ITree:
    """The canonical divergent tree: an infinite stream of Tau steps.

    The returned tree is its own child, so tau-skipping loops can detect
    it by identity (see ``skip_taus``). ``bind(spin(), k)`` steps to a
    fresh bind node over the spin at every Tau and is *not* detectable;
    bounded checks on it stay ``unknown``, which is the honest answer.
    """
    t = _tree(ITree)
    t._node = _new(Tau, (t,))
    return t


class _Bind(ITree):
    """An unforced bind: a source tree and its continuation."""

    __slots__ = ("_src", "_k")

    def step(self):
        node = self._node
        if node is None:
            node, k = self._src.step(), self._k
            if type(node) is Ret:
                node = k(node.value).step()
            elif type(node) is Tau:
                node = _new(Tau, (bind(node.rest, k),))
            else:
                cont = node.cont
                node = _new(Vis, (node.event, lambda x: bind(cont(x), k)))
            self._node = node
            self._src = self._k = None
        return node


def bind(t: ITree, k: Callable[[Any], ITree]) -> ITree:
    """Sequence ``t`` with ``k``; the monadic bind.

    ``bind(ret(x), k)`` steps directly to ``k(x)``'s head (no extra Tau),
    so the left unit law is definitional, not merely up-to-tau, and a
    ``spin`` reached that way is still detected. Each bind is one node
    over its source, so a left-nested chain of n binds,
    ``bind(...bind(bind(t, f1), f2)..., fn)``, steps n frames deep; a long
    pipeline is written as a program ``seq``, which the machine runs at
    constant stack depth.
    """
    b = _tree(_Bind)
    b._node, b._src, b._k = None, t, k
    return b


def skip_taus(t: ITree, fuel: Fuel) -> "tuple[Any, Fuel, bool]":
    """Force the head of ``t``: unfold through Tau nodes, spending one fuel
    per skip, to the first Ret or Vis node.

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
    order. An empty list, an event the sampler gave no answer, is unknown
    (sample-limited). Children are searched depth first, so the result is
    the first ``fails`` in depth-first order, else the first ``unknown``,
    else ``holds``. The search stops at the first ``fails``.

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
            if not out and pending is None:
                pending = unknown("sample-limited")
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
            return [
                (("{!r} answered {!r}", n1.event, x), (n1.cont(x), n2.cont(x)), fuel - 1)
                for x in sampler.answers(n1.event)
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
