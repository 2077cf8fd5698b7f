"""Morphism combinators: composition, the structural morphisms, coherence.

A morphism is any function from an input value to a directive tree.
Identity is ``ret``, ``code`` lifts a pure function, and sequential
composition is monadic bind. ``tensor`` runs two morphisms on the halves
of a pair, left side first (sequential-independent, not concurrent).
The combinators take arbitrary morphisms, a compiled program included:
program files build their morphisms, effectful primitives and bounds
alike, in ``program.compile_ast``.

The structural morphisms (associator, unitors, braiding) are all pure
tuple rearrangements, so the pentagon, triangle, and hexagon coherence
checks reduce to comparing concrete values on sampled tuples.
``check_trace_of_bind`` checks that governed interpretation distributes
over bind, and ``interp_tensor_distribute_check`` applies it to ``tensor``.

The register machine at the bottom of the module is the Turing-complete
core used to demonstrate that unbounded computation stays inside
governance: programs of instruction tuples spelt as in a program file,
checked only by ``RegisterProgram``, translate, fuel-unrolled, into
directive trees logging each executed step as an observability directive.
Their oracle, ``reference.register_steps``, shares no code with them.

A translated machine is a memoized lazy list: each forced state holds its
one successor, so every path, check and call of ``register_machine``'s
morphism walks the same nodes and each step is computed once. The cost is
that a forced chain lives as long as its root; the machine's own ``fuel``
bounds its length, and a caller's fuel bounds how much of it is forced.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .directives import (
    Handler,
    Observability,
    ResponseSampler,
    _UNIT,
    mock_handler,
)
from .governance import (
    PERMISSIVE,
    GovernancePolicy,
    drive,
    gov_safe_check,
    govern,
    interpret_governed,
)
from .itree import (
    BoundedVerdict,
    Fuel,
    ITree,
    Ret,
    Vis,
    _new,
    _tree,
    bind,
    combine_verdicts,
    fails,
    holds,
    ret,
    run_pure,
    unknown,
)
from .reference import register_steps

Morphism = Callable[[Any], ITree]

identity: Morphism = ret


def code(f: Callable[[Any], Any]) -> Morphism:
    """Pure computation: ``code(f)(a)`` is ``ret(f(a))``; no events."""
    return lambda a: ret(f(a))


def seq_compose(f: Morphism, *gs: Morphism) -> Morphism:
    """``f`` then each of ``gs`` in order: every step is bound onto the
    one queue of the tree ``f`` starts, so n steps run in O(n)."""

    def morph(a):
        t = f(a)
        for g in gs:
            t = bind(t, g)
        return t

    return morph


def _as_pair(p):
    return p if type(p) is tuple and len(p) == 2 else (p, p)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Independent composition on pairs: f's tree runs to completion,
    then g's, then the results are paired."""

    def morph(p):
        a, c = _as_pair(p)
        return bind(f(a), lambda b: bind(g(c), lambda d: ret((b, d))))

    return morph


# Structural morphisms. All pure; inverses compose to identity.

associator: Morphism = code(lambda p: (p[0][0], (p[0][1], p[1])))
associator_inv: Morphism = code(lambda p: ((p[0], p[1][0]), p[1][1]))
left_unitor: Morphism = code(lambda p: p[1])
left_unitor_inv: Morphism = code(lambda a: (None, a))
right_unitor: Morphism = code(lambda p: p[0])
right_unitor_inv: Morphism = code(lambda a: (a, None))
braiding: Morphism = code(lambda p: (p[1], p[0]))


def _compare_paths(
    path1: Morphism, path2: Morphism, samples: Iterable, fuel: Fuel, label: str
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
    """Both re-association routes from ((A,B),C),D agree on every sample."""
    path1 = seq_compose(associator, associator)
    path2 = seq_compose(
        seq_compose(tensor(associator, identity), associator),
        tensor(identity, associator),
    )
    return _compare_paths(path1, path2, samples, fuel, "pentagon")


def check_triangle(samples: Iterable, fuel: Fuel = 64) -> BoundedVerdict:
    """Re-associating past the unit agrees with dropping it directly."""
    path1 = seq_compose(associator, tensor(identity, left_unitor))
    path2 = tensor(right_unitor, identity)
    return _compare_paths(path1, path2, samples, fuel, "triangle")


def check_hexagon(samples: Iterable, fuel: Fuel = 64) -> BoundedVerdict:
    """The two braiding routes around the associator agree."""
    path1 = seq_compose(seq_compose(associator, braiding), associator)
    path2 = seq_compose(
        seq_compose(tensor(braiding, identity), associator),
        tensor(identity, braiding),
    )
    return _compare_paths(path1, path2, samples, fuel, "hexagon")


def check_trace_of_bind(t, k, policy, handler, fuel: int) -> BoundedVerdict:
    """Check that interpretation distributes over sequential composition.

    Runs ``t``, then ``k(value)``, then ``bind(t, k)``, all under the same
    policy and handler. The bind run must end with the second run's value,
    and its trace must equal the concatenation element-wise. Unknown if
    any run does not complete within fuel.
    """
    gh = govern(handler)
    first = interpret_governed(gh, policy, t, fuel)
    if not first.completed:
        return unknown("fuel-exhausted" if not first.denied else "denied")
    second = interpret_governed(gh, policy, k(first.value), fuel)
    if not second.completed:
        return unknown("fuel-exhausted" if not second.denied else "denied")
    whole = interpret_governed(gh, policy, bind(t, k), fuel)
    if not whole.completed:
        return unknown("bind run did not complete")
    if whole.value != second.value:
        return fails((f"value {whole.value!r} != second run's {second.value!r}",))
    expected = first.trace + second.trace
    if whole.trace == expected:
        return holds()
    return fails((f"trace {whole.trace!r} != concatenation {expected!r}",))


def interp_tensor_distribute_check(
    f: Morphism,
    g: Morphism,
    handler: Handler,
    inputs: Iterable,
    fuel: Fuel,
    policy: GovernancePolicy = PERMISSIVE,
) -> BoundedVerdict:
    """Interpretation of ``tensor(f, g)`` equals interpreting ``f``, then
    ``g`` with the first result paired in: values and traces both match.
    ``tensor`` is a bind, so this is ``check_trace_of_bind`` per input."""

    def check(p):
        a, c = _as_pair(p)
        return check_trace_of_bind(
            f(a), lambda b: bind(g(c), lambda d: ret((b, d))), policy, handler, fuel
        )

    return combine_verdicts(map(check, inputs))


# Register machine.

MAX_REGISTERS = 64  # each step writes every register into its message
_SHAPES = {"inc": 2, "decjz": 3, "halt": 1}  # opcode: instruction length


@dataclass(frozen=True)
class RegisterProgram:
    """Instructions as a program file spells them, stored as tuples:
    ``("inc", r)``, ``("decjz", r, target)`` or ``("halt",)``. Every shape
    is checked before any operand."""

    instructions: tuple
    registers: int

    def __post_init__(self):
        for ins in self.instructions:
            if not isinstance(ins, (list, tuple)) or not ins:
                raise ValueError(f"malformed instruction {ins!r}")
            if type(ins[0]) is not str or _SHAPES.get(ins[0]) != len(ins):
                raise ValueError(f"unknown instruction {ins!r}")
        for i, ins in enumerate(self.instructions):
            if len(ins) > 1:
                # not isinstance: True is an int to Python, not a register
                if any(type(x) is not int for x in ins[1:]):
                    raise ValueError(f"instruction {i}: operands must be integers")
                if not 0 <= ins[1] < self.registers:
                    raise ValueError(f"instruction {i}: register out of range")
                if len(ins) == 3 and not 0 <= ins[2] < len(self.instructions):
                    raise ValueError(f"instruction {i}: jump target out of range")
        object.__setattr__(self, "instructions", tuple(map(tuple, self.instructions)))


def _step(ins: tuple, pc: int, regs: tuple) -> "tuple[int, tuple] | None":
    """One executed instruction; None means halt."""
    name = ins[0]
    if name == "halt":
        return None
    r = ins[1]
    if name == "inc":
        return pc + 1, regs[:r] + (regs[r] + 1,) + regs[r + 1:]
    if regs[r] == 0:
        return ins[2], regs
    return pc + 1, regs[:r] + (regs[r] - 1,) + regs[r + 1:]


def _step_message(pc: int, regs: tuple) -> str:
    return f"pc={pc};regs={','.join(str(r) for r in regs)}"


def register_machine(p: RegisterProgram, fuel: int) -> Morphism:
    """The program as a morphism: it ignores its input and returns unit.

    The program is translated once, fuel-unrolled, into one directive tree
    for every input, whose forced steps all paths and checks share (see the
    module docstring). Each executed instruction emits one observability
    directive of the program counter and the post-step registers; halt,
    running past the end or running out of fuel return unit.
    """
    t = _translate(p.instructions, fuel, 0, (0,) * p.registers)
    return lambda a: t


def _translate(code: tuple, fuel: int, pc: int, regs: tuple) -> ITree:
    """The unforced register state ``(pc, regs)`` with ``fuel`` steps left."""
    t = _tree(_State)
    t._node, t._code, t._fuel, t._pc, t._regs = None, code, fuel, pc, regs
    return t


class _State(ITree):
    """A register state. Forced, it executes one instruction and releases
    the instructions and registers. Every answer resumes the one successor,
    so the state is its predecessor's continuation: called with any answer,
    it returns itself. A forced chain holds no closure per step."""

    __slots__ = ("_code", "_fuel", "_pc", "_regs")

    def __call__(self, _x):
        return self

    def step(self):
        node = self._node
        if node is None:
            code, fuel, pc, regs = self._code, self._fuel, self._pc, self._regs
            self._code = self._regs = None
            outcome = _step(code[pc], pc, regs) if fuel > 0 and 0 <= pc < len(code) else None
            if outcome is None:
                node = _new(Ret, (None,))
            else:
                d = _new(Observability, (_step_message(pc, outcome[1]),))
                node = _new(Vis, (d, _translate(code, fuel - 1, *outcome)))
            self._node = node
        return node


def register_tree_steps(t: ITree, drive_fuel: int) -> "list | None":
    """The observability messages a translated register tree emits, driven
    with unit answers, or None if the run did not complete."""
    out = drive(t, drive_fuel, lambda d: (d.message, _UNIT))
    return list(out.trace) if out.completed else None


def enumerate_register_programs(max_len: int) -> "Iterable[RegisterProgram]":
    """Every two-register program up to ``max_len`` instructions over a
    small alphabet: ``inc`` and ``decjz`` on each register, jumps to
    instruction 0 or 1 (where in bounds), and ``halt``."""
    for n in range(1, max_len + 1):
        symbols = [("inc", 0), ("inc", 1)]
        symbols += [("decjz", r, t) for r in (0, 1) for t in (0, 1) if t < n]
        symbols.append(("halt",))
        for combo in itertools.product(symbols, repeat=n):
            yield RegisterProgram(combo, 2)


def check_register_agreement(
    programs: Iterable[RegisterProgram],
    fuel: int,
    sampler: ResponseSampler,
) -> BoundedVerdict:
    """Translated trees agree step-for-step with ``reference.register_steps``
    on the program's instructions, and their governed images pass the safety
    check at fuel 4096. Both walks share the one translation's steps."""
    gh = govern(mock_handler(0))

    def agree(p):
        expected = list(register_steps(p.instructions, p.registers, fuel))
        tree = register_machine(p, fuel)(None)
        got = register_tree_steps(tree, drive_fuel=4 * fuel + 8)
        if got != expected:
            pairs = enumerate(itertools.zip_longest(got or (), expected))
            at = next((i for i, (a, b) in pairs if a != b), 0)  # 0: a run that did not end
            node = {"kind": "register_machine", "registers": p.registers, "fuel": fuel,
                    "program": p.instructions}  # a program file's body
            return fails((f"register trace mismatch at step {at} for {json.dumps(node)}",))
        v = gov_safe_check(gh.transform(tree), False, 4096, sampler)
        if v.is_fails:
            return fails((f"governed register program unsafe: {p!r}",) + v.witness)
        return v

    return combine_verdicts(map(agree, programs))
