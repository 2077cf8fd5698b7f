"""Program combinators: the four primitives, composition, and coherence.

A morphism is any function from an input value to a directive tree.
Identity is ``ret``, sequential composition is monadic bind, and four
primitives generate everything: ``code`` for pure functions, ``reason``
for one LLM call, ``memory`` for one memory operation, ``call`` for one
machine invocation. ``tensor`` runs two morphisms on the halves of a
pair, left side first (sequential-independent, not concurrent), and
``branch`` picks one of two morphisms by a pure predicate.

The structural morphisms (associator, unitors, braiding) are all pure
tuple rearrangements, so the pentagon, triangle, and hexagon coherence
checks reduce to comparing concrete values on sampled tuples.
``check_trace_of_bind`` checks that governed interpretation distributes
over bind, and ``interp_tensor_distribute_check`` applies it to ``tensor``.

The register machine at the bottom of the module is the Turing-complete
core used to demonstrate that unbounded computation stays inside
governance: programs over Inc / DecJz / Halt translate, fuel-unrolled,
into directive trees that log every executed step as an observability
directive. A separate direct interpreter over the same instruction set
serves as the independent reference for the translation.

A translated machine is a memoized lazy list: each forced state holds its
one successor, so every path, check and call of ``register_machine``'s
morphism walks the same nodes and each step is computed once. The cost is
that a forced chain lives as long as its root; the machine's own ``fuel``
bounds its length, and a caller's fuel bounds how much of it is forced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Union

from .directives import (
    CallMachine,
    Handler,
    LLMCall,
    MemoryOp,
    Observability,
    ResponseSampler,
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
    bind,
    combine_verdicts,
    fails,
    holds,
    ret,
    run_pure,
    unknown,
    vis,
)

Morphism = Callable[[Any], ITree]

identity: Morphism = ret


def code(f: Callable[[Any], Any]) -> Morphism:
    """Pure computation: ``code(f)(a)`` is ``ret(f(a))``; no events."""
    return lambda a: ret(f(a))


def _primitive(directive_type, build, extract) -> Morphism:
    def morph(a):
        d = build(a)
        if type(d) is not directive_type:
            raise TypeError(
                f"builder produced {type(d).__name__}, expected {directive_type.__name__}"
            )
        return vis(d, lambda x: ret(extract(x)))

    return morph


def reason(build: Callable[[Any], LLMCall], extract) -> Morphism:
    """One LLM call: build the directive from the input, extract from the
    response."""
    return _primitive(LLMCall, build, extract)


def memory(build: Callable[[Any], MemoryOp], extract) -> Morphism:
    return _primitive(MemoryOp, build, extract)


def call(build: Callable[[Any], CallMachine], extract) -> Morphism:
    return _primitive(CallMachine, build, extract)


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


def branch(pred: Callable[[Any], bool], f: Morphism, g: Morphism) -> Morphism:
    return lambda a: f(a) if pred(a) else g(a)


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

@dataclass(frozen=True, slots=True)
class Inc:
    reg: int


@dataclass(frozen=True, slots=True)
class DecJz:
    reg: int
    target: int


@dataclass(frozen=True, slots=True)
class Halt:
    pass


Instruction = Union[Inc, DecJz, Halt]


@dataclass(frozen=True)
class RegisterProgram:
    instructions: tuple
    registers: int

    def __post_init__(self):
        n = len(self.instructions)
        for i, ins in enumerate(self.instructions):
            if type(ins) is Inc or type(ins) is DecJz:
                # not isinstance: True is an int to Python, not a register
                if type(ins.reg) is not int or type(ins) is DecJz and type(ins.target) is not int:
                    raise ValueError(f"instruction {i}: operands must be integers")
                if not 0 <= ins.reg < self.registers:
                    raise ValueError(f"instruction {i}: register out of range")
            if type(ins) is DecJz and not 0 <= ins.target < n:
                raise ValueError(f"instruction {i}: jump target out of range")


def _step(ins: Instruction, pc: int, regs: tuple) -> "tuple[int, tuple] | None":
    """One executed instruction; None means halt."""
    if type(ins) is Halt:
        return None
    if type(ins) is Inc:
        regs = regs[: ins.reg] + (regs[ins.reg] + 1,) + regs[ins.reg + 1:]
        return pc + 1, regs
    if regs[ins.reg] == 0:
        return ins.target, regs
    regs = regs[: ins.reg] + (regs[ins.reg] - 1,) + regs[ins.reg + 1:]
    return pc + 1, regs


def _step_message(pc: int, regs: tuple) -> str:
    return f"pc={pc};regs={','.join(str(r) for r in regs)}"


def register_machine(p: RegisterProgram, fuel: int) -> Morphism:
    """The program as a morphism: it ignores its input and returns unit.

    The program is translated once, and that one tree is returned for every
    input, so the steps forced on one path or check are shared by all the
    others. The forced part of the tree lives as long as the morphism; the
    machine's ``fuel`` bounds it, and the callers' fuel bounds how much of
    it they force.
    """
    t = translate_register_program(p, fuel)
    return lambda a: t


def translate_register_program(p: RegisterProgram, fuel: int) -> ITree:
    """Fuel-unrolled translation into a directive tree.

    Each executed instruction emits one observability directive recording
    the program counter and the post-step registers. Halt, running past
    the end, or running out of fuel all return unit.

    Each state's successor is built once, when the state is forced, and
    every answer resumes it: a forced chain lives as long as its root, at
    most ``fuel`` states long.
    """
    return _translate(p, fuel, 0, (0,) * p.registers)


class _State(ITree):
    """A translated register state. Every answer resumes the one successor,
    so the state itself is its predecessor's continuation: called with any
    answer, it returns itself. A forced chain then holds no closure per
    step."""

    __slots__ = ()

    def __call__(self, _x):
        return self


def _translate(p: RegisterProgram, fuel: int, pc: int, regs: tuple) -> ITree:
    def step():
        if fuel <= 0 or not 0 <= pc < len(p.instructions):
            return Ret(None)
        outcome = _step(p.instructions[pc], pc, regs)
        if outcome is None:
            return Ret(None)
        pc2, regs2 = outcome
        d = Observability(_step_message(pc, regs2))
        return Vis(d, _translate(p, fuel - 1, pc2, regs2))

    return _State(step)


def reference_register_run(p: RegisterProgram, fuel: int) -> "tuple[tuple, list]":
    """Direct loop over the instruction set; the independent oracle for
    the tree translation. Returns final registers and the per-step log of
    (pc, post-step registers)."""
    regs = (0,) * p.registers
    pc = 0
    steps = []
    while fuel > 0 and 0 <= pc < len(p.instructions):
        outcome = _step(p.instructions[pc], pc, regs)
        if outcome is None:
            break
        steps.append((pc, outcome[1]))
        pc, regs = outcome
        fuel -= 1
    return regs, steps


# Every step is answered with unit; a forced tree never changes, so one serves all.
_UNIT = ret(None)


def register_tree_steps(t: ITree, drive_fuel: int) -> "list | None":
    """The observability messages a translated register tree emits, driven
    with unit answers, or None if the run did not complete."""
    out = drive(t, drive_fuel, lambda d: (d.message, _UNIT))
    return list(out.trace) if out.completed else None


def enumerate_register_programs(max_len: int) -> "Iterable[RegisterProgram]":
    """Every two-register program up to ``max_len`` instructions over a
    small alphabet: Inc and DecJz on each register, jumps to instruction 0
    or 1 (where in bounds), and Halt."""
    for n in range(1, max_len + 1):
        symbols: list[Instruction] = [Inc(0), Inc(1)]
        symbols += [DecJz(r, t) for r in (0, 1) for t in (0, 1) if t < n]
        symbols.append(Halt())
        for combo in itertools.product(symbols, repeat=n):
            yield RegisterProgram(combo, 2)


def check_register_agreement(
    programs: Iterable[RegisterProgram],
    fuel: int,
    sampler: ResponseSampler,
) -> BoundedVerdict:
    """Translated trees agree step-for-step with the reference interpreter,
    and their governed images pass the safety check at fuel 4096. Each
    program is translated once; both walks share its forced steps."""
    gh = govern(mock_handler(0))

    def agree(p):
        _, steps = reference_register_run(p, fuel)
        expected = [_step_message(pc, regs) for pc, regs in steps]
        tree = translate_register_program(p, fuel)
        if register_tree_steps(tree, drive_fuel=4 * fuel + 8) != expected:
            return fails((f"register trace mismatch for {p!r}",))
        v = gov_safe_check(gh.transform(tree), False, 4096, sampler)
        if v.is_fails:
            return fails((f"governed register program unsafe: {p!r}",) + v.witness)
        return v

    return combine_verdicts(map(agree, programs))
