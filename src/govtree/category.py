"""The register machine, the Turing-complete core used to demonstrate
that unbounded computation stays inside governance.

Programs of instruction tuples spelt as in a program file, checked only by
``RegisterProgram``, translate, fuel-unrolled, into directive trees
logging each executed step as an observability directive. Their oracle,
``reference.register_steps``, shares no code with them.

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
    Observability,
    ResponseSampler,
    _UNIT,
    mock_handler,
)
from .governance import drive, gov_safe_check, govern
from .itree import (
    BoundedVerdict,
    ITree,
    Ret,
    Vis,
    _new,
    _tree,
    combine_verdicts,
    fails,
)
from .reference import register_steps

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


def register_machine(p: RegisterProgram, fuel: int) -> Callable[[Any], ITree]:
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
