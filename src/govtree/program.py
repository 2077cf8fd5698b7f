"""Program files: a serializable AST compiled into directive trees.

A program file is a JSON document; its canonical text, ``json.dumps(doc,
indent=2)`` and a LF (2-space indent, ASCII escapes, keys in order), is
written by ``serialize_program`` itself: the stdlib's C encoder ignores ``indent``::

    {"version": 1, "input": <value>, "body": <node>}

Values are ints, strings, booleans, null (unit), or two-element lists
(pairs, possibly nested). Node kinds are ``code``, ``reason``,
``memory``, ``call``, ``seq``, ``tensor``, ``branch``, and
``register_machine`` (of at most ``MAX_REGISTERS`` registers).

The grammar has one definition, ``compile_ast``: a body is accepted
exactly when it compiles. One depth-first walk checks each node and its
expressions, refusing the first malformed part with a ``ProgramError``,
and appends its instructions to one flat tuple for one defunctionalized
machine (Reynolds 1972), whose states ``state_key`` names. The bound is
the union of its directives' capabilities in ``directives.SIGNATURE``; the
result is a ``CapMorphism``. ``parse_program`` compiles the body once and the
``Program`` it returns keeps the result; a ``Program`` built directly
compiles on its first ``compile()`` or ``caps()``. A document nested
deeper than the recursion limit allows is a ``ProgramError`` too. Each
effectful kind is stated once, as a row of ``PRIMITIVES`` that
``compile_ast`` and ``gen`` both read.

Pure functions inside nodes are written in a tiny total expression
language evaluated against the node's input value. Besides the payload
forms ``input``, ``int``, ``str`` and ``unit``, each operation is stated
once, as the function of its argument values in the table for its arity
(``_UNARY``, ``_BINARY``), which ``compile_expr`` reads to check and build
an op in one walk and ``eval_form`` runs. Operations never raise; mixed
types go through fixed coercions:

* to_int: ints as-is, booleans 0/1, strings their length, unit 0,
  pairs the sum of both halves.
* to_str: strings as-is, ints decimal, booleans ``true``/``false``,
  unit empty, pairs ``left:right``.
* to_bool: nonzero, nonempty; pairs are true, unit is false.
* fst/snd on a non-pair return the value unchanged; tensor applied to a
  non-pair duplicates it.
* mod by zero yields 0.

A directive answer enters its extract expression as the pair
``(status, content)``.

A ``register_machine`` node is checked by ``_parse_register``, every
instruction's shape before any operand, which also translates it, once
per compile, into a fuel-unrolled chain of register states that the
machine's ``_ENTER`` instruction embeds. The chain is a memoized lazy
list: each forced state holds its one successor, so every path, check
and run of the compiled body walks the same nodes and each step is
computed once. The cost is that a forced chain lives as long as the
compiled body; the node's own ``fuel`` bounds its length, and a caller's
fuel bounds how much of it is forced. Its oracle,
``reference.register_steps``, shares no code with it.

The machine is the production pipeline; the independent evaluator in
``reference`` shares none of its evaluation code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any

from .capability import CapMorphism, CapSet
from .directives import SIGNATURE, CallMachine, LLMCall, MemoryOp, Observability
from .itree import ITree, Ret, Vis, _new, _tree


class ProgramError(ValueError):
    """Raised for malformed program documents."""


def to_int(v) -> int:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return len(v)
    if isinstance(v, tuple):
        return to_int(v[0]) + to_int(v[1])
    return 0


def to_str(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return f"{to_str(v[0])}:{to_str(v[1])}"
    return ""


def to_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v != 0
    if isinstance(v, str):
        return v != ""
    if isinstance(v, tuple):
        return True
    return False


# op: the total function of its argument values
_UNARY = {
    "fst": lambda v: v[0] if isinstance(v, tuple) else v,
    "snd": lambda v: v[1] if isinstance(v, tuple) else v,
    "len": to_int,
    "not": lambda v: not to_bool(v),
}
_BINARY = {
    "add": lambda a, b: to_int(a) + to_int(b),
    "sub": lambda a, b: to_int(a) - to_int(b),
    "mul": lambda a, b: to_int(a) * to_int(b),
    "mod": lambda a, b: to_int(a) % to_int(b) if to_int(b) != 0 else 0,
    "concat": lambda a, b: to_str(a) + to_str(b),
    "pair": lambda a, b: (a, b),
    "eq": lambda a, b: a == b,
    "lt": lambda a, b: to_int(a) < to_int(b),
    "and": lambda a, b: to_bool(a) and to_bool(b),
    "or": lambda a, b: to_bool(a) or to_bool(b),
}
_INPUT = object()  # a compiled expression's input; its other leaves are literal values


def _valid_text(v: str, what: str) -> str:
    """``v`` if it encodes as UTF-8. A JSON escape can leave an unpaired
    surrogate in a string, which no digest, trace or ledger can encode."""
    if not v.isascii():  # ASCII always encodes; only other text pays for the check
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ProgramError(f"{what} holds an unpaired surrogate") from None
    return v


def compile_expr(expr, table: dict):
    """``expr`` as ``_INPUT``, a literal's value or ``(fn, *args)`` interned in ``table``
    (no literal is a bool: ``==`` merges no 1 with True); its first fault is a ``ProgramError``."""
    if not isinstance(expr, dict) or "op" not in expr:
        raise ProgramError(f"expression must be an object with an op: {expr!r}")
    op = expr["op"]
    if type(op) is str and (op in _UNARY or op in _BINARY):
        unary, args = _UNARY.get(op), expr.get("args")
        if not isinstance(args, list) or len(args) != (1 if unary else 2):
            raise ProgramError(f"{op} takes {'one argument' if unary else 'two arguments'}")
        form = (unary, compile_expr(args[0], table)) if unary else (
            _BINARY[op], compile_expr(args[0], table), compile_expr(args[1], table))
        return table.setdefault(form, form)
    if op == "int":
        # not isinstance: True is an int to Python, not an integer literal
        if type(expr.get("value")) is not int:
            raise ProgramError("int literal needs an integer value")
        return expr["value"]
    if op == "str":
        value = expr.get("value")
        if not isinstance(value, str):
            raise ProgramError("str literal needs a string value")
        return _valid_text(value, "str literal")
    if op != "input" and op != "unit":
        raise ProgramError(f"unknown expression op {op!r}")
    return _INPUT if op == "input" else None


def eval_form(form, x):
    """The value of a compiled expression on the input ``x``."""
    if type(form) is not tuple:
        return x if form is _INPUT else form
    if len(form) == 2:
        return form[0](eval_form(form[1], x))
    return form[0](eval_form(form[1], x), eval_form(form[2], x))


def _require_str(node: dict, key: str) -> str:
    v = node.get(key)
    if not isinstance(v, str):
        raise ProgramError(f"{node.get('kind')} needs a string {key!r}")
    return v if v.isascii() else _valid_text(v, f"{node.get('kind')} {key!r}")


MAX_REGISTERS = 64  # each step writes every register into its message
_SHAPES = {"inc": 2, "decjz": 3, "halt": 1}  # opcode: instruction length


def _parse_register(node: dict) -> ITree:
    """Check a ``register_machine`` node, every shape before any operand, and
    translate it: the unforced chain from all-zero registers, whose
    instructions are tuples copied from the node's lists."""
    registers = node.get("registers")
    fuel = node.get("fuel")
    listing = node.get("program")
    if type(registers) is not int or registers < 1:
        raise ProgramError("register_machine needs a positive register count")
    if registers > MAX_REGISTERS:
        raise ProgramError(f"register_machine allows at most {MAX_REGISTERS} registers")
    if type(fuel) is not int or fuel < 0:
        raise ProgramError("register_machine needs a non-negative fuel")
    if not isinstance(listing, list):
        raise ProgramError("register_machine needs an instruction list")
    for ins in listing:
        if not isinstance(ins, (list, tuple)) or not ins:
            raise ProgramError(f"malformed instruction {ins!r}")
        if type(ins[0]) is not str or _SHAPES.get(ins[0]) != len(ins):
            raise ProgramError(f"unknown instruction {ins!r}")
    for i, ins in enumerate(listing):
        if len(ins) > 1:
            # not isinstance: True is an int to Python, not a register
            if any(type(x) is not int for x in ins[1:]):
                raise ProgramError(f"instruction {i}: operands must be integers")
            if not 0 <= ins[1] < registers:
                raise ProgramError(f"instruction {i}: register out of range")
            if len(ins) == 3 and not 0 <= ins[2] < len(listing):
                raise ProgramError(f"instruction {i}: jump target out of range")
    return _register(tuple(map(tuple, listing)), fuel, 0, (0,) * registers)


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


def _register(code: tuple, fuel: int, pc: int, regs: tuple) -> ITree:
    """The unforced register state ``(pc, regs)`` with ``fuel`` steps left."""
    t = _tree(_Register)
    t._node, t._code, t._fuel, t._pc, t._regs = None, code, fuel, pc, regs
    return t


class _Register(ITree):
    """A register state. Forced, it executes one instruction, emitting one
    observability directive of the program counter and the post-step
    registers, and releases the instructions and registers; halt, running
    past the end or running out of fuel return unit. Every answer resumes
    the one successor, so the state is its predecessor's continuation:
    called with any answer, it returns itself. A forced chain holds no
    closure per step."""

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
                next_pc, regs = outcome
                d = _new(Observability, (f"pc={pc};regs={','.join(map(str, regs))}",))
                node = _new(Vis, (d, _register(code, fuel - 1, next_pc, regs)))
            self._node = node
        return node


# kind: (directive type, string field, expression fields in the
# directive's order); a node has these fields and ``extract``
PRIMITIVES = {
    "reason": (LLMCall, "model", ("prompt",)),
    "memory": (MemoryOp, "mop", ("key", "value")),
    "call": (CallMachine, "machine", ("payload",)),
}


# Opcodes, an instruction's first item; jumps store target - 1, as ``pc += 1`` follows.
(_CODE, _EFFECT, _EXTRACT, _SPLIT, _SWAP, _PAIR, _TEST, _JUMP, _ENTER, _MACHINE, _RET) = range(11)


def _state(code: tuple, pc: int, stack, value, _answer=None) -> ITree:
    """The unforced tree of ``(code, pc, value, stack)``; a register step drops ``_answer``."""
    t = _tree(_Machine)
    t._node, t._code, t._pc, t._stack, t._value = None, code, pc, stack, value
    return t


class _Machine(ITree):
    """A state as a tree: forced, it runs to a Vis or Ret, adding no Tau, and
    keeps the state it stopped in. No continuation is a state: no cycles."""

    __slots__ = ("_code", "_pc", "_stack", "_value")

    def step(self):
        if self._node is not None:
            return self._node
        code, pc, stack, value = self._code, self._pc, self._stack, self._value
        while True:
            ins = code[pc]
            op = ins[0]
            if op == _CODE:
                value = eval_form(ins[1], value)
            elif op == _EFFECT:
                d = _new(ins[1], (ins[2], *[to_str(eval_form(e, value)) for e in ins[3:]]))
                node = _new(Vis, (d, partial(_state, code, pc + 1, stack)))
                break
            elif op == _EXTRACT:
                value = eval_form(ins[1], (value.status, value.content))
            elif op == _SPLIT:  # a non-pair is duplicated
                value, right = value if type(value) is tuple and len(value) == 2 else (value, value)
                stack = (right, stack)
            elif op == _SWAP:
                value, stack = stack[0], (value, stack[1])
            elif op == _PAIR:
                value, stack = (stack[0], value), stack[1]
            elif op == _TEST:
                pc = pc if to_bool(eval_form(ins[1], value)) else ins[2]
            elif op == _JUMP:
                pc = ins[1]
            elif op == _MACHINE:  # the value: a register machine's tree, which has no Tau
                node = value.step()
                if type(node) is not Ret:  # its continuation, whatever the answer, is its next tree
                    if stack is not None or code[pc + 1][0] != _RET:  # else it goes on alone
                        node = _new(Vis, (node.event, partial(_state, code, pc, stack, node.cont)))
                    break
                value = node.value
            elif op == _ENTER:
                value = ins[1]
            else:
                node = _new(Ret, (value,))
                break
            pc += 1
        self._pc, self._stack, self._value, self._node = pc, stack, value, node
        return node


def state_key(t: ITree):
    """The state a compiled tree stops in, values by ``repr`` (``1 == True``, but
    not in print); equal keys step alike. Other trees are their own keys."""
    if type(t) is not _Machine:
        return t
    t.step()
    pending, stack = [], t._stack
    while stack is not None:
        pending.append(stack[0])
        stack = stack[1]
    return (t._code[0], t._pc, repr(t._value), repr(pending))


def _emit(node, code: list, table: dict) -> None:
    """Check an AST node and append its instructions to ``code``, its
    expressions and extracts interned in ``table``; one frame per level of nesting."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ProgramError(f"node must be an object with a kind: {node!r}")
    kind = node["kind"]
    if kind == "code":
        code.append((_CODE, compile_expr(node.get("expr"), table)))
    elif type(kind) is str and kind in PRIMITIVES:
        directive, name, exprs = PRIMITIVES[kind]
        s = _require_str(node, name)
        code.append((_EFFECT, directive, s, *[compile_expr(node.get(e), table) for e in exprs]))
        extract = (_EXTRACT, compile_expr(node.get("extract"), table))
        code.append(table.setdefault(extract, extract))  # no form starts with an opcode
    elif kind == "seq":
        steps = node.get("steps")
        if not isinstance(steps, list) or not steps:
            raise ProgramError("seq needs a nonempty list of steps")
        for step in steps:
            _emit(step, code, table)
    elif kind == "tensor":
        code.append((_SPLIT,))
        _emit(node.get("left"), code, table)
        code.append((_SWAP,))
        _emit(node.get("right"), code, table)
        code.append((_PAIR,))
    elif kind == "branch":
        pred, test = compile_expr(node.get("pred"), table), len(code)
        code.append(None)  # the test, once the else arm's start is known
        _emit(node.get("then"), code, table)
        jump = len(code)
        code.append(None)
        code[test] = (_TEST, pred, jump)
        _emit(node.get("else"), code, table)
        code[jump] = (_JUMP, len(code) - 1)
    elif kind == "register_machine":
        code.append((_ENTER, _parse_register(node)))
        code.append((_MACHINE,))
    else:
        raise ProgramError(f"unknown node kind {kind!r}")


def compile_ast(node) -> CapMorphism:
    """Check an AST node and compile it, in one depth-first walk, into its
    code and bound; the morphism starts the machine on its input."""
    code = [object()]  # the body's identity, which state keys hold
    _emit(node, code, {})
    caps = frozenset([SIGNATURE[ins[1]][1] for ins in code[1:] if ins[0] == _EFFECT])
    code.append((_RET,))
    return _new(CapMorphism, (partial(_state, tuple(code), 1, None), caps))


def _value_from_json(v):
    if v is None or isinstance(v, (bool, int)):
        return v
    if isinstance(v, str):
        return _valid_text(v, "input value")
    if isinstance(v, list) and len(v) == 2:
        return (_value_from_json(v[0]), _value_from_json(v[1]))
    raise ProgramError(f"unsupported value {v!r} (pairs are 2-element lists)")


def value_to_json(v):
    if isinstance(v, tuple):
        return [value_to_json(v[0]), value_to_json(v[1])]
    return v


def format_value(v) -> str:
    """Canonical printable form of a run result."""
    return json.dumps(value_to_json(v), sort_keys=True)


@dataclass(frozen=True)
class Program:
    input_value: Any
    body: dict
    _compiled: CapMorphism | None = field(default=None, init=False, repr=False, compare=False)

    def compile(self) -> CapMorphism:
        """The body compiled with its bound: on the first call, then kept."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", compile_ast(self.body))
        return self._compiled

    def caps(self) -> CapSet:
        """The bound ``compile_ast`` built; a malformed body is its error."""
        return self.compile().caps


def parse_program(text: str) -> Program:
    try:
        doc = json.loads(text)
        # 1.0 and True both equal 1; the version must be the integer 1.
        if not isinstance(doc, dict) or type(doc.get("version")) is not int or doc["version"] != 1:
            raise ProgramError("program document must have version 1")
        if "body" not in doc:
            raise ProgramError("program document needs a body")
        compiled = compile_ast(doc["body"])
        program = Program(_value_from_json(doc.get("input")), doc["body"])
    except json.JSONDecodeError as e:
        raise ProgramError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ProgramError("program document nested too deeply") from None
    object.__setattr__(program, "_compiled", compiled)
    return program


def _json_scalar(v) -> str:
    """``v`` as ``json.dumps`` spells a non-container; another type is a ``TypeError``."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):  # v - v is 0 exactly when v is finite
        return float.__repr__(v) if v - v == 0 else (
            "NaN" if v != v else "Infinity" if v > 0 else "-Infinity")
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write_json(v, indent: str, out: list) -> list:
    """Append ``json.dumps(v, indent=2)``'s text for ``v`` nested at ``indent``; return ``out``."""
    if isinstance(v, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in v.items():
            key = key if isinstance(key, str) else _json_scalar(key)  # json quotes its spelling
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}" if v else "{}")
    elif isinstance(v, (list, tuple)):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in v:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]" if v else "[]")
    else:
        out.append(_json_scalar(v))
    return out


def serialize_program(program: Program) -> str:
    """The canonical program text: ``json.dumps(doc, indent=2)`` and a LF."""
    doc = {"version": 1, "input": value_to_json(program.input_value), "body": program.body}
    return "".join(_write_json(doc, "", [])) + "\n"
