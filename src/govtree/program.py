"""Program files: a serializable AST compiled into directive trees.

A program file is a JSON document::

    {"version": 1, "input": <value>, "body": <node>}

Values are ints, strings, booleans, null (unit), or two-element lists
(pairs, possibly nested). Node kinds are ``code``, ``reason``,
``memory``, ``call``, ``seq``, ``tensor``, ``branch``, and
``register_machine``.

The grammar has one definition, ``compile_ast``: a body is accepted
exactly when it compiles. One depth-first walk checks each node and its
expressions, refusing the first malformed part with a ``ProgramError``,
and builds the node with the ``capability`` constructor for its kind,
which states its capability bound; the result is a ``CapMorphism``.
``parse_program`` compiles the body once and the ``Program`` it returns
keeps the result; a ``Program`` built directly compiles on its first
``compile()`` or ``caps()``. A document nested deeper than the recursion
limit allows is a ``ProgramError`` too.

Pure functions inside nodes are written in a tiny total expression
language evaluated against the node's input value. Operations never
raise; mixed types go through fixed coercions:

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

The compiler in this module is the production pipeline: it builds
interaction trees. The independent small-step evaluator lives in
``reference`` and deliberately shares none of this evaluation code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from . import capability
from .capability import CapMorphism, CapSet
from .category import DecJz, Halt, Inc, RegisterProgram
from .directives import CallMachine, LLMCall, MemoryOp


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


_ARITY = {
    **dict.fromkeys(("input", "int", "str", "unit"), 0),
    **dict.fromkeys(("fst", "snd", "len", "not"), 1),
    **dict.fromkeys(("add", "sub", "mul", "mod", "concat", "pair", "eq", "lt", "and", "or"), 2),
}


def _valid_text(v: str, what: str) -> str:
    """``v`` if it encodes as UTF-8. A JSON escape can leave an unpaired
    surrogate in a string, which no digest, trace or ledger can encode."""
    if not v.isascii():  # ASCII always encodes; only other text pays for the check
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ProgramError(f"{what} holds an unpaired surrogate") from None
    return v


def validate_expr(expr) -> dict:
    """``expr`` unchanged if it is a well-formed expression, else a
    ``ProgramError``."""
    if not isinstance(expr, dict) or "op" not in expr:
        raise ProgramError(f"expression must be an object with an op: {expr!r}")
    op = expr["op"]
    arity = _ARITY.get(op) if type(op) is str else None
    if arity == 0:
        # not isinstance: True is an int to Python, not an integer literal
        if op == "int" and type(expr.get("value")) is not int:
            raise ProgramError("int literal needs an integer value")
        if op == "str":
            value = expr.get("value")
            if not isinstance(value, str):
                raise ProgramError("str literal needs a string value")
            _valid_text(value, "str literal")
        return expr
    if arity is None:
        raise ProgramError(f"unknown expression op {op!r}")
    args = expr.get("args")
    if not isinstance(args, list) or len(args) != arity:
        raise ProgramError(f"{op} takes {'one argument' if arity == 1 else 'two arguments'}")
    for a in args:
        validate_expr(a)
    return expr


def eval_expr(expr: dict, x):
    op = expr["op"]
    if op == "input":
        return x
    if op == "int" or op == "str":
        return expr["value"]
    if op == "unit":
        return None
    args = expr["args"]
    if op == "pair":
        return (eval_expr(args[0], x), eval_expr(args[1], x))
    if op == "fst":
        v = eval_expr(args[0], x)
        return v[0] if isinstance(v, tuple) else v
    if op == "snd":
        v = eval_expr(args[0], x)
        return v[1] if isinstance(v, tuple) else v
    if op == "len":
        return to_int(eval_expr(args[0], x))
    if op == "not":
        return not to_bool(eval_expr(args[0], x))
    a = eval_expr(args[0], x)
    b = eval_expr(args[1], x)
    if op == "add":
        return to_int(a) + to_int(b)
    if op == "sub":
        return to_int(a) - to_int(b)
    if op == "mul":
        return to_int(a) * to_int(b)
    if op == "mod":
        n = to_int(b)
        return to_int(a) % n if n != 0 else 0
    if op == "concat":
        return to_str(a) + to_str(b)
    if op == "eq":
        return a == b
    if op == "lt":
        return to_int(a) < to_int(b)
    if op == "and":
        return to_bool(a) and to_bool(b)
    return to_bool(a) or to_bool(b)


def _require_str(node: dict, key: str) -> str:
    v = node.get(key)
    if not isinstance(v, str):
        raise ProgramError(f"{node.get('kind')} needs a string {key!r}")
    return v if v.isascii() else _valid_text(v, f"{node.get('kind')} {key!r}")


def _parse_register(node: dict) -> "tuple[RegisterProgram, int]":
    registers = node.get("registers")
    fuel = node.get("fuel")
    listing = node.get("program")
    if type(registers) is not int or registers < 1:
        raise ProgramError("register_machine needs a positive register count")
    if type(fuel) is not int or fuel < 0:
        raise ProgramError("register_machine needs a non-negative fuel")
    if not isinstance(listing, list):
        raise ProgramError("register_machine needs an instruction list")
    instructions = []
    for ins in listing:
        if not isinstance(ins, list) or not ins:
            raise ProgramError(f"malformed instruction {ins!r}")
        name = ins[0]
        if name == "inc" and len(ins) == 2:
            instructions.append(Inc(ins[1]))
        elif name == "decjz" and len(ins) == 3:
            instructions.append(DecJz(ins[1], ins[2]))
        elif name == "halt" and len(ins) == 1:
            instructions.append(Halt())
        else:
            raise ProgramError(f"unknown instruction {ins!r}")
    try:
        program = RegisterProgram(tuple(instructions), registers)
    except ValueError as e:
        raise ProgramError(str(e)) from None
    return program, fuel


# Closures are built in functions of their own: a cell in ``compile_ast``
# would be made on every call, whatever the node kind. The recursive kinds
# stay in ``compile_ast``, one frame per nesting level.

def _extractor(node: dict):
    """The node's extract expression, applied to an answer as the pair
    ``(status, content)``."""
    extract = validate_expr(node.get("extract"))
    return lambda ans: eval_expr(extract, (ans.status, ans.content))


def _compile_reason(node: dict) -> CapMorphism:
    model, prompt = _require_str(node, "model"), validate_expr(node.get("prompt"))
    return capability.cap_reason(
        lambda a: LLMCall(model, to_str(eval_expr(prompt, a))), _extractor(node)
    )


def _compile_memory(node: dict) -> CapMorphism:
    mop, key = _require_str(node, "mop"), validate_expr(node.get("key"))
    value = validate_expr(node.get("value"))
    return capability.cap_memory(
        lambda a: MemoryOp(mop, to_str(eval_expr(key, a)), to_str(eval_expr(value, a))),
        _extractor(node),
    )


def _compile_call(node: dict) -> CapMorphism:
    machine, payload = _require_str(node, "machine"), validate_expr(node.get("payload"))
    return capability.cap_call(
        lambda a: CallMachine(machine, to_str(eval_expr(payload, a))), _extractor(node)
    )


def _predicate(pred: dict):
    return lambda a: to_bool(eval_expr(pred, a))


def compile_ast(node) -> CapMorphism:
    """Check an AST node and compile it, in one depth-first walk, into its
    morphism and capability bound, built by the ``capability`` constructor
    for its kind; the first malformed node or expression met is a
    ``ProgramError``."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ProgramError(f"node must be an object with a kind: {node!r}")
    kind = node["kind"]
    if kind == "code":
        return capability.cap_code(partial(eval_expr, validate_expr(node.get("expr"))))
    if kind == "reason":
        return _compile_reason(node)
    if kind == "memory":
        return _compile_memory(node)
    if kind == "call":
        return _compile_call(node)
    if kind == "seq":
        steps = node.get("steps")
        if not isinstance(steps, list) or not steps:
            raise ProgramError("seq needs a nonempty list of steps")
        return capability.cap_seq_compose(*map(compile_ast, steps))
    if kind == "tensor":
        return capability.cap_tensor(compile_ast(node.get("left")), compile_ast(node.get("right")))
    if kind == "branch":
        return capability.cap_branch(
            _predicate(validate_expr(node.get("pred"))),
            compile_ast(node.get("then")),
            compile_ast(node.get("else")),
        )
    if kind == "register_machine":
        return capability.cap_register_machine(*_parse_register(node))
    raise ProgramError(f"unknown node kind {kind!r}")


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


def serialize_program(program: Program) -> str:
    return json.dumps(
        {
            "version": 1,
            "input": value_to_json(program.input_value),
            "body": program.body,
        },
        indent=2,
    ) + "\n"
