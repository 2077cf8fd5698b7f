"""Seeded random generation for campaigns and differential tests.

Everything here is driven by an explicit ``random.Random`` so that every
campaign is reproducible from its seed. Programs are generated as the
same field-tagged AST dictionaries the program-file parser accepts, so
one generator feeds the in-memory campaigns, the file-based CLI runs,
and the differential tester alike.

Generated extract expressions are biased toward actually using the
directive answer, so that a run's final value depends on the answers it
received; interpreters that tamper with permitted answers are then
observably wrong, not silently equivalent.
"""

from __future__ import annotations

import random

from .category import DecJz, Halt, Inc, RegisterProgram
from .directives import (
    Broadcast,
    CallMachine,
    DBOp,
    DirectiveEvent,
    EmitEvent,
    ExecOp,
    FileOp,
    GraphQLRequest,
    HTTPRequest,
    LLMCall,
    MCPCall,
    MemoryOp,
    Observability,
    RecordStep,
    WebSocketOp,
    encode_directive,
)
from .governance import DENYING, PERMISSIVE, GovernancePolicy, tag_filter
from .trace import GovEntry, IoEntry

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "zeta")
_NASTY = ("a,b", "x=y", "p{q}", "tail}", "line\nbreak", "back\\slash")

EFFECTFUL_KINDS = ("reason", "memory", "call")
PROGRAM_TAGS = ("LLMCall", "MemoryOp", "CallMachine", "Observability")


def gen_word(rng: random.Random, nasty_fraction: float = 0.0) -> str:
    if nasty_fraction and rng.random() < nasty_fraction:
        return rng.choice(_NASTY)
    return f"{rng.choice(_WORDS)}{rng.randrange(100)}"


def gen_input(rng: random.Random):
    roll = rng.random()
    if roll < 0.7:
        return rng.randrange(100)
    if roll < 0.9:
        return gen_word(rng)
    return (rng.randrange(100), gen_word(rng))


def gen_expr(rng: random.Random, depth: int = 2) -> dict:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.5:
            return {"op": "input"}
        if roll < 0.8:
            return {"op": "int", "value": rng.randrange(10)}
        return {"op": "str", "value": gen_word(rng)}
    op = rng.choice(("add", "sub", "mul", "mod", "concat", "pair", "fst", "snd", "len"))
    if op in ("fst", "snd", "len"):
        return {"op": op, "args": [gen_expr(rng, depth - 1)]}
    return {"op": op, "args": [gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)]}


def _gen_extract(rng: random.Random) -> dict:
    """Expression over the directive answer, seen as (status, content)."""
    status = {"op": "fst", "args": [{"op": "input"}]}
    content = {"op": "snd", "args": [{"op": "input"}]}
    roll = rng.random()
    if roll < 0.4:
        return status
    if roll < 0.6:
        return {"op": "add", "args": [status, {"op": "int", "value": rng.randrange(10)}]}
    if roll < 0.8:
        return {"op": "add", "args": [status, {"op": "len", "args": [content]}]}
    # answer-independent extracts keep the generator honest about coverage
    return {"op": "int", "value": rng.randrange(10)}


def _gen_effectful(rng: random.Random, kind: str | None = None) -> dict:
    kind = kind or rng.choice(EFFECTFUL_KINDS)
    if kind == "reason":
        return {
            "kind": "reason",
            "model": rng.choice(("m1", "m2")),
            "prompt": gen_expr(rng, 1),
            "extract": _gen_extract(rng),
        }
    if kind == "memory":
        return {
            "kind": "memory",
            "mop": rng.choice(("get", "put", "del")),
            "key": gen_expr(rng, 1),
            "value": gen_expr(rng, 1),
            "extract": _gen_extract(rng),
        }
    return {
        "kind": "call",
        "machine": rng.choice(("calc", "index")),
        "payload": gen_expr(rng, 1),
        "extract": _gen_extract(rng),
    }


def gen_register_ast(rng: random.Random, max_len: int = 6, max_fuel: int = 12) -> dict:
    p = gen_register_program(rng, max_len)
    return {
        "kind": "register_machine",
        "registers": p.registers,
        "fuel": rng.randrange(1, max_fuel + 1),
        "program": [
            ["inc", ins.reg] if type(ins) is Inc
            else ["decjz", ins.reg, ins.target] if type(ins) is DecJz
            else ["halt"]
            for ins in p.instructions
        ],
    }


def gen_program_ast(
    rng: random.Random,
    max_depth: int = 5,
    max_directives: int = 6,
    allow_register: bool = False,
    force_effectful: bool = False,
    must_include: str | None = None,
) -> dict:
    """A random program AST closed over code, reason, memory, call, seq,
    tensor, and branch (plus register machines when allowed). At most
    ``max_directives`` record-answered directives are emitted."""
    budget = [max_directives]

    def gen(depth: int) -> dict:
        effect_ok = budget[0] > 0
        roll = rng.random()
        if depth <= 0:
            if effect_ok and roll < 0.4:
                budget[0] -= 1
                return _gen_effectful(rng)
            return {"kind": "code", "expr": gen_expr(rng)}
        if effect_ok and roll < 0.25:
            budget[0] -= 1
            return _gen_effectful(rng)
        if allow_register and roll < 0.30:
            return gen_register_ast(rng)
        if roll < 0.55:
            return {"kind": "code", "expr": gen_expr(rng)}
        if roll < 0.75:
            return {
                "kind": "seq",
                "steps": [gen(depth - 1) for _ in range(rng.randrange(2, 4))],
            }
        if roll < 0.9:
            return {"kind": "tensor", "left": gen(depth - 1), "right": gen(depth - 1)}
        return {
            "kind": "branch",
            "pred": {
                "op": "eq",
                "args": [
                    {"op": "mod", "args": [{"op": "input"}, {"op": "int", "value": 2}]},
                    {"op": "int", "value": 0},
                ],
            },
            "then": gen(depth - 1),
            "else": gen(depth - 1),
        }

    ast = gen(max_depth)
    extras = []
    if must_include is not None and ast_kind_count(ast, must_include) == 0:
        budget[0] = max(budget[0], 1)
        budget[0] -= 1
        extras.append(_gen_effectful(rng, must_include))
    if force_effectful and ast_directive_count(ast) == 0 and not extras:
        extras.append(_gen_effectful(rng))
    if extras:
        ast = {"kind": "seq", "steps": [ast] + extras}
    return ast


def ast_kind_count(ast: dict, kind: str) -> int:
    count = 1 if ast.get("kind") == kind else 0
    for key in ("steps",):
        for child in ast.get(key, ()):
            count += ast_kind_count(child, kind)
    for key in ("left", "right", "then", "else"):
        if key in ast:
            count += ast_kind_count(ast[key], kind)
    return count


def ast_directive_count(ast: dict) -> int:
    return sum(ast_kind_count(ast, k) for k in EFFECTFUL_KINDS) + ast_kind_count(
        ast, "register_machine"
    )


def gen_register_program(
    rng: random.Random, max_len: int = 8, registers: int = 2
) -> RegisterProgram:
    n = rng.randrange(1, max_len + 1)
    instructions = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            instructions.append(Inc(rng.randrange(registers)))
        elif roll < 0.85:
            instructions.append(DecJz(rng.randrange(registers), rng.randrange(n)))
        else:
            instructions.append(Halt())
    return RegisterProgram(tuple(instructions), registers)


def gen_policy(rng: random.Random) -> GovernancePolicy:
    roll = rng.random()
    if roll < 0.5:
        return PERMISSIVE
    if roll < 0.65:
        return DENYING
    allowed = [t for t in PROGRAM_TAGS if rng.random() < 0.7]
    return tag_filter(allowed)


def gen_directive(rng: random.Random, tag: str | None = None) -> DirectiveEvent:
    w = lambda: gen_word(rng, nasty_fraction=0.05)
    builders = {
        "LLMCall": lambda: LLMCall(model=w(), prompt=w()),
        "HTTPRequest": lambda: HTTPRequest(method=rng.choice(("GET", "POST")), url=w(), body=w()),
        "FileOp": lambda: FileOp(op=rng.choice(("read", "write")), path=w()),
        "CallMachine": lambda: CallMachine(machine=w(), payload=w()),
        "MemoryOp": lambda: MemoryOp(op=rng.choice(("get", "put", "del")), key=w(), value=w()),
        "DBOp": lambda: DBOp(query=w()),
        "ExecOp": lambda: ExecOp(command=w()),
        "RecordStep": lambda: RecordStep(step=w()),
        "Broadcast": lambda: Broadcast(channel=w(), message=w()),
        "EmitEvent": lambda: EmitEvent(name=w(), payload=w()),
        "GraphQLRequest": lambda: GraphQLRequest(endpoint=w(), query=w()),
        "WebSocketOp": lambda: WebSocketOp(op=rng.choice(("send", "recv")), url=w(), message=w()),
        "MCPCall": lambda: MCPCall(server=w(), method=w()),
        "Observability": lambda: Observability(message=w()),
    }
    if tag is None:
        tag = rng.choice(tuple(builders))
    return builders[tag]()


def gen_trace_event(rng: random.Random):
    if rng.random() < 0.5:
        return GovEntry(rng.choice(PROGRAM_TAGS), rng.random() < 0.7)
    return IoEntry(encode_directive(gen_directive(rng)))


def gen_trace(rng: random.Random, n: int) -> tuple:
    return tuple(gen_trace_event(rng) for _ in range(n))
