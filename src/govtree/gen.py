"""Seeded random generation for campaigns and differential tests.

Everything here is driven by an explicit ``random.Random`` so that every
campaign is reproducible from its seed. Programs are generated as the
same field-tagged AST dictionaries the program-file parser accepts, so
one generator feeds the in-memory campaigns, the file-based CLI runs,
and the differential tester alike. An effectful node's fields are read
from ``program.PRIMITIVES`` and a directive's from its own record's
``_fields``, so neither signature is restated here; only the choices for
fields that are not free words are.

Generated extract expressions are biased toward actually using the
directive answer, so that a run's final value depends on the answers it
received; interpreters that tamper with permitted answers are then
observably wrong, not silently equivalent.
"""

from __future__ import annotations

import random

from .directives import (
    DIRECTIVE_TYPES,
    DirectiveEvent,
    FileOp,
    HTTPRequest,
    MemoryOp,
    WebSocketOp,
    encode_directive,
)
from .governance import DENYING, PERMISSIVE, GovernancePolicy, tag_filter
from .program import PRIMITIVES
from .trace import GovEntry, IoEntry

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "zeta")
_NASTY = ("a,b", "x=y", "p{q}", "tail}", "line\nbreak", "back\\slash")

EFFECTFUL_KINDS = tuple(PRIMITIVES)
_DIRECTIVE_KINDS = EFFECTFUL_KINDS + ("register_machine",)
PROGRAM_TAGS = (*(row[0].__name__ for row in PRIMITIVES.values()), "Observability")


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


# effectful kind: the choices for its string field
_STR_CHOICES = {"reason": ("m1", "m2"), "memory": ("get", "put", "del"), "call": ("calc", "index")}


def _gen_effectful(rng: random.Random, kind: str | None = None) -> dict:
    """A node of ``kind`` (else a random effectful kind), drawn field by field in node order."""
    kind = kind or rng.choice(EFFECTFUL_KINDS)
    if kind not in PRIMITIVES:
        raise ValueError(f"not an effectful kind: {kind!r}")
    _, name, exprs = PRIMITIVES[kind]
    return {"kind": kind, name: rng.choice(_STR_CHOICES[kind]),
            **{f: gen_expr(rng, 1) for f in exprs}, "extract": _gen_extract(rng)}


def gen_register_ast(rng: random.Random, max_len: int = 6, max_fuel: int = 12) -> dict:
    """A two-register ``register_machine`` node: its listing, then its fuel."""
    listing = gen_register_program(rng, max_len)
    return {"kind": "register_machine", "registers": 2,
            "fuel": rng.randrange(1, max_fuel + 1), "program": listing}


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
    ``max_directives`` record-answered directives are emitted, plus one
    ``must_include`` node (``code`` or an effectful kind) if none was."""
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
    if must_include == "code" and ast_kind_count(ast, "code") == 0:
        extras.append({"kind": "code", "expr": {"op": "input"}})
    elif must_include is not None and ast_kind_count(ast, must_include) == 0:
        extras.append(_gen_effectful(rng, must_include))
    if force_effectful and not any(map(_has_directive, [ast] + extras)):
        extras.append(_gen_effectful(rng))
    if extras:
        ast = {"kind": "seq", "steps": [ast] + extras}
    return ast


def _children(ast: dict) -> list:
    return ast.get("steps", []) + [ast[k] for k in ("left", "right", "then", "else") if k in ast]


def ast_kind_count(ast: dict, kind: str) -> int:
    return (ast.get("kind") == kind) + sum(ast_kind_count(c, kind) for c in _children(ast))


def _has_directive(ast: dict) -> bool:
    return ast.get("kind") in _DIRECTIVE_KINDS or any(map(_has_directive, _children(ast)))


def gen_register_program(rng: random.Random, max_len: int = 8) -> list:
    """A two-register instruction listing, as a ``register_machine`` node spells it."""
    n = rng.randrange(1, max_len + 1)
    instructions = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            instructions.append(["inc", rng.randrange(2)])
        elif roll < 0.85:
            instructions.append(["decjz", rng.randrange(2), rng.randrange(n)])
        else:
            instructions.append(["halt"])
    return instructions


def gen_policy(rng: random.Random) -> GovernancePolicy:
    roll = rng.random()
    if roll < 0.5:
        return PERMISSIVE
    if roll < 0.65:
        return DENYING
    allowed = [t for t in PROGRAM_TAGS if rng.random() < 0.7]
    return tag_filter(allowed)


# (directive type, field): the choices its value is drawn from; any other field draws a word
_FIELD_CHOICES = {(HTTPRequest, "method"): ("GET", "POST"), (FileOp, "op"): ("read", "write"),
                  (MemoryOp, "op"): ("get", "put", "del"), (WebSocketOp, "op"): ("send", "recv")}
# tag: (directive type, each field's choices in declaration order, None for a word)
_DIRECTIVE_DRAWS = {t.__name__: (t, tuple(_FIELD_CHOICES.get((t, f)) for f in t._fields))
                    for t in DIRECTIVE_TYPES}


def gen_directive(rng: random.Random, tag: str | None = None) -> DirectiveEvent:
    """A directive of variant ``tag`` (else a random one), drawn field by field in order."""
    t, draws = _DIRECTIVE_DRAWS[rng.choice(DIRECTIVE_TYPES).__name__ if tag is None else tag]
    return t(*[gen_word(rng, 0.05) if c is None else rng.choice(c) for c in draws])


def gen_trace_event(rng: random.Random):
    if rng.random() < 0.5:
        return GovEntry(rng.choice(PROGRAM_TAGS), rng.random() < 0.7)
    return IoEntry(encode_directive(gen_directive(rng)))


def gen_trace(rng: random.Random, n: int) -> tuple:
    return tuple(gen_trace_event(rng) for _ in range(n))
