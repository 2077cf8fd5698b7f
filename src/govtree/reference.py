"""Independent reference interpreter for program files.

This evaluator re-implements the documented program semantics directly
over the AST: no interaction trees, no code shared with the compiling
pipeline in ``program``. It exists purely as the second leg of
differential testing, so keep it boring and keep it separate; if you are
tempted to import an evaluation helper from ``program``, write it again
here instead.

It does share the *environment* with the tree pipeline: the directive
records and their tags, the canonical encoding, seeded mock answers, and
policy objects. Those define what is being interpreted, not how.

``register_steps`` is also the oracle for ``program``'s register
translation, which ``boundary.check_register_agreement`` compares with
it, so nothing here is imported from ``boundary`` either.

The ``bug`` parameter deliberately miscomputes in one of a few known
ways. It is the harness's self-test hook: a differential campaign against
a bugged reference must report disagreements, otherwise the comparison
itself is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .directives import (
    CallMachine,
    LLMCall,
    MemoryOp,
    Observability,
    directive_tag,
    encode_directive,
    mock_answer,
)
from .governance import GovernancePolicy, RunOutcome
from .trace import GovEntry, IoEntry

BUGS = ("mangle-status", "drop-gov-trace", "invert-deny")


class _Denied(Exception):
    pass


@dataclass
class _Ctx:
    policy: GovernancePolicy
    handler_seed: int
    trace: list
    bug: str | None


def _int(v) -> int:
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return len(v)
    if isinstance(v, tuple):
        return _int(v[0]) + _int(v[1])
    return 0


def _str(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return _str(v[0]) + ":" + _str(v[1])
    return ""


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v != 0
    if isinstance(v, str):
        return v != ""
    if isinstance(v, tuple):
        return True
    return False


def _eval(expr: dict, x):
    op = expr["op"]
    if op == "input":
        return x
    if op in ("int", "str"):
        return expr["value"]
    if op == "unit":
        return None
    args = expr["args"]
    if op == "fst":
        v = _eval(args[0], x)
        return v[0] if isinstance(v, tuple) else v
    if op == "snd":
        v = _eval(args[0], x)
        return v[1] if isinstance(v, tuple) else v
    if op == "len":
        return _int(_eval(args[0], x))
    if op == "not":
        return not _bool(_eval(args[0], x))
    a = _eval(args[0], x)
    if op == "and":
        return _bool(a) and _bool(_eval(args[1], x))
    if op == "or":
        return _bool(a) or _bool(_eval(args[1], x))
    b = _eval(args[1], x)
    if op == "pair":
        return (a, b)
    if op == "add":
        return _int(a) + _int(b)
    if op == "sub":
        return _int(a) - _int(b)
    if op == "mul":
        return _int(a) * _int(b)
    if op == "mod":
        d = _int(b)
        return _int(a) % d if d else 0
    if op == "concat":
        return _str(a) + _str(b)
    if op == "eq":
        return a == b
    if op == "lt":
        return _int(a) < _int(b)
    raise ValueError(f"unknown op {op!r}")


def _effect(d, ctx: _Ctx):
    stage = directive_tag(d)
    allowed = bool(ctx.policy.decide(stage, d))
    if ctx.bug == "invert-deny" and not allowed:
        allowed = True
    if ctx.bug != "drop-gov-trace":
        ctx.trace.append(GovEntry(stage, allowed))
    if not allowed:
        raise _Denied()
    ctx.trace.append(IoEntry(encode_directive(d)))
    answer = mock_answer(ctx.handler_seed, d)
    if ctx.bug == "mangle-status" and answer is not None:
        answer = answer._replace(status=answer.status + 1)
    return answer


def _ans_pair(answer):
    return (answer.status, answer.content)


def _run_node(node: dict, x, ctx: _Ctx):
    kind = node["kind"]
    if kind == "code":
        return _eval(node["expr"], x)
    if kind == "reason":
        d = LLMCall(model=node["model"], prompt=_str(_eval(node["prompt"], x)))
        return _eval(node["extract"], _ans_pair(_effect(d, ctx)))
    if kind == "memory":
        d = MemoryOp(
            op=node["mop"],
            key=_str(_eval(node["key"], x)),
            value=_str(_eval(node["value"], x)),
        )
        return _eval(node["extract"], _ans_pair(_effect(d, ctx)))
    if kind == "call":
        d = CallMachine(machine=node["machine"], payload=_str(_eval(node["payload"], x)))
        return _eval(node["extract"], _ans_pair(_effect(d, ctx)))
    if kind == "seq":
        for step in node["steps"]:
            x = _run_node(step, x, ctx)
        return x
    if kind == "tensor":
        a, c = x if isinstance(x, tuple) and len(x) == 2 else (x, x)
        return (_run_node(node["left"], a, ctx), _run_node(node["right"], c, ctx))
    if kind == "branch":
        arm = "then" if _bool(_eval(node["pred"], x)) else "else"
        return _run_node(node[arm], x, ctx)
    if kind == "register_machine":
        return _run_register(node, ctx)
    raise ValueError(f"unknown node kind {kind!r}")


def register_steps(program: list, registers: int, fuel: int):
    """The ``pc=...;regs=...`` message of each step a register machine
    listing executes, from all-zero registers, at most ``fuel`` of them."""
    regs = [0] * registers
    pc = 0
    while fuel > 0 and 0 <= pc < len(program):
        ins = program[pc]
        name = ins[0]
        if name == "halt":
            break
        if name == "inc":
            regs[ins[1]] += 1
            next_pc = pc + 1
        elif regs[ins[1]] == 0:
            next_pc = ins[2]
        else:
            regs[ins[1]] -= 1
            next_pc = pc + 1
        yield f"pc={pc};regs={','.join(str(r) for r in regs)}"
        pc = next_pc
        fuel -= 1


def _run_register(node: dict, ctx: _Ctx):
    for message in register_steps(node["program"], node["registers"], node["fuel"]):
        _effect(Observability(message), ctx)
    return None


def run_reference(
    body: dict,
    input_value: Any,
    policy: GovernancePolicy,
    handler_seed: int,
    bug: str | None = None,
) -> RunOutcome:
    """Evaluate a program AST directly. Denial aborts the run with the
    trace recorded so far, mirroring divergence in the tree pipeline."""
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown bug {bug!r}")
    ctx = _Ctx(policy=policy, handler_seed=handler_seed, trace=[], bug=bug)
    try:
        value = _run_node(body, input_value, ctx)
    except _Denied:
        return RunOutcome(False, None, tuple(ctx.trace), True)
    return RunOutcome(True, value, tuple(ctx.trace), False)
