"""The three workloads: how their inputs are generated from the seed, the
timed operation, and the untimed check of its output.

Every operation starts from serialized program text, so ``parse_program``
is part of what is timed. The check after it compares the output with a
known answer: the ``run_reference`` oracle for runs, and for checks a
verdict that follows from the program itself.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from govtree.algebra import no_check_operator
from govtree.capability import within_caps_check
from govtree.cli import DEFAULT_FUEL
from govtree.directives import (
    ANSWER_TYPES,
    ResponseSampler,
    derive_rng,
    encode_directive,
    mock_handler,
)
from govtree.gen import gen_input, gen_policy, gen_program_ast, gen_word
from govtree.governance import (
    PERMISSIVE,
    GovernancePolicy,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
)
from govtree.itree import ret
from govtree.ledger import format_ledger, ledger_valid, parse_ledger, trace_to_ledger
from govtree.program import Program, compile_ast, parse_program, serialize_program
from govtree.reference import run_reference
from govtree.trace import IoEntry, format_trace, parse_trace

from tracing import CountingSampler, Tracer, traced_handler, traced_policy

RUN_FUEL = DEFAULT_FUEL  # what `govtree run` gives a program
CHECK_FUEL = 4096
RUN_SMALL_PROGRAMS = 4000
CHECK_SMALL_PROGRAMS = 8000
# run-long's ladder, smallest rungs first so that warm-up stays short:
# (kind, steps of a seq pipeline or fuel of a register loop).
LADDER = (("seq", 100), ("loop", 1000), ("seq", 200), ("seq", 400), ("loop", 4000),
          ("seq", 800), ("seq", 1600))
SEQ_RUNGS = tuple(sorted(n for kind, n in LADDER if kind == "seq"))


@dataclass(frozen=True)
class Case:
    """One generated input: the program text an operation parses, plus
    what the oracle and the run need besides it."""

    label: str
    text: str
    ast: dict
    input_value: Any
    policy: GovernancePolicy
    handler_seed: int
    sampler_seed: int = 0


@dataclass(frozen=True)
class Outcome:
    """What the untimed check made of one completed operation."""

    events: int  # trace events recorded, or I/O nodes the checkers expanded
    problem: str | None = None
    decided: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[int], list]
    timed: Callable[[Case, Tracer], Any]
    check: Callable[[Case, Any, Tracer], Outcome]
    warmup: int  # leading cases run once before timing starts
    round_size: int  # a run measures whole rounds of this many cases


def _case(label, ast, input_value, policy, handler_seed, sampler_seed=0) -> Case:
    text = serialize_program(Program(input_value, ast))
    return Case(label, text, ast, input_value, policy, handler_seed, sampler_seed)


def compile_tree(program: Program):
    return program.compile()(program.input_value)


# --- run: parse, compile, govern, write trace and ledger, read back ----------

def run_timed(case: Case, tr: Tracer):
    seen: list = []
    handler = traced_handler(mock_handler(case.handler_seed), tr, seen)
    policy = traced_policy(case.policy, tr)
    program = tr.call("program.parse", parse_program, case.text)
    tree = tr.call("program.compile", compile_tree, program)
    out = tr.call("governance.interpret", interpret_governed, govern(handler), policy, tree, RUN_FUEL)
    trace_text = tr.call("trace.format", format_trace, out.trace)
    ledger = tr.call("ledger.build", trace_to_ledger, out.trace)
    ledger_text = tr.call("ledger.format", format_ledger, ledger)
    parsed = tr.call("ledger.parse", parse_ledger, ledger_text)
    valid = tr.call("ledger.verify", ledger_valid, parsed)
    return out, trace_text, ledger, parsed, valid, seen


def run_check(case: Case, state, tr: Tracer) -> Outcome:
    out, trace_text, ledger, parsed, valid, seen = state
    for d in seen:
        tr.call("directives.encode", encode_directive, d)
    ref = tr.call(
        "reference.run", run_reference, case.ast, case.input_value, case.policy, case.handler_seed
    )
    problem = None
    if (out.completed, out.value, out.denied, out.trace) != (
        ref.completed, ref.value, ref.denied, ref.trace
    ):
        problem = (
            f"differs from run_reference: tree=({out.completed}, {out.value!r}, "
            f"denied={out.denied}, {len(out.trace)} events) ref=({ref.completed}, "
            f"{ref.value!r}, denied={ref.denied}, {len(ref.trace)} events) "
            f"policy={case.policy.name}"
        )
    elif tr.call("trace.parse", parse_trace, trace_text) != out.trace:
        problem = "trace text does not parse back to the trace"
    elif parsed != ledger:
        problem = "ledger text does not parse back to the ledger"
    elif not valid[0]:
        problem = f"ledger_valid rejects the ledger just written, at entry {valid[1]}"
    tr.count("trace.events", len(out.trace))
    tr.count("governance.denied_runs", out.denied)
    return Outcome(len(out.trace), problem)


# --- check: three bounded checks with known answers ---------------------------

def check_timed(case: Case, tr: Tracer):
    program = tr.call("program.parse", parse_program, case.text)
    sampler = CountingSampler(ResponseSampler(seed=case.sampler_seed), tr)
    handler = mock_handler(case.handler_seed)
    governed = govern(handler).transform(tr.call("program.compile", compile_tree, program))
    safe = tr.call("governance.safe_check", gov_safe_check, governed, False, CHECK_FUEL, sampler)
    unchecked = no_check_operator().transform(handler).transform(
        tr.call("program.compile", compile_tree, program)
    )
    nocheck = tr.call("algebra.nocheck_check", gov_safe_check, unchecked, False, CHECK_FUEL, sampler)
    caps = tr.call(
        "capability.within_caps", within_caps_check,
        program.caps(), tr.call("program.compile", compile_tree, program), CHECK_FUEL, sampler,
    )
    return safe, nocheck, caps, sampler.calls


def check_check(case: Case, state, tr: Tracer) -> Outcome:
    safe, nocheck, caps, expanded = state
    ref = tr.call(
        "reference.run", run_reference, case.ast, case.input_value, PERMISSIVE, case.handler_seed
    )
    # Before its first directive a program's path does not depend on any
    # answer, so the no-check image reaches an unchecked I/O node exactly
    # when the reference run performs at least one I/O.
    performs_io = any(type(ev) is IoEntry for ev in ref.trace)
    problem = None
    if safe.is_fails:
        problem = "gov_safe_check fails on the govern image: " + safe.describe()
    elif nocheck.is_fails != performs_io:
        problem = (
            f"gov_safe_check on the no-check image says {nocheck.describe()!r}, "
            f"but the reference run performs {'some' if performs_io else 'no'} I/O"
        )
    elif caps.is_fails:
        problem = "within_caps_check fails at ast_caps: " + caps.describe()
    decided = not (safe.is_unknown or nocheck.is_unknown or caps.is_unknown)
    return Outcome(expanded, problem, decided=decided)


# --- inputs --------------------------------------------------------------------

def run_small_cases(seed: int) -> list:
    """Random programs drawn as ``govtree diff`` draws them, each with its
    own policy and handler seed."""
    cases = []
    for i in range(RUN_SMALL_PROGRAMS):
        rng = derive_rng("run-small", seed, i)
        ast = gen_program_ast(rng, allow_register=True)
        input_value = gen_input(rng)
        policy = gen_policy(rng)
        cases.append(_case(f"program {i}", ast, input_value, policy, rng.randrange(2**32)))
    return cases


def check_small_cases(seed: int) -> list:
    """Effectful random programs. The pool is large because check cost is
    heavy-tailed (the top 1% of programs take about a third of the time),
    so a small pool makes the figures depend on the seed."""
    cases = []
    for i in range(CHECK_SMALL_PROGRAMS):
        rng = derive_rng("check-small", seed, i)
        ast = gen_program_ast(rng, allow_register=True, force_effectful=True)
        input_value = gen_input(rng)
        cases.append(_case(f"program {i}", ast, input_value, PERMISSIVE, rng.randrange(2**32), seed))
    return cases


_INPUT = {"op": "input"}
# The answer pair (status, content) folded to an int, so that the next
# step's directive fields depend on this step's answer.
_FOLD_ANSWER = {"op": "add", "args": [
    {"op": "fst", "args": [_INPUT]},
    {"op": "len", "args": [{"op": "snd", "args": [_INPUT]}]},
]}


def _tagged(rng) -> dict:
    return {"op": "concat", "args": [{"op": "str", "value": gen_word(rng)}, _INPUT]}


def seq_ast(rng, n: int) -> dict:
    """A ``seq`` pipeline of n steps cycling through reason, memory and call."""
    steps = []
    for i in range(n):
        kind = ("reason", "memory", "call")[i % 3]
        if kind == "reason":
            step = {"kind": "reason", "model": rng.choice(("m1", "m2")), "prompt": _tagged(rng)}
        elif kind == "memory":
            step = {"kind": "memory", "mop": rng.choice(("get", "put")), "key": _tagged(rng),
                    "value": _INPUT}
        else:
            step = {"kind": "call", "machine": rng.choice(("calc", "index")),
                    "payload": _tagged(rng)}
        step["extract"] = _FOLD_ANSWER
        steps.append(step)
    return {"kind": "seq", "steps": steps}


def loop_ast(rng, fuel: int) -> dict:
    """A register machine that never halts, so it runs for all its fuel:
    some increments, then a jump back on a register nothing increments."""
    registers = rng.randrange(2, 4)
    body = [["inc", rng.randrange(registers - 1)] for _ in range(rng.randrange(1, 4))]
    return {"kind": "register_machine", "registers": registers, "fuel": fuel,
            "program": body + [["decjz", registers - 1, 0]]}


def run_long_cases(seed: int) -> list:
    rng = derive_rng("run-long", seed)
    cases = []
    for kind, n in LADDER:
        ast = seq_ast(rng, n) if kind == "seq" else loop_ast(rng, n)
        cases.append(_case(f"{kind}{n}", ast, rng.randrange(100), PERMISSIVE, rng.randrange(2**32)))
    return cases


WORKLOADS = {
    "run-small": Workload("run-small", run_small_cases, run_timed, run_check, 50, 1),
    "run-long": Workload("run-long", run_long_cases, run_timed, run_check, 2, len(LADDER)),
    "check-small": Workload("check-small", check_small_cases, check_timed, check_check, 20, 1),
}


# --- layer probes (traced run only) ---------------------------------------------

def layer_probe_cases() -> "list[tuple[Workload, Case]]":
    """A fixed run and a fixed check, traced in every traced run, so that
    every layer has spans whichever workload runs."""
    rng = derive_rng("layer-probe")
    run_case = _case("probe run", seq_ast(rng, 30), 7, PERMISSIVE, rng.randrange(2**32))
    check_case = _case("probe check", seq_ast(rng, 4), 7, PERMISSIVE, rng.randrange(2**32))
    return [(WORKLOADS["run-long"], run_case), (WORKLOADS["check-small"], check_case)]


def constant_handler():
    """Answers every directive with one fixed record per directive type, so
    that timing a run does not time ``mock_answer``."""
    answers = {t: (a(200, "ok") if a is not None else None) for t, a in ANSWER_TYPES.items()}
    return lambda d: ret(answers[type(d)])


def drive_ladder() -> "list[tuple[int, float, str | None]]":
    """(n, microseconds per directive, error) for each seq rung: the tree is
    built and driven by ``interpret_ungoverned`` with the constant handler.
    A rung that raises keeps its time up to the exception and its error."""
    rng = derive_rng("drive-ladder")
    handler = constant_handler()
    rows = []
    for n in SEQ_RUNGS:
        morph = compile_ast(seq_ast(rng, n))
        error = None
        start = perf_counter()
        try:
            out = interpret_ungoverned(handler, morph(0), RUN_FUEL)
            if not out.completed or len(out.trace) != n:
                error = f"drove {len(out.trace)} of {n} directives"
        except RecursionError as e:
            error = f"RecursionError: {e}"
        rows.append((n, (perf_counter() - start) / n * 1e6, error))
    return rows


def governance_overhead() -> float:
    """Microseconds per directive that ``govern`` adds on a 1000-step
    register loop (a right-nested tree, so ``bind`` depth plays no part):
    median governed drive minus median ungoverned drive, both with the
    constant handler."""
    morph = compile_ast(loop_ast(derive_rng("governance-overhead"), 1000))
    handler = constant_handler()
    gh = govern(handler)
    plain, governed = [], []
    for _ in range(5):
        start = perf_counter()
        interpret_ungoverned(handler, morph(0), RUN_FUEL)
        plain.append(perf_counter() - start)
        start = perf_counter()
        interpret_governed(gh, PERMISSIVE, morph(0), RUN_FUEL)
        governed.append(perf_counter() - start)
    return (statistics.median(governed) - statistics.median(plain)) / 1000 * 1e6
