#!/usr/bin/env python3
"""Micro-benchmark: governed vs ungoverned interpretation cost.

Informational only; there is no pass/fail bound. Reports median
per-run latency for a few program shapes three ways: governed (the
source tree driven with a check step before each directive, as
``interpret_governed`` runs a handler from ``govern``), image (the
governed image ``govern(h).transform(t)`` built and driven: the tree the
checkers still walk) and ungoverned. Then a scaling table: ``seq``
pipelines of 500 to 4000 steps driven by ``interpret_ungoverned`` with a
constant-answer handler (so the mock handler's hashing does not hide the
tree's cost), with the ratio of each row's time to the previous row's.
Linear growth reads about 2.0. Last, a per-event table: microseconds per
call of ``encode_directive``, of ``mock_answer`` on a unit-answered and
on a record-answered directive, and of ``ResponseSampler.answers`` on a
record-answered directive cold (a new sampler each call) and warm (one
the directive has already been through), and microseconds per entry to
build, format and parse the ledger of a 2,000-event trace and to verify
it as built and as parsed. Parsing checks the hash chain as it reads, so
verifying a parsed ledger returns the verdict parsing kept. The
directive rows alternate between two equal directive objects, so
``encode_directive``'s cache of the last directive it encoded never
answers for them.

    PYTHONPATH=src python scripts/bench_overhead.py
"""

import argparse
import itertools
import random
import statistics
import time

from govtree.directives import (
    ANSWER_TYPES,
    LLMCall,
    Observability,
    ResponseSampler,
    encode_directive,
    mock_answer,
    mock_handler,
)
from govtree.gen import gen_trace
from govtree.governance import (
    PERMISSIVE,
    GovernedHandler,
    govern,
    interpret_governed,
    interpret_ungoverned,
)
from govtree.itree import ret
from govtree.ledger import format_ledger, ledger_valid, parse_ledger, trace_to_ledger
from govtree.program import compile_ast

SHAPES = {
    "pure": {"kind": "code", "expr": {"op": "add", "args": [{"op": "input"}, {"op": "int", "value": 1}]}},
    "one-call": {
        "kind": "reason", "model": "m", "prompt": {"op": "input"},
        "extract": {"op": "fst", "args": [{"op": "input"}]},
    },
    "pipeline": {
        "kind": "seq",
        "steps": [
            {"kind": "reason", "model": "m", "prompt": {"op": "input"},
             "extract": {"op": "fst", "args": [{"op": "input"}]}},
            {"kind": "memory", "mop": "put", "key": {"op": "str", "value": "k"},
             "value": {"op": "input"}, "extract": {"op": "fst", "args": [{"op": "input"}]}},
            {"kind": "call", "machine": "calc", "payload": {"op": "input"},
             "extract": {"op": "fst", "args": [{"op": "input"}]}},
        ],
    },
}

SCALING_STEPS = (500, 1000, 2000, 4000)
SCALING_REPEATS = 5

PER_EVENT_CALLS = 20_000
PER_EVENT_REPEATS = 5
LEDGER_ENTRIES = 2_000


def constant_handler():
    """Answers every directive with one fixed record per directive type."""
    answers = {t: (a(200, "ok") if a is not None else None) for t, a in ANSWER_TYPES.items()}
    return lambda d: ret(answers[type(d)])


def bench(fn, iterations, warmup):
    for i in range(warmup):
        fn(i)
    samples = []
    for i in range(iterations):
        t0 = time.perf_counter()
        fn(i)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def per_call_us(fn, args, calls):
    """Median over repeats of the microseconds one call of ``fn`` takes,
    timed in batches of ``calls`` calls on the items of ``args`` in turn."""
    samples = []
    for _ in range(PER_EVENT_REPEATS):
        t0 = time.perf_counter()
        for _, arg in zip(range(calls), itertools.cycle(args)):
            fn(arg)
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def per_event_rows():
    """(label, unit, microseconds) for the per-event table."""
    prompt = "summarize: the quarterly report, part 7"
    records = (LLMCall("m1", prompt), LLMCall("m1", prompt))
    units = (Observability("pc=3;regs=1,0,2"), Observability("pc=3;regs=1,0,2"))
    warm = ResponseSampler()
    warm.answers(records[0])
    trace = gen_trace(random.Random(0), LEDGER_ENTRIES)
    ledger = trace_to_ledger(trace)
    text = format_ledger(ledger)
    parsed = parse_ledger(text)
    return [
        ("encode_directive", "call", per_call_us(encode_directive, records, PER_EVENT_CALLS)),
        ("mock_answer, unit", "call", per_call_us(lambda d: mock_answer(0, d), units, PER_EVENT_CALLS)),
        ("mock_answer, record", "call", per_call_us(lambda d: mock_answer(0, d), records, PER_EVENT_CALLS)),
        ("sampler, cold", "call", per_call_us(lambda d: ResponseSampler().answers(d), records, PER_EVENT_CALLS)),
        ("sampler, warm", "call", per_call_us(warm.answers, records, PER_EVENT_CALLS)),
        ("ledger build", "entry", per_call_us(trace_to_ledger, (trace,), 1) / LEDGER_ENTRIES),
        ("ledger format", "entry", per_call_us(format_ledger, (ledger,), 1) / LEDGER_ENTRIES),
        ("ledger parse", "entry", per_call_us(parse_ledger, (text,), 1) / LEDGER_ENTRIES),
        ("ledger verify (built)", "entry", per_call_us(ledger_valid, (ledger,), 1) / LEDGER_ENTRIES),
        ("ledger verify (parsed)", "entry", per_call_us(ledger_valid, (parsed,), 1) / LEDGER_ENTRIES),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=200)
    args = parser.parse_args()

    h = mock_handler(0)
    gh = govern(h)
    image_gh = GovernedHandler(base=h, transform=gh.transform)  # drives the image
    print(f"{'shape':<10} {'governed us':>12} {'image us':>9} {'ungoverned us':>14} {'ratio':>7}")
    for name, ast in SHAPES.items():
        governed = bench(
            lambda i: interpret_governed(gh, PERMISSIVE, compile_ast(ast)(i), 10_000),
            args.iterations, args.warmup,
        )
        image = bench(
            lambda i: interpret_governed(image_gh, PERMISSIVE, compile_ast(ast)(i), 10_000),
            args.iterations, args.warmup,
        )
        plain = bench(
            lambda i: interpret_ungoverned(h, compile_ast(ast)(i), 10_000),
            args.iterations, args.warmup,
        )
        print(f"{name:<10} {governed:>12.1f} {image:>9.1f} {plain:>14.1f} {governed / plain:>7.2f}")

    steps = SHAPES["pipeline"]["steps"]
    handler = constant_handler()
    print()
    print(f"{'seq steps':>10} {'ungoverned ms':>14} {'t(2n)/t(n)':>11}")
    previous = None
    for n in SCALING_STEPS:
        morph = compile_ast({"kind": "seq", "steps": [steps[i % 3] for i in range(n)]})
        ms = bench(
            lambda i: interpret_ungoverned(handler, morph(i), 10 * n), SCALING_REPEATS, 1
        ) / 1e3
        ratio = f"{ms / previous:>11.2f}" if previous else f"{'':>11}"
        print(f"{n:>10} {ms:>14.2f} {ratio}")
        previous = ms

    print()
    print(f"{'per event':<22} {'us':>8}")
    for label, unit, us in per_event_rows():
        print(f"{label:<22} {us:>8.2f}  per {unit}")


if __name__ == "__main__":
    main()
