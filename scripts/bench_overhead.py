#!/usr/bin/env python3
"""Micro-benchmark: governed vs ungoverned interpretation cost.

Informational only; there is no pass/fail bound. Reports median
per-run latency for a few program shapes under both interpreters, then
a scaling table: ``seq`` pipelines of 500 to 4000 steps driven by
``interpret_ungoverned`` with a constant-answer handler (so the mock
handler's hashing does not hide the tree's cost), with the ratio of each
row's time to the previous row's. Linear growth reads about 2.0.

    PYTHONPATH=src python scripts/bench_overhead.py
"""

import argparse
import statistics
import time

from govtree.directives import ANSWER_TYPES, mock_handler
from govtree.governance import PERMISSIVE, govern, interpret_governed, interpret_ungoverned
from govtree.itree import ret
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=200)
    args = parser.parse_args()

    h = mock_handler(0)
    gh = govern(h)
    print(f"{'shape':<10} {'governed us':>12} {'ungoverned us':>14} {'ratio':>7}")
    for name, ast in SHAPES.items():
        governed = bench(
            lambda i: interpret_governed(gh, PERMISSIVE, compile_ast(ast)(i), 10_000),
            args.iterations, args.warmup,
        )
        plain = bench(
            lambda i: interpret_ungoverned(h, compile_ast(ast)(i), 10_000),
            args.iterations, args.warmup,
        )
        print(f"{name:<10} {governed:>12.1f} {plain:>14.1f} {governed / plain:>7.2f}")

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


if __name__ == "__main__":
    main()
