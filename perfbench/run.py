#!/usr/bin/env python3
"""The govtree benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload run-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; govtree is imported from its ``src``.
The load is a closed loop with one caller in a single thread: the next
operation starts when the previous one, and the untimed check of its
output, are done. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` prints the per-layer metrics from a traced run, next to an untraced
run of the same length that states the tracing overhead. Times are in
reference seconds (see clock.py). The last line of standard output is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import govtree  # noqa: E402

from clock import scale, slice_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    drive_ladder,
    governance_overhead,
    layer_probe_cases,
)

SETUP_REPEATS = 3
# Each window of at least this many seconds gets its own scale from wall
# to reference time (see clock.py).
WINDOW_S = 0.25
# RecursionError on deep left-nested `seq` and long register loops is the
# seed's known defect (ROADMAP item 4): such an operation counts as failed
# but not as a wrong answer.
KNOWN_DEFECT = RecursionError
MAX_PROBLEMS_SHOWN = 20

# Per-layer metrics that are a span's self time per call: (metric, span, scale).
PER_CALL = (
    ("program.parse_us", "program.parse", 1e6),
    ("program.compile_us", "program.compile", 1e6),
    ("governance.policy_us", "governance.policy", 1e6),
    ("directives.handler_us", "directives.handler", 1e6),
    ("directives.encode_us", "directives.encode", 1e6),
    ("directives.sampler_us", "directives.sampler", 1e6),
    ("governance.safe_check_self_ms", "governance.safe_check", 1e3),
    ("capability.within_caps_self_ms", "capability.within_caps", 1e3),
    ("algebra.nocheck_check_ms", "algebra.nocheck_check", 1e3),
    ("reference.run_us", "reference.run", 1e6),
)
# Per-layer metrics that are a span's self time per trace event (a ledger
# has one entry per trace event): (metric, span).
PER_EVENT = (
    ("governance.interpret_self_us_per_event", "governance.interpret"),
    ("trace.format_us_per_event", "trace.format"),
    ("trace.parse_us_per_event", "trace.parse"),
    ("ledger.build_us_per_entry", "ledger.build"),
    ("ledger.format_us_per_entry", "ledger.format"),
    ("ledger.parse_us_per_entry", "ledger.parse"),
    ("ledger.verify_us_per_entry", "ledger.verify"),
)
# Spans outside the timed operation: the correctness check after it.
UNTIMED_SPANS = ("directives.encode", "trace.parse", "reference.run")


@dataclass
class Tally:
    """Every attempted operation of one measured stretch. Times are stored
    as wall seconds and reported in reference time."""

    seconds: list = field(default_factory=list)  # per attempted operation, wall
    completed: list = field(default_factory=list)  # per operation: 1 or 0
    events: list = field(default_factory=list)  # per operation, 0 unless completed
    # per operation, wall: seconds if completed, inf if it failed, None for
    # a known-defect failure, which latency leaves out
    latencies: list = field(default_factory=list)
    cuts: list = field(default_factory=list)  # operation index that ends each window
    scales: list = field(default_factory=list)  # reference seconds per wall second, per window
    decided: int = 0
    wrong: list = field(default_factory=list)  # (op index, case label, problem)
    defect: Counter = field(default_factory=Counter)  # case label -> known-defect failures

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.completed)

    def add(self, seconds: float, completed: bool, events: int, latency) -> None:
        self.seconds.append(seconds)
        self.completed.append(int(completed))
        self.events.append(events)
        self.latencies.append(latency)

    def op_scales(self) -> list:
        """Each operation's scale: that of the window it ran in."""
        out = []
        start = 0
        for end, s in zip(self.cuts, self.scales):
            out.extend([s] * (end - start))
            start = end
        return out

    def reference_seconds(self) -> float:
        return sum(t * s for t, s in zip(self.seconds, self.op_scales()))

    def programs_per_s(self) -> float:
        return sum(self.completed) / self.reference_seconds()

    def events_per_s(self) -> float:
        return sum(self.events) / self.reference_seconds()

    def latency_ms(self, q: float) -> float:
        return percentile(
            [t * s for t, s in zip(self.latencies, self.op_scales()) if t is not None], q
        ) * 1e3


def measure(wl, cases, seconds: float, tracer: Tracer, tally: Tally) -> None:
    """Runs whole rounds of operations until ``seconds`` have passed. A
    calibration slice before and after each window of about ``WINDOW_S``
    seconds gives the window's scale to reference time."""
    before = slice_seconds()
    start_run = perf_counter()
    window_end = start_run + WINDOW_S
    i = 0
    while True:
        case = cases[i % len(cases)]
        tracer.op_id = i
        start = perf_counter()
        try:
            state = wl.timed(case, tracer)
        except Exception as e:  # a raising operation is counted, not fatal
            elapsed = perf_counter() - start
            if isinstance(e, KNOWN_DEFECT):
                tally.defect[case.label] += 1
                tally.add(elapsed, False, 0, None)
            else:
                tally.wrong.append((i, case.label, f"raised {type(e).__name__}: {e}"))
                tally.add(elapsed, False, 0, math.inf)
        else:
            elapsed = perf_counter() - start
            outcome = wl.check(case, state, tracer)
            if outcome.problem is None:
                tally.decided += outcome.decided
                tally.add(elapsed, True, outcome.events, elapsed)
            else:
                tally.wrong.append((i, case.label, outcome.problem))
                tally.add(elapsed, False, 0, math.inf)
        i += 1
        now = perf_counter()
        over = i % wl.round_size == 0 and now >= start_run + seconds
        if over or now >= window_end:
            tally.cuts.append(i)
            after = slice_seconds()
            tally.scales.append(scale(before, after))
            before = after
            if over:
                return
            window_end = perf_counter() + WINDOW_S


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; infinite entries sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def set_up(wl, seed: int) -> "tuple[list, list]":
    """Generates and serializes the inputs and warms up, ``SETUP_REPEATS``
    times; returns the cases and the reference seconds each set-up took."""
    took = []
    for _ in range(SETUP_REPEATS):
        before = slice_seconds()
        start = perf_counter()
        cases = wl.cases(seed)
        for case in cases[: wl.warmup]:
            wl.check(case, wl.timed(case, Tracer(False)), Tracer(False))
        wall = perf_counter() - start
        took.append(wall * scale(before, slice_seconds()))
    # The inputs live for the whole run: keep the collector from walking them.
    gc.collect()
    gc.freeze()
    return cases, took


def commit() -> str:
    """The checked-out commit when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git work tree)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "govtree").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def print_header(args) -> None:
    print(f"govtree benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"commit {commit()}, src sha256 {source_digest()}")
    print("load: closed loop, one caller, one thread")


def report_failures(wl, seed: int, tally: Tally) -> None:
    print(f"failed_frac      {tally.failed / tally.attempted:.6f}   "
          f"({tally.failed} of {tally.attempted} operations)")
    for label, n in sorted(tally.defect.items()):
        print(f"known seed defect (ROADMAP item 4): {label} raised "
              f"{KNOWN_DEFECT.__name__} in {n} operations")
    if tally.defect:
        print(f"known seed defect total: {sum(tally.defect.values())} operations")
    for i, label, problem in tally.wrong[:MAX_PROBLEMS_SHOWN]:
        print(f"WRONG workload={wl.name} seed={seed} op={i} case={label!r}: {problem}")


def end_to_end(args, wl) -> "tuple[Tally, dict]":
    cases, took = set_up(wl, args.seed)
    tally = Tally()
    measure(wl, cases, args.seconds, Tracer(False), tally)
    metrics = {
        "setup_s": (statistics.median(took), "s"),
        "programs_per_s": (tally.programs_per_s(), "1/s"),
        "events_per_s": (tally.events_per_s(), "1/s"),
        "latency_p50_ms": (tally.latency_ms(50), "ms"),
        "latency_p90_ms": (tally.latency_ms(90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:.6g} {unit}")
    # p99 has too few samples beyond it on run-long, and on check-small it is
    # set by the pool's few heaviest programs, so it varies by seed more than
    # a bound allows: it is printed, but p90 is the reported tail.
    print(f"latency_p99_ms   {tally.latency_ms(99):.6g} ms (not a bounded metric)")
    samples = sum(t is not None for t in tally.latencies)
    print(f"samples          {samples} operation latencies in {len(tally.cuts)} windows "
          f"(known-defect failures left out of latency, other failures count as slower "
          f"than any limit)")
    print(f"setup_s samples  {', '.join(f'{t:.4f}' for t in took)} s")
    print(f"host speed       {statistics.median(tally.scales):.4f} reference s per wall s "
          f"(median over windows; range {min(tally.scales):.4f} to {max(tally.scales):.4f})")
    if wl.name == "check-small":
        print(f"decided_frac     {tally.decided / tally.attempted:.6f}")
    report_failures(wl, args.seed, tally)
    return tally, metrics


def per_layer(args, wl) -> "tuple[Tally, dict]":
    cases, _ = set_up(wl, args.seed)
    untraced = Tally()
    measure(wl, cases, args.seconds, Tracer(False), untraced)
    tracer = Tracer(True)
    for k, (probe_wl, probe_case) in enumerate(layer_probe_cases()):
        tracer.op_id = -1 - k
        probe_wl.check(probe_case, probe_wl.timed(probe_case, tracer), tracer)
    traced = Tally()
    measure(wl, cases, args.seconds, tracer, traced)
    before = slice_seconds()
    ladder = drive_ladder()
    overhead = governance_overhead()
    probe_scale = scale(before, slice_seconds())

    # Span times are wall seconds; the traced stretch's median scale takes
    # them to reference time, like every other time reported.
    span_scale = statistics.median(traced.scales)
    calls, self_s = tracer.totals()
    events = tracer.counts["trace.events"]
    metrics = {}
    for name, span, unit_scale in PER_CALL:
        metrics[name] = (self_s[span] * span_scale / calls[span] * unit_scale,
                         "us" if unit_scale == 1e6 else "ms")
        metrics[f"{span}_calls"] = (calls[span], "count")
    for name, span in PER_EVENT:
        metrics[name] = (self_s[span] * span_scale / events * 1e6, "us")
    metrics["governance.interpret_calls"] = (calls["governance.interpret"], "count")
    metrics["trace.events"] = (events, "count")
    metrics["governance.denied_runs"] = (tracer.counts["governance.denied_runs"], "count")
    metrics["governance.overhead_us_per_directive"] = (overhead * probe_scale, "us")
    for n, us, error in ladder:
        metrics[f"itree.drive_us_per_directive.n{n}"] = (us * probe_scale, "us")
    metrics["itree.drive_failed_rungs"] = (sum(error is not None for _, _, error in ladder), "count")
    traced_pps, untraced_pps = traced.programs_per_s(), untraced.programs_per_s()
    metrics["bench.traced_programs_per_s"] = (traced_pps, "1/s")
    metrics["bench.traced_events_per_s"] = (traced.events_per_s(), "1/s")
    metrics["bench.tracing_overhead_pct"] = ((1 - traced_pps / untraced_pps) * 100, "%")

    print(f"{'span (wall time)':<24} {'calls':>9} {'self s':>10} {'us/call':>10} "
          f"{'% of op time':>13}")
    w_calls, w_self = tracer.totals(workload_only=True)
    op_seconds = sum(traced.seconds)
    for span in sorted(calls):
        share = "untimed" if span in UNTIMED_SPANS else f"{w_self[span] / op_seconds * 100:.1f}"
        print(f"{span:<24} {w_calls[span]:>9} {w_self[span]:>10.4f} "
              f"{self_s[span] / calls[span] * 1e6:>10.2f} {share:>13}")
    print("(calls, self s and % count workload operations only; us/call also counts "
          "the layer probes' one run and one check)")
    for n, us, error in ladder:
        print(f"itree drive, seq of {n:>4}: {us * probe_scale:9.2f} us/directive"
              + (f"  FAILED: {error[:60]}" if error else ""))
    print(f"tracing overhead: programs_per_s {untraced_pps:.6g} untraced, "
          f"{traced_pps:.6g} traced ({metrics['bench.tracing_overhead_pct'][0]:.1f}%); "
          f"events_per_s {untraced.events_per_s():.6g} untraced, {traced.events_per_s():.6g} traced")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:<42} {value:.6g} {unit}")
    report_failures(wl, args.seed, traced)
    out = ROOT / "perfbench" / "out" / f"spans-{wl.name}-seed{args.seed}.tsv"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(govtree.__file__).resolve().parent != ROOT / "src" / "govtree":
        print(f"govtree was imported from {govtree.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    print_header(args)
    tally, metrics = (per_layer if args.trace else end_to_end)(args, wl)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
