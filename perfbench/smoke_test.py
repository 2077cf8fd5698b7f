#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale (one-second runs).

    python3 perfbench/smoke_test.py

Run from the root of a checkout. It checks that every metric named in
BENCHMARK.json is printed, with its unit, for every workload; that no
operation fails on run-small and check-small and that on run-long only
the known-defect operations fail; that the traced run gives a self time
for every layer; and that the command fails, printing no result, in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that are a layer's self time; each must be above zero.
SELF_TIMES = (
    "program.parse_us", "program.compile_us", "governance.interpret_self_us_per_event",
    "governance.policy_us", "directives.handler_us", "directives.encode_us",
    "directives.sampler_us", "governance.safe_check_self_ms", "capability.within_caps_self_ms",
    "algebra.nocheck_check_ms", "trace.format_us_per_event", "trace.parse_us_per_event",
    "ledger.build_us_per_entry", "ledger.format_us_per_entry", "ledger.parse_us_per_entry",
    "ledger.verify_us_per_entry", "reference.run_us",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    problems = []
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            run = bench(name, trace)
            where = f"{name} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}: {run.stderr[-500:]}")
                continue
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: not correct")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {units}")
            known = [ln for ln in lines if ln.startswith("known seed defect total:")]
            known_failed = int(known[0].split()[4]) if known else 0
            if name == "run-long":
                if known_failed == 0 or result["failed"] != known_failed:
                    problems.append(f"{where}: failed={result['failed']}, "
                                    f"known-defect failures={known_failed}")
            elif result["failed"]:
                problems.append(f"{where}: failed={result['failed']}")
            if trace == 1:
                for metric in SELF_TIMES:
                    if not result["metrics"][metric]["value"] > 0:
                        problems.append(f"{where}: no self time for {metric}")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    if run.returncode == 0 or '"metrics"' in run.stdout:
        problems.append("without src/ the benchmark did not fail, or printed a result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
