"""The benchmark under ``perfbench/`` keeps working against the library.

The benchmark imports govtree's public names and calls them as its own
files say. These tests run its layer probes, drive ladder and governance
overhead in-process, at their fixed sizes, so that a renamed function or
a changed signature fails here rather than only when the benchmark runs.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_declared_workloads_exist(workloads):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("enabled", [False, True], ids=["untraced", "traced"])
def test_layer_probes_run_clean(workloads, enabled):
    from tracing import Tracer

    tracer = Tracer(enabled)
    for wl, case in workloads.layer_probe_cases():
        outcome = wl.check(case, wl.timed(case, tracer), tracer)
        assert outcome.problem is None, (wl.name, outcome.problem)


def test_drive_ladder_has_no_errors(workloads):
    rows = workloads.drive_ladder()
    assert [n for n, _, _ in rows] == list(workloads.SEQ_RUNGS)
    assert [error for _, _, error in rows if error is not None] == []


def test_governance_overhead_runs(workloads):
    assert isinstance(workloads.governance_overhead(), float)
