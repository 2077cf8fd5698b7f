"""The benchmark under ``perfbench/`` keeps working against the library.

The benchmark imports govtree's public names and calls them as its own
files say. These tests run its layer probes, drive ladder and governance
overhead in-process, at their fixed sizes, so that a renamed function or
a changed signature fails here rather than only when the benchmark runs.
The texts of the timed inputs are pinned, so that a changed draw or a
changed program text fails here instead of moving the benchmark's inputs.
"""

import hashlib
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


# sha256 of each workload's case texts at seed 7, joined in order, as
# written when ``serialize_program`` was ``json.dumps(doc, indent=2)``.
INPUT_PINS = {
    "run_small_cases": "eb4e9b05331ea47ccddf3bce323f75c213f968faabfe0bf21e2f599c10d805ed",
    "check_small_cases": "dc08cfec6ead09236b80c1a7e060e3e7ff254f3dc5d4ea4f4acd4b0685df6254",
    "run_long_cases": "8bd2c4d3b70f6ec27ce681a58de83f9529e0c7fad8c5d76c9b4b775dce8b7022",
}


@pytest.mark.parametrize("cases", INPUT_PINS)
def test_benchmark_input_texts_are_pinned(workloads, cases):
    text = "".join(case.text for case in getattr(workloads, cases)(7))
    assert hashlib.sha256(text.encode()).hexdigest() == INPUT_PINS[cases]
