"""End-to-end CLI behavior: exit codes, files, and report commands."""

import os
import subprocess
import sys
from pathlib import Path

from govtree.cli import EXIT_DENIED, EXIT_FAIL, EXIT_FUEL, EXIT_OK, main
from govtree.ledger import parse_ledger, ledger_valid
from govtree.trace import parse_trace

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    """``python -m govtree`` in a child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "govtree", *argv], capture_output=True, text=True, env=env
    )


def run_cli(*argv):
    return main(list(argv))


def test_run_pure_program(tmp_path, capsys):
    trace_file = tmp_path / "t.trace"
    code = run_cli("run", str(PROGRAMS / "pure.json"), "--trace-out", str(trace_file))
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "42"
    assert parse_trace(trace_file.read_text()) == ()


def test_run_llm_pipeline_writes_trace_and_ledger(tmp_path, capsys):
    trace_file = tmp_path / "t.trace"
    ledger_file = tmp_path / "t.ledger"
    code = run_cli(
        "run", str(PROGRAMS / "llm_pipeline.json"),
        "--trace-out", str(trace_file), "--ledger-out", str(ledger_file),
    )
    assert code == EXIT_OK
    trace = parse_trace(trace_file.read_text())
    assert len(trace) == 6  # three checks, three io events
    ledger = parse_ledger(ledger_file.read_text())
    assert ledger_valid(ledger) == (True, None)
    assert ledger.events() == trace


def test_run_denying_policy_exits_2(capsys):
    code = run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--policy", "denying")
    assert code == EXIT_DENIED


def test_run_tag_filter_policy(capsys):
    code = run_cli(
        "run", str(PROGRAMS / "llm_pipeline.json"), "--policy", "tags:LLMCall,MemoryOp"
    )
    assert code == EXIT_DENIED  # the call step is filtered out


def test_run_fuel_exhaustion_exits_3(capsys):
    code = run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--fuel", "1")
    assert code == EXIT_FUEL


def test_run_register_machine_and_verify(tmp_path, capsys):
    ledger_file = tmp_path / "m.ledger"
    code = run_cli(
        "run", str(PROGRAMS / "counter_machine.json"), "--ledger-out", str(ledger_file)
    )
    assert code == EXIT_OK
    assert run_cli("verify", str(ledger_file)) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid" in out


def test_verify_detects_single_bit_corruption(tmp_path, capsys):
    ledger_file = tmp_path / "m.ledger"
    run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--ledger-out", str(ledger_file))
    text = ledger_file.read_text().splitlines()
    entry = text[2].split(" ")
    corrupted = ("f" if entry[1][0] != "f" else "0") + entry[1][1:]
    text[2] = " ".join((entry[0], corrupted, entry[2]))
    ledger_file.write_text("".join(line + "\n" for line in text))
    assert run_cli("verify", str(ledger_file)) == EXIT_FAIL
    assert "index 1" in capsys.readouterr().out


def test_verify_rejects_garbage_file(tmp_path, capsys):
    bad = tmp_path / "bad.ledger"
    bad.write_text("not a ledger\n")
    assert run_cli("verify", str(bad)) == EXIT_FAIL


def test_check_safety_and_caps(capsys):
    assert run_cli("check", str(PROGRAMS / "llm_pipeline.json")) == EXIT_OK
    assert "safety: holds" in capsys.readouterr().out
    assert run_cli("check", str(PROGRAMS / "llm_pipeline.json"), "--mode", "caps") == EXIT_OK
    out = capsys.readouterr().out
    assert "[llm_reason,machine_call,memory]" in out and "holds" in out


def test_coherence_command(capsys):
    assert run_cli("coherence", "--samples", "50") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("holds") == 3


def test_conformance_bundled_passes(capsys):
    assert run_cli("conformance", "--trials", "60", "--seed", "4") == EXIT_OK
    assert "overall: PASS" in capsys.readouterr().out


def test_conformance_adversary_fails(capsys):
    assert run_cli(
        "conformance", "--operator", "no-check", "--trials", "60", "--seed", "4"
    ) == EXIT_FAIL


def test_boundary_command(capsys):
    assert run_cli("boundary", "--trials", "40", "--seed", "4") == EXIT_OK
    assert "overall: PASS" in capsys.readouterr().out


def test_diff_command(capsys):
    assert run_cli("diff", "--trials", "80", "--seed", "4") == EXIT_OK
    assert "disagreements=0" in capsys.readouterr().out


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GOVTREE_SEED", "77")
    from govtree.cli import build_parser

    args = build_parser().parse_args(["diff"])
    assert args.seed == 77


def test_module_entry_point():
    result = run_module("run", str(PROGRAMS / "pure.json"))
    assert result.returncode == 0
    assert result.stdout.strip() == "42"


def test_reports_byte_identical_across_runs():
    result = [run_module("boundary", "--trials", "20", "--seed", "3").stdout for _ in range(2)]
    assert result[0] and result[0] == result[1]
