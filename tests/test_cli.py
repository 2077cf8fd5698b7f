"""End-to-end CLI behavior: exit codes, files, and report commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from govtree.cli import (
    EXIT_CANTCREAT,
    EXIT_DENIED,
    EXIT_FAIL,
    EXIT_FUEL,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from govtree.governance import PERMISSIVE
from govtree.ledger import format_ledger, ledger_valid, parse_ledger, trace_to_ledger
from govtree.program import format_value
from govtree.reference import run_reference
from govtree.trace import GovEntry, IoEntry, parse_trace

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(*argv):
    """A Python child process that imports this checkout's govtree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_module(*argv):
    return run_child("-m", "govtree", *argv)


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


@pytest.mark.parametrize("corrupt", [
    lambda fields: [fields[0], fields[1], fields[2] + "é"],  # non-ASCII base64
    lambda fields: [fields[0], fields[1], "*" + fields[2][1:]],  # not base64
    lambda fields: [fields[0][:-1], fields[1], fields[2]],  # odd-length hex
])
def test_verify_malformed_entry_is_one_line(tmp_path, corrupt):
    ledger_file = tmp_path / "m.ledger"
    run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--ledger-out", str(ledger_file))
    lines = ledger_file.read_text(encoding="utf-8").splitlines()
    lines[1] = " ".join(corrupt(lines[1].split(" ")))
    ledger_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    result = run_module("verify", str(ledger_file))
    assert result.returncode == EXIT_FAIL
    assert result.stdout == ""
    stderr = result.stderr.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith("invalid ledger file: ")


def test_verify_rejects_crlf_ledger(tmp_path):
    # the format is LF-only; a CRLF copy of a good ledger is not a ledger
    ledger_file = tmp_path / "crlf.ledger"
    run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--ledger-out", str(ledger_file))
    text = ledger_file.read_text(encoding="utf-8")
    ledger_file.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    result = run_module("verify", str(ledger_file))
    assert result.returncode == EXIT_FAIL
    assert result.stdout == ""
    stderr = result.stderr.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith("invalid ledger file: ")


def _insert_blank_line(text):
    header, first, rest = text.split("\n", 2)
    return f"{header}\n{first}\n\n{rest}"


# Each edit keeps every entry, so a reader that skipped empty lines or took
# a last line without its LF would still print "valid (6 entries)".
@pytest.mark.parametrize("edit, message", [
    (_insert_blank_line, "line 3: empty line"),
    (lambda text: text + "\n", "line 8: empty line"),
    (lambda text: text[:-1], "line 7: no LF at the end of the file"),
], ids=["blank-line", "extra-final-lf", "no-final-lf"])
def test_verify_refuses_empty_lines_and_a_missing_final_lf(tmp_path, capsys, edit, message):
    ledger_file = tmp_path / "e.ledger"
    run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--ledger-out", str(ledger_file))
    assert run_cli("verify", str(ledger_file)) == EXIT_OK
    assert capsys.readouterr().out.endswith("\nvalid (6 entries)\n")
    ledger_file.write_text(edit(ledger_file.read_text(encoding="utf-8")), encoding="utf-8")
    assert run_cli("verify", str(ledger_file)) == EXIT_FAIL
    assert capsys.readouterr() == ("", f"invalid ledger file: {message}\n")


# A data field the writer never writes is refused on its line, whether the
# base64 or the event inside it is at fault.
@pytest.mark.parametrize("data, message", [
    ("!!!!", "Only base64 data is allowed"),
    ("AwAAAAA=", "unknown event type byte 0x3"),
    ("AQAAAAA=", "malformed governance entry"),
    ("AgAAAAPD", "truncated event field"),  # an IO field cut inside a two-byte character
], ids=["not-base64", "unknown-type", "governance-without-flag", "cut-field"])
def test_verify_names_the_line_of_a_bad_data_field(tmp_path, capsys, data, message):
    ledger_file = tmp_path / "d.ledger"
    ledger_file.write_text(f"GOVLEDGER v1 sha256\n{'0' * 64} {'0' * 64} {data}\n")
    assert run_cli("verify", str(ledger_file)) == EXIT_FAIL
    assert capsys.readouterr() == ("", f"invalid ledger file: line 2: {message}\n")


def test_check_safety_and_caps(capsys):
    assert run_cli("check", str(PROGRAMS / "llm_pipeline.json")) == EXIT_OK
    assert "safety: holds" in capsys.readouterr().out
    assert run_cli("check", str(PROGRAMS / "llm_pipeline.json"), "--mode", "caps") == EXIT_OK
    out = capsys.readouterr().out
    assert "[llm_reason,machine_call,memory]" in out and "holds" in out


# Recorded before the capability bound moved into the compiler's walk.
@pytest.mark.parametrize("name, mode, expected", [
    ("pure", "safety", "safety: holds\n"),
    ("pure", "caps", "caps []: holds\n"),
    ("counter_machine", "safety", "safety: holds\n"),
    ("counter_machine", "caps", "caps []: holds\n"),
    ("llm_pipeline", "safety", "safety: holds\n"),
    ("llm_pipeline", "caps", "caps [llm_reason,machine_call,memory]: holds\n"),
])
def test_check_reports_are_pinned(capsys, name, mode, expected):
    assert run_cli("check", str(PROGRAMS / f"{name}.json"), "--mode", mode) == EXIT_OK
    assert capsys.readouterr().out == expected


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


def test_non_integer_seed_variable_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("GOVTREE_SEED", "abc")
    result = run_module("check", str(PROGRAMS / "pure.json"))
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "govtree: error: GOVTREE_SEED is not an integer: 'abc'\n"
    assert result.stdout == ""


def test_seed_variable_is_not_read_by_verify(tmp_path, monkeypatch):
    ledger_file = tmp_path / "m.ledger"
    assert run_cli("run", str(PROGRAMS / "llm_pipeline.json"), "--ledger-out", str(ledger_file)) == EXIT_OK
    monkeypatch.setenv("GOVTREE_SEED", "abc")
    result = run_module("verify", str(ledger_file))
    assert result.returncode == EXIT_OK
    assert result.stdout == "valid (6 entries)\n" and result.stderr == ""


def test_seed_variable_is_not_read_when_seed_is_given(monkeypatch):
    monkeypatch.setenv("GOVTREE_SEED", "abc")
    result = run_module("check", str(PROGRAMS / "pure.json"), "--seed", "3")
    assert result.returncode == EXIT_OK
    assert result.stdout == "safety: holds\n" and result.stderr == ""
    from govtree.cli import build_parser

    assert build_parser().parse_args(["diff", "--seed", "3"]).seed == 3


def test_run_does_not_read_the_seed_variable(monkeypatch):
    # run draws its answers from --handler-seed alone
    monkeypatch.setenv("GOVTREE_SEED", "abc")
    result = run_module("run", str(PROGRAMS / "pure.json"))
    assert result.returncode == EXIT_OK
    assert result.stdout == "42\n" and result.stderr == ""


@pytest.mark.parametrize("argv", [
    ["run", str(PROGRAMS / "pure.json"), "--seed", "3"],
    ["coherence", "--fuel", "5"],
])
def test_options_no_command_reads_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point():
    result = run_module("run", str(PROGRAMS / "pure.json"))
    assert result.returncode == 0
    assert result.stdout.strip() == "42"


def test_reports_byte_identical_across_runs():
    result = [run_module("boundary", "--trials", "20", "--seed", "3").stdout for _ in range(2)]
    assert result[0] and result[0] == result[1]


# Reports recorded before the campaigns shared one loop; any change to a
# campaign's draws, keys or tallies shows up here as a changed line.
PINNED_CONFORMANCE = {
    "bundled": (EXIT_OK, (
        "conformance report for operator 'bundled'\n"
        "G1[bundled]        trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G2[bundled]        trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G3[bundled]        trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "convergence[bundled] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "goal_preservation[bundled] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "subsumption_neg    trials=2      holds=0      fails=2      unknowns=0      PASS\n"
        "subsumption_pos[bundled] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "overall: PASS\n"
    )),
    "no-check": (EXIT_FAIL, (
        "conformance report for operator 'no-check'\n"
        "G1[no-check]       trials=100    holds=44     fails=56     unknowns=0      FAIL\n"
        "G2[no-check]       trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G3[no-check]       trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "convergence[no-check] trials=20     holds=1      fails=19     unknowns=0      FAIL\n"
        "goal_preservation[no-check] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "subsumption_neg    trials=2      holds=0      fails=2      unknowns=0      PASS\n"
        "subsumption_pos[no-check] trials=20     holds=10     fails=10     unknowns=0      FAIL\n"
        "overall: FAIL\n"
    )),
    "mangle-results": (EXIT_FAIL, (
        "conformance report for operator 'mangle-results'\n"
        "G1[mangle-results] trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G2[mangle-results] trials=100    holds=54     fails=46     unknowns=0      FAIL\n"
        "G3[mangle-results] trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "convergence[mangle-results] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "goal_preservation[mangle-results] trials=20     holds=10     fails=10     unknowns=0      FAIL\n"
        "subsumption_neg    trials=2      holds=0      fails=2      unknowns=0      PASS\n"
        "subsumption_pos[mangle-results] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "overall: FAIL\n"
    )),
    "fingerprint": (EXIT_FAIL, (
        "conformance report for operator 'fingerprint'\n"
        "G1[fingerprint]    trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G2[fingerprint]    trials=100    holds=100    fails=0      unknowns=0      PASS\n"
        "G3[fingerprint]    trials=100    holds=37     fails=63     unknowns=0      FAIL\n"
        "convergence[fingerprint] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "goal_preservation[fingerprint] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "subsumption_neg    trials=2      holds=0      fails=2      unknowns=0      PASS\n"
        "subsumption_pos[fingerprint] trials=20     holds=20     fails=0      unknowns=0      PASS\n"
        "overall: FAIL\n"
    )),
}
PINNED_BOUNDARY = (
    "boundary report\n"
    "safety             trials=100    holds=100    fails=0      unknowns=0      PASS\n"
    "nontrivial         trials=12     holds=0      fails=12     unknowns=0      PASS\n"
    "turing             trials=100    holds=100    fails=0      unknowns=0      PASS\n"
    "subsumption_pos    trials=100    holds=100    fails=0      unknowns=0      PASS\n"
    "subsumption_neg    trials=10     holds=0      fails=10     unknowns=0      PASS\n"
    "cognitive          trials=100    holds=100    fails=0      unknowns=0      PASS\n"
    "overall: PASS\n"
)


@pytest.mark.parametrize("operator", sorted(PINNED_CONFORMANCE))
def test_conformance_report_is_pinned(capsys, operator):
    code = run_cli("conformance", "--trials", "100", "--seed", "3", "--operator", operator)
    assert (code, capsys.readouterr().out) == PINNED_CONFORMANCE[operator]


def test_boundary_report_is_pinned(capsys):
    assert run_cli("boundary", "--trials", "100", "--seed", "3") == EXIT_OK
    assert capsys.readouterr().out == PINNED_BOUNDARY


def write_program(path, body, input_value=0):
    path.write_text(json.dumps({"version": 1, "input": input_value, "body": body}))
    return str(path)


def deep_pipeline(n):
    """A seq of n steps cycling reason, memory and call, each step's
    directive built from the previous step's answer."""
    answer_content = {"op": "snd", "args": [{"op": "input"}]}
    kinds = (
        {"kind": "reason", "model": "m", "prompt": {"op": "input"}, "extract": answer_content},
        {"kind": "memory", "mop": "put", "key": {"op": "str", "value": "k"},
         "value": {"op": "input"}, "extract": answer_content},
        {"kind": "call", "machine": "calc", "payload": {"op": "input"}, "extract": answer_content},
    )
    return {"kind": "seq", "steps": [kinds[i % 3] for i in range(n)]}


def test_run_deep_seq_matches_reference(tmp_path, capsys):
    body = deep_pipeline(5_000)
    trace_file = tmp_path / "t.trace"
    code = run_cli("run", write_program(tmp_path / "p.json", body), "--trace-out", str(trace_file))
    assert code == EXIT_OK
    ref = run_reference(body, 0, PERMISSIVE, 0)
    assert ref.completed
    assert capsys.readouterr().out == format_value(ref.value) + "\n"
    assert parse_trace(trace_file.read_text()) == ref.trace
    assert len(ref.trace) == 10_000


@pytest.mark.parametrize("mode", ["safety", "caps"])
def test_check_deep_seq_of_code_steps_holds(tmp_path, capsys, mode):
    step = {"kind": "code", "expr": {"op": "add", "args": [{"op": "input"}, {"op": "int", "value": 1}]}}
    program = write_program(tmp_path / "p.json", {"kind": "seq", "steps": [step] * 500})
    assert run_cli("check", program, "--mode", mode) == EXIT_OK
    out = capsys.readouterr().out
    assert out.rstrip("\n").endswith(": holds")


def assert_one_line_error(result, exit_code):
    assert result.returncode == exit_code
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("govtree: error: ")
    assert result.stdout == ""


def write_nested(path, kind, depth):
    """A program whose body is ``depth`` nested ``kind`` nodes around one
    code step, written as text: json.dumps would recurse as deep."""
    leaf = '{"kind": "code", "expr": {"op": "input"}}'
    opening, closing = {
        "seq": ('{"kind": "seq", "steps": [', "]}"),
        "tensor": ('{"kind": "tensor", "left": ', f', "right": {leaf}}}'),
        "branch": ('{"kind": "branch", "pred": {"op": "int", "value": 1}, "then": ',
                   f', "else": {leaf}}}'),
    }[kind]
    body = opening * depth + leaf + closing * depth
    path.write_text('{"version": 1, "input": 0, "body": ' + body + "}")
    return str(path)


# The deepest nestings the commands accept under the default recursion limit.
# Reading the JSON binds them (a seq level is an object and a list, so it
# counts twice); compiling runs inside the same guard, so a compiler that
# took more stack per level than the parser would lower them.
@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("kind, deepest", [("seq", 493), ("tensor", 986), ("branch", 986)])
def test_nesting_depth_limits(tmp_path, command, kind, deepest):
    ok = run_module(command, write_nested(tmp_path / "ok.json", kind, deepest))
    assert ok.returncode == EXIT_OK and ok.stderr == ""
    deeper = run_module(command, write_nested(tmp_path / "deeper.json", kind, deepest + 1))
    assert_one_line_error(deeper, EXIT_INPUT)
    assert deeper.stderr == "govtree: error: program document nested too deeply\n"


@pytest.mark.parametrize("operand", ['"x"', "0.5", "true"])
def test_non_integer_register_operand_is_an_input_error(tmp_path, operand):
    program = tmp_path / "p.json"
    program.write_text(
        '{"version": 1, "input": 0, "body": {"kind": "register_machine", "registers": 2, '
        '"fuel": 10, "program": [["inc", ' + operand + '], ["halt"]]}}'
    )
    assert_one_line_error(run_module("run", str(program)), EXIT_INPUT)


def test_missing_program_file_is_an_input_error(tmp_path):
    result = run_module("run", str(tmp_path / "missing.json"))
    assert_one_line_error(result, EXIT_INPUT)


def test_bad_json_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_one_line_error(run_module("check", str(bad)), EXIT_INPUT)


def test_unknown_node_kind_is_an_input_error(tmp_path):
    program = write_program(tmp_path / "p.json", {"kind": "teleport"})
    assert_one_line_error(run_module("run", program), EXIT_INPUT)


@pytest.mark.parametrize("flag", ["--trace-out", "--ledger-out"])
@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_unwritable_output_file_cannot_be_created(tmp_path, flag, target):
    path = tmp_path / "no" / "such" / "out.txt" if target == "missing-dir" else tmp_path
    result = run_module("run", str(PROGRAMS / "llm_pipeline.json"), flag, str(path))
    assert EXIT_CANTCREAT == 73
    assert_one_line_error(result, EXIT_CANTCREAT)
    assert str(path) in result.stderr


def test_unknown_policy_is_an_input_error():
    result = run_module("run", str(PROGRAMS / "pure.json"), "--policy", "bogus")
    assert_one_line_error(result, EXIT_INPUT)


# 1,200 steps each pairing the input with 0: the value they build nests too
# deeply to print, and with a final `len` too deeply to measure.
_PAIR_STEP = {"kind": "code",
              "expr": {"op": "pair", "args": [{"op": "input"}, {"op": "int", "value": 0}]}}
_LEN_STEP = {"kind": "code", "expr": {"op": "len", "args": [{"op": "input"}]}}


def _seq_document(steps):
    return json.dumps({"version": 1, "input": 0, "body": {"kind": "seq", "steps": steps}})


@pytest.mark.parametrize("command, document, message", [
    ("run", '{"version": 1, "input": ' + "[" * 100_000 + "]" * 100_000 + ', "body": {}}',
     "program document nested too deeply"),
    ("run", _seq_document([_PAIR_STEP] * 1200), "value nested too deeply"),
    ("run", _seq_document([_PAIR_STEP] * 1200 + [_LEN_STEP]), "value nested too deeply"),
    ("check", _seq_document([_PAIR_STEP] * 1200 + [_LEN_STEP]), "value nested too deeply"),
], ids=["json", "pairs", "pairs-len", "check-pairs-len"])
def test_over_deep_json_is_an_input_error(tmp_path, command, document, message):
    deep = tmp_path / "deep.json"
    deep.write_text(document)
    result = run_module(command, str(deep))
    assert_one_line_error(result, EXIT_INPUT)
    assert result.stderr == f"govtree: error: {message}\n"


# 3 squared 14 times has over 6,000 digits, past Python's limit on
# converting an int to text: `run` meets it printing the value, `check`
# building the prompt of the final `reason` step.
_SQUARE_STEP = {"kind": "code", "expr": {"op": "mul", "args": [{"op": "input"}, {"op": "input"}]}}
_REASON_STEP = {"kind": "reason", "model": "m", "prompt": {"op": "input"},
                "extract": {"op": "input"}}


@pytest.mark.parametrize("command, steps", [
    ("run", [_SQUARE_STEP] * 14),
    ("check", [_SQUARE_STEP] * 14 + [_REASON_STEP]),
], ids=["run", "check"])
def test_int_too_long_to_convert_is_an_input_error(tmp_path, command, steps):
    program = tmp_path / "big.json"
    body = {"kind": "seq", "steps": steps}
    program.write_text(json.dumps({"version": 1, "input": 3, "body": body}))
    result = run_module(command, str(program))
    assert_one_line_error(result, EXIT_INPUT)
    assert result.stderr == "govtree: error: integer too long to convert to text\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_non_utf8_program_is_an_input_error(tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + (PROGRAMS / "pure.json").read_bytes())
    assert_one_line_error(run_module(command, str(bad)), EXIT_INPUT)


# A JSON escape can spell an unpaired surrogate, which is no UTF-8 text: no
# answer digest, trace or ledger can encode it. The documents are written as
# text, so each \u escape reaches the JSON reader as it stands.
_SURROGATE_DOCUMENTS = {
    "input": ('{"version": 1, "input": "\\ud800", "body": {"kind": "reason", '
              '"model": "m", "prompt": {"op": "input"}, "extract": {"op": "input"}}}',
              "input value holds an unpaired surrogate"),
    "str-literal": ('{"version": 1, "input": 0, "body": {"kind": "code", '
                    '"expr": {"op": "str", "value": "a\\udfff"}}}',
                    "str literal holds an unpaired surrogate"),
    "model": ('{"version": 1, "input": 0, "body": {"kind": "reason", "model": "\\ud800", '
              '"prompt": {"op": "input"}, "extract": {"op": "input"}}}',
              "reason 'model' holds an unpaired surrogate"),
}


@pytest.mark.parametrize("command, files", [("run", False), ("run", True), ("check", False)],
                         ids=["run", "run-with-files", "check"])
@pytest.mark.parametrize("where", list(_SURROGATE_DOCUMENTS))
def test_unpaired_surrogate_is_an_input_error(tmp_path, command, files, where):
    document, message = _SURROGATE_DOCUMENTS[where]
    program = tmp_path / "s.json"
    program.write_text(document, encoding="utf-8")
    outputs = ("--trace-out", str(tmp_path / "t"), "--ledger-out", str(tmp_path / "l"))
    result = run_module(command, str(program), *(outputs if files else ()))
    assert_one_line_error(result, EXIT_INPUT)
    assert result.stderr == f"govtree: error: {message}\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_paired_surrogate_escape_runs(tmp_path, command):
    document = _SURROGATE_DOCUMENTS["input"][0].replace("\\ud800", "\\ud83d\\ude00")
    program = tmp_path / "s.json"
    program.write_text(document, encoding="utf-8")
    result = run_module(command, str(program))
    assert result.returncode == EXIT_OK and result.stderr == ""


def test_non_utf8_ledger_is_an_invalid_ledger(tmp_path):
    bad = tmp_path / "bad.ledger"
    bad.write_bytes(b"\xff\n")
    result = run_module("verify", str(bad))
    assert result.returncode == EXIT_FAIL
    stderr = result.stderr.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith("invalid ledger file: ")


# Each edit leaves a text that bytes.fromhex or strict base64 still reads
# as the same ledger, but that format_ledger never writes.
@pytest.mark.parametrize("edit", [
    lambda fields: [fields[0], fields[1].upper(), fields[2]],
    lambda fields: [fields[0], fields[1][:32] + "\t" + fields[1][32:], fields[2]],
    lambda fields: [fields[0], fields[1], fields[2][:-4] + "AR=="],
], ids=["uppercase-hash", "tab-in-hash", "nonzero-padding-bits"])
def test_verify_refuses_fields_format_ledger_never_writes(tmp_path, capsys, edit):
    trace = (GovEntry("LLMCall", True), IoEntry("LLMCall{model=m,prompt=p}"))
    header, first, second = format_ledger(trace_to_ledger(trace)).splitlines()
    assert first.endswith("AQ==")  # the pass byte 1 ends the check's encoding
    path = tmp_path / "edited.ledger"
    path.write_text("\n".join([header, " ".join(edit(first.split(" "))), second]) + "\n")
    assert run_cli("verify", str(path)) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid ledger file: line 2: ")


@pytest.mark.parametrize("command, option", [
    ("run", "--fuel"),
    ("check", "--fuel"),
    ("coherence", "--samples"),
    ("conformance", "--trials"),
    ("conformance", "--fuel"),
    ("boundary", "--trials"),
    ("boundary", "--fuel"),
    ("diff", "--trials"),
    ("diff", "--fuel"),
])
def test_negative_count_is_a_usage_error(capsys, command, option):
    program = [str(PROGRAMS / "pure.json")] if command in ("run", "check") else []
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *program, option, "-1")
    assert exc.value.code == EXIT_USAGE
    assert "must not be negative" in capsys.readouterr().err


def test_usage_error_has_its_own_exit_code():
    result = run_module("check", str(PROGRAMS / "pure.json"), "--mode", "bogus")
    assert result.returncode == EXIT_USAGE
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("govtree check: error: ")
    assert result.stdout == ""


def test_unknown_operator_is_a_usage_error():
    result = run_module("conformance", "--operator", "bogus")
    assert result.returncode == EXIT_USAGE
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert errors == [result.stderr.splitlines()[-1]]
    assert errors[0].startswith(
        "govtree conformance: error: argument --operator: invalid choice: 'bogus'"
    )
    assert result.stdout == ""


def test_make_programs_writes_runnable_programs(tmp_path):
    from govtree.program import parse_program

    script = SRC.parent / "scripts" / "make_programs.py"
    made = run_child(str(script), "--count", "5", "--seed", "1", "--out", str(tmp_path))
    assert made.returncode == 0, made.stderr
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 5
    for path in files:
        parse_program(path.read_text(encoding="utf-8"))
        result = run_module("run", str(path))
        assert result.returncode in (EXIT_OK, EXIT_DENIED, EXIT_FUEL), result.stderr
        assert "Traceback" not in result.stderr
