"""The explicit-stack explorer under every bounded checker: long paths,
search order, and verdicts pinned on a generated campaign."""

import hashlib
import json
import random

import pytest

from govtree.algebra import no_check_operator
from govtree.capability import cap_empty, sample_returns, within_caps_check
from govtree.cli import EXIT_OK, main
from govtree.directives import (
    FileOp,
    HTTPRequest,
    LLMCall,
    Observability,
    ResponseSampler,
    mock_handler,
)
from govtree.gen import gen_input, gen_program_ast
from govtree.governance import Gov, Io, gov_safe_check, govern
from govtree.itree import bind, eutt_bounded, ret, tau, vis
from govtree.program import compile_ast

SAMPLER = ResponseSampler(seed=0)


def loop_program(steps: int) -> dict:
    """A register machine that loops for exactly ``steps`` steps, one
    observability event each."""
    return {
        "version": 1,
        "input": None,
        "body": {
            "kind": "register_machine",
            "registers": 2,
            "fuel": steps,
            "program": [["inc", 0], ["decjz", 1, 0]],
        },
    }


def check_cli(tmp_path, capsys, steps: int, mode: str):
    path = tmp_path / f"loop{steps}.json"
    path.write_text(json.dumps(loop_program(steps)))
    code = main(["check", str(path), "--mode", mode])
    return code, capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "mode, expected", [("safety", "safety: holds"), ("caps", "caps []: holds")]
)
def test_check_long_register_loop_holds(tmp_path, capsys, mode, expected):
    # 2,000 steps is deeper than Python's recursion limit; fuel bounds it
    assert check_cli(tmp_path, capsys, 2000, mode) == (EXIT_OK, expected)


def test_check_safety_runs_out_of_fuel_on_longer_loop(tmp_path, capsys):
    # the governed image spends one fuel on each check and each I/O step
    code, out = check_cli(tmp_path, capsys, 3000, "safety")
    assert (code, out) == (EXIT_OK, "safety: unknown (fuel-exhausted)")


def test_eutt_on_two_copies_of_long_loop():
    m = compile_ast(loop_program(2000)["body"])
    assert eutt_bounded(m(None), m(None), 4096, SAMPLER).is_holds


def test_first_fails_in_depth_first_order():
    d, d2 = LLMCall("m", "p"), FileOp("read", "x")
    # both check branches fail: the true branch is searched first
    tree = vis(
        Gov("LLMCall", d),
        lambda ok: vis(Io(d), lambda x: vis(Io(d2), lambda y: ret(None))),
    )
    v = gov_safe_check(tree, False, 100, SAMPLER)
    assert v.witness == (
        "check(LLMCall)=true",
        "io(LLMCall) answered",
        "io(FileOp) without approval",
    )


def test_fails_wins_over_earlier_unknown():
    d = FileOp("read", "x")
    long_taus = ret(None)
    for _ in range(50):
        long_taus = tau(long_taus)
    tree = vis(
        Gov("FileOp", d),
        lambda ok: long_taus if ok else vis(Io(d), lambda x: ret(None)),
    )
    v = gov_safe_check(tree, False, 10, SAMPLER)
    assert v.status == "fails"
    assert v.witness == ("check(FileOp)=false", "io(FileOp) without approval")


class TwoAnswers:
    def answers(self, event):
        return (1, 2)


def test_witness_names_the_failing_sampled_answer():
    e = "ask"
    v = eutt_bounded(
        vis(e, lambda x: ret(x)), vis(e, lambda x: ret(1)), 10, TwoAnswers()
    )
    assert v.witness == ("'ask' answered 2", "Ret 2 != Ret 1")
    caps = within_caps_check(
        cap_empty(),
        vis(Observability("a"), lambda _: vis(HTTPRequest("GET", "u", "b"), ret)),
        10,
        SAMPLER,
    )
    assert caps.witness == ("Observability", "HTTPRequest needs http")


def campaign(fuel: int) -> dict:
    """Tallies, first and longest witness, first unknown reason and a
    digest of every verdict, per checker, over 200 generated programs."""
    rng = random.Random(11)
    sampler = ResponseSampler(seed=11)
    verdicts = {k: [] for k in ("govern", "no-check", "caps", "empty-caps", "eutt")}
    returns = []
    for _ in range(200):
        ast = gen_program_ast(rng, force_effectful=True, allow_register=True)
        x = gen_input(rng)
        h = mock_handler(rng.randrange(2**32))
        m = compile_ast(ast)
        verdicts["govern"].append(gov_safe_check(govern(h).transform(m(x)), False, fuel, sampler))
        verdicts["no-check"].append(
            gov_safe_check(no_check_operator().transform(h).transform(m(x)), False, fuel, sampler)
        )
        verdicts["caps"].append(within_caps_check(m.caps, m(x), fuel, sampler))
        verdicts["empty-caps"].append(within_caps_check(cap_empty(), m(x), fuel, sampler))
        verdicts["eutt"].append(eutt_bounded(m(x), bind(m(x), ret), fuel, sampler))
        returns.append(sample_returns(m(x), fuel, sampler))
    summary = {}
    for name, vs in verdicts.items():
        witnesses = [v.witness for v in vs if v.is_fails]
        summary[name] = (
            tuple(sum(v.status == s for v in vs) for s in ("holds", "fails", "unknown")),
            witnesses[0] if witnesses else None,
            max(witnesses, key=len) if witnesses else None,
            next((v.reason for v in vs if v.is_unknown), None),
            hashlib.sha256(repr([(v.status, v.witness, v.reason) for v in vs]).encode()).hexdigest()[:16],
        )
    summary["returns"] = (
        sum(map(len, returns)),
        hashlib.sha256(repr(returns).encode()).hexdigest()[:16],
    )
    return summary


# Recorded with the recursive checkers that the explorer replaced.
NO_IO = ("io(LLMCall) without approval",)
EXPECTED = {
    4096: {
        "govern": ((200, 0, 0), None, None, None, "37d77b027a3ddf80"),
        "no-check": ((6, 194, 0), NO_IO, NO_IO, None, "2df18893578ae47f"),
        "caps": ((200, 0, 0), None, None, None, "37d77b027a3ddf80"),
        "empty-caps": (
            (17, 183, 0),
            ("LLMCall needs llm_reason",),
            ("Observability",) * 5 + ("MemoryOp needs memory",),
            None,
            "0a1981bcdda247a1",
        ),
        "eutt": ((200, 0, 0), None, None, None, "37d77b027a3ddf80"),
        "returns": (759, "e8d2dbf3f1b6bcf6"),
    },
    4: {
        "govern": ((156, 0, 44), None, None, "fuel-exhausted", "b4a2ffbe58bd49cf"),
        "no-check": ((6, 194, 0), NO_IO, NO_IO, None, "2df18893578ae47f"),
        "caps": ((176, 0, 24), None, None, "fuel-exhausted", "527482e25bb27816"),
        "empty-caps": (
            (13, 182, 5),
            ("LLMCall needs llm_reason",),
            ("Observability",) * 4 + ("LLMCall needs llm_reason",),
            "fuel-exhausted",
            "328eb83f2f920a19",
        ),
        "eutt": ((176, 0, 24), None, None, "fuel-exhausted", "527482e25bb27816"),
        "returns": (486, "ae4b90b675b5f210"),
    },
}


@pytest.mark.parametrize("fuel", sorted(EXPECTED))
def test_campaign_verdicts_pinned(fuel):
    assert campaign(fuel) == EXPECTED[fuel]


def test_shared_sampler_gives_the_verdicts_of_fresh_ones():
    # one sampler's answer table serving 3,000 programs changes no verdict
    rng = random.Random(23)
    shared = ResponseSampler(seed=23)
    for i in range(3000):
        ast = gen_program_ast(rng, force_effectful=True, allow_register=True)
        x = gen_input(rng)
        h = mock_handler(rng.randrange(2**32))
        m = compile_ast(ast)
        checks = (
            lambda s: gov_safe_check(govern(h).transform(m(x)), False, 4096, s),
            lambda s: gov_safe_check(
                no_check_operator().transform(h).transform(m(x)), False, 4096, s
            ),
            lambda s: within_caps_check(m.caps, m(x), 4096, s),
            lambda s: eutt_bounded(m(x), bind(m(x), ret), 4096, s),
        )
        for check in checks:
            v, w = check(shared), check(ResponseSampler(seed=23))
            assert (v.status, v.witness, v.reason) == (w.status, w.witness, w.reason), i


class CountingSampler:
    """A sampler that counts the ``answers`` calls a check makes."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.calls = 0

    def answers(self, event):
        self.calls += 1
        return self.sampler.answers(event)


def test_three_checks_pinned_on_1500_effectful_programs():
    # check-small's three checks, depth-first order included: each
    # program's verdicts and its count of sampler calls (the events a
    # checker expanded) are pinned
    rng = random.Random(41)
    sampler = ResponseSampler(seed=41)
    rows = []
    for _ in range(1500):
        m = compile_ast(gen_program_ast(rng, allow_register=True, force_effectful=True))
        x = gen_input(rng)
        h = mock_handler(rng.randrange(2**32))
        counting = CountingSampler(sampler)
        verdicts = (
            gov_safe_check(govern(h).transform(m(x)), False, 4096, counting),
            gov_safe_check(no_check_operator().transform(h).transform(m(x)), False, 4096, counting),
            within_caps_check(m.caps, m(x), 4096, counting),
        )
        rows.append((tuple((v.status, v.witness, v.reason) for v in verdicts), counting.calls))
    statuses = [s for vs, _ in rows for s, _, _ in vs]
    assert (statuses.count("holds"), statuses.count("fails"), statuses.count("unknown")) == (
        3062, 1438, 0
    )
    assert sum(calls for _, calls in rows) == 45042
    assert hashlib.sha256(repr([vs for vs, _ in rows]).encode()).hexdigest()[:16] == "0f3b85b596ac1d5b"
    assert hashlib.sha256(repr([calls for _, calls in rows]).encode()).hexdigest()[:16] == (
        "33c0357710429969"
    )
