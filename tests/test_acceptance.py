"""Acceptance suite: the ten shipping criteria, at full scale.

Each test prints one pass/fail line (run with ``-s`` to see them live).
Scales are fixed here on purpose; do not shrink them to make a slow
machine happy.
"""

import itertools
import random
import time

from govtree.algebra import (
    BUNDLED_OPERATOR,
    check_G1,
    check_G2,
    check_G3,
    check_bind_within_caps,
    check_hexagon,
    check_pentagon,
    check_triangle,
    check_trace_of_bind,
    fingerprinting_operator,
    no_check_operator,
    result_mangling_operator,
    tamper_check,
)
from govtree.boundary import (
    EFFECTFUL_VARIANTS,
    check_register_agreement,
    enumerate_register_programs,
    run_coterminous,
)
from govtree.capability import (
    cap_empty,
    cap_full,
    cap_singleton,
    cap_subset,
    cap_union,
    no_ambient_effects_check,
    principality_check,
    trust_le,
    trust_max,
    trust_min,
    within_caps_check,
    TrustLevel,
)
from govtree.cli import diff_campaign
from govtree.directives import (
    Capability,
    Observability,
    ResponseSampler,
    derive_rng,
    mock_handler,
)
from govtree.gen import gen_directive, gen_trace
from govtree.governance import PERMISSIVE, bare_io, gov_safe_check, govern, interpret_governed, interpret_ungoverned
from govtree.itree import ret, vis
from govtree.ledger import ledger_valid, trace_to_ledger
from govtree.program import compile_ast
from govtree.gen import gen_input, gen_program_ast

SAMPLER = ResponseSampler(seed=0)
SEED = 20260810


def report(n, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {n:>2}] {label}: {status}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {n} failed: {label} {extra}"


def test_criterion_01_g1_safety_campaign():
    t0 = time.time()
    summary = check_G1(BUNDLED_OPERATOR, 10_000, 4096, SAMPLER, SEED)
    elapsed = time.time() - t0
    report(
        1,
        "G1 safety, 10,000 random programs, zero Fails",
        summary.trials == 10_000 and summary.fails == 0,
        f"holds={summary.holds} unknowns={summary.unknowns} {elapsed:.1f}s",
    )


def test_criterion_02_negative_soundness():
    failed = 0
    for i, variant in enumerate(EFFECTFUL_VARIANTS):
        d = gen_directive(derive_rng("neg", SEED, i), variant.__name__)
        if gov_safe_check(bare_io(d), False, 1000, SAMPLER).is_fails:
            failed += 1
    report(2, "bare I/O fails for all 12 effectful variants", failed == 12, f"{failed}/12")


def test_criterion_03_differential_testing():
    t0 = time.time()
    result = diff_campaign(trials=10_000, seed=SEED, fuel=100_000)
    elapsed = time.time() - t0
    report(
        3,
        "differential testing, 10,000 programs, zero disagreements",
        result.trials == 10_000 and result.passed,
        f"{elapsed:.1f}s",
    )


def test_criterion_04_coherence():
    rng = random.Random(SEED)
    n = 1000
    pent = check_pentagon(
        [(((rng.randrange(1000), rng.randrange(1000)), rng.randrange(1000)), rng.randrange(1000))
         for _ in range(n)]
    )
    tri = check_triangle(
        [((rng.randrange(1000), None), rng.randrange(1000)) for _ in range(n)]
    )
    hexa = check_hexagon(
        [((rng.randrange(1000), rng.randrange(1000)), rng.randrange(1000)) for _ in range(n)]
    )
    ok = pent.is_holds and tri.is_holds and hexa.is_holds
    report(4, "pentagon/triangle/hexagon on 1,000 tuples each", ok)


def test_criterion_05_capability_lattice_and_trust():
    subsets = [frozenset(c) for r in range(10) for c in itertools.combinations(Capability, r)]
    ok = len(subsets) == 512
    empty, full = cap_empty(), cap_full()
    for s in subsets:
        ok = ok and cap_subset(s, s)                 # reflexive
        ok = ok and cap_union(s, s) == s             # idempotent
        ok = ok and cap_subset(empty, s) and cap_subset(s, full)
    for a, b in itertools.product(subsets, repeat=2):
        ok = ok and cap_union(a, b) == cap_union(b, a)
        if cap_subset(a, b) and cap_subset(b, a):
            ok = ok and a == b                       # antisymmetric
    rng = random.Random(SEED)
    for _ in range(100_000):
        a, b, c = (rng.choice(subsets) for _ in range(3))
        ok = ok and cap_union(a, cap_union(b, c)) == cap_union(cap_union(a, b), c)
        if cap_subset(a, b) and cap_subset(b, c):
            ok = ok and cap_subset(a, c)             # transitive
    pairs = 0
    for t1, t2 in itertools.product(TrustLevel, repeat=2):
        pairs += 1
        ok = ok and (trust_le(t1, t2) or trust_le(t2, t1))
        if trust_le(t1, t2) and trust_le(t2, t1):
            ok = ok and t1 is t2
        hi, lo = trust_max(t1, t2), trust_min(t1, t2)
        ok = ok and trust_le(t1, hi) and trust_le(t2, hi) and hi in (t1, t2)
        ok = ok and trust_le(lo, t1) and trust_le(lo, t2) and lo in (t1, t2)
    report(5, "512-subset lattice exhaustive + all 36 trust pairs", ok and pairs == 36)


def _cap_primitives():
    """The four primitives as compiled program nodes, each with its AST:
    the effectful ones send the input as text and extract the status."""
    x = {"op": "input"}
    status = {"op": "fst", "args": [x]}
    asts = (
        {"kind": "code", "expr": {"op": "add", "args": [x, {"op": "int", "value": 1}]}},
        {"kind": "reason", "model": "m", "prompt": x, "extract": status},
        {"kind": "memory", "mop": "get", "key": x, "value": {"op": "str", "value": ""},
         "extract": status},
        {"kind": "call", "machine": "calc", "payload": x, "extract": status},
    )
    return tuple((ast, compile_ast(ast)) for ast in asts)


def test_criterion_06_caps_composition_and_principality():
    rng = random.Random(SEED)
    prims = _cap_primitives()
    fails = 0
    for i in range(5000):
        (fa, f), (ga, g) = rng.choice(prims), rng.choice(prims)
        if i % 2 == 0:
            v = check_bind_within_caps(fa, ga, rng.randrange(100), 300, SAMPLER)
        else:
            cm = compile_ast({"kind": "tensor", "left": fa, "right": ga})
            v = within_caps_check(
                cm.caps, cm.morph((rng.randrange(100), rng.randrange(100))), 300, SAMPLER
            )
            if cm.caps != cap_union(f.caps, g.caps):
                fails += 1
        if v.is_fails:
            fails += 1
    expected = {
        "code": cap_empty(),
        "reason": cap_singleton(Capability.LLM_REASON),
        "memory": cap_singleton(Capability.MEMORY),
        "call": cap_singleton(Capability.MACHINE_CALL),
    }
    profiles_ok = True
    for (_, cm), (name, caps) in zip(prims, expected.items()):
        profiles_ok = profiles_ok and cm.caps == caps
        profiles_ok = profiles_ok and within_caps_check(cm.caps, cm.morph(1), 300, SAMPLER).is_holds
        profiles_ok = profiles_ok and principality_check(cm, range(8), 300, SAMPLER).is_holds
    report(
        6,
        "5,000 bind/tensor caps composites + primitive profiles principal",
        fails == 0 and profiles_ok,
    )


def test_criterion_07_no_ambient_effects():
    rng = random.Random(SEED)
    violations = 0
    for _ in range(1000):
        tree = ret(rng.randrange(10))
        for _ in range(rng.randrange(5)):
            prev = tree
            tree = vis(Observability(f"note{rng.randrange(1000)}"), lambda _, p=prev: p)
        if not within_caps_check(cap_empty(), tree, 200, SAMPLER).is_holds:
            violations += 1
        if not no_ambient_effects_check(tree, 200, SAMPLER).is_holds:
            violations += 1
    report(7, "1,000 empty-caps programs emit only observability-class events", violations == 0)


def test_criterion_08_trace_and_ledger():
    ok = True
    for i in range(1000):
        rng = random.Random(i)
        f_ast = gen_program_ast(rng, max_depth=3, max_directives=3)
        x = gen_input(rng)
        k_ast = gen_program_ast(rng, max_depth=2, max_directives=2)
        v = check_trace_of_bind(f_ast, k_ast, x, PERMISSIVE, mock_handler(i), 100_000)
        ok = ok and v.is_holds
    rng = random.Random(SEED)
    for _ in range(1000):
        trace = gen_trace(rng, rng.randrange(12))
        ledger = trace_to_ledger(trace)
        ok = ok and ledger_valid(ledger) == (True, None)
        ok = ok and ledger.events() == trace  # positional completeness
    detected = mutations = 0
    for i in range(100):
        ledger = trace_to_ledger(gen_trace(random.Random(i), 1 + (i % 10)))
        r = tamper_check(ledger, mutations=100, seed=i)
        detected += r.fails
        mutations += r.trials
    ok = ok and detected == mutations == 10_000
    report(
        8,
        "trace_of_bind x1,000 + ledger validity x1,000 + 10,000 mutations detected",
        ok,
        f"detected {detected}/{mutations}",
    )


def test_criterion_09_conformance_discrimination():
    trials = 1000
    g = {
        "bundled": BUNDLED_OPERATOR,
        "no-check": no_check_operator(),
        "mangle-results": result_mangling_operator(),
        "fingerprint": fingerprinting_operator(),
    }
    results = {}
    for name, op in g.items():
        force = name != "bundled"
        results[name] = (
            check_G1(op, trials, 4096, SAMPLER, SEED, force_effectful=force).fails,
            check_G2(op, trials, 4096, SAMPLER, SEED).fails,
            check_G3(op, trials, 4096, SAMPLER, SEED).fails,
        )
    ok = results["bundled"] == (0, 0, 0)
    f1, f2, f3 = results["no-check"]
    ok = ok and f1 > 0 and f2 == 0 and f3 == 0
    f1, f2, f3 = results["mangle-results"]
    ok = ok and f1 == 0 and f2 > 0 and f3 == 0
    f1, f2, f3 = results["fingerprint"]
    ok = ok and f1 == 0 and f2 == 0 and f3 > 0
    report(
        9,
        "bundled passes G1/G2/G3; each adversary fails exactly its axiom",
        ok,
        str(results),
    )


def test_criterion_10_boundary_and_register_machines():
    t0 = time.time()
    boundary = run_coterminous(1000, 4096, SAMPLER, SEED)
    ok = boundary.passed
    programs = enumerate_register_programs(5, 50)
    agreement = check_register_agreement(programs, SAMPLER)
    ok = ok and not agreement.is_fails
    elapsed = time.time() - t0
    report(
        10,
        "boundary campaign (1,000/field) + exhaustive register agreement (len<=5, fuel 50)",
        ok,
        f"{elapsed:.1f}s",
    )
    print(boundary.render(), end="")


def test_informational_overhead_benchmark():
    # no pass/fail bound: reports governed vs ungoverned interpretation cost
    ast = {
        "kind": "seq",
        "steps": [
            {"kind": "reason", "model": "m", "prompt": {"op": "input"},
             "extract": {"op": "fst", "args": [{"op": "input"}]}},
            {"kind": "call", "machine": "calc", "payload": {"op": "input"},
             "extract": {"op": "fst", "args": [{"op": "input"}]}},
        ],
    }
    h = mock_handler(0)
    gh = govern(h)
    n = 2000
    t0 = time.time()
    for i in range(n):
        interpret_governed(gh, PERMISSIVE, compile_ast(ast)(i), 10_000)
    governed_us = (time.time() - t0) / n * 1e6
    t0 = time.time()
    for i in range(n):
        interpret_ungoverned(h, compile_ast(ast)(i), 10_000)
    plain_us = (time.time() - t0) / n * 1e6
    print(
        f"[INFO] interpretation overhead: governed {governed_us:.1f}us vs "
        f"ungoverned {plain_us:.1f}us per 2-directive program "
        f"(x{governed_us / plain_us:.2f})"
    )
