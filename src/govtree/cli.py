"""Command-line surface.

Subcommands: ``run`` a program file (writing trace and ledger files),
``verify`` a ledger file, ``check`` a program for safety or capability
bounds, and the campaign drivers ``coherence``, ``conformance``,
``boundary``, and ``diff``. Every command is deterministic: ``run``
given ``--handler-seed``, and each command that draws values given
``--seed`` (default: the ``GOVTREE_SEED`` environment variable, else 0).

Exit codes: 0 success / value produced, 1 verification or suite failure,
2 governance denial, 3 fuel exhausted, 64 usage error (bad arguments,
negative counts, a non-integer ``GOVTREE_SEED``), 65 input error
(unreadable, non-UTF-8 or malformed program file, a program string
holding an unpaired surrogate such as a ``\\ud800`` escape, unknown
policy, a value that ``run`` or ``check`` builds nested too deeply or an
integer too long to convert to text), 73 cannot create an output file (a
``--trace-out`` or ``--ledger-out`` path that cannot be written). An
input error, an output file that cannot be written or a bad
``GOVTREE_SEED`` prints one ``govtree: error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import (
    ADVERSARIAL_OPERATORS, CheckSummary, operator_by_name, run_campaign, run_conformance,
)
from .boundary import run_coterminous
from .capability import format_caps, within_caps_check
from .category import check_hexagon, check_pentagon, check_triangle
from .directives import ResponseSampler, derive_rng, mock_handler
from .gen import gen_input, gen_policy, gen_program_ast
from .governance import gov_safe_check, govern, interpret_governed, policy_by_name
from .itree import combine_verdicts, fails, holds
from .ledger import format_ledger, ledger_valid, parse_ledger, trace_to_ledger
from .program import ProgramError, compile_ast, format_value, parse_program
from .reference import run_reference
from .trace import format_trace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DENIED = 2
EXIT_FUEL = 3
EXIT_USAGE = 64  # sysexits EX_USAGE
EXIT_INPUT = 65  # sysexits EX_DATAERR
EXIT_CANTCREAT = 73  # sysexits EX_CANTCREAT

DEFAULT_FUEL = 100_000


def _default_seed() -> int:
    text = os.environ.get("GOVTREE_SEED", "0")
    try:
        return int(text)
    except ValueError:  # a usage error, raised as argparse raises its own
        raise SystemExit(_error(f"GOVTREE_SEED is not an integer: {text!r}", EXIT_USAGE))


def render_diff(summary: CheckSummary) -> str:
    lines = [f"differential campaign: {summary.trials} trials"]
    for key, witness in summary.fail_witnesses[:10]:
        lines.append(f"disagreement at trial {key}: {' / '.join(witness)}")
    lines.append(f"disagreements={summary.fails} " + ("PASS" if summary.passed else "FAIL"))
    return "".join(line + "\n" for line in lines)


def diff_campaign(trials: int, seed: int, fuel: int, bug: str | None = None) -> CheckSummary:
    """Run random programs through both pipelines and compare outcomes.

    Each trial draws a program, input, policy, and handler seed; the tree
    pipeline and the reference interpreter must agree on completion,
    value, denial, and the exact trace.
    """

    def trial(rng, i):
        ast = gen_program_ast(rng, allow_register=True)
        input_value = gen_input(rng)
        policy = gen_policy(rng)
        handler_seed = rng.randrange(2**32)
        tree_out = interpret_governed(
            govern(mock_handler(handler_seed)), policy, compile_ast(ast)(input_value), fuel
        )
        ref_out = run_reference(ast, input_value, policy, handler_seed, bug=bug)
        if tree_out == ref_out:  # completion, value, trace and denial
            return holds()
        return fails((
            f"tree=({tree_out.completed}, {tree_out.value!r}, denied={tree_out.denied}, "
            f"{len(tree_out.trace)} events) "
            f"ref=({ref_out.completed}, {ref_out.value!r}, denied={ref_out.denied}, "
            f"{len(ref_out.trace)} events) policy={policy.name}",
        ))

    return run_campaign("diff", "diff", seed, trials, trial)


def _cmd_run(args) -> int:
    program = parse_program(_read(args.program))
    try:
        policy = policy_by_name(args.policy)
    except ValueError as e:
        return _error(e)
    gh = govern(mock_handler(args.handler_seed))
    outcome = interpret_governed(gh, policy, program.compile()(program.input_value), args.fuel)
    try:
        if args.trace_out:
            _write(args.trace_out, format_trace(outcome.trace))
        if args.ledger_out:
            _write(args.ledger_out, format_ledger(trace_to_ledger(outcome.trace)))
    except OSError as e:
        return _error(e, EXIT_CANTCREAT)
    if outcome.completed:
        print(format_value(outcome.value))
        return EXIT_OK
    if outcome.denied:
        print("denied", file=sys.stderr)
        return EXIT_DENIED
    print("fuel exhausted", file=sys.stderr)
    return EXIT_FUEL


def _cmd_verify(args) -> int:
    try:
        ledger = parse_ledger(_read(args.ledger))
    except ValueError as e:
        print(f"invalid ledger file: {e}", file=sys.stderr)
        return EXIT_FAIL
    ok, index = ledger_valid(ledger)
    if ok:
        print(f"valid ({len(ledger.entries)} entries)")
        return EXIT_OK
    print(f"invalid at index {index}")
    return EXIT_FAIL


def _cmd_check(args) -> int:
    program = parse_program(_read(args.program))
    compiled = program.compile()
    tree = compiled(program.input_value)
    sampler = ResponseSampler(seed=args.seed)
    if args.mode == "caps":
        verdict = within_caps_check(compiled.caps, tree, args.fuel, sampler)
        print(f"caps {format_caps(compiled.caps)}: {verdict.describe()}")
        return EXIT_OK if not verdict.is_fails else EXIT_FAIL
    # The governed transform never calls its base handler, so any seed will do.
    verdict = gov_safe_check(govern(mock_handler(0)).transform(tree), False, args.fuel, sampler)
    print(f"safety: {verdict.describe()}")
    return EXIT_OK if not verdict.is_fails else EXIT_FAIL


def _cmd_coherence(args) -> int:
    rng = derive_rng("coherence", args.seed)

    def nested(depth):
        if depth == 0:
            return rng.randrange(100)
        return (nested(depth - 1), nested(depth - 1))

    pent = check_pentagon([(((rng.randrange(100), rng.randrange(100)), nested(1)), nested(1)) for _ in range(args.samples)])
    tri = check_triangle([((rng.randrange(100), None), rng.randrange(100)) for _ in range(args.samples)])
    hexa = check_hexagon([((nested(1), rng.randrange(100)), nested(1)) for _ in range(args.samples)])
    for name, verdict in (("pentagon", pent), ("triangle", tri), ("hexagon", hexa)):
        print(f"{name:<9} {verdict.describe()}")
    return EXIT_OK if combine_verdicts((pent, tri, hexa)).is_holds else EXIT_FAIL


def _cmd_conformance(args) -> int:
    op = operator_by_name(args.operator)
    sampler = ResponseSampler(seed=args.seed)
    report = run_conformance(op, args.trials, args.fuel, sampler, args.seed)
    print(report.render(), end="")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_boundary(args) -> int:
    sampler = ResponseSampler(seed=args.seed)
    report = run_coterminous(args.trials, args.fuel, sampler, args.seed)
    print(report.render(), end="")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_diff(args) -> int:
    summary = diff_campaign(args.trials, args.seed, args.fuel)
    print(render_diff(summary), end="")
    return EXIT_OK if summary.passed else EXIT_FAIL


def _error(message, code: int = EXIT_INPUT) -> int:
    print(f"govtree: error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    # newline="" keeps line endings as they are, so a CRLF ledger is refused
    with open(path, "r", encoding="utf-8", newline="") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _add_common(p, fuel_default=DEFAULT_FUEL):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fuel", type=non_negative_int, default=fuel_default)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on their own exit code."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if getattr(namespace, "seed", 0) is None:  # read GOVTREE_SEED only if needed
            namespace.seed = _default_seed()
        return namespace, rest

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="govtree", description="governed interaction-tree runtime"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program file under governance")
    p_run.add_argument("program")
    p_run.add_argument("--policy", default="permissive",
                       help="permissive | denying | tags:TAG,TAG,...")
    p_run.add_argument("--handler-seed", type=int, default=0)
    p_run.add_argument("--trace-out")
    p_run.add_argument("--ledger-out")
    p_run.add_argument("--fuel", type=non_negative_int, default=DEFAULT_FUEL)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="verify a ledger file")
    p_verify.add_argument("ledger")
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser("check", help="check a program for safety or caps")
    p_check.add_argument("program")
    p_check.add_argument("--mode", choices=("safety", "caps"), default="safety")
    _add_common(p_check, fuel_default=4096)
    p_check.set_defaults(func=_cmd_check)

    p_coh = sub.add_parser("coherence", help="pentagon/triangle/hexagon checks")
    p_coh.add_argument("--samples", type=non_negative_int, default=1000)
    p_coh.add_argument("--seed", type=int, default=None)
    p_coh.set_defaults(func=_cmd_coherence)

    p_conf = sub.add_parser("conformance", help="axiom conformance for an operator")
    p_conf.add_argument("--operator", choices=("bundled", *ADVERSARIAL_OPERATORS),
                        default="bundled")
    p_conf.add_argument("--trials", type=non_negative_int, default=200)
    _add_common(p_conf, fuel_default=4096)
    p_conf.set_defaults(func=_cmd_conformance)

    p_bound = sub.add_parser("boundary", help="coterminous boundary campaign")
    p_bound.add_argument("--trials", type=non_negative_int, default=200)
    _add_common(p_bound, fuel_default=4096)
    p_bound.set_defaults(func=_cmd_boundary)

    p_diff = sub.add_parser("diff", help="differential test against the reference interpreter")
    p_diff.add_argument("--trials", type=non_negative_int, default=1000)
    _add_common(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProgramError, OSError, UnicodeDecodeError) as e:
        return _error(e)
    except RecursionError:  # a value the program built, too deep to compute or print
        if args.func not in (_cmd_run, _cmd_check):
            raise
        return _error("value nested too deeply")
    except ValueError as e:  # int to str past sys.get_int_max_str_digits()
        if args.func not in (_cmd_run, _cmd_check) or "integer string conversion" not in str(e):
            raise
        return _error("integer too long to convert to text")


if __name__ == "__main__":
    sys.exit(main())
