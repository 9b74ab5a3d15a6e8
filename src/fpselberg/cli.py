"""Command-line surface: eval, classify, verify, sweep, morris.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard.  The FPSELBERG_MAX_TERMS environment variable overrides the
polynomial-size resource guard.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DomainError, ResourceLimitError
from .modp_arith import get_context
from .morris_ct import MorrisParams, morris_ct_bruteforce, morris_lhs_symmetric_form, morris_rhs
from .selberg_core import SelbergParams, _max_cells, selberg_bruteforce, selberg_direct_2d
from .selberg2d_closed import classify, describe, eval_closed
from .verify import (
    ALL_METHODS,
    ALL_SUITES,
    SweepConfig,
    render_report,
    render_sweep,
    run_verification,
    sweep_rows,
)

__all__ = ["build_parser", "entry_point", "main"]


class UsageError(Exception):
    pass


def _int_list(text: str, name: str, count: int | None = None) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{name} expects comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"{name} expects {count} comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpselberg",
        description="Evaluate and machine-check finite-field Selberg integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(sp):
        sp.add_argument("-p", "--prime", type=int, required=True, help="odd prime p")
        sp.add_argument("-a", type=int, help="parameter a (0 < a < p)")
        sp.add_argument("-b", type=int, help="parameter b (0 < b < p)")
        sp.add_argument("-c", type=int, help="parameter c (0 < c < p)")
        sp.add_argument("--params", help="a,b,c as one comma-separated triple")
        sp.add_argument("-l", "--cycle", required=True, help="cycle as l1,l2")

    sp = sub.add_parser("eval", help="evaluate one integral")
    add_point_args(sp)
    sp.add_argument("--method", choices=ALL_METHODS, default="closed")
    sp.add_argument("--integer-mode", action="store_true",
                    help="with --method bruteforce, also print the exact integer coefficient")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="print the instantiated formula and factorial arguments")

    sp = sub.add_parser("classify", help="explain which case applies")
    add_point_args(sp)

    sp = sub.add_parser("verify", help="run exhaustive verification suites")
    sp.add_argument("--suite", action="append", default=[],
                    help=f"suite name(s), comma-separated; default: all ({','.join(ALL_SUITES)})")
    sp.add_argument("--primes", default="3,5,7,11,13", help="comma-separated odd primes")
    sp.add_argument("--cycle-bound", type=int, default=4)
    sp.add_argument("--integer-mode", action="store_true",
                    help="also check integer-level vanishing with the exact oracle")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for symmetry with sweep and checked to be >= 1;"
                         " verify always runs its suites serially")

    sp = sub.add_parser("sweep", help="emit one row per (p,a,b,c,l1,l2)")
    sp.add_argument("--primes", default="3,5,7,11,13", help="comma-separated odd primes")
    sp.add_argument("--cycle-bound", type=int, default=4)
    sp.add_argument("--method", choices=ALL_METHODS, default="closed",
                    help="evaluation route for the value column")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", help="write rows to this path instead of stdout")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for symmetry with verify and checked to be >= 1;"
                         " sweep always builds its rows serially")

    sp = sub.add_parser("morris", help="check the constant-term identity at one point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--gamma", type=int, required=True)

    return parser


def _point_params(args) -> tuple:
    p = args.prime
    try:
        get_context(p)
    except ValueError as exc:
        raise UsageError(f"--prime: {exc}") from None
    if args.params is not None:
        if any(v is not None for v in (args.a, args.b, args.c)):
            raise UsageError("give either --params a,b,c or the -a/-b/-c flags, not both")
        a, b, c = _int_list(args.params, "--params", 3)
    else:
        if any(v is None for v in (args.a, args.b, args.c)):
            raise UsageError("parameters a, b, c are required (use -a/-b/-c or --params)")
        a, b, c = args.a, args.b, args.c
    try:
        params = SelbergParams(a, b, c, p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    l1, l2 = _int_list(args.cycle, "--cycle", 2)
    if l1 < 1 or l2 < 1:
        raise UsageError(f"cycle entries must be positive integers, got {args.cycle!r}")
    return params, l1, l2


def _write_output(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from None


def _cmd_eval(args) -> int:
    if args.integer_mode and args.method != "bruteforce":
        raise UsageError(f"--integer-mode needs --method bruteforce, got --method {args.method}")
    params, l1, l2 = _point_params(args)
    branch = classify(params, l1, l2)
    print(f"p={params.p} a={params.a} b={params.b} c={params.c} "
          f"cycle=[{l1},{l2}] method={args.method}")
    if args.method == "bruteforce":
        if args.integer_mode:
            exact = selberg_bruteforce(params.spec(2), (l1, l2), exact=True)
            print(f"integer S = {exact}")
        value = selberg_bruteforce(params.spec(2), (l1, l2))
    elif args.method == "direct":
        value = selberg_direct_2d(params, l1, l2)
    else:
        value = eval_closed(params, l1, l2)
    print(f"value = {value}")
    print(f"branch = {branch}")
    if args.verbose:
        print(describe(params, l1, l2))
    return 0


def _cmd_classify(args) -> int:
    params, l1, l2 = _point_params(args)
    print(describe(params, l1, l2))
    return 0


def _parse_suites(raw: list) -> tuple:
    if not raw:
        return ALL_SUITES
    names = []
    for chunk in raw:
        names.extend(s.strip() for s in chunk.split(",") if s.strip())
    if not names:
        raise UsageError(f"--suite names no suite; choose from {','.join(ALL_SUITES)}")
    unknown = set(names) - set(ALL_SUITES)
    if unknown:
        raise UsageError(f"unknown suite(s) {sorted(unknown)}; choose from {','.join(ALL_SUITES)}")
    return tuple(dict.fromkeys(names))


def _common_config(args, suites=(), methods=ALL_METHODS) -> SweepConfig:
    primes = _int_list(args.primes, "--primes")
    if not primes:
        raise UsageError("--primes must list at least one odd prime")
    try:
        return SweepConfig(
            primes=primes,
            cycle_bound=args.cycle_bound,
            methods=methods,
            suites=suites,
            integer_mode=getattr(args, "integer_mode", False),
            output_format=args.format,
            parallelism=args.jobs,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_verify(args) -> int:
    config = _common_config(args, suites=_parse_suites(args.suite))
    report = run_verification(config)
    _write_output(render_report(report, config.output_format), args.out)
    return 0 if report.failed_total == 0 else 1


def _cmd_sweep(args) -> int:
    config = _common_config(args, suites=(), methods=(args.method,))
    rows = sweep_rows(config)
    _write_output(render_sweep(rows, config.output_format), args.out)
    return 0


def _cmd_morris(args) -> int:
    try:
        mp = MorrisParams(args.n, args.alpha, args.beta, args.gamma)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rhs = morris_rhs(mp)
    ct = morris_ct_bruteforce(mp)
    sym = morris_lhs_symmetric_form(mp)
    print(f"n={mp.n} alpha={mp.alpha} beta={mp.beta} gamma={mp.gamma}")
    print(f"constant term      = {ct}")
    print(f"product formula    = {rhs}")
    print(f"difference form    = {sym}")
    ok = ct == rhs == sym
    print("identity holds" if ok else "MISMATCH")
    return 0 if ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "morris": _cmd_morris,
}


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _max_cells()  # a malformed FPSELBERG_MAX_TERMS is a usage error, not a failed check
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
