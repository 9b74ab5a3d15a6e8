"""Command-line surface: eval, classify, verify, sweep, morris.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard.  The FPSELBERG_MAX_TERMS environment variable sets the guard's cap on
the coefficient cells of any one expansion or grid window.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import DomainError, ResourceLimitError, _max_cells
from .modp_arith import get_context
from .selberg2d_closed import ALL_METHODS, SelbergParams, _closed_value, classify, describe, selberg_direct_2d

# verify, sweep and morris live in ``batch``, which main imports only for them, and
# the brute-force route imports selberg_core where it runs, so each command loads
# only the modules it runs: a closed or direct point query compiles neither the
# batch commands nor any of the expansion code.

__all__ = ["build_parser", "entry_point", "main"]


def _int_list(text: str, name: str, count: int | None = None) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{name} expects comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise ValueError(f"{name} expects {count} comma-separated integers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1, so a bad value is reported against its flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects an integer >= 1, got {text!r}")
    return value


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
                    help="suite name(s), comma-separated; default: every suite")
    sp.add_argument("--primes", default="3,5,7,11,13", help="comma-separated odd primes")
    sp.add_argument("--cycle-bound", type=_positive_int, default=4)
    sp.add_argument("--integer-mode", action="store_true",
                    help="also check integer-level vanishing with the exact oracle")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="accepted for symmetry with sweep and checked to be >= 1;"
                         " verify always runs its suites serially")

    sp = sub.add_parser("sweep", help="emit one row per (p,a,b,c,l1,l2)")
    sp.add_argument("--primes", default="3,5,7,11,13", help="comma-separated odd primes")
    sp.add_argument("--cycle-bound", type=_positive_int, default=4)
    sp.add_argument("--method", choices=ALL_METHODS, default="closed",
                    help="evaluation route for the value column")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", help="write rows to this path instead of stdout")
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="accepted for symmetry with verify and checked to be >= 1;"
                         " sweep always builds its rows serially")

    sp = sub.add_parser("morris", help="check the constant-term identity at one point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--gamma", type=int, required=True)

    return parser


def _prime(p: int, flag: str) -> int:
    """``p`` once it is an odd prime; otherwise a usage error that names ``flag``."""
    try:
        get_context(p)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return p


def _point_params(args) -> tuple:
    """(params, l1, l2), params validated; the cycle is checked by the command's first call."""
    p = _prime(args.prime, "--prime")
    if args.params is not None:
        if any(v is not None for v in (args.a, args.b, args.c)):
            raise ValueError("give either --params a,b,c or the -a/-b/-c flags, not both")
        a, b, c = _int_list(args.params, "--params", 3)
    else:
        if any(v is None for v in (args.a, args.b, args.c)):
            raise ValueError("parameters a, b, c are required (use -a/-b/-c or --params)")
        a, b, c = args.a, args.b, args.c
    params = SelbergParams(a, b, c, p)
    l1, l2 = _int_list(args.cycle, "--cycle", 2)
    return params, l1, l2


def _cmd_eval(args) -> int:
    if args.integer_mode and args.method != "bruteforce":
        raise ValueError(f"--integer-mode needs --method bruteforce, got --method {args.method}")
    params, l1, l2 = _point_params(args)
    branch = classify(params, l1, l2)  # checks the cycle, for every route
    # Every value is computed before the first line is printed, so a refused
    # point prints nothing to stdout.
    exact = None
    if args.method == "bruteforce":
        from .selberg_core import selberg_bruteforce

        if args.integer_mode:
            exact = selberg_bruteforce(params.spec(2), (l1, l2), exact=True)
        value = selberg_bruteforce(params.spec(2), (l1, l2))
    elif args.method == "direct":
        value = selberg_direct_2d(params, l1, l2)
    else:
        value = _closed_value(branch, params)
    print(f"p={params.p} a={params.a} b={params.b} c={params.c} "
          f"cycle=[{l1},{l2}] method={args.method}")
    if exact is not None:
        print(f"integer S = {exact}")
    print(f"value = {value}")
    print(f"branch = {branch}")
    if args.verbose:  # the closed route's value is the one describe prints
        print(describe(params, l1, l2, branch, value if args.method == "closed" else None))
    return 0


def _cmd_classify(args) -> int:
    params, l1, l2 = _point_params(args)
    print(describe(params, l1, l2))
    return 0


_POINT_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
}


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _max_cells()  # a malformed FPSELBERG_MAX_TERMS is a usage error, not a failed check
        if args.command in _POINT_COMMANDS:
            return _POINT_COMMANDS[args.command](args)
        if hasattr(args, "primes"):  # verify and sweep
            args.primes = tuple(_prime(p, "--primes") for p in _int_list(args.primes, "--primes"))
        from .batch import COMMANDS

        return COMMANDS[args.command](args)
    except (ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


def entry_point():
    # The package asks numpy only for elementwise integer arithmetic, never
    # BLAS, so it starts OpenBLAS with one thread unless the user chose.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    # The interpreter's shutdown collections walk every object the imports
    # made (about 12,000, 21,000 with numpy), to free nothing a command
    # needs: the package registers no finalizer that matters at exit, and
    # `--out` is closed by its `with` block before main returns.  Freezing
    # moves them to the permanent generation those collections skip; module
    # teardown, atexit handlers and the final flush of stdout and stderr
    # still run.  Only the command freezes, never main, so a process that
    # calls main keeps its collector.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
