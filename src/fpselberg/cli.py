"""Command-line surface: eval, classify, verify, sweep, morris.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard.  The FPSELBERG_MAX_TERMS environment variable sets the guard's cap on
the coefficient cells of any one expansion or grid window.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import sys
from typing import Iterable

from .errors import DomainError, ResourceLimitError, _max_cells
from .modp_arith import get_context
from .selberg2d_closed import ALL_METHODS, SelbergParams, _closed_value, classify, describe, selberg_direct_2d

# sweep, verify, morris_ct and the brute-force route's selberg_core are imported
# by the commands that use them, so each command loads only the modules it runs:
# a closed or direct point query loads none of the expansion code.

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


def _point_params(args) -> tuple:
    """(params, l1, l2), params validated; the cycle is checked by the command's first call."""
    p = args.prime
    try:
        get_context(p)
    except ValueError as exc:
        raise ValueError(f"--prime: {exc}") from None
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


def _write_output(chunks: Iterable[str], out_path: str | None):
    """Write text chunks to ``out_path``, or to stdout, one write per chunk as they come.

    Both destinations follow one policy.  A reader that closes the destination
    early (``fpselberg sweep | head``, or an ``--out`` that names a pipe) ends
    the output quietly, and the command keeps its own exit code.  Any other
    OSError is a usage error, ``cannot write <stdout|path>: ...``.  After an
    error on stdout, stdout is pointed at the null device, so the flush at
    exit drops what it still holds instead of failing again.
    """
    to_stdout = out_path is None
    try:
        with contextlib.nullcontext(sys.stdout) if to_stdout else open(out_path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
    except OSError as exc:
        if to_stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write {'stdout' if to_stdout else out_path}: {exc}") from None


def _check_out(out_path: str | None):
    """Refuse, creating nothing, what ``_write_output`` would: "", a directory, a path in a missing one."""
    if out_path is None:
        return
    code = errno.EISDIR if os.path.isdir(out_path) else errno.ENOENT
    if code == errno.EISDIR or not out_path or not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ValueError(f"cannot write {out_path}: {OSError(code, os.strerror(code), out_path)}")


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


def _parse_suites(raw: list, known: tuple) -> tuple:
    if not raw:
        return known
    names = []
    for chunk in raw:
        names.extend(s.strip() for s in chunk.split(",") if s.strip())
    if not names:
        raise ValueError(f"--suite names no suite; choose from {','.join(known)}")
    unknown = set(names) - set(known)
    if unknown:
        raise ValueError(f"unknown suite(s) {sorted(unknown)}; choose from {','.join(known)}")
    return tuple(dict.fromkeys(names))


def _grid_options(args) -> dict:
    """The SweepConfig fields that verify and sweep share."""
    return {"primes": _int_list(args.primes, "--primes"), "cycle_bound": args.cycle_bound}


def _cmd_verify(args) -> int:
    from .sweep import ALL_SUITES, SweepConfig
    from .verify import render_report, run_verification

    config = SweepConfig(suites=_parse_suites(args.suite, ALL_SUITES), integer_mode=args.integer_mode,
                         **_grid_options(args))
    _check_out(args.out)  # before the suites run, not after
    report = run_verification(config)
    _write_output((render_report(report, args.format),), args.out)
    return 0 if report.failed_total == 0 else 1


def _cmd_sweep(args) -> int:
    from .sweep import SweepConfig, iter_render_sweep, iter_sweep_rows

    config = SweepConfig(suites=(), methods=(args.method,), **_grid_options(args))
    records = iter_sweep_rows(config)  # checks every resource guard before anything is written
    _write_output(iter_render_sweep(records, args.format), args.out)
    return 0


def _cmd_morris(args) -> int:
    from .morris_ct import MorrisParams, morris_ct_bruteforce, morris_lhs_symmetric_form, morris_rhs

    mp = MorrisParams(args.n, args.alpha, args.beta, args.gamma)
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
