"""The commands that load more than the point path: verify, sweep and morris.

``cli.main`` imports this module only to run one of these commands, so
``eval`` and ``classify`` compile none of it.  It never imports ``cli``:
under ``python -m fpselberg.cli`` that module runs as ``__main__``, and a
second import would compile and run ``cli.py`` again.  So ``main`` parses
and checks ``--primes`` before it calls a command here, and ``args.primes``
arrives as a tuple of odd primes.  sweep, verify and morris_ct are imported
by the command that uses them.
"""

from __future__ import annotations

import contextlib
import errno
import os
import sys
from typing import Iterable

__all__ = ["COMMANDS"]


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


def _cmd_verify(args) -> int:
    from .sweep import ALL_SUITES, SweepConfig
    from .verify import render_report, run_verification

    config = SweepConfig(args.primes, args.cycle_bound, suites=_parse_suites(args.suite, ALL_SUITES),
                         integer_mode=args.integer_mode)
    _check_out(args.out)  # before the suites run, not after
    report = run_verification(config)
    _write_output((render_report(report, args.format),), args.out)
    return 0 if report.failed_total == 0 else 1


def _cmd_sweep(args) -> int:
    from .sweep import SweepConfig, iter_render_sweep, iter_sweep_rows

    config = SweepConfig(args.primes, args.cycle_bound, methods=(args.method,), suites=())
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


COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "morris": _cmd_morris,
}
