"""Deterministic parameter sweeps: one row per (p, a, b, c, l1, l2).

A sweep evaluates one route and classifies every 0 < a, b, c < p on every
cycle 1 <= l1 <= l2 <= bound.  Rows are made serially in lexicographic
parameter order and rendered as they come, which makes CSV/JSON sweep
output byte-identical regardless of ``--jobs``.  This module loads only the
evaluation layers; the verifier reads its configuration from here.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Iterator

from .modp_arith import get_context
from .selberg_core import _grid_window, selberg_grid
from .selberg2d_closed import (ALL_METHODS, _CYCLE_CLASSES, _OTHER_CLASS, Branch, SelbergParams, _closed_value,
                               _direct_coefficient, in_condition_sets)

__all__ = [
    "ALL_SUITES",
    "SWEEP_CSV_HEADER",
    "SweepConfig",
    "iter_render_sweep",
    "iter_sweep_rows",
    "render_sweep",
    "sweep_rows",
]

# The verify suites a configuration may select, in the order verify runs them.
ALL_SUITES = ("oracle_equiv", "recurrences", "relations", "vanishing", "morris", "stokes", "nd")
SWEEP_CSV_HEADER = "p,a,b,c,l1,l2,branch,value,in_R1,in_R2,in_R3"


class SweepConfig(namedtuple("SweepConfig", "primes cycle_bound methods suites integer_mode parallelism")):
    """Shared configuration for verification runs and sweeps; a sweep's values use ``methods[0]``.

    The primes are kept sorted and without repeats, so sweep rows come out
    lexicographic in (p, a, b, c, l1, l2).
    """

    __slots__ = ()

    def __new__(cls, primes: tuple = (3, 5, 7, 11, 13), cycle_bound: int = 4, methods: tuple = ALL_METHODS,
                suites: tuple = ALL_SUITES, integer_mode: bool = False, parallelism: int = 1):
        if not primes:
            raise ValueError("at least one prime is required")
        for p in primes:
            get_context(p)  # validates the prime
        if not isinstance(cycle_bound, int):
            raise ValueError(f"cycle_bound must be an integer, got {cycle_bound!r}")
        if cycle_bound < 1:
            raise ValueError(f"cycle_bound must be >= 1, got {cycle_bound}")
        bad = set(methods) - set(ALL_METHODS)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        bad = set(suites) - set(ALL_SUITES)
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")
        if not methods:
            raise ValueError("at least one method is required")
        if not isinstance(parallelism, int):
            raise ValueError(f"parallelism must be an integer, got {parallelism!r}")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        return super().__new__(cls, tuple(sorted(set(primes))), cycle_bound, methods, suites,
                               integer_mode, parallelism)

    def cycles(self) -> Iterator[tuple]:
        """The cycles (l1, l2) with 1 <= l1 <= l2 <= cycle_bound in lexicographic order, one at a time."""
        return itertools.combinations_with_replacement(range(1, self.cycle_bound + 1), 2)


def _check_sweep(method: str, p: int, config: SweepConfig):
    """Raise ResourceLimitError if some row of ``method`` at p would hit a resource guard.

    Brute force reads the grid, whose smallest window must fit the cap (its
    cycles are counted, not made); the closed and direct routes read the
    factorial tables.
    """
    if method == "bruteforce":
        _grid_window(p, 2, p, config.cycle_bound * (config.cycle_bound + 1) // 2, config.cycle_bound)
    else:
        get_context(p).check_table_size()


# A row's branch column, read from a table rather than the enum's value descriptor.
_BRANCH_NAMES = {branch: branch.value for branch in Branch}


def _sweep_rows(config: SweepConfig, method: str) -> Iterator[tuple]:
    names, class_of = _BRANCH_NAMES, _CYCLE_CLASSES.get  # a class is (label, classifier)
    if method == "bruteforce":
        # Only brute force lists the cycles: its grid guard has bounded their count.
        cycles = tuple(config.cycles())
        classifiers = tuple(class_of(cycle, _OTHER_CLASS)[1] for cycle in cycles)
        for p in config.primes:
            walk = selberg_grid(p, cycles)
            next(walk)  # a = 0 has no rows
            for a, (values, _) in enumerate(walk, 1):
                slab = values.tolist()  # [b][c][cycle]
                for b, c in itertools.product(range(1, p), repeat=2):
                    r1, r2, r3 = in_condition_sets(SelbergParams(a, b, c, p))
                    for (l1, l2), classifier, cell in zip(cycles, classifiers, slab[b][c]):
                        yield p, a, b, c, l1, l2, names[classifier(a, b, c, p)], cell, r1, r2, r3
        return
    for p in config.primes:
        ctx = get_context(p)
        for a, b, c in itertools.product(range(1, p), repeat=3):
            params = SelbergParams(a, b, c, p)
            r1, r2, r3 = in_condition_sets(params)
            # Each point walks the cycles afresh, so any cycle bound streams.
            if method == "closed":
                for cycle in config.cycles():
                    branch = class_of(cycle, _OTHER_CLASS)[1](a, b, c, p)
                    yield (p, a, b, c, *cycle, names[branch], _closed_value(branch, params), r1, r2, r3)
            else:
                for cycle in config.cycles():
                    l1, l2 = cycle
                    yield (p, a, b, c, l1, l2, names[class_of(cycle, _OTHER_CLASS)[1](a, b, c, p)],
                           _direct_coefficient(ctx, a, b, c, l1 * p - 1, l2 * p - 1), r1, r2, r3)


def iter_sweep_rows(config: SweepConfig) -> Iterator[tuple]:
    """One row per (p, a, b, c, l1, l2), in lexicographic order, as a generator.

    Every resource guard a row could hit is checked for every prime when
    this is called, before the first row is made, so a sweep that would be
    refused is refused before anything is written.  The value column uses
    the first configured method; brute force walks each prime's grid in
    ascending a as that prime's rows are made, one window of a values built
    at a time where the whole box is over the cap.  Rows are made
    serially; ``config.parallelism`` is not used.  Each row is a tuple in
    ``SWEEP_CSV_HEADER`` column order, with the branch as its name and the
    R1-R3 memberships as bools.  Its branch is classified once, by its
    cycle's classifier in the cycle-class table, its cycle not re-checked;
    the closed and direct routes look that classifier up per row, walking
    the cycles afresh at every point, so they never list the cycles and
    stream at any cycle bound.
    """
    method = config.methods[0]
    for p in config.primes:
        _check_sweep(method, p, config)
    return _sweep_rows(config, method)


def sweep_rows(config: SweepConfig) -> list:
    """The rows of ``iter_sweep_rows`` as a list."""
    return list(iter_sweep_rows(config))


_BOOL = ("false", "true")


def iter_render_sweep(rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """Sweep output in ``fmt`` (csv, json or text), one chunk per row after a header.

    The json chunks join to exactly ``json.dumps({"schema": 1, "kind":
    "sweep", "rows": rows}, sort_keys=True, indent=2) + "\\n"`` with each row
    as the dict of its ``SWEEP_CSV_HEADER`` columns: each row fills a fixed
    template with its keys in sorted order.  Branch names are plain
    identifiers, so the branch string needs no escaping.  Every format formats
    the columns a row shares with its point (p, a, b, c, R1-R3) once per run.
    """
    if fmt not in ("csv", "json", "text"):
        raise ValueError(f"sweep format must be csv, json or text, got {fmt!r}")
    point = None  # the shared columns (p, a, b, c, R1-R3) of the rows last rendered
    if fmt == "csv":
        yield SWEEP_CSV_HEADER + "\n"
        for p, a, b, c, l1, l2, branch, value, r1, r2, r3 in rows:
            if (p, a, b, c, r1, r2, r3) != point:
                point = p, a, b, c, r1, r2, r3
                head, tail = f"{p},{a},{b},{c},", f",{_BOOL[r1]},{_BOOL[r2]},{_BOOL[r3]}\n"
            yield f"{head}{l1},{l2},{branch},{value}{tail}"
    elif fmt == "json":
        yield '{\n  "kind": "sweep",\n  "rows": ['
        sep = "\n"
        for p, a, b, c, l1, l2, branch, value, r1, r2, r3 in rows:
            if (p, a, b, c, r1, r2, r3) != point:
                point = p, a, b, c, r1, r2, r3
                head = f'    {{\n      "a": {a},\n      "b": {b},\n      "branch": "'
                middle = (f'",\n      "c": {c},\n      "in_R1": {_BOOL[r1]},\n      "in_R2": {_BOOL[r2]},\n'
                          f'      "in_R3": {_BOOL[r3]},\n      "l1": ')
                tail = f',\n      "p": {p},\n      "value": '
            yield f'{sep}{head}{branch}{middle}{l1},\n      "l2": {l2}{tail}{value}\n    }}'
            sep = ",\n"
        yield ("]" if sep == "\n" else "\n  ]") + ',\n  "schema": 1\n}\n'
    else:
        yield (f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
               f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}\n")
        for p, a, b, c, l1, l2, branch, value, r1, r2, r3 in rows:
            if (p, a, b, c, r1, r2, r3) != point:
                point = p, a, b, c, r1, r2, r3
                head, tail = f"{p:>3} {a:>3} {b:>3} {c:>3} ", f" {_BOOL[r1]:>5} {_BOOL[r2]:>5} {_BOOL[r3]:>5}\n"
            yield f"{head}{l1:>2} {l2:>2} {branch:<22} {value:>5}{tail}"


def render_sweep(rows: Iterable[tuple], fmt: str) -> str:
    """The chunks of ``iter_render_sweep`` as one string."""
    return "".join(iter_render_sweep(rows, fmt))
