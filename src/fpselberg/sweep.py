"""Deterministic parameter sweeps: one row per (p, a, b, c, l1, l2).

A sweep evaluates one route and classifies every 0 < a, b, c < p on every
cycle 1 <= l1 <= l2 <= bound.  One guard pass checks every prime first;
then one serial walk over (p, a, b, c), the same for every route, makes
records in lexicographic parameter order: one per point, holding the
columns the point's rows share and the (l1, l2, branch, value) cells of up
to 1,024 consecutive cycles, several in cycle order where a point has more.
The routes differ only in where a cell's value comes from.  The renderer
formats each record's shared columns once and joins its cells as the
records come, which makes CSV/JSON sweep output byte-identical regardless
of ``--jobs``.  ``sweep_rows`` and ``render_sweep`` are the flat-row list
and string forms.  Closed and direct sweeps load only the point path
(``modp_arith`` and ``selberg2d_closed``); a brute-force sweep imports the
grid where it reads it.  The verifier reads its configuration from here.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Iterable, Iterator

from .modp_arith import get_context
from .selberg2d_closed import (ALL_METHODS, _CYCLE_CLASSES, _OTHER_CLASS, _ZERO_BRANCHES, Branch, SelbergParams,
                               _closed_value, _direct_coefficient, in_condition_sets)

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


# A cell's branch column, read from a table rather than the enum's value descriptor.
_BRANCH_NAMES = {branch: branch.value for branch in Branch}
# The most cells one record holds: a point with more cycles makes several records.
_RECORD_CELLS = 1024


def _cycle_blocks(cycles: Iterable[tuple]) -> Iterator[tuple]:
    """Up to ``_RECORD_CELLS`` consecutive cycles at a time, resolved on the cycle-class table.

    Each block is ``(cells, classified)``: ``cells`` holds the (l1, l2, branch, 0) cell of
    each cycle whose class has one branch and None at each classified cycle, and
    ``classified`` the (index, l1, l2, classifier, zeros) of each classified cycle, with
    ``zeros`` its (l1, l2, branch, 0) cell of every zero branch.
    """
    class_of, cycles = _CYCLE_CLASSES.get, iter(cycles)
    while block := [(l1, l2, class_of((l1, l2), _OTHER_CLASS)[1])
                    for l1, l2 in itertools.islice(cycles, _RECORD_CELLS)]:
        yield ([(l1, l2, _BRANCH_NAMES[rule], 0) if isinstance(rule, Branch) else None for l1, l2, rule in block],
               [(i, l1, l2, rule, {branch: (l1, l2, _BRANCH_NAMES[branch], 0) for branch in _ZERO_BRANCHES})
                for i, (l1, l2, rule) in enumerate(block) if not isinstance(rule, Branch)])


def _sweep_records(config: SweepConfig, method: str, listed: bool) -> Iterator[tuple]:
    names, make = _BRANCH_NAMES, SelbergParams._make  # the values are in range by construction
    closed = method == "closed"
    cycles = tuple(config.cycles()) if listed else ()
    blocks = tuple(_cycle_blocks(cycles))  # empty where each point walks the cycles afresh
    for p in config.primes:
        ctx, slabs = get_context(p), itertools.repeat(None)  # closed and direct read no grid
        if method == "bruteforce":
            from .selberg_core import selberg_grid

            walk = selberg_grid(p, cycles)
            next(walk)  # a = 0 has no rows
            slabs = (slab.tolist() for slab, _ in walk)  # [b][c][cycle] at each a
        for a, slab in zip(range(1, p), slabs):
            for b, c in itertools.product(range(1, p), repeat=2):
                params = make((a, b, c, p))
                r1, r2, r3 = in_condition_sets(params)
                values = iter(slab[b][c]) if slab else None  # each block's zip takes its own values
                for fixed, classified in blocks or _cycle_blocks(config.cycles()):
                    # The branch column; a closed cell of a zero branch is its prebuilt cell.
                    cells = fixed.copy()
                    for i, l1, l2, classifier, zeros in classified:
                        branch = classifier(a, b, c, p)
                        cells[i] = zeros.get(branch) or (l1, l2, names[branch],
                                                         _closed_value(branch, params) if closed else None)
                    if method == "direct":
                        cells = [(l1, l2, branch, _direct_coefficient(ctx, a, b, c, l1 * p - 1, l2 * p - 1))
                                 for l1, l2, branch, _ in cells]
                    elif method == "bruteforce":
                        cells = [(l1, l2, branch, value) for (l1, l2, branch, _), value in zip(cells, values)]
                    yield p, a, b, c, r1, r2, r3, cells


def iter_sweep_rows(config: SweepConfig) -> Iterator[tuple]:
    """The sweep as a generator of records, one per point and block of cycles, in row order.

    A record is ``(p, a, b, c, r1, r2, r3, cells)``: the columns every row of
    the point shares, with the R1-R3 memberships as bools, and ``cells``, a
    list of the ``(l1, l2, branch, value)`` of up to ``_RECORD_CELLS``
    consecutive cycles, the branch as its name.  A point with more cycles
    makes several records in cycle order, so the records list the rows in
    lexicographic (p, a, b, c, l1, l2) order at any cycle bound.

    When this is called, one guard pass counts the cycles and checks, for
    every prime, every resource guard a row could hit: brute force's grid,
    whose smallest window must fit the cap, or the closed and direct
    routes' factorial tables.  A sweep that would be refused is refused
    before the first record.  The records are then made by one walk over
    (p, a, b, c) for every route: a cell's value is the first configured
    method's closed form or direct sum, or for brute force read from the
    slab of a that each prime's grid walk yields in ascending a, one window
    of a values built at a time where the whole box is over the cap.  The
    cycles are listed, in blocks built once, where brute force's grid guard
    has bounded their count or one block holds them all; otherwise each
    point walks them afresh, so any cycle bound streams.  Each block is
    resolved on the cycle-class table as it is built: the cells of the
    one-branch classes, (2,3) and other, are made there, and only the
    classified cycles call their classifier at each point.  Closed cells of
    any zero branch are prebuilt (l1, l2, branch, 0) cells; direct and
    brute-force cells share only the branch and compute every value.
    Records are made serially; ``config.parallelism`` is not used.
    """
    method = config.methods[0]
    count = config.cycle_bound * (config.cycle_bound + 1) // 2
    for p in config.primes:
        if method == "bruteforce":
            from .selberg_core import _grid_window

            _grid_window(p, 2, p, count, config.cycle_bound)
        else:
            get_context(p).check_table_size()
    return _sweep_records(config, method, method == "bruteforce" or count <= _RECORD_CELLS)


def sweep_rows(config: SweepConfig) -> list:
    """The sweep as a list of rows, each a tuple in ``SWEEP_CSV_HEADER`` column order."""
    return [(p, a, b, c, l1, l2, branch, value, r1, r2, r3)
            for p, a, b, c, r1, r2, r3, cells in iter_sweep_rows(config)
            for l1, l2, branch, value in cells]


_BOOL = ("false", "true")
# The most cell texts one run of ``iter_render_sweep`` keeps.  Most values are 0, so a
# run has few distinct cells: 120 on the default grid, 1,385 at cycle bound 50.  A
# cell holds its cycle, so above 4,096 cycles most cells would miss a full table:
# from then on the run formats each cell directly.
_TABLE_CELLS = 4096
# csv and text lines: header, then the format of a cell's columns, of the point's
# columns before them and of its R1-R3 columns after them.
_LINE_FORMATS = {
    "csv": (SWEEP_CSV_HEADER + "\n", "{},{},{},{}", "{},{},{},{},", ",{},{},{}\n"),
    "text": (f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
             f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}\n",
             "{:>2} {:>2} {:<22} {:>5}", "{:>3} {:>3} {:>3} {:>3} ", " {:>5} {:>5} {:>5}\n"),
}


class _CellTexts(dict):
    """Cell texts by cell, formatted on a miss; the first ``_TABLE_CELLS`` distinct cells are kept."""

    def __init__(self, form: str):
        super().__init__()
        self.form = form.format

    def __missing__(self, cell: tuple) -> str:
        text = self.form(*cell)
        if len(self) < _TABLE_CELLS:
            self[cell] = text
        return text


def _record_blocks(records: Iterable[tuple]) -> Iterator[list]:
    """The records in lists of whole records, each holding at least ``_RECORD_CELLS`` rows but the last."""
    block, rows = [], 0
    for record in records:
        block.append(record)
        rows += len(record[7])
        if rows >= _RECORD_CELLS:
            yield block
            block, rows = [], 0
    if block:
        yield block


def iter_render_sweep(records: Iterable[tuple], fmt: str) -> Iterator[str]:
    """Sweep output in ``fmt`` (csv, json or text) from ``iter_sweep_rows`` records.

    The chunks are the header, one chunk per block of whole records holding
    at least ``_RECORD_CELLS`` rows (the last block may hold fewer), and for
    json the closing.  Records of ``iter_sweep_rows`` hold at most
    ``_RECORD_CELLS`` cells, so a block holds fewer than twice that many
    rows.  Every format formats the columns a record's rows share (p, a, b,
    c, R1-R3) once per record and joins its cells between them.  csv and
    text take each cell's text from a table of at most ``_TABLE_CELLS``
    distinct cells per run, so memory stays bounded at any cycle bound; the
    records after the table fills format their cells directly.
    The json chunks join to exactly ``json.dumps({"schema": 1,
    "kind": "sweep", "rows": rows}, sort_keys=True, indent=2) + "\\n"`` with
    each row as the dict of its ``SWEEP_CSV_HEADER`` columns: each row fills
    a fixed template with its keys in sorted order.  Branch names are plain
    identifiers, so the branch string needs no escaping.
    """
    if fmt not in ("csv", "json", "text"):
        raise ValueError(f"sweep format must be csv, json or text, got {fmt!r}")
    if fmt == "json":
        yield '{\n  "kind": "sweep",\n  "rows": ['
        sep = "\n"
        for block in _record_blocks(records):
            parts = []
            for p, a, b, c, r1, r2, r3, cells in block:
                head = f'    {{\n      "a": {a},\n      "b": {b},\n      "branch": "'
                middle = (f'",\n      "c": {c},\n      "in_R1": {_BOOL[r1]},\n      "in_R2": {_BOOL[r2]},\n'
                          f'      "in_R3": {_BOOL[r3]},\n      "l1": ')
                tail = f',\n      "p": {p},\n      "value": '
                parts.append(sep)
                parts.append(",\n".join([f'{head}{branch}{middle}{l1},\n      "l2": {l2}{tail}{value}\n    }}'
                                          for l1, l2, branch, value in cells]))
                sep = ",\n"
            yield "".join(parts)
        yield ("]" if sep == "\n" else "\n  ]") + ',\n  "schema": 1\n}\n'
        return
    header, cell_form, head_form, tail_form = _LINE_FORMATS[fmt]
    table, form = _CellTexts(cell_form), cell_form.format
    yield header
    for block in _record_blocks(records):
        parts = []
        for p, a, b, c, r1, r2, r3, cells in block:
            head, tail = head_form.format(p, a, b, c), tail_form.format(_BOOL[r1], _BOOL[r2], _BOOL[r3])
            parts.append(head)
            parts.append((tail + head).join(map(table.__getitem__, cells) if len(table) < _TABLE_CELLS
                                            else itertools.starmap(form, cells)))
            parts.append(tail)
        yield "".join(parts)


# A row's point columns (p, a, b, c, R1-R3) and its cell (l1, l2, branch, value).
_ROW_POINT, _ROW_CELL = operator.itemgetter(0, 1, 2, 3, 8, 9, 10), operator.itemgetter(4, 5, 6, 7)


def render_sweep(rows: Iterable[tuple], fmt: str) -> str:
    """Rows in ``SWEEP_CSV_HEADER`` column order, rendered as ``iter_render_sweep`` renders records.

    Consecutive rows of one point, with the same (p, a, b, c, R1-R3), make one record.
    """
    records = ((*point, list(map(_ROW_CELL, group))) for point, group in itertools.groupby(rows, _ROW_POINT))
    return "".join(iter_render_sweep(records, fmt))
