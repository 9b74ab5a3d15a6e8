"""Exhaustive verification suites and report rendering.

Every suite checks an exact identity over a finite grid, so the only
tolerance anywhere is equality.  The run configuration, ``SweepConfig``,
lives in ``sweep``; this module adds the suites, the walk that hands each
grid check one a of the brute-force grid with the points of that a, and the
report.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import ResourceLimitError
from .fp_poly import MultiPoly, fp_integral, partial_derivative
from .golden import GOLDEN_2D
from .modp_arith import get_context
from .morris_ct import MorrisParams, _morris_family, morris_rhs, selberg_via_morris
from .relations import RELATION_CYCLES, relations_from_values, skew_symmetry_check
from .selberg_core import (
    _grid_window,
    _guard_grid,
    beta_closed,
    selberg_bruteforce,
    selberg_grid,
    selberg_nd_closed,
)
from .selberg2d_closed import (
    _CYCLE_CLASSES,
    _OTHER_CLASS,
    _ROWS,
    _ZERO_BRANCHES,
    Branch,
    SelbergParams,
    _branch,
    _closed_value,
    _direct_coefficient,
    eval_closed,
)
from .sweep import SweepConfig
# benchmarks/inproc.py reads the list and string wrappers of a sweep as verify attributes.
from .sweep import render_sweep, sweep_rows  # noqa: F401

__all__ = [
    "SuiteResult",
    "VerificationReport",
    "render_report",
    "run_verification",
]

STOKES_SEED = 0x5E1B
STOKES_COUNT = 200

@dataclass
class SuiteResult:
    """One suite's outcome: a failed check is one counterexample, every other check passed."""

    name: str
    checked: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.counterexamples)

    @property
    def passed(self) -> int:
        return self.checked - self.failed

    def tally(self, checked: int, counterexamples: Iterable[dict] = ()):
        """Count ``checked`` checks, one failed for each of ``counterexamples``."""
        self.checked += checked
        self.counterexamples += counterexamples


@dataclass
class VerificationReport:
    suites: list

    @property
    def failed_total(self) -> int:
        return sum(s.failed for s in self.suites)

    @property
    def checked_total(self) -> int:
        return sum(s.checked for s in self.suites)


def _ce(p, a, b, c, l1, l2, branch, expected, got, **extra) -> dict:
    """A counterexample record, keys in report order."""
    return {"p": p, "a": a, "b": b, "c": c, "l1": l1, "l2": l2,
            "branch": branch, "expected": expected, "got": got, **extra}


_RECURRENCE_CYCLES = ((1, 1), (1, 2), (2, 2), (1, 3))
_BRIDGE_LEVELS = (1, 2)  # the Morris bridge reaches the cycles [1,1] and [2,2]
_BRIDGE_MAX_P = 7  # the bridge is checked at p <= 7 only
_ND3_MAX_P = 11  # nd compares n = 3 with brute force at p <= 11 only
_SUITE_CYCLES = tuple(dict.fromkeys(  # the cycles suites read besides the configured ones
    _RECURRENCE_CYCLES + tuple((l, l) for l in _BRIDGE_LEVELS) + RELATION_CYCLES))


def _nd_windows(p: int) -> list:
    """nd's windows at p as ``selberg_grid`` arguments: a, b < 2p on [1, ..., 1], n = 2 and 3."""
    return [(p, ((1,) * n,), 2 * p) for n in (2, 3) if n == 2 or p <= _ND3_MAX_P]


def _points(p: int, a: int, rules: tuple) -> list:
    """(b, c, params, branches) at every (b, c) of (0, p)^2 in ascending order, params the
    SelbergParams of (a, b, c) and branches its Branch on each of ``rules``, the cycle-class
    table's entries: a classifier is called at every point, a fixed branch is repeated."""
    cells = list(itertools.product(range(1, p), repeat=2))
    columns = [itertools.repeat(rule) if isinstance(rule, Branch) else [rule(a, b, c, p) for b, c in cells]
               for rule in rules]
    return [(b, c, SelbergParams(a, b, c, p), branches)
            for (b, c), branches in zip(cells, zip(*columns) if columns else itertools.repeat(()))]


class _Step(namedtuple("_Step", "p a slabs index points")):
    """One a of the walk over the shared grid of p, as each grid check sees it.

    ``slabs`` holds (values, S1) at a - 1, a and a + 1, the last None at a = p - 1;
    ``index`` maps a cycle to its column in them, the configured cycles first; ``points``
    is ``_points`` at a, branches on the configured cycles where ``oracle_equiv`` or
    ``vanishing`` reads them and () elsewhere, or None where ``recurrences`` alone reads the walk.
    """

    __slots__ = ()

    def read(self, cycles, shift: int = 0, moment: int = 0):
        """Values (moment 0) or S1 (moment 1) at a + shift on ``cycles``, indexed [b, c, i]."""
        return self.slabs[1 + shift][moment][..., [self.index[cycle] for cycle in cycles]]


# -- suites --------------------------------------------------------------------
# A suite's grid check sees one a of the shared grid at a time; its other
# checks run before the walk or after it.  Each records into its SuiteResult.


def _oracle_equiv(config: SweepConfig, result: SuiteResult, step: _Step):
    """The direct and closed routes agree with the grid's brute force at every (b, c) of one a.

    Each cell calls the route kernels as a sweep does: the direct sum with the context and
    each cycle's exponents (l1 p - 1, l2 p - 1) read once per a, then the closed value of
    the point's branch; a failing direct check is listed before the closed one.
    """
    p, a, cycles = step.p, step.a, tuple(config.cycles())
    ctx, targets = get_context(p), [(l1, l2, l1 * p - 1, l2 * p - 1) for l1, l2 in cycles]
    values, failures = step.read(cycles).tolist(), []
    for b, c, params, branches in step.points:
        for (l1, l2, t1, t2), branch, expected in zip(targets, branches, values[b][c]):
            direct, closed = _direct_coefficient(ctx, a, b, c, t1, t2), _closed_value(branch, params)
            if direct != expected:
                failures.append(_ce(p, a, b, c, l1, l2, str(branch), expected, direct, method="direct"))
            if closed != expected:
                failures.append(_ce(p, a, b, c, l1, l2, str(branch), expected, closed, method="closed"))
    result.tally(2 * (p - 1) ** 2 * len(cycles), failures)


def _recurrences(p: int, a, b, c, s, s1, s2, up_a, up_b, down_a, down_b, inverse: Callable):
    """The contiguous recurrences tying the moments (s1, s2) of Phi at (a, b, c) on one cycle to
    shifted parameters, as (name, applies, lhs, rhs); a relation is checked where it applies.

    Every argument after p is an int at one point or a NumPy array over many.  s is the
    integral at (a, b, c); up_a, up_b, down_a and down_b are those at a + 1, b + 1, a - 1 and
    b - 1, read only where a relation using them applies.  ``inverse(d)`` is 1/d mod p for d != 0.
    """
    denom = (a + b + c + 1) * (a + b + 2 * c + 1) % p
    inv = inverse(denom)
    yield "Ao1", a + 1 < p, s1 * (a + 1) % p, up_a * (2 * (a + b + c + 2)) % p
    yield "Ao2", True, s * (2 * (a + c + 1)) % p, s1 * (a + b + 2 * c + 2) % p
    yield "Ao3", b + 1 < p, s2 * (b + 1) % p, up_b * (2 * (a + b + c + 2)) % p
    yield "Ao4", True, s * (2 * (b + c + 1)) % p, s2 * (a + b + 2 * c + 2) % p
    yield "Ar1", (denom != 0) & (a >= 2), s, down_a * (a * (a + c)) * inv % p
    yield "Ar2", (denom != 0) & (b >= 2), s, down_b * (b * (b + c)) * inv % p


def _check_recurrences(config: SweepConfig, result: SuiteResult, step: _Step):
    """Contiguous recurrences tying Phi moments to shifted parameters, on the slab of one a."""
    import numpy as np

    p, a = step.p, step.a
    inverse = np.array([0, *(pow(d, -1, p) for d in range(1, p))]).__getitem__
    b, c = np.arange(1, p)[:, None, None], np.arange(1, p)[None, :, None]
    # values and S1 indexed [b, c, cycle] for 0 <= b, c < p; the checks read b, c >= 1
    values, s1 = step.read(_RECURRENCE_CYCLES), step.read(_RECURRENCE_CYCLES, moment=1)[1:, 1:]
    s, down_a = values[1:, 1:], step.read(_RECURRENCE_CYCLES, -1)[1:, 1:]  # Ar1 reads a - 1 from a = 2 on
    up_a = step.read(_RECURRENCE_CYCLES, 1)[1:, 1:] if a + 1 < p else s
    up_b = np.roll(values, -1, axis=0)[1:, 1:]  # b = p - 1 reads b = 0, where Ao3 does not apply
    down_b = values[:-1, 1:]
    checks = list(_recurrences(p, a, b, c, s, s1, (2 * s - s1) % p, up_a, up_b, down_a, down_b, inverse))
    applies, lhs, rhs = (np.stack([np.broadcast_to(check[i], s.shape) for check in checks], axis=-1)
                         for i in (1, 2, 3))
    failed = np.argwhere(applies & (lhs != rhs)).tolist()
    result.tally(int(applies.sum()), [
        _ce(p, a, j + 1, k + 1, *_RECURRENCE_CYCLES[i], checks[e][0], int(rhs[j, k, i, e]),
            int(lhs[j, k, i, e])) for j, k, i, e in failed])


def _relations(config: SweepConfig, result: SuiteResult, step: _Step):
    """Multi-cycle regimes at every (b, c) of one a: -1/2 relations, uniqueness outside them.
    The checks are counted here and tallied once per a."""
    p, a, values = step.p, step.a, step.read(RELATION_CYCLES).tolist()
    checked, failures = 0, []
    for b, c, params, _ in step.points:
        report = relations_from_values(params, dict(zip(RELATION_CYCLES, values[b][c])).__getitem__)
        checked += 1
        if report.condition_set is None:
            if not report.uniqueness_holds:
                failures.append(_ce(p, a, b, c, 0, 0, "uniqueness", 1, 0))
            continue
        if not report.relation_holds:
            failures.append(_ce(p, a, b, c, 0, 0, f"{report.condition_set} relation", 1, 0))
        head = next(iter(report.values))
        closed_head = _closed_value(_branch(params, *head), params)
        checked += 1
        if closed_head != report.values[head]:
            failures.append(_ce(p, a, b, c, head[0], head[1], f"{report.condition_set} closed form",
                                report.values[head], closed_head))
        if report.condition_set == "R3":
            checked += 1
            if not skew_symmetry_check(params):
                failures.append(_ce(p, a, b, c, 0, 0, "R3 skew symmetry", 1, 0))
    result.tally(checked, failures)


def _golden(config: SweepConfig, result: SuiteResult):
    """The golden values at the configured primes, by brute force and closed form."""
    for entry in GOLDEN_2D:
        if entry.p not in config.primes:
            continue
        params = SelbergParams(entry.a, entry.b, entry.c, entry.p)
        point = (entry.p, entry.a, entry.b, entry.c, entry.l1, entry.l2)
        brute = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2))
        closed = eval_closed(params, entry.l1, entry.l2)
        result.tally(1, [] if brute == entry.value and closed == entry.value else [
            _ce(*point, "golden", entry.value, brute)])
        if entry.integer_value is not None:
            exact = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2), exact=True)
            result.tally(1, [] if exact == entry.integer_value else [
                _ce(*point, "golden integer", entry.integer_value, exact)])
        if entry.paper_discrepancy:
            result.notes.append(
                f"golden ({entry.p};{entry.a},{entry.b},{entry.c};{entry.l1},{entry.l2}):"
                f" paper_discrepancy=true, printed {entry.printed_value}, oracle {entry.value}"
                + (f" ({entry.note})" if entry.note else "")
            )


def _vanishing(config: SweepConfig, result: SuiteResult, step: _Step):
    """Every zero branch of the classifier at one a matches a brute-force zero, and in integer
    mode an exact expansion too where the branch's zero holds over Z.  The checks are
    counted here and tallied once per a."""
    p, a, cycles = step.p, step.a, tuple(config.cycles())
    values, checked, failures = step.read(cycles).tolist(), 0, []
    for b, c, params, branches in step.points:
        for cycle, branch, value in zip(cycles, branches, values[b][c]):
            if branch not in _ZERO_BRANCHES:
                continue
            checked += 1
            if value != 0:
                failures.append(_ce(p, a, b, c, *cycle, str(branch), 0, value))
            if config.integer_mode and _ROWS[branch].over_z:
                exact = selberg_bruteforce(params.spec(2), cycle, exact=True)
                checked += 1
                if exact != 0:
                    failures.append(_ce(p, a, b, c, *cycle, f"{branch} (integer)", 0, exact))
    result.tally(checked, failures)


def _morris_identities(config: SweepConfig, result: SuiteResult):
    """The constant-term identity and its rewritten form, both sides read from one family per (n, gamma)."""
    for n in (1, 2, 3):
        families = [_morris_family(n, gamma, 3) for gamma in range(4)]
        for alpha, beta, gamma in itertools.product(range(4), repeat=3):
            ct, sym = families[gamma][alpha, beta]
            rhs = morris_rhs(MorrisParams(n, alpha, beta, gamma))
            result.tally(1, [] if ct == rhs else [_ce(0, alpha, beta, gamma, n, n, "morris identity", rhs, ct)])
            result.tally(1, [] if sym == ct else [
                _ce(0, alpha, beta, gamma, n, n, "morris symmetric form", ct, sym)])


def _morris_bridge(config: SweepConfig, result: SuiteResult, step: _Step):
    """The Selberg bridge against the grid's brute force at every (b, c) of one a."""
    p, a, values = step.p, step.a, step.read([(l, l) for l in _BRIDGE_LEVELS]).tolist()
    checked, failures = 0, []
    for b, c, params, _ in step.points:
        for l, brute in zip(_BRIDGE_LEVELS, values[b][c]):
            if a + b + c < l * p - 1 or a + c > l * p - 1:
                continue
            via = selberg_via_morris(params, l) % p
            checked += 1
            if via != brute:
                failures.append(_ce(p, a, b, c, l, l, "morris bridge", brute, via))
    result.tally(checked, failures)


def _stokes(config: SweepConfig, result: SuiteResult):
    """Integrals of first partial derivatives vanish, on random polynomials."""
    rng = random.Random(STOKES_SEED)
    for _ in range(STOKES_COUNT):
        p = rng.choice(config.primes)
        k = rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 25)):
            exps = tuple(rng.randrange(3 * p) for _ in range(k))
            terms[exps] = rng.randrange(p)
        poly = MultiPoly(k, terms, p)
        cycle = tuple(rng.randint(1, 3) for _ in range(k))
        for i in range(1, k + 1):
            value = fp_integral(partial_derivative(poly, i), cycle)
            result.tally(1, [] if value == 0 else [
                _ce(p, 0, 0, 0, cycle[0], cycle[-1], f"stokes d/dx{i}", 0, value)])


def _nd(config: SweepConfig, result: SuiteResult):
    """The n-dimensional closed form against expansion, for n = 1, 2, 3."""
    for p in config.primes:
        ctx = get_context(p)
        # n = 1: reduces to the beta closed form on its whole domain.
        for a, b in itertools.product(range(p), repeat=2):
            if a + b >= p - 1:
                got, want = selberg_nd_closed(ctx, 1, a, b, 0), beta_closed(ctx, a, b)
                result.tally(1, [] if got == want else [_ce(p, a, b, 0, 1, 1, "nd n=1", want, got)])
        # n = 2, 3: matches its window's brute force; n = 2 also the C11_i closed form.
        for request in _nd_windows(p):
            n = len(request[1][0])
            for a, (values, _) in enumerate(selberg_grid(*request)):
                values = values.tolist()  # [b, c, 0]
                for b in range(2 * p):
                    for c in range(p):
                        if not (p - 1 <= a + b + (n - 1) * c and a + b + (2 * n - 2) * c < 2 * p - 1):
                            continue
                        got, brute = selberg_nd_closed(ctx, n, a, b, c), values[b][c][0]
                        result.tally(1, [] if got == brute else [_ce(p, a, b, c, 1, 1, f"nd n={n}", brute, got)])
                        if n == 2 and 0 < a < p and 0 < b < p and 0 < c < p:
                            params = SelbergParams(a, b, c, p)
                            if _branch(params, 1, 1) == Branch.C11_i:
                                closed = _closed_value(Branch.C11_i, params)
                                result.tally(1, [] if got == closed else [
                                    _ce(p, a, b, c, 1, 1, "nd n=2 vs C11_i", closed, got)])
        if p > _ND3_MAX_P:
            result.skipped += 1
            result.notes.append(f"n=3 comparison skipped at p={p}: checked at p <= {_ND3_MAX_P}")


# A suite's checks: run before the walk over the shared grids, on each of its steps, and after it.
_Suite = namedtuple("_Suite", "before grid after", defaults=(None, None, None))


_SUITES = {
    "oracle_equiv": _Suite(grid=_oracle_equiv),
    "recurrences": _Suite(grid=_check_recurrences),
    "relations": _Suite(grid=_relations, after=_golden),
    "vanishing": _Suite(grid=_vanishing),
    "morris": _Suite(before=_morris_identities, grid=_morris_bridge),
    "stokes": _Suite(after=_stokes),
    "nd": _Suite(after=_nd),
}


def _grid_readers(names: Iterable[str], p: int) -> list:
    """The suites of ``names`` that read the shared grid of p, the bridge at p <= 7 only."""
    return [name for name in names if _SUITES[name].grid and (name != "morris" or p <= _BRIDGE_MAX_P)]


def _guard_grids(config: SweepConfig) -> tuple:
    """The cycles of the shared grid: the configured ones, then those suites read besides them.

    Raises ResourceLimitError, before any suite runs, if a grid a selected suite
    reads is over the cap at some prime, nd's own windows included.  The shared
    cycles are counted for that, and listed only if a selected suite reads them.
    """
    bound, shared = config.cycle_bound, [p for p in config.primes if _grid_readers(config.suites, p)]
    extra = tuple(cycle for cycle in _SUITE_CYCLES if not cycle[0] <= cycle[1] <= bound)
    count, top = bound * (bound + 1) // 2 + len(extra), max([bound, *itertools.chain(*extra)])
    for p in config.primes:
        if p in shared:
            _grid_window(p, 2, p, count, top)
        if "nd" in config.suites:
            for window in _nd_windows(p):
                _guard_grid(*window)
    return (*config.cycles(), *extra) if shared else ()


def run_verification(config: SweepConfig) -> VerificationReport:
    """Run the selected suites and collect per-suite outcomes.

    Suites run in this thread.  For each prime one walk of the shared grid
    yields the slabs of every shared cycle in ascending a, and the slabs of
    a - 1, a and a + 1 go to each grid check with the points of a, each
    built once for every check; the walk is dropped before the next prime.
    The grid checks call the route kernels once per cell, as sweeps do, and
    tally their checks once per slab.
    A suite's ``seconds`` count its own checks only; numpy, which every
    suite but ``stokes`` reads, is loaded before the first of them, so no
    suite's seconds count its import, and the points are charged to no
    suite.  An error inside a suite other than the resource guard ends only
    that suite, as one failed check naming the error.
    """
    cycles = _guard_grids(config)
    if set(config.suites) - {"stokes"}:
        import numpy  # noqa: F401
    results = {name: SuiteResult(name) for name in config.suites}
    broken = set()

    def attempt(name: str, check: Callable | None, *step):
        if check is None or name in broken:
            return
        start = time.perf_counter()
        try:
            check(config, results[name], *step)
        except ResourceLimitError:
            raise
        except Exception as exc:
            broken.add(name)
            results[name] = SuiteResult(name)
            results[name].tally(1, [{"error": f"{type(exc).__name__}: {exc}"}])
        results[name].seconds += time.perf_counter() - start

    for name in config.suites:
        attempt(name, _SUITES[name].before)
    index = {cycle: k for k, cycle in enumerate(cycles)}
    for p in config.primes:
        readers = [name for name in _grid_readers(config.suites, p) if name not in broken]
        if not readers:
            continue
        walk = selberg_grid(p, cycles)
        rules = (tuple(_CYCLE_CLASSES.get(cycle, _OTHER_CLASS)[1] for cycle in config.cycles())
                 if {"oracle_equiv", "vanishing"} & set(readers) else ())
        down, here = next(walk), next(walk)
        for a in range(1, p):
            up = next(walk, None)  # None past a = p - 1
            step = _Step(p, a, (down, here, up), index,
                         None if readers == ["recurrences"] else _points(p, a, rules))
            for name in readers:
                attempt(name, _SUITES[name].grid, step)
            down, here = here, up
        del walk
    for name in config.suites:
        attempt(name, _SUITES[name].after)
    return VerificationReport([results[name] for name in config.suites])


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "schema": 1,
            "kind": "verification",
            "failed_total": report.failed_total,
            "checked_total": report.checked_total,
            "suites": [
                {
                    "name": s.name,
                    "checked": s.checked,
                    "passed": s.passed,
                    "failed": s.failed,
                    "skipped": s.skipped,
                    "seconds": round(s.seconds, 3),
                    "counterexamples": s.counterexamples,
                    "notes": s.notes,
                }
                for s in report.suites
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["suite,checked,passed,failed,skipped,seconds"]
        for s in report.suites:
            lines.append(f"{s.name},{s.checked},{s.passed},{s.failed},{s.skipped},{s.seconds:.3f}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"report format must be json, csv or text, got {fmt!r}")
    lines = []
    for s in report.suites:
        status = "ok" if s.failed == 0 else "FAILED"
        lines.append(f"suite {s.name:<12} checked={s.checked:<7} passed={s.passed:<7} "
                     f"failed={s.failed:<4} skipped={s.skipped:<3} [{status}] ({s.seconds:.2f}s)")
        for note in s.notes:
            lines.append(f"  note: {note}")
        for ce in s.counterexamples[:20]:
            lines.append(f"  counterexample: {ce}")
        if len(s.counterexamples) > 20:
            lines.append(f"  ... {len(s.counterexamples) - 20} more")
    lines.append(f"total: checked={report.checked_total} failed={report.failed_total}")
    return "\n".join(lines) + "\n"
