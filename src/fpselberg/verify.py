"""Exhaustive verification suites and deterministic parameter sweeps.

Every suite checks an exact identity over a finite grid, so the only
tolerance anywhere is equality.  Sweep rows are built serially in
lexicographic parameter order, which makes CSV/JSON sweep output
byte-identical regardless of ``--jobs``.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import ResourceLimitError
from .fp_poly import MultiPoly, fp_integral, partial_derivative
from .golden import GOLDEN_2D
from .modp_arith import get_context
from .morris_ct import (
    MorrisParams,
    morris_ct_bruteforce,
    morris_lhs_symmetric_form,
    morris_rhs,
    morris_substitution,
    selberg_via_morris,
)
from .selberg_core import (
    SelbergGrid,
    SelbergParams,
    _grid_window,
    _guard_grid,
    beta_closed,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_grid,
    selberg_nd_closed,
)
from .selberg2d_closed import (
    RELATION_CYCLES,
    Branch,
    _eval_formula,
    classify,
    eval_closed,
    in_condition_sets,
    relations_from_values,
    skew_symmetry_check,
)

__all__ = [
    "ALL_SUITES",
    "SweepConfig",
    "SuiteResult",
    "VerificationReport",
    "iter_render_sweep",
    "iter_sweep_rows",
    "render_report",
    "render_sweep",
    "run_verification",
    "sweep_rows",
]

ALL_SUITES = ("oracle_equiv", "recurrences", "relations", "vanishing", "morris", "stokes", "nd")
ALL_METHODS = ("bruteforce", "direct", "closed")
SWEEP_CSV_HEADER = "p,a,b,c,l1,l2,branch,value,in_R1,in_R2,in_R3"
STOKES_SEED = 0x5E1B
STOKES_COUNT = 200

# Branches whose vanishing holds over Z (degree or truncation arguments),
# not merely mod p; checked by the exact-integer oracle in integer mode.
_INTEGER_ZERO_BRANCHES = {
    Branch.NOT_APPLICABLE_zero,
    Branch.C12_delta_neg_zero,
    Branch.C12_delta0_zero,
    Branch.C13_zero,
    Branch.OTHER_zero,
}


@dataclass(frozen=True)
class SweepConfig:
    """Shared configuration for verification runs and sweeps."""

    primes: tuple = (3, 5, 7, 11, 13)
    cycle_bound: int = 4
    methods: tuple = ALL_METHODS
    suites: tuple = ALL_SUITES
    integer_mode: bool = False
    parallelism: int = 1

    def __post_init__(self):
        if not self.primes:
            raise ValueError("at least one prime is required")
        for p in self.primes:
            get_context(p)  # validates the prime
        # canonical order keeps sweep rows lexicographic in (p, a, b, c, l1, l2)
        object.__setattr__(self, "primes", tuple(sorted(set(self.primes))))
        if self.cycle_bound < 1:
            raise ValueError(f"cycle_bound must be >= 1, got {self.cycle_bound}")
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        bad = set(self.suites) - set(ALL_SUITES)
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")
        if not self.suites and not self.methods:
            raise ValueError("select at least one suite or method")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")

    def cycles(self) -> Iterator[tuple]:
        """The cycles (l1, l2) with 1 <= l1 <= l2 <= cycle_bound in lexicographic order, one at a time."""
        return itertools.combinations_with_replacement(range(1, self.cycle_bound + 1), 2)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0

    def record(self, ok: bool, counterexample: Callable[[], dict] | None = None):
        """Count one check; ``counterexample`` builds its failure record, only when it fails."""
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if counterexample is not None:
                self.counterexamples.append(counterexample())


@dataclass
class VerificationReport:
    suites: list
    config: SweepConfig

    @property
    def failed_total(self) -> int:
        return sum(s.failed for s in self.suites)

    @property
    def checked_total(self) -> int:
        return sum(s.checked for s in self.suites)


def _triples(p: int):
    return itertools.product(range(1, p), repeat=3)


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


class _GridCache(dict):
    """Brute-force grids of one verification run, built on first use.

    ``self[p]`` is the grid of p that every suite shares, holding each cycle a
    suite reads brute force on; nd's windows are keyed by their ``selberg_grid``
    arguments.  Creating the cache raises ResourceLimitError, before any suite
    runs, if a grid a selected suite reads is over the cap at some prime; the
    shared cycles are counted for that, not listed.
    """

    def __init__(self, config: SweepConfig):
        super().__init__()
        self._config, bound = config, config.cycle_bound
        self._extra = tuple(cycle for cycle in _SUITE_CYCLES if not cycle[0] <= cycle[1] <= bound)
        count, top = bound * (bound + 1) // 2 + len(self._extra), max([bound, *itertools.chain(*self._extra)])
        suites = set(config.suites)
        shared = bool(suites & {"recurrences", "relations", "vanishing"}) or (
            "oracle_equiv" in suites and "bruteforce" in _equiv_methods(config))
        for p in config.primes:
            if shared or ("morris" in suites and p <= _BRIDGE_MAX_P):
                _grid_window(p, 2, p, count, top)
            if "nd" in suites:
                for window in _nd_windows(p):
                    _guard_grid(*window)

    @functools.cached_property
    def cycles(self) -> tuple:
        return (*self._config.cycles(), *self._extra)

    def __missing__(self, key) -> SelbergGrid:
        grid = self[key] = selberg_grid(*key) if isinstance(key, tuple) else selberg_grid(key, self.cycles)
        return grid


# -- suites --------------------------------------------------------------------


def _equiv_methods(config: SweepConfig) -> tuple:
    return config.methods if len(config.methods) >= 2 else ALL_METHODS


def _suite_oracle_equiv(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """All selected evaluation methods agree on every grid point."""
    result = SuiteResult("oracle_equiv")
    methods = _equiv_methods(config)
    reference = "bruteforce" if "bruteforce" in methods else methods[0]
    others = [m for m in methods if m != reference]
    for p in config.primes:
        evaluators = {"direct": selberg_direct_2d, "closed": eval_closed}
        if "bruteforce" in methods:
            evaluators["bruteforce"] = (
                lambda params, l1, l2, grid=grids[p]: grid.value(params.a, params.b, params.c, (l1, l2)))
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in config.cycles():
                expected = evaluators[reference](params, l1, l2)
                for method in others:
                    got = evaluators[method](params, l1, l2)
                    result.record(got == expected, lambda: _ce(
                        p, a, b, c, l1, l2, str(classify(params, l1, l2)), expected, got,
                        method=method))
    return result


def _suite_recurrences(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """Contiguous recurrences tying Phi moments to shifted parameters."""
    result = SuiteResult("recurrences")
    for p in config.primes:
        grid = grids[p]
        ctx = get_context(p)
        for a, b, c in _triples(p):
            for cycle in _RECURRENCE_CYCLES:
                s = grid.value(a, b, c, cycle)
                s1, s2 = grid.moments(a, b, c, cycle)

                def check(eq, lhs, rhs):
                    result.record(lhs == rhs,
                                  lambda: _ce(p, a, b, c, cycle[0], cycle[1], eq, rhs, lhs))

                if a + 1 < p:
                    check("Ao1", s1 * (a + 1) % p, grid.value(a + 1, b, c, cycle) * (2 * (a + b + c + 2)) % p)
                check("Ao2", s * (2 * (a + c + 1)) % p, s1 * (a + b + 2 * c + 2) % p)
                if b + 1 < p:
                    check("Ao3", s2 * (b + 1) % p, grid.value(a, b + 1, c, cycle) * (2 * (a + b + c + 2)) % p)
                check("Ao4", s * (2 * (b + c + 1)) % p, s2 * (a + b + 2 * c + 2) % p)

                denom = (a + b + c + 1) * (a + b + 2 * c + 1) % p
                if denom:
                    inv = ctx.inverse(denom)
                    if a >= 2:
                        check("Ar1", s, grid.value(a - 1, b, c, cycle) * (a * (a + c)) * inv % p)
                    if b >= 2:
                        check("Ar2", s, grid.value(a, b - 1, c, cycle) * (b * (b + c)) * inv % p)
    return result


def _suite_relations(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """Multi-cycle regimes: -1/2 relations, uniqueness outside them, golden values."""
    result = SuiteResult("relations")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            report = relations_from_values(params, lambda cycle: grid.value(a, b, c, cycle))
            if report.condition_set is None:
                result.record(bool(report.uniqueness_holds),
                              lambda: _ce(p, a, b, c, 0, 0, "uniqueness", 1, 0))
                continue
            result.record(bool(report.relation_holds),
                          lambda: _ce(p, a, b, c, 0, 0, f"{report.condition_set} relation", 1, 0))
            head = next(iter(report.values))
            closed_head = eval_closed(params, *head)
            result.record(closed_head == report.values[head], lambda: _ce(
                p, a, b, c, head[0], head[1], f"{report.condition_set} closed form",
                report.values[head], closed_head))
            if report.condition_set == "R3":
                ok = skew_symmetry_check(params)
                result.record(ok, lambda: _ce(p, a, b, c, 0, 0, "R3 skew symmetry", 1, 0))
    for entry in GOLDEN_2D:
        if entry.p not in config.primes:
            continue
        params = SelbergParams(entry.a, entry.b, entry.c, entry.p)
        point = (entry.p, entry.a, entry.b, entry.c, entry.l1, entry.l2)
        brute = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2))
        closed = eval_closed(params, entry.l1, entry.l2)
        result.record(brute == entry.value and closed == entry.value,
                      lambda: _ce(*point, "golden", entry.value, brute))
        if entry.integer_value is not None:
            exact = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2), exact=True)
            result.record(exact == entry.integer_value,
                          lambda: _ce(*point, "golden integer", entry.integer_value, exact))
        if entry.paper_discrepancy:
            result.notes.append(
                f"golden ({entry.p};{entry.a},{entry.b},{entry.c};{entry.l1},{entry.l2}):"
                f" paper_discrepancy=true, printed {entry.printed_value}, oracle {entry.value}"
                + (f" ({entry.note})" if entry.note else "")
            )
    return result


def _suite_vanishing(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """Every zero branch of the classifier matches a brute-force zero."""
    result = SuiteResult("vanishing")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in config.cycles():
                branch = classify(params, l1, l2)
                if not branch.is_zero:
                    continue
                value = grid.value(a, b, c, (l1, l2))
                result.record(value == 0, lambda: _ce(p, a, b, c, l1, l2, str(branch), 0, value))
                if config.integer_mode and branch in _INTEGER_ZERO_BRANCHES:
                    exact = selberg_bruteforce(params.spec(2), (l1, l2), exact=True)
                    result.record(exact == 0,
                                  lambda: _ce(p, a, b, c, l1, l2, f"{branch} (integer)", 0, exact))
    return result


def _suite_morris(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """Constant-term identity, the rewritten form, and the Selberg bridge."""
    result = SuiteResult("morris")
    for n in (1, 2, 3):
        for alpha, beta, gamma in itertools.product(range(4), repeat=3):
            mp = MorrisParams(n, alpha, beta, gamma)
            ct = morris_ct_bruteforce(mp)
            rhs = morris_rhs(mp)
            result.record(ct == rhs,
                          lambda: _ce(0, alpha, beta, gamma, n, n, "morris identity", rhs, ct))
            sym = morris_lhs_symmetric_form(mp)
            result.record(sym == ct,
                          lambda: _ce(0, alpha, beta, gamma, n, n, "morris symmetric form", ct, sym))
    for p in [q for q in config.primes if q <= _BRIDGE_MAX_P]:
        grid = grids[p]
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            for l in _BRIDGE_LEVELS:
                if a + b + c < l * p - 1 or a + c > l * p - 1:
                    continue
                via = selberg_via_morris(params, l)
                brute = grid.value(a, b, c, (l, l))
                result.record(via % p == brute,
                              lambda: _ce(p, a, b, c, l, l, "morris bridge", brute, via % p))
    return result


def _suite_stokes(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """Integrals of first partial derivatives vanish, on random polynomials."""
    result = SuiteResult("stokes")
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
            result.record(value == 0,
                          lambda: _ce(p, 0, 0, 0, cycle[0], cycle[-1], f"stokes d/dx{i}", 0, value))
    return result


def _suite_nd(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """The n-dimensional closed form against expansion, for n = 1, 2, 3."""
    result = SuiteResult("nd")
    for p in config.primes:
        ctx = get_context(p)
        # n = 1: reduces to the beta closed form on its whole domain.
        for a in range(p):
            for b in range(p):
                if a + b < p - 1:
                    continue
                got = selberg_nd_closed(ctx, 1, a, b, 0)
                want = beta_closed(ctx, a, b)
                result.record(got == want, lambda: _ce(p, a, b, 0, 1, 1, "nd n=1", want, got))
        # n = 2, 3: matches its window's brute force; n = 2 also the C11_i closed form.
        for request in _nd_windows(p):
            window, (cycle,) = grids[request], request[1]
            n = len(cycle)
            for a in range(2 * p):
                for b in range(2 * p):
                    for c in range(p):
                        if not (p - 1 <= a + b + (n - 1) * c and a + b + (2 * n - 2) * c < 2 * p - 1):
                            continue
                        got = selberg_nd_closed(ctx, n, a, b, c)
                        brute = window.value(a, b, c, cycle)
                        result.record(got == brute,
                                      lambda: _ce(p, a, b, c, 1, 1, f"nd n={n}", brute, got))
                        if n == 2 and 0 < a < p and 0 < b < p and 0 < c < p:
                            params = SelbergParams(a, b, c, p)
                            if classify(params, 1, 1) == Branch.C11_i:
                                closed = eval_closed(params, 1, 1)
                                result.record(got == closed, lambda: _ce(
                                    p, a, b, c, 1, 1, "nd n=2 vs C11_i", closed, got))
        if p > _ND3_MAX_P:
            result.skipped += 1
            result.notes.append(f"n=3 comparison skipped at p={p}: checked at p <= {_ND3_MAX_P}")
    return result


_SUITE_RUNNERS = {
    "oracle_equiv": _suite_oracle_equiv,
    "recurrences": _suite_recurrences,
    "relations": _suite_relations,
    "vanishing": _suite_vanishing,
    "morris": _suite_morris,
    "stokes": _suite_stokes,
    "nd": _suite_nd,
}


def run_verification(config: SweepConfig) -> VerificationReport:
    """Run the selected suites and collect per-suite outcomes.

    Suites run one after another in this thread; ``config.parallelism`` is
    not used here.  An error inside a suite other than the resource guard
    ends only that suite, as one failed check naming the error.
    """
    grids = _GridCache(config)
    suites = []
    for name in config.suites:
        start = time.perf_counter()
        try:
            outcome = _SUITE_RUNNERS[name](config, grids)
        except ResourceLimitError:
            raise
        except Exception as exc:
            outcome = SuiteResult(name)
            outcome.record(False, lambda: {"error": f"{type(exc).__name__}: {exc}"})
        outcome.seconds = time.perf_counter() - start
        suites.append(outcome)
    return VerificationReport(suites=suites, config=config)


# -- sweeps --------------------------------------------------------------------


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


def _sweep_rows(config: SweepConfig, method: str) -> Iterator[dict]:
    for p in config.primes:
        grid = selberg_grid(p, config.cycles()) if method == "bruteforce" else None
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            r1, r2, r3 = in_condition_sets(params)
            for l1, l2 in config.cycles():
                branch = classify(params, l1, l2)
                if method == "bruteforce":
                    value = grid.value(a, b, c, (l1, l2))
                elif method == "direct":
                    value = selberg_direct_2d(params, l1, l2)
                else:
                    value = 0 if branch.is_zero else _eval_formula(branch, params)
                yield {"p": p, "a": a, "b": b, "c": c, "l1": l1, "l2": l2,
                       "branch": branch.value, "value": value,
                       "in_R1": r1, "in_R2": r2, "in_R3": r3}


def iter_sweep_rows(config: SweepConfig) -> Iterator[dict]:
    """One row per (p, a, b, c, l1, l2), in lexicographic order, as a generator.

    Every resource guard a row could hit is checked for every prime when
    this is called, before the first row is made, so a sweep that would be
    refused is refused before anything is written.  The value column uses
    the first configured method (closed if none); brute force builds each
    prime's grid just before that prime's rows, one window of a values at a
    time where the whole box is over the cap.  Rows are made serially;
    ``config.parallelism`` is not used.  Each row is a dict with the fixed
    CSV column set, and ``classify`` runs once per row.
    """
    method = config.methods[0] if config.methods else "closed"
    for p in config.primes:
        _check_sweep(method, p, config)
    return _sweep_rows(config, method)


def sweep_rows(config: SweepConfig) -> list:
    """The rows of ``iter_sweep_rows`` as a list."""
    return list(iter_sweep_rows(config))


_BOOL = ("false", "true")


def iter_render_sweep(rows: Iterable[dict], fmt: str) -> Iterator[str]:
    """Sweep output in ``fmt`` (csv, json or text), one chunk per row after a header.

    The json chunks join to exactly ``json.dumps({"schema": 1, "kind":
    "sweep", "rows": rows}, sort_keys=True, indent=2) + "\\n"``: each row fills
    a fixed template with its keys in sorted order.  Branch names are plain
    identifiers, so the branch string needs no escaping.
    """
    if fmt not in ("csv", "json", "text"):
        raise ValueError(f"sweep format must be csv, json or text, got {fmt!r}")
    if fmt == "csv":
        yield SWEEP_CSV_HEADER + "\n"
        for r in rows:
            yield (f"{r['p']},{r['a']},{r['b']},{r['c']},{r['l1']},{r['l2']},"
                   f"{r['branch']},{r['value']},{_BOOL[r['in_R1']]},"
                   f"{_BOOL[r['in_R2']]},{_BOOL[r['in_R3']]}\n")
    elif fmt == "json":
        yield '{\n  "kind": "sweep",\n  "rows": ['
        sep = "\n"
        for r in rows:
            yield (f'{sep}    {{\n      "a": {r["a"]},\n      "b": {r["b"]},\n'
                   f'      "branch": "{r["branch"]}",\n      "c": {r["c"]},\n'
                   f'      "in_R1": {_BOOL[r["in_R1"]]},\n      "in_R2": {_BOOL[r["in_R2"]]},\n'
                   f'      "in_R3": {_BOOL[r["in_R3"]]},\n      "l1": {r["l1"]},\n'
                   f'      "l2": {r["l2"]},\n      "p": {r["p"]},\n      "value": {r["value"]}\n    }}')
            sep = ",\n"
        yield ("]" if sep == "\n" else "\n  ]") + ',\n  "schema": 1\n}\n'
    else:
        yield (f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
               f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}\n")
        for r in rows:
            yield (f"{r['p']:>3} {r['a']:>3} {r['b']:>3} {r['c']:>3} {r['l1']:>2} {r['l2']:>2} "
                   f"{r['branch']:<22} {r['value']:>5} {_BOOL[r['in_R1']]:>5} "
                   f"{_BOOL[r['in_R2']]:>5} {_BOOL[r['in_R3']]:>5}\n")


def render_sweep(rows: Iterable[dict], fmt: str) -> str:
    """The chunks of ``iter_render_sweep`` as one string."""
    return "".join(iter_render_sweep(rows, fmt))


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
