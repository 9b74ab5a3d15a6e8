"""Exhaustive verification suites and deterministic parameter sweeps.

Every suite checks an exact identity over a finite grid, so the only
tolerance anywhere is equality.  Sweep rows are built serially in
lexicographic parameter order, which makes CSV/JSON sweep output
byte-identical regardless of ``--jobs``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable

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
    MasterPolySpec,
    SelbergGrid,
    SelbergParams,
    beta_closed,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_grid,
    selberg_nd_closed,
)
from .selberg2d_closed import (
    RELATION_CYCLES,
    Branch,
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
    output_format: str = "text"
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
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"output format must be json, csv or text, got {self.output_format!r}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")

    def cycles(self) -> list:
        return [(l1, l2) for l1 in range(1, self.cycle_bound + 1)
                for l2 in range(l1, self.cycle_bound + 1)]


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


class _PointOracle:
    """Per-point brute force with the grid's reads, for a prime whose grid is over the cap."""

    def __init__(self, p: int):
        self.p = p

    def value(self, a: int, b: int, c: int, cycle):
        return selberg_bruteforce(MasterPolySpec(2, a, b, c, self.p), cycle)

    def moments(self, a: int, b: int, c: int, cycle):
        params = SelbergParams(a, b, c, self.p)
        return moment_integral(params, cycle, "S1"), moment_integral(params, cycle, "S2")


def _oracle(p: int, cycles, ab_stop: int | None = None) -> SelbergGrid | _PointOracle:
    """The brute-force grid at p, or per-point brute force where the grid exceeds the cap.

    Per-point expansion keeps its own guard, so a run the grid cannot hold
    succeeds or fails exactly as it would without the grid.
    """
    try:
        return selberg_grid(p, cycles, ab_stop)
    except ResourceLimitError:
        return _PointOracle(p)


class _GridCache(dict):
    """Brute-force oracles of one verification run, one per prime, built on first use.

    Its cycles are every cycle a suite reads brute force on, so all suites
    share one expansion per (p, c).
    """

    def __init__(self, config: SweepConfig):
        super().__init__()
        self.cycles = tuple(dict.fromkeys(
            config.cycles() + list(_RECURRENCE_CYCLES) + [(l, l) for l in _BRIDGE_LEVELS]
            + list(RELATION_CYCLES)))

    def __missing__(self, p: int) -> SelbergGrid | _PointOracle:
        grid = self[p] = _oracle(p, self.cycles)
        return grid


# -- suites --------------------------------------------------------------------


def _suite_oracle_equiv(config: SweepConfig, grids: _GridCache) -> SuiteResult:
    """All selected evaluation methods agree on every grid point."""
    result = SuiteResult("oracle_equiv")
    methods = config.methods if len(config.methods) >= 2 else ALL_METHODS
    reference = "bruteforce" if "bruteforce" in methods else methods[0]
    others = [m for m in methods if m != reference]
    cycles = config.cycles()
    for p in config.primes:
        evaluators = {"direct": selberg_direct_2d, "closed": eval_closed}
        if "bruteforce" in methods:
            evaluators["bruteforce"] = (
                lambda params, l1, l2, grid=grids[p]: grid.value(params.a, params.b, params.c, (l1, l2)))
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in cycles:
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
    cycles = config.cycles()
    for p in config.primes:
        grid = grids[p]
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in cycles:
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
    for p in [q for q in config.primes if q <= 7]:
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
        # n = 2: matches brute force, and the C11_i closed form in the window.
        window = _oracle(p, [(1, 1)], 2 * p)
        for a in range(2 * p):
            for b in range(2 * p):
                for c in range(p):
                    if not (p - 1 <= a + b + c and a + b + 2 * c < 2 * p - 1):
                        continue
                    got = selberg_nd_closed(ctx, 2, a, b, c)
                    brute = window.value(a, b, c, (1, 1))
                    result.record(got == brute,
                                  lambda: _ce(p, a, b, c, 1, 1, "nd n=2", brute, got))
                    if 0 < a < p and 0 < b < p and 0 < c < p:
                        params = SelbergParams(a, b, c, p)
                        if classify(params, 1, 1) == Branch.C11_i:
                            closed = eval_closed(params, 1, 1)
                            result.record(got == closed, lambda: _ce(
                                p, a, b, c, 1, 1, "nd n=2 vs C11_i", closed, got))
        # n = 3: brute force is guarded beyond p = 11.
        if p > 11:
            result.skipped += 1
            result.notes.append(f"n=3 comparison skipped at p={p}: brute-force resource guard")
            continue
        for a in range(2 * p):
            for b in range(2 * p):
                for c in range(p):
                    if not (p - 1 <= a + b + 2 * c and a + b + 4 * c < 2 * p - 1):
                        continue
                    got = selberg_nd_closed(ctx, 3, a, b, c)
                    try:
                        brute = selberg_bruteforce(MasterPolySpec(3, a, b, c, p), (1, 1, 1))
                    except ResourceLimitError:
                        result.skipped += 1
                        continue
                    result.record(got == brute,
                                  lambda: _ce(p, a, b, c, 1, 1, "nd n=3", brute, got))
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


def sweep_rows(config: SweepConfig) -> list:
    """One row per (p, a, b, c, l1, l2), in lexicographic order.

    The value column uses the first configured method; for brute force one
    grid per prime (or per-point expansion where the grid is over the cap) is
    built first.  Rows are built serially; ``config.parallelism`` is not
    used.  Output is a list of dicts with the fixed CSV column set.
    """
    method = config.methods[0] if config.methods else "closed"
    cycles = config.cycles()
    rows = []
    for p in config.primes:
        grid = _oracle(p, cycles) if method == "bruteforce" else None
        for a, b, c in _triples(p):
            params = SelbergParams(a, b, c, p)
            r1, r2, r3 = in_condition_sets(params)
            for l1, l2 in cycles:
                if method == "bruteforce":
                    value = grid.value(a, b, c, (l1, l2))
                elif method == "direct":
                    value = selberg_direct_2d(params, l1, l2)
                else:
                    value = eval_closed(params, l1, l2)
                rows.append({"p": p, "a": a, "b": b, "c": c, "l1": l1, "l2": l2,
                             "branch": str(classify(params, l1, l2)), "value": value,
                             "in_R1": r1, "in_R2": r2, "in_R3": r3})
    return rows


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def render_sweep(rows: list, fmt: str) -> str:
    if fmt == "csv":
        lines = [SWEEP_CSV_HEADER]
        for r in rows:
            lines.append(
                f"{r['p']},{r['a']},{r['b']},{r['c']},{r['l1']},{r['l2']},"
                f"{r['branch']},{r['value']},{_bool_str(r['in_R1'])},"
                f"{_bool_str(r['in_R2'])},{_bool_str(r['in_R3'])}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"schema": 1, "kind": "sweep", "rows": rows},
                          sort_keys=True, indent=2) + "\n"
    lines = [f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
             f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}"]
    for r in rows:
        lines.append(
            f"{r['p']:>3} {r['a']:>3} {r['b']:>3} {r['c']:>3} {r['l1']:>2} {r['l2']:>2} "
            f"{r['branch']:<22} {r['value']:>5} {_bool_str(r['in_R1']):>5} "
            f"{_bool_str(r['in_R2']):>5} {_bool_str(r['in_R3']):>5}"
        )
    return "\n".join(lines) + "\n"


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
