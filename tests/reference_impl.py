"""Naive reference implementations used as independent oracles in tests.

Everything here is deliberately primitive: dict-based term-by-term
convolution with exact integer coefficients and stdlib binomials, sharing no
code path with the package's dense kernels or table-driven arithmetic.
``dense_terms`` only reads out a dense array the package made.  The verify
suite loops at the end read the package's grids one point at a time, as the
suites themselves did before they read a slab of a at a time, from a
``ReadGrid`` that keeps every slab of a walk.  ``ref_grid_build`` is the grid
window builder as it was before it stepped c: one dense expansion of Q_{0,c}
per c, then b stepped one c at a time.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from fpselberg.errors import GuardError
from fpselberg.fp_poly import _dense_product
from fpselberg.golden import GOLDEN_2D
from fpselberg.selberg_core import (SelbergParams, _master_factors, selberg_bruteforce, selberg_direct_2d,
                                    selberg_grid)
from fpselberg.relations import relations_from_values, skew_symmetry_check
from fpselberg.selberg2d_closed import _ROWS, Branch, _branch, _closed_value, _formula, eval_closed
from fpselberg.verify import _RECURRENCE_CYCLES, SuiteResult, _ce, _recurrences

PRIMES = (3, 5, 7, 11, 13)


def all_triples(p: int):
    return itertools.product(range(1, p), repeat=3)


def ref_is_prime(n: int) -> bool:
    """Trial division; fine up to about 10^12."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_at_or_above(n: int) -> int:
    while not ref_is_prime(n):
        n += 1
    return n


def ref_mul(t1: dict, t2: dict) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(t: dict, e: int, num_vars: int) -> dict:
    out = {(0,) * num_vars: 1}
    for _ in range(e):
        out = ref_mul(out, t)
    return out


def ref_reduce(t: dict, p: int) -> dict:
    out = {e: c % p for e, c in t.items()}
    return {e: c for e, c in out.items() if c}


def ref_univariate(a: int, b: int, var: int, num_vars: int) -> dict:
    """x_var^a * (1 - x_var)^b as exact terms (var is 0-based)."""
    terms = {}
    for k in range(b + 1):
        exps = tuple(a + k if i == var else 0 for i in range(num_vars))
        terms[exps] = (-1) ** k * comb(b, k)
    return terms


def ref_cross(i: int, j: int, e: int, num_vars: int) -> dict:
    """(x_i - x_j)^e as exact terms (0-based indices)."""
    terms = {}
    for k in range(e + 1):
        exps = tuple((e - k if t == i else k) if t in (i, j) else 0 for t in range(num_vars))
        terms[exps] = (-1) ** k * comb(e, k)
    return terms


def ref_phi(n: int, a: int, b: int, c: int) -> dict:
    """Exact expansion of the master polynomial in n variables."""
    out = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            out = ref_mul(out, ref_cross(i, j, 2 * c, n))
    for i in range(n):
        out = ref_mul(out, ref_univariate(a, b, i, n))
    return out


def ref_selberg(n: int, a: int, b: int, c: int, p: int, cycle) -> int:
    """Exact integer coefficient of Phi_n at the cycle exponents."""
    target = tuple(l * p - 1 for l in cycle)
    return ref_phi(n, a, b, c).get(target, 0)


def ref_integral(terms: dict, p: int, cycle) -> int:
    """The coefficient of exact terms at the cycle exponents (l1*p-1, ...), reduced mod p."""
    return terms.get(tuple(l * p - 1 for l in cycle), 0) % p


def dense_terms(arr, p: int | None = None) -> dict:
    """The non-zero entries of a dense coefficient array as exact terms, reduced mod p if given."""
    terms = {tuple(int(e) for e in idx): int(arr[idx]) for idx in zip(*arr.nonzero())}
    return terms if p is None else ref_reduce(terms, p)


# -- factorial reads -------------------------------------------------------------------
# The closed and direct routes as they were before they read factorials through
# FpContext.factorial_ratio: one table read per factorial, and one term of the direct
# sum at a time.  ``ref_factorial`` and ``ref_inv_factorial`` are FpContext's single
# table reads as they were before factorial_ratio became its only reader; they build
# the context's tables on their first read.


def ref_factorial(ctx, n: int) -> int:
    """n! mod p as a plain int; n must lie in [0, 4p], and n >= p gives 0."""
    p = ctx.p
    if n < 0 or n > 4 * p:
        raise ValueError(f"factorial argument {n} outside [0, {4 * p}]")
    if n >= p:
        return 0
    if ctx.fact is None:
        ctx._build_tables()
    if 2 * n < p:
        return ctx.fact[n]
    v = ctx.inv_fact[p - 1 - n]  # n! = (-1)^(n+1) / (p-1-n)!
    return v if n & 1 else p - v


def ref_inv_factorial(ctx, n: int) -> int:
    """Inverse of n! mod p; requires 0 <= n <= p-1 so that n! is non-zero."""
    p = ctx.p
    if n < 0 or n >= p:
        raise ValueError(f"inverse factorial needs 0 <= n < p, got n={n} for p={p}")
    if ctx.fact is None:
        ctx._build_tables()
    if 2 * n < p:
        return ctx.inv_fact[n]
    v = ctx.fact[p - 1 - n]  # 1/n! = (-1)^(n+1) (p-1-n)!
    return v if n & 1 else p - v


def ref_factorial_ratio(ctx, top, bottom) -> int:
    """prod top! / prod bottom! mod p, one ``ref_factorial`` or ``ref_inv_factorial`` read per argument."""
    value = 1
    for n in top:
        value = value * ref_factorial(ctx, n) % ctx.p
    for n in bottom:
        value = value * ref_inv_factorial(ctx, n) % ctx.p
    return value


def ref_closed_value(branch: Branch, params: SelbergParams) -> int:
    """``_closed_value`` with one table read per factorial."""
    if branch.is_zero:
        return 0
    ctx = params.ctx
    p = params.p
    sign, top, bottom = _formula(branch, params)
    value = sign % p
    for arg in top:
        value = value * ref_factorial(ctx, arg) % p
    for arg in bottom:
        if not 0 <= arg < p:
            raise GuardError(
                f"denominator factorial argument {arg} outside [0, p-1] on branch {branch.value}"
            )
        value = value * ref_inv_factorial(ctx, arg) % p
    return value


def ref_direct_coefficient(ctx, a: int, b: int, c: int, t1: int, t2: int) -> int:
    """``_direct_coefficient`` summed one term at a time, six inverse-factorial reads per term."""
    p = ctx.p
    shift = a + 2 * c - t1  # j1 = k - shift
    top = t2 - a  # j2 = top - k
    lo, hi = max(shift, top - b), min(shift + b, top)
    if lo > hi:
        return 0
    n0 = 2 * c % p
    inv = functools.partial(ref_inv_factorial, ctx)
    total = 0
    for start, stop in ((0, n0), (p, 2 * c)) if 2 * c >= p else ((0, n0),):
        for k in range(max(lo, start), min(hi, stop) + 1):
            j1, j2 = k - shift, top - k
            term = (inv(k - start) * inv(n0 - k + start) % p * inv(j1) % p * inv(b - j1) % p
                    * inv(j2) % p * inv(b - j2) % p)
            total = (total - term if (k + t1 + t2) & 1 else total + term) % p
    if total:
        total = total * ref_factorial(ctx, n0) % p * ref_factorial(ctx, b) ** 2 % p
    return total


def ref_direct_runs(p: int, a: int, b: int, c: int, t1: int, t2: int) -> int:
    """How many of the direct sum's k runs, [0, 2c mod p] and [p, 2c], meet its k interval."""
    shift, top = a + 2 * c - t1, t2 - a
    lo, hi = max(shift, top - b), min(shift + b, top)
    runs = ((0, 2 * c % p), (p, 2 * c)) if 2 * c >= p else ((0, 2 * c),)
    return sum(max(lo, start) <= min(hi, stop) for start, stop in runs)


# -- classifier --------------------------------------------------------------------
# The if-chain over the cycle classes, as the package's classifier was before each
# class became one function in a table; copied verbatim apart from its name.


def ref_branch(params: SelbergParams, l1: int, l2: int) -> Branch:
    """``classify`` on a checked cycle."""
    if l1 > l2:
        l1, l2 = l2, l1
    a, b, c, p = params.a, params.b, params.c, params.p

    if (l1, l2) == (1, 1):
        if a + c >= p or a + b + c <= p - 2:
            return Branch.NOT_APPLICABLE_zero
        # now a+c <= p-1 and a+b+c >= p-1
        if b + c <= p - 1:
            return Branch.C11_i
        if a + b + 2 * c >= 2 * p - 1:
            return Branch.C11_ii
        return Branch.C11_iii_zero

    if (l1, l2) == (2, 2):
        if a + b + c <= 2 * p - 2:
            return Branch.NOT_APPLICABLE_zero
        if a + b + 2 * c <= 3 * p - 2:
            return Branch.C22_i
        return Branch.C22_ii

    if (l1, l2) == (1, 2):
        delta = params.delta
        if delta < 0:
            return Branch.C12_delta_neg_zero
        if delta == 0:
            if a + b < p - 1:
                return Branch.C12_delta0_zero
            return Branch.C12_delta0_formula
        # delta > 0 forces (a+c) + (b+c) >= 2p, so a+c and b+c cannot both
        # stay below p; 2c = p is impossible for odd p.
        if 2 * c < p:
            if a + c <= p - 1:
                return Branch.C12_i
            if b + c <= p - 1:
                return Branch.C12_ii
            if a + b + c < 2 * p - 1:
                return Branch.C12_iii_zero
            return Branch.C12_iv
        if a + c >= p:
            return Branch.C12_v_zero
        if b + c >= p:
            return Branch.C12_vi_zero
        raise GuardError(f"unreachable [1,2] case at {params}")

    if (l1, l2) == (1, 3):
        if a + b + 2 * c < 3 * p - 1:
            return Branch.C13_zero
        return Branch.C13_formula

    if (l1, l2) == (2, 3):
        return Branch.C23_zero

    return Branch.OTHER_zero


# -- sweep renderers ---------------------------------------------------------------
# The csv and text sweep renderers as they were before sweep output was streamed:
# whole-list f-string joins over the rows, tuples in SWEEP_CSV_HEADER column order.

SWEEP_CSV_HEADER = "p,a,b,c,l1,l2,branch,value,in_R1,in_R2,in_R3"


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def ref_render_sweep_csv(rows: list) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]},"
            f"{r[6]},{r[7]},{_bool_str(r[8])},"
            f"{_bool_str(r[9])},{_bool_str(r[10])}"
        )
    return "\n".join(lines) + "\n"


def ref_render_sweep_text(rows: list) -> str:
    lines = [f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
             f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}"]
    for r in rows:
        lines.append(
            f"{r[0]:>3} {r[1]:>3} {r[2]:>3} {r[3]:>3} {r[4]:>2} {r[5]:>2} "
            f"{r[6]:<22} {r[7]:>5} {_bool_str(r[8]):>5} "
            f"{_bool_str(r[9]):>5} {_bool_str(r[10]):>5}"
        )
    return "\n".join(lines) + "\n"


# -- the brute-force grid, one expansion per c ---------------------------------------


def ref_grid_build(p: int, cycles: tuple, deg: int, chunk: int, start: int, values, s1) -> None:
    """``_build_window`` as it was before it stepped c: fill the boxes for the window of a values
    from ``start``, one expansion of Q per c; ``chunk`` is not read."""
    import numpy as np

    width, ab_stop = values.shape[:2]
    zero = deg + 1
    targets = np.array([[l * p - 1 for l in cycle] for cycle in cycles]).T[:, :, None]
    n = len(targets)
    # Read 0 is Phi[T], read i is Phi[T - e_i]: index reads x axis x cycles x a.
    shifts = np.vstack([np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)])
    index = (targets - np.arange(start, start + width))[None] - shifts[:, :, None, None]
    inside = ((index >= 0) & (index <= deg)).all(axis=1, keepdims=True)
    index = tuple(np.where(inside, index, zero).swapaxes(0, 1))
    reads = np.empty((ab_stop, *index[0].shape), dtype=np.int64)  # b x reads x cycles x a
    for c in range(p):
        q = np.zeros((zero + 1,) * n, dtype=np.int64)
        q0 = _dense_product(n, _master_factors(n, 0, 0, c), p, deg)  # Q_{0,c} = Phi_{0,0,c}
        q[tuple(map(slice, q0.shape))] = q0
        block = q[(slice(0, zero),) * n]
        axes = [np.moveaxis(block, k, 0) for k in range(n)]  # views of block, axis k first
        for b in range(ab_stop):
            if b:
                for along in axes:  # times (1 - x_k)
                    along[1:] = along[1:] - along[:-1]
                block %= p
            reads[b] = q[index]
        values[:, :, c] = reads[:, 0].transpose(2, 0, 1)
        s1[:, :, c] = (reads[:, 1:].sum(axis=1) % p).transpose(2, 0, 1)


class ReadGrid:
    """Every slab of one ``selberg_grid`` walk, kept for reads in any order: ``slabs[a]`` is
    its (values, S1) at a, and ``index`` maps a cycle to its column in them."""

    def __init__(self, p: int, cycles, ab_stop: int | None = None):
        self.p = p
        self.index = {cycle: k for k, cycle in enumerate(dict.fromkeys(map(tuple, cycles)))}
        self.slabs = list(selberg_grid(p, cycles, ab_stop))


# -- verify suites, one point at a time ---------------------------------------------


def grid_value(grid: ReadGrid, a: int, b: int, c: int, cycle) -> int:
    """The integral of Phi_{a,b,c} over the cycle as a Python int, read from the slab of its a,
    as ``selberg_bruteforce`` gives it."""
    # Explicit bounds: a negative index would silently wrap around.
    assert 0 <= a < len(grid.slabs) and 0 <= b < len(grid.slabs) and 0 <= c < grid.p, (a, b, c)
    return int(grid.slabs[a][0][b, c, grid.index[tuple(cycle)]])


def grid_moments(grid: ReadGrid, a: int, b: int, c: int, cycle) -> tuple:
    """(S1, S2) of one grid point, from the slab of its a; S2 = n * value - S1."""
    values, s1 = grid.slabs[a]
    k = grid.index[tuple(cycle)]
    return int(s1[b, c, k]), (len(cycle) * int(values[b, c, k]) - int(s1[b, c, k])) % grid.p


def _route_value(method: str, params, l1: int, l2: int, branch) -> int:
    """The direct or closed route's value on a checked cycle, dispatched per point."""
    return selberg_direct_2d(params, l1, l2) if method == "direct" else _closed_value(branch, params)


def _check(result: SuiteResult, ok: bool, counterexample) -> None:
    """Count one check in ``result``; ``counterexample()`` builds its record when it fails."""
    result.tally(1, [] if ok else [counterexample()])


def ref_suite_oracle_equiv(config, grids) -> SuiteResult:
    result = SuiteResult("oracle_equiv")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in config.cycles():
                branch = _branch(params, l1, l2)
                expected = grid_value(grid, a, b, c, (l1, l2))
                for method in ("direct", "closed"):
                    got = _route_value(method, params, l1, l2, branch)
                    _check(result, got == expected, lambda: _ce(
                        p, a, b, c, l1, l2, str(branch), expected, got, method=method))
    return result


def ref_suite_recurrences(config, grids) -> SuiteResult:
    result = SuiteResult("recurrences")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in all_triples(p):
            for cycle in _RECURRENCE_CYCLES:
                def value(a, b):  # 0 outside the box, where no recurrence reads it
                    return grid_value(grid, a, b, c, cycle) if a < p and b < p else 0

                shifted = value(a + 1, b), value(a, b + 1), value(a - 1, b), value(a, b - 1)
                checks = _recurrences(p, a, b, c, value(a, b), *grid_moments(grid, a, b, c, cycle), *shifted,
                                      lambda d: pow(d, -1, p) if d else 0)
                for eq, applies, lhs, rhs in checks:
                    if applies:
                        _check(result, lhs == rhs, lambda: _ce(p, a, b, c, cycle[0], cycle[1], eq, rhs, lhs))
    return result


def ref_suite_relations(config, grids) -> SuiteResult:
    result = SuiteResult("relations")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            report = relations_from_values(params, lambda cycle: grid_value(grid, a, b, c, cycle))
            if report.condition_set is None:
                _check(result, bool(report.uniqueness_holds),
                       lambda: _ce(p, a, b, c, 0, 0, "uniqueness", 1, 0))
                continue
            _check(result, bool(report.relation_holds),
                   lambda: _ce(p, a, b, c, 0, 0, f"{report.condition_set} relation", 1, 0))
            head = next(iter(report.values))
            closed_head = _closed_value(_branch(params, *head), params)
            _check(result, closed_head == report.values[head], lambda: _ce(
                p, a, b, c, head[0], head[1], f"{report.condition_set} closed form",
                report.values[head], closed_head))
            if report.condition_set == "R3":
                ok = skew_symmetry_check(params)
                _check(result, ok, lambda: _ce(p, a, b, c, 0, 0, "R3 skew symmetry", 1, 0))
    for entry in GOLDEN_2D:
        if entry.p not in config.primes:
            continue
        params = SelbergParams(entry.a, entry.b, entry.c, entry.p)
        point = (entry.p, entry.a, entry.b, entry.c, entry.l1, entry.l2)
        brute = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2))
        closed = eval_closed(params, entry.l1, entry.l2)
        _check(result, brute == entry.value and closed == entry.value,
               lambda: _ce(*point, "golden", entry.value, brute))
        if entry.integer_value is not None:
            exact = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2), exact=True)
            _check(result, exact == entry.integer_value,
                   lambda: _ce(*point, "golden integer", entry.integer_value, exact))
        if entry.paper_discrepancy:
            result.notes.append(
                f"golden ({entry.p};{entry.a},{entry.b},{entry.c};{entry.l1},{entry.l2}):"
                f" paper_discrepancy=true, printed {entry.printed_value}, oracle {entry.value}"
                + (f" ({entry.note})" if entry.note else "")
            )
    return result


def ref_suite_vanishing(config, grids) -> SuiteResult:
    result = SuiteResult("vanishing")
    for p in config.primes:
        grid = grids[p]
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            for l1, l2 in config.cycles():
                branch = _branch(params, l1, l2)
                if not branch.is_zero:
                    continue
                value = grid_value(grid, a, b, c, (l1, l2))
                _check(result, value == 0, lambda: _ce(p, a, b, c, l1, l2, str(branch), 0, value))
                if config.integer_mode and _ROWS[branch].over_z:
                    exact = selberg_bruteforce(params.spec(2), (l1, l2), exact=True)
                    _check(result, exact == 0,
                           lambda: _ce(p, a, b, c, l1, l2, f"{branch} (integer)", 0, exact))
    return result


REF_SUITES = {
    "oracle_equiv": ref_suite_oracle_equiv,
    "recurrences": ref_suite_recurrences,
    "relations": ref_suite_relations,
    "vanishing": ref_suite_vanishing,
}
