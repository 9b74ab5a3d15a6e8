import itertools
import random
import sys

import pytest

from fpselberg.errors import DomainError, GuardError, ResourceLimitError
from fpselberg.fp_poly import MultiPoly, fp_integral
from fpselberg.modp_arith import get_context
from fpselberg.selberg_core import (
    MasterPolySpec,
    SelbergParams,
    beta_closed,
    master_polynomial,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_grid,
    selberg_nd_closed,
)

from reference_impl import PRIMES, all_triples, ref_phi, ref_reduce, ref_selberg

# The default verify cycles l1 <= l2 <= 4 plus the transposed relation cycles.
GRID_CYCLES = [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)] + [(2, 1), (3, 1)]


def test_params_validation():
    params = SelbergParams(3, 4, 3, 7)
    assert params.delta == 3 + 4 + 6 + 1 - 14
    for bad in [(0, 1, 1), (7, 1, 1), (1, -2, 1), (1, 1, 9)]:
        with pytest.raises(ValueError):
            SelbergParams(*bad, 7)
    with pytest.raises(ValueError):
        SelbergParams(1, 1, 1, 6)


def test_master_spec_allows_zero_parameters():
    spec = MasterPolySpec(2, 1, 0, 1, 7)
    assert spec.var_degree == 3
    with pytest.raises(ValueError):
        MasterPolySpec(0, 1, 1, 1, 7)
    with pytest.raises(ValueError):
        MasterPolySpec(2, -1, 1, 1, 7)


def test_master_polynomial_one_dimensional():
    poly = master_polynomial(MasterPolySpec(1, 1, 1, 0, 5), exact=True)
    assert poly == MultiPoly(1, {(1,): 1, (2,): -1})


def test_master_polynomial_small_two_dimensional():
    # (x1-x2)^2 * x1 * x2 = x1^3 x2 - 2 x1^2 x2^2 + x1 x2^3
    poly = master_polynomial(MasterPolySpec(2, 1, 0, 1, 7), exact=True)
    assert poly.coefficient((3, 1)) == 1
    assert poly.coefficient((2, 2)) == -2
    assert poly.coefficient((1, 3)) == 1
    assert len(poly.terms) == 3


def test_master_polynomial_swap_symmetry():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.choice((5, 7))
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        poly = master_polynomial(MasterPolySpec(2, a, b, c, p))
        swapped = {(e2, e1): coeff for (e1, e2), coeff in poly.terms.items()}
        assert swapped == poly.terms


def test_master_polynomial_matches_reference():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(1, 3)
        p = rng.choice((5, 7))
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        spec = MasterPolySpec(n, a, b, c, p)
        expect = ref_phi(n, a, b, c)
        assert master_polynomial(spec, exact=True).terms == expect
        assert master_polynomial(spec).terms == ref_reduce(expect, p)


def test_resource_guard_and_env_override(monkeypatch):
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    with pytest.raises(ResourceLimitError):
        master_polynomial(MasterPolySpec(3, 1, 1, 1, 13))  # n=3 capped at p <= 11
    with pytest.raises(ResourceLimitError):
        master_polynomial(MasterPolySpec(4, 1, 1, 1, 5))  # n > 3 capped
    with pytest.raises(ResourceLimitError):
        selberg_bruteforce(MasterPolySpec(2, 996, 996, 996, 997), (1, 1))  # cell cap
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "100000")
    poly = master_polynomial(MasterPolySpec(4, 1, 1, 1, 5))
    assert poly.coefficient((4, 4, 4, 4)) == ref_selberg(4, 1, 1, 1, 5, (1, 1, 1, 1)) % 5
    assert selberg_bruteforce(MasterPolySpec(3, 1, 1, 1, 13), (1, 1, 1)) == ref_selberg(
        3, 1, 1, 1, 13, (1, 1, 1)
    ) % 13
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "10")
    with pytest.raises(ResourceLimitError):
        master_polynomial(MasterPolySpec(1, 5, 5, 0, 7))
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "not-a-number")
    with pytest.raises(ValueError):
        master_polynomial(MasterPolySpec(1, 1, 1, 0, 7))


def test_bruteforce_reference_values():
    assert selberg_bruteforce(SelbergParams(3, 4, 3, 7).spec(2), (1, 1)) == 1
    assert selberg_bruteforce(SelbergParams(1, 1, 1, 7).spec(2), (1, 1)) == 0
    assert selberg_bruteforce(SelbergParams(6, 6, 3, 7).spec(2), (2, 2)) == 5
    assert selberg_bruteforce(SelbergParams(6, 6, 3, 7).spec(2), (2, 2), exact=True) == -1080
    assert selberg_bruteforce(SelbergParams(3, 4, 3, 7).spec(2), (1, 1), exact=True) == -20


def test_bruteforce_cycle_validation():
    spec = SelbergParams(1, 1, 1, 5).spec(2)
    with pytest.raises(ValueError):
        selberg_bruteforce(spec, (1,))
    with pytest.raises(ValueError):
        selberg_bruteforce(spec, (1, 0))


@pytest.mark.parametrize("p", [5, 7])
def test_bruteforce_matches_naive_reference(p):
    rng = random.Random(p)
    for _ in range(15):
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        expect = ref_selberg(2, a, b, c, p, (l1, l2))
        spec = SelbergParams(a, b, c, p).spec(2)
        assert selberg_bruteforce(spec, (l1, l2), exact=True) == expect
        assert selberg_bruteforce(spec, (l1, l2)) == expect % p


@pytest.mark.parametrize("p", [5, 7])
def test_cycle_symmetry(p):
    for a, b, c in all_triples(p):
        spec = SelbergParams(a, b, c, p).spec(2)
        for l1 in range(1, 4):
            for l2 in range(l1 + 1, 4):
                assert selberg_bruteforce(spec, (l1, l2)) == selberg_bruteforce(spec, (l2, l1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_direct_equals_bruteforce(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        spec = params.spec(2)
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert selberg_direct_2d(params, l1, l2) == selberg_bruteforce(spec, (l1, l2))


@pytest.mark.parametrize("a, b, c, p", [
    (1, 1, 1, 999983),  # no k puts both t1 and t2 in [0, b]
    (1, 15, 995, 1009),  # k in [992, 998] does, but C(2c, k) = 0 there: 2c - p = 981 < k < p
])
def test_direct_empty_interval_reads_no_factorial(a, b, c, p):
    get_context.cache_clear()
    params = SelbergParams(a, b, c, p)
    assert selberg_direct_2d(params, 1, 1) == 0
    assert params.ctx.fact is None


def test_beta_closed_examples():
    ctx = get_context(7)
    assert beta_closed(ctx, 3, 3) == 6
    assert beta_closed(ctx, 1, 1) == 0
    assert beta_closed(ctx, 6, 0) == 1
    with pytest.raises(ValueError):
        beta_closed(ctx, 7, 0)
    with pytest.raises(ValueError):
        beta_closed(ctx, 0, -1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_beta_closed_equals_one_dimensional_bruteforce(p):
    ctx = get_context(p)
    one = MultiPoly.one(1, p)
    xv = MultiPoly.variable(1, 1, p)
    for a in range(p):
        for b in range(p):
            poly = MultiPoly.monomial((a,), p=p) * (one - xv) ** b
            from fpselberg.fp_poly import fp_integral

            assert beta_closed(ctx, a, b) == fp_integral(poly, (1,))


def test_nd_closed_examples_and_errors():
    ctx = get_context(7)
    assert selberg_nd_closed(ctx, 1, 3, 3, 0) == 6
    assert selberg_nd_closed(ctx, 1, 3, 3, 5) == 6  # c plays no role at n=1
    with pytest.raises(DomainError):
        selberg_nd_closed(ctx, 1, 1, 1, 0)  # a+b too small
    with pytest.raises(DomainError):
        selberg_nd_closed(ctx, 2, 6, 6, 6)  # upper inequality violated
    with pytest.raises(ValueError):
        selberg_nd_closed(ctx, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        selberg_nd_closed(ctx, 2, -1, 1, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_nd_closed_equals_bruteforce_n2(p):
    ctx = get_context(p)
    for a in range(2 * p):
        for b in range(2 * p):
            for c in range(p):
                if not (p - 1 <= a + b + c and a + b + 2 * c < 2 * p - 1):
                    continue
                got = selberg_nd_closed(ctx, 2, a, b, c)
                assert got == selberg_bruteforce(MasterPolySpec(2, a, b, c, p), (1, 1))


def test_nd_closed_equals_bruteforce_n3_small():
    p = 5
    ctx = get_context(p)
    checked = 0
    for a in range(2 * p):
        for b in range(2 * p):
            for c in range(p):
                if not (p - 1 <= a + b + 2 * c and a + b + 4 * c < 2 * p - 1):
                    continue
                got = selberg_nd_closed(ctx, 3, a, b, c)
                assert got == selberg_bruteforce(MasterPolySpec(3, a, b, c, p), (1, 1, 1))
                checked += 1
    assert checked > 0


def test_moment_kind_validation():
    params = SelbergParams(1, 1, 1, 5)
    with pytest.raises(ValueError):
        moment_integral(params, (1, 1), "S3")
    with pytest.raises(ValueError):
        moment_integral(params, (1, 1, 1), "S1")


@pytest.mark.parametrize("p", [5, 7])
def test_moment_s2_is_linear_combination(p):
    # (1-x1)+(1-x2) = 2 - (x1+x2), so S2 = 2*S - S1
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        for cycle in [(1, 1), (1, 2), (2, 2)]:
            s = selberg_bruteforce(params.spec(2), cycle)
            s1 = moment_integral(params, cycle, "S1")
            s2 = moment_integral(params, cycle, "S2")
            assert s2 == (2 * s - s1) % p


def test_moment_matches_reference_expansion():
    rng = random.Random(3)
    for _ in range(10):
        p = rng.choice((5, 7))
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        params = SelbergParams(a, b, c, p)
        phi = ref_phi(2, a, b, c)
        target = (l1 * p - 1, l2 * p - 1)
        s1_ref = phi.get((target[0] - 1, target[1]), 0) + phi.get((target[0], target[1] - 1), 0)
        assert moment_integral(params, (l1, l2), "S1") == s1_ref % p


def test_moment_recurrence_spot_check():
    # (a+1) * S1(a,b,c) = 2(a+b+c+2) * S(a+1,b,c) at the reference point
    params = SelbergParams(3, 4, 3, 7)
    s1 = moment_integral(params, (1, 1), "S1")
    shifted = selberg_bruteforce(SelbergParams(4, 4, 3, 7).spec(2), (1, 1))
    assert s1 * (params.a + 1) == shifted * (2 * (params.a + params.b + params.c + 2))


# Reference moments: multiply Phi by the degree-1 factor, then read the cycle coefficient.
MOMENT_FACTORS = {"S1": {(1, 0): 1, (0, 1): 1}, "S2": {(0, 0): 2, (1, 0): -1, (0, 1): -1}}


@pytest.mark.parametrize("p", [5, 7])
def test_moment_index_sum_matches_product_formula(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        phi = master_polynomial(params.spec(2))
        for kind, factor in MOMENT_FACTORS.items():
            product = phi * MultiPoly(2, factor, p)
            for cycle in GRID_CYCLES:
                want = fp_integral(product, cycle)
                assert moment_integral(params, cycle, kind) == want, (a, b, c, cycle)


@pytest.mark.parametrize("p", PRIMES)
def test_grid_matches_per_point_bruteforce(p):
    grid = selberg_grid(p, GRID_CYCLES)
    for a, b, c in itertools.product(range(p), repeat=3):
        spec = MasterPolySpec(2, a, b, c, p)
        for cycle in GRID_CYCLES:
            assert grid.value(a, b, c, cycle) == selberg_bruteforce(spec, cycle), (a, b, c, cycle)
            if a and b and c:
                params = SelbergParams(a, b, c, p)
                s1, s2 = grid.moments(a, b, c, cycle)
                assert (s1, s2) == (moment_integral(params, cycle, "S1"),
                                    moment_integral(params, cycle, "S2")), (a, b, c, cycle)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_grid_nd_window_reads_absent_coefficients_as_zero(p):
    # a, b in [0, 2p): for a >= p the read index T - a is negative.
    grid = selberg_grid(p, [(1, 1)], 2 * p)
    for a, b, c in itertools.product(range(2 * p), range(2 * p), range(p)):
        value = grid.value(a, b, c, (1, 1))
        assert value == selberg_bruteforce(MasterPolySpec(2, a, b, c, p), (1, 1)), (a, b, c)
        if a >= p:
            assert value == 0 and grid.moments(a, b, c, (1, 1)) == (0, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_grid_matches_reference_expansion(p):
    grid = selberg_grid(p, GRID_CYCLES)
    for a, b, c in all_triples(p):
        phi = ref_phi(2, a, b, c)
        for l1, l2 in GRID_CYCLES:
            assert grid.value(a, b, c, (l1, l2)) == phi.get((l1 * p - 1, l2 * p - 1), 0) % p


def test_grid_reads_outside_the_box_are_refused():
    grid = selberg_grid(5, [(1, 1)])
    for a, b, c in [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (5, 1, 1), (1, 1, 5)]:
        with pytest.raises(ValueError):
            grid.value(a, b, c, (1, 1))
    with pytest.raises(ValueError):
        grid.moments(1, 1, 1, (1, 2))
    with pytest.raises(ValueError):
        selberg_grid(5, [(1, 1)], ab_stop=0)
    with pytest.raises(ValueError):
        selberg_grid(5, [])
    with pytest.raises(ValueError):
        selberg_grid(9, [(1, 1)])


def test_grid_guard_refuses_before_allocating(monkeypatch):
    # Without numpy in reach, any allocation would fail with another error.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    with pytest.raises(ResourceLimitError):
        selberg_grid(1009, [(1, 1)])
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "100")
    with pytest.raises(ResourceLimitError):
        selberg_grid(13, [(1, 1)])


def test_grid_guard_counts_the_value_boxes(monkeypatch):
    # At p = 163 the largest Q has (3p-2)^2 = 237,169 cells, under the default
    # cap, but the value and moment boxes hold 2 * 163^3 * 12 cells.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    with pytest.raises(ResourceLimitError, match="12 cycles"):
        selberg_grid(163, GRID_CYCLES)


def test_grid_guard_counts_only_the_truncated_expansion(monkeypatch):
    # a, b < 1 at p = 13 on [1,1]: Q is cut at degree 12, so it takes 14^2 cells
    # with its zero margin, and the boxes 2 * 1 * 13 * 1.  The untruncated Q
    # would need 25^2 = 625.
    cells = 14**2 + 2 * 13
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells - 1))
    with pytest.raises(ResourceLimitError, match=f"needs {cells} "):
        selberg_grid(13, [(1, 1)], ab_stop=1)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells))
    grid = selberg_grid(13, [(1, 1)], ab_stop=1)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS")
    for c in range(13):
        assert grid.value(0, 0, c, (1, 1)) == selberg_bruteforce(MasterPolySpec(2, 0, 0, c, 13), (1, 1))
