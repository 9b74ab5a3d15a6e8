import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg.fp_poly import (
    MultiPoly,
    _binomial_terms,
    _coefficient,
    _dense_product,
    check_cycle,
    fp_integral,
    partial_derivative,
)

from reference_impl import PRIMES, ref_cross, ref_mul, ref_pow, ref_reduce, ref_univariate


def x(i, k, p=None):
    return MultiPoly.variable(i, k, p)


def test_multiply_difference_of_squares():
    k = 2
    a = x(1, k) - x(2, k)
    b = x(1, k) + x(2, k)
    assert a * b == x(1, k) ** 2 - x(2, k) ** 2


def test_multiply_by_one_is_identity():
    poly = MultiPoly(2, {(3, 1): 4, (0, 2): -7})
    assert poly * MultiPoly.one(2) == poly


def test_multiply_cube_times_cube():
    base = MultiPoly.one(1) - x(1, 1)
    product = base**3 * base**3
    assert product == base**6
    assert product.coefficient((3,)) == -20


def test_power_examples():
    assert x(1, 1) ** 5 == MultiPoly.monomial((5,))
    assert (MultiPoly.one(1) - x(1, 1)) ** 2 == MultiPoly(1, {(0,): 1, (1,): -2, (2,): 1})
    assert ((x(1, 2) - x(2, 2)) ** 6).coefficient((3, 3)) == -20
    assert MultiPoly.zero(1) ** 0 == MultiPoly.one(1)


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        x(1, 1) ** -1


def test_fp_integral_examples():
    assert fp_integral(MultiPoly.monomial((4,), p=5), (1,)) == 1
    assert fp_integral(MultiPoly.monomial((3,), p=5), (1,)) == 0
    poly = MultiPoly.monomial((3,), p=7) * (MultiPoly.one(1, 7) - x(1, 1, 7)) ** 3
    assert fp_integral(poly, (1,)) == 6  # coefficient of x^6 is -1


def test_fp_integral_validation():
    poly = MultiPoly.monomial((4,), p=5)
    with pytest.raises(ValueError):
        fp_integral(poly, (1, 1))
    with pytest.raises(ValueError):
        fp_integral(poly, (0,))
    with pytest.raises(ValueError):
        fp_integral(MultiPoly.monomial((4,)), (1,))  # exact ring has no mod-p integral
    with pytest.raises(ValueError):
        check_cycle((1, -2))


def test_partial_derivative_examples():
    p = 5
    assert partial_derivative(MultiPoly.monomial((p,), p=p), 1).is_zero
    assert partial_derivative(x(1, 1) ** 2, 1) == MultiPoly(1, {(1,): 2})
    assert partial_derivative(MultiPoly.monomial((3, 1), p=3), 1).is_zero
    with pytest.raises(ValueError):
        partial_derivative(x(1, 2), 3)


def test_ring_and_arity_mismatch():
    with pytest.raises(ValueError):
        x(1, 2) * x(1, 3)
    with pytest.raises(ValueError):
        x(1, 2, 5) * x(1, 2, 7)
    with pytest.raises(ValueError):
        x(1, 2, 5) * x(1, 2)
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): 3})
    with pytest.raises(ValueError):
        MultiPoly(0, {})


def test_canonical_form_drops_zeros():
    poly = MultiPoly(1, {(0,): 5, (1,): 10}, p=5)
    assert poly.is_zero
    diff = x(1, 1) - x(1, 1)
    assert diff.terms == {}
    assert diff.degree(1) == -1


def test_degrees():
    poly = MultiPoly(2, {(3, 1): 1, (0, 4): 2})
    assert poly.degree(1) == 3
    assert poly.degree(2) == 4
    assert poly.degrees() == (3, 4)


def _random_terms(rng, k, max_deg, max_coeff, count):
    return {
        tuple(rng.randrange(max_deg + 1) for _ in range(k)): rng.randint(-max_coeff, max_coeff)
        for _ in range(count)
    }


def test_multiply_matches_naive_reference():
    rng = random.Random(101)
    for _ in range(50):
        k = rng.randint(1, 3)
        t1 = _random_terms(rng, k, 6, 9, rng.randint(1, 8))
        t2 = _random_terms(rng, k, 6, 9, rng.randint(1, 8))
        expect = {e: c for e, c in ref_mul(t1, t2).items()}
        got = MultiPoly(k, t1) * MultiPoly(k, t2)
        assert got.terms == expect


@pytest.mark.parametrize("p", [5, 7])
def test_modular_multiply_equals_exact_then_reduce(p):
    rng = random.Random(p)
    for _ in range(40):
        k = rng.randint(1, 2)
        t1 = _random_terms(rng, k, 8, 30, rng.randint(1, 10))
        t2 = _random_terms(rng, k, 8, 30, rng.randint(1, 10))
        exact = MultiPoly(k, t1) * MultiPoly(k, t2)
        modular = MultiPoly(k, t1, p) * MultiPoly(k, t2, p)
        assert exact.reduce_mod(p) == modular


def test_dense_product_matches_reference():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 3)
        factors = []
        expect = {(0,) * k: 1}
        for _ in range(rng.randint(1, 4)):
            terms = _random_terms(rng, k, 3, 5, rng.randint(1, 5))
            if not terms:
                continue
            factors.append(list(terms.items()))
            expect = ref_mul(expect, terms)
        p = rng.choice((None, 5, 11))
        arr = _dense_product(k, factors, p)
        got = MultiPoly.from_dense(arr, p)
        want = MultiPoly(k, expect if p is None else ref_reduce(expect, p), p)
        assert got == want


def test_dense_product_cut_drops_only_the_exponents_above_it():
    rng = random.Random(8)
    for _ in range(30):
        k = rng.randint(1, 3)
        factors = [list(_random_terms(rng, k, 4, 5, rng.randint(1, 5)).items()) for _ in range(3)]
        factors = [factor for factor in factors if factor]
        p, cut = rng.choice((None, 5, 11)), rng.randint(0, 6)
        arr = _dense_product(k, factors, p, cut)
        assert max(arr.shape) <= cut + 1
        full = MultiPoly.from_dense(_dense_product(k, factors, p), p)
        want = {e: v for e, v in full.terms.items() if max(e) <= cut}
        assert MultiPoly.from_dense(arr, p).terms == want


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_dense_product_mod_large_prime_is_exact(p):
    # Three factors with coefficients p-1: int64 accumulation must not wrap.
    factor = [((0,), p - 1), ((1,), p - 1), ((2,), p - 1)]
    arr = _dense_product(1, [factor] * 3, p)
    want = ref_reduce(ref_pow(dict(factor), 3, 1), p)
    assert {(i,): int(v) for i, v in enumerate(arr) if v} == want


def test_dense_product_object_dtype_for_huge_bounds():
    # one factor with astronomically large coefficients must force exact objects
    factors = [[((0,), 2**70), ((1,), 1)]]
    arr = _dense_product(1, factors, None)
    assert arr.dtype == object
    assert int(arr[0]) == 2**70
    small = _dense_product(1, [[((0,), 1), ((1,), -1)]], None)
    assert small.dtype == np.int64


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_fp_integral_is_linear(data):
    p = data.draw(st.sampled_from(PRIMES))
    k = data.draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3 * p - 1)] * k)
    terms = st.dictionaries(exps, st.integers(0, p - 1), max_size=8)
    P = MultiPoly(k, data.draw(terms), p)
    Q = MultiPoly(k, data.draw(terms), p)
    alpha = data.draw(st.integers(0, p - 1))
    beta = data.draw(st.integers(0, p - 1))
    cycle = data.draw(st.tuples(*[st.integers(1, 3)] * k))
    combined = alpha * P + beta * Q
    want = (fp_integral(P, cycle) * alpha + fp_integral(Q, cycle) * beta) % p
    assert fp_integral(combined, cycle) == want


def test_stokes_property_on_random_polynomials():
    # integrals of first partial derivatives vanish: 200 random draws
    rng = random.Random(20240811)
    checked = 0
    for _ in range(200):
        p = rng.choice(PRIMES)
        k = rng.randint(1, 2)
        terms = {
            tuple(rng.randrange(3 * p) for _ in range(k)): rng.randrange(p)
            for _ in range(rng.randint(1, 25))
        }
        poly = MultiPoly(k, terms, p)
        cycle = tuple(rng.randint(1, 3) for _ in range(k))
        for i in range(1, k + 1):
            assert fp_integral(partial_derivative(poly, i), cycle) == 0
            checked += 1
    assert checked >= 200


def _unit(i, n, e=1):
    return tuple(e if t == i else 0 for t in range(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_binomial_terms_match_reference_factors(n):
    zero = (0,) * n
    shifts = [zero, tuple(range(1, n + 1)), tuple(2 * t + 3 for t in range(n))]
    for e in range(7):
        for i in range(n):
            # x_i^a (1 - x_i)^b, and (x_i - 1)^b = (-1)^b (1 - x_i)^b
            for a in (0, 1, 4):
                assert dict(_binomial_terms(_unit(i, n, a), zero, _unit(i, n), e)) == ref_univariate(a, e, i, n)
            flipped = {exps: (-1) ** e * c for exps, c in ref_univariate(0, e, i, n).items()}
            assert dict(_binomial_terms(zero, _unit(i, n), zero, e)) == flipped
            # x^shift (x_i - x_j)^e
            for j in range(n):
                if j == i:
                    continue
                for shift in shifts:
                    want = ref_mul({shift: 1}, ref_cross(i, j, e, n))
                    assert dict(_binomial_terms(shift, _unit(i, n), _unit(j, n), e)) == want


def test_coefficient_reads_zero_outside_the_array():
    arr = np.arange(1, 7, dtype=np.int64).reshape(2, 3)
    assert _coefficient(arr, (1, 2)) == 6
    assert _coefficient(arr, (0, 0)) == 1
    # a negative index must not wrap around to the last row or column
    assert _coefficient(arr, (-1, 0)) == 0
    assert _coefficient(arr, (0, -1)) == 0
    assert _coefficient(arr, (2, 0)) == 0
    assert _coefficient(arr, (0, 3)) == 0
