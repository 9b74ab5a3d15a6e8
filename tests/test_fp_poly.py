import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg.fp_poly import (
    MultiPoly,
    _binomial_terms,
    _coefficient,
    _dense_product,
    fp_integral,
    partial_derivative,
)
from fpselberg.selberg2d_closed import check_cycle

from reference_impl import PRIMES, dense_terms, ref_cross, ref_mul, ref_pow, ref_reduce, ref_univariate


def degrees(poly: MultiPoly) -> tuple:
    """The largest exponent of each variable; -1 for the zero polynomial."""
    return tuple(max((e[i] for e in poly.terms), default=-1) for i in range(poly.num_vars))


def test_fp_integral_examples():
    assert fp_integral(MultiPoly(1, {(4,): 1}, 5), (1,)) == 1
    assert fp_integral(MultiPoly(1, {(3,): 1}, 5), (1,)) == 0
    poly = MultiPoly(1, ref_univariate(3, 3, 0, 1), 7)  # x^3 (1 - x)^3
    assert fp_integral(poly, (1,)) == 6  # coefficient of x^6 is -1
    # x1^3 x2^3 (x1 - x2)^6 reads -C(6, 3) = -20 = 1 mod 7 at x1^6 x2^6
    assert fp_integral(MultiPoly(2, ref_mul({(3, 3): 1}, ref_cross(0, 1, 6, 2)), 7), (1, 1)) == 1
    assert fp_integral(MultiPoly(2, {(6, 13): -20}, 7), (1, 2)) == 1


def test_fp_integral_validation():
    poly = MultiPoly(1, {(4,): 1}, 5)
    with pytest.raises(ValueError):
        fp_integral(poly, (1, 1))
    with pytest.raises(ValueError):
        fp_integral(poly, (0,))
    with pytest.raises(ValueError):
        check_cycle((1, -2))


def test_partial_derivative_examples():
    p = 5
    assert partial_derivative(MultiPoly(1, {(p,): 1}, p), 1).terms == {}
    assert partial_derivative(MultiPoly(1, {(2,): 1, (0,): 3}, p), 1).terms == {(1,): 2}
    assert partial_derivative(MultiPoly(2, {(3, 1): 1}, 3), 1).terms == {}
    assert partial_derivative(MultiPoly(2, {(3, 1): 1, (1, 2): 4}, 7), 2).terms == {(3, 0): 1, (1, 1): 1}
    with pytest.raises(ValueError):
        partial_derivative(MultiPoly(2, {(1, 0): 1}, 5), 3)


def test_ring_and_arity_mismatch():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0, 0): 1}, 5)
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0): 1})  # no exact ring: p is required
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): 3}, 5)
    with pytest.raises(ValueError):
        MultiPoly(0, {}, 5)


def test_non_integer_exponents_and_coefficients_are_rejected():
    # A float would otherwise come back from fp_integral as a non-residue (2.5).
    for terms in ({(4.0,): 2}, {(4,): 2.5}, {(4.0,): 2.5}, {(True, 1.5): 1}):
        with pytest.raises(ValueError, match="integer"):
            MultiPoly(len(next(iter(terms))), terms, 5)
    assert MultiPoly(1, {(4,): 7}, 5).terms == {(4,): 2}


def test_canonical_form_drops_zeros():
    poly = MultiPoly(1, {(0,): 5, (1,): 10}, p=5)
    assert poly.terms == {}
    assert degrees(poly)[0] == -1
    # Coefficients come back as residues in [0, p); repeated keys add up.
    assert MultiPoly(2, {(1, 0): -1, (0, 1): 12}, 5).terms == {(1, 0): 4, (0, 1): 2}
    assert MultiPoly(1, {range(1, 2): 2, (1,): 3}, 5).terms == {}


def test_degrees():
    poly = MultiPoly(2, {(3, 1): 1, (0, 4): 2}, 5)
    assert degrees(poly)[0] == 3
    assert degrees(poly)[1] == 4
    assert degrees(poly) == (3, 4)


def _random_terms(rng, k, max_deg, max_coeff, count):
    return {
        tuple(rng.randrange(max_deg + 1) for _ in range(k)): rng.randint(-max_coeff, max_coeff)
        for _ in range(count)
    }


@pytest.mark.parametrize("p", [5, 7])
def test_modular_multiply_equals_exact_then_reduce(p):
    # The dense kernel's mod-p product is its exact product reduced term by term.
    rng = random.Random(p)
    for _ in range(40):
        k = rng.randint(1, 2)
        factors = [list(_random_terms(rng, k, 8, 30, rng.randint(1, 10)).items()) for _ in range(2)]
        exact = dense_terms(_dense_product(k, factors, None))
        modular = dense_terms(_dense_product(k, factors, p))
        assert ref_reduce(exact, p) == modular


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
        assert dense_terms(arr, p) == (expect if p is None else ref_reduce(expect, p))


def test_dense_product_cut_drops_only_the_exponents_above_it():
    rng = random.Random(8)
    for _ in range(30):
        k = rng.randint(1, 3)
        factors = [list(_random_terms(rng, k, 4, 5, rng.randint(1, 5)).items()) for _ in range(3)]
        factors = [factor for factor in factors if factor]
        p, cut = rng.choice((None, 5, 11)), rng.randint(0, 6)
        arr = _dense_product(k, factors, p, cut)
        assert max(arr.shape) <= cut + 1
        full = dense_terms(_dense_product(k, factors, p))
        assert dense_terms(arr) == {e: v for e, v in full.items() if max(e) <= cut}


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


def test_dense_product_with_an_empty_factor_is_zero():
    # An empty factor's L1 norm is 0, which must not choose int64 for a later
    # factor past 2^63; the product is one zero cell in either order.
    huge = [((4,), -2**65)]
    for factors in ([[], huge], [huge, []]):
        arr = _dense_product(1, factors, None, 3)
        assert arr.shape == (1,) and int(arr[0]) == 0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_fp_integral_is_linear(data):
    p = data.draw(st.sampled_from(PRIMES))
    k = data.draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3 * p - 1)] * k)
    terms = st.dictionaries(exps, st.integers(0, p - 1), max_size=8)
    P, Q = data.draw(terms), data.draw(terms)
    alpha = data.draw(st.integers(0, p - 1))
    beta = data.draw(st.integers(0, p - 1))
    cycle = data.draw(st.tuples(*[st.integers(1, 3)] * k))
    combined = {e: alpha * P.get(e, 0) + beta * Q.get(e, 0) for e in {*P, *Q}}
    want = (fp_integral(MultiPoly(k, P, p), cycle) * alpha + fp_integral(MultiPoly(k, Q, p), cycle) * beta) % p
    assert fp_integral(MultiPoly(k, combined, p), cycle) == want


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


def test_dense_product_places_its_first_factor():
    for p, dtype in ((None, np.int64), (7, np.int64), (2**61 - 1, object)):
        one = _dense_product(2, [], p)
        assert one.shape == (1, 1) and one.dtype == dtype and int(one[0, 0]) == 1
    # Repeated exponents add up, mod p; a term above the cut is dropped but the
    # shape still counts it, as a product with the constant 1 would.
    factor = [((1, 0), 4), ((1, 0), 5), ((0, 3), 2), ((2, 1), -1)]
    assert _dense_product(2, [factor], 7).tolist() == [[0, 0, 0, 2], [2, 0, 0, 0], [0, 6, 0, 0]]
    assert _dense_product(2, [factor], None, 2).tolist() == [[0, 0, 0], [9, 0, 0], [0, -1, 0]]
    assert _dense_product(2, [[]], 7).tolist() == [[0]]


# The per-point expansions of Phi, brute force's alone, all go through
# selberg_core._dense_master behind the cell cap; the Morris constant terms
# keep their own guard.  The grid expands nothing whole: it steps Q_{0,c} over c
# with _dense_mul.
DENSE_PRODUCT_CALLERS = {
    "selberg_core._dense_master",
    "morris_ct.morris_ct_bruteforce",
    "morris_ct.morris_lhs_symmetric_form",
    "morris_ct._morris_family",
}


def _callers(tree: ast.AST, name: str, scope: str) -> set:
    found = set()
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.add(scope)
        found |= _callers(node, name, inner)
    return found


def test_dense_product_callers():
    package = Path(__file__).resolve().parents[1] / "src" / "fpselberg"
    callers = set()
    for path in sorted(package.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text(encoding="utf-8")), "_dense_product", path.stem)
    assert callers == DENSE_PRODUCT_CALLERS
