import itertools
from math import comb

import pytest

from fpselberg import morris_ct
from fpselberg.errors import DomainError, ResourceLimitError
from fpselberg.morris_ct import (
    MAX_EXPONENT,
    MAX_N,
    MorrisParams,
    _morris_family,
    morris_ct_bruteforce,
    morris_lhs_symmetric_form,
    morris_rhs,
    morris_substitution,
    selberg_via_morris,
)
from fpselberg.selberg_core import SelbergParams, selberg_bruteforce

from reference_impl import all_triples, ref_mul, ref_pow


def test_morris_params_validation():
    with pytest.raises(ValueError):
        MorrisParams(0, 1, 1, 1)
    with pytest.raises(ValueError):
        MorrisParams(2, -1, 1, 1)


def test_ct_examples():
    assert morris_ct_bruteforce(MorrisParams(1, 1, 1, 0)) == 2
    assert morris_ct_bruteforce(MorrisParams(2, 0, 0, 1)) == 2
    for alpha in range(4):
        for beta in range(4):
            # product of two binomial series: Vandermonde convolution
            assert morris_ct_bruteforce(MorrisParams(1, alpha, beta, 0)) == comb(alpha + beta, alpha)


def test_rhs_examples():
    assert morris_rhs(MorrisParams(1, 1, 1, 0)) == 2
    assert morris_rhs(MorrisParams(2, 0, 0, 1)) == 2
    # alpha = beta = 0 reduces to the multinomial constant term: (3g)!/g!^3
    assert morris_rhs(MorrisParams(3, 0, 0, 2)) == 90


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        morris_ct_bruteforce(MorrisParams(4, 1, 1, 1))
    with pytest.raises(ResourceLimitError):
        morris_ct_bruteforce(MorrisParams(2, 1, 1, 5))
    with pytest.raises(ResourceLimitError):
        morris_lhs_symmetric_form(MorrisParams(4, 1, 1, 1))
    morris_rhs(MorrisParams(5, 6, 6, 6))  # formula side is unguarded


def test_identity_on_small_grid():
    for n in (1, 2):
        for alpha, beta, gamma in itertools.product(range(3), repeat=3):
            mp = MorrisParams(n, alpha, beta, gamma)
            ct = morris_ct_bruteforce(mp)
            assert ct == morris_rhs(mp)
            assert ct == morris_lhs_symmetric_form(mp)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_family_matches_per_point_sides(n):
    # Every (alpha, beta, gamma) the guard admits: both sides, stepped through
    # one family per gamma, against the per-point expansions.
    exponents = range(MAX_EXPONENT + 1)
    for gamma in exponents:
        family = _morris_family(n, gamma, MAX_EXPONENT)
        assert sorted(family) == list(itertools.product(exponents, repeat=2))
        for (alpha, beta), sides in family.items():
            mp = MorrisParams(n, alpha, beta, gamma)
            assert sides == (morris_ct_bruteforce(mp), morris_lhs_symmetric_form(mp)), mp


def test_family_guard():
    with pytest.raises(ResourceLimitError):
        _morris_family(MAX_N + 1, 1, 1)
    with pytest.raises(ResourceLimitError):
        _morris_family(2, MAX_EXPONENT + 1, 1)
    with pytest.raises(ResourceLimitError):
        _morris_family(2, 1, MAX_EXPONENT + 1)


def test_rhs_refuses_a_quotient_that_does_not_divide(monkeypatch):
    # With (k + 2) for k!, the n = 1 product at (1, 1, 0) is 2*4 / (2*3*3).
    monkeypatch.setattr(morris_ct, "factorial", lambda k: k + 2)
    with pytest.raises(ArithmeticError, match="did not reduce to an integer"):
        morris_rhs(MorrisParams(1, 1, 1, 0))


def test_ct_matches_dict_reference():
    # the dense pipeline agrees with the Laurent product built term by term on dicts
    cases = (MorrisParams(2, 1, 1, 1), MorrisParams(2, 2, 1, 2), MorrisParams(1, 2, 3, 0),
             MorrisParams(3, 1, 1, 1), MorrisParams(3, 2, 0, 1), MorrisParams(3, 0, 2, 2),
             MorrisParams(1, 0, 0, 0), MorrisParams(2, 0, 0, 0), MorrisParams(3, 0, 0, 0))
    for mp in cases:
        n = mp.n
        zero = (0,) * n
        product = {zero: 1}
        for i in range(n):
            xi = tuple(1 if t == i else 0 for t in range(n))
            xi_inv = tuple(-e for e in xi)
            product = ref_mul(product, ref_pow({zero: 1, xi: -1}, mp.alpha, n))
            product = ref_mul(product, ref_pow({zero: 1, xi_inv: -1}, mp.beta, n))
        for j in range(n):
            for k in range(n):
                if j != k:
                    ratio = tuple(1 if t == j else (-1 if t == k else 0) for t in range(n))
                    product = ref_mul(product, ref_pow({zero: 1, ratio: -1}, mp.gamma, n))
        assert product.get(zero, 0) == morris_ct_bruteforce(mp) == morris_lhs_symmetric_form(mp)


def test_substitution_mapping():
    params = SelbergParams(3, 4, 3, 7)
    mp = morris_substitution(params, 1)
    assert (mp.n, mp.alpha, mp.beta, mp.gamma) == (2, 4, 0, 3)
    with pytest.raises(DomainError):
        morris_substitution(SelbergParams(1, 1, 1, 7), 1)  # a+b+c < p-1
    with pytest.raises(DomainError):
        morris_substitution(params, 2)  # a+b+c < 2p-1
    with pytest.raises(ValueError):
        morris_substitution(params, 3)


@pytest.mark.parametrize("p", [5, 7])
def test_bridge_to_selberg_diagonal_cycles(p):
    checked = 0
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        for l in (1, 2):
            if a + b + c < l * p - 1 or a + c > l * p - 1:
                continue
            via = selberg_via_morris(params, l)
            spec = params.spec(2)
            assert via == selberg_bruteforce(spec, (l, l), exact=True)
            assert via % p == int(selberg_bruteforce(spec, (l, l)))
            checked += 1
    assert checked > 0
