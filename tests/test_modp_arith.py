import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg import modp_arith
from fpselberg.errors import ResourceLimitError
from fpselberg.modp_arith import FpContext, get_context, is_prime

from reference_impl import PRIMES, prime_at_or_above, ref_is_prime


def test_is_prime_small_range():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_matches_trial_division():
    for n in range(100_000):
        assert is_prime(n) == ref_is_prime(n), n


def _strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_edge_cases():
    for carmichael in (561, 41041, 825265):
        assert not is_prime(carmichael)
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    # A strong pseudoprime to every prime base up to 37: twelve bases are not
    # enough, the thirteenth (41) exposes it.
    psi12 = 399165290221 * 798330580441
    assert all(_strong_probable_prime(psi12, q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_prime(psi12)
    # Beyond the bound where 13 bases are proven exact the answer is refused.
    with pytest.raises(ValueError, match="not decided"):
        is_prime(2**89 - 1)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 0, -7])
def test_context_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        FpContext(bad)


def test_get_context_is_cached():
    assert get_context(7) is get_context(7)


@pytest.mark.parametrize("p", PRIMES)
def test_factorial_table_shape_and_vanishing(p):
    ctx = get_context(p)
    for n in range(p):
        assert ctx.inv_factorial(n) * ctx.factorial(n) % p == 1
    for n in range(4 * p + 1):
        assert ctx.factorial(n) == math.factorial(n) % p
        assert (ctx.factorial(n) == 0) == (n >= p)


def test_tables_are_half_size_and_built_on_first_read():
    ctx = FpContext(101)
    assert ctx.fact is None and ctx.inv_fact is None
    # n >= p and the trivial binomial digits read no table.
    assert ctx.factorial(101) == ctx.factorial(404) == 0
    assert ctx.binomial(7, 0) == ctx.binomial(7, 7) == ctx.binomial(7 * 101 + 3, 7 * 101) == 1
    assert ctx.binomial(3, 7 * 101) == 0
    assert ctx.fact is None
    assert ctx.factorial(100) == 100
    assert len(ctx.fact) == len(ctx.inv_fact) == 51
    # Compact C-int arrays, so peak memory hardly depends on whether a query built them.
    assert ctx.fact.itemsize == ctx.inv_fact.itemsize == 4


def test_table_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(modp_arith, "MAX_TABLE_ENTRIES", 50)
    ctx = FpContext(101)  # needs 51 entries per table
    assert ctx.factorial(101) == 0
    for read in (lambda: ctx.factorial(3), lambda: ctx.inv_factorial(3), lambda: ctx.binomial(5, 2)):
        with pytest.raises(ResourceLimitError):
            read()
    assert ctx.fact is None and ctx.inv_fact is None
    assert FpContext(97).factorial(96) == 96  # 49 entries fit


@settings(deadline=None, max_examples=20)
@given(p=st.integers(1_000, 1_000_000).map(prime_at_or_above), data=st.data())
def test_factorials_match_bignum_at_large_primes(p, data):
    # Both sides of the half-table boundary (p-1)/2, and p-1 (Wilson).
    half = (p - 1) // 2
    points = sorted({data.draw(st.integers(0, half)), data.draw(st.integers(half + 1, p - 1)),
                     half, half + 1, p - 1})
    ctx = FpContext(p)  # not the cached context: the tables are freed with it
    running, n = 1, 0  # running = math.factorial(n) % p, without the bignum
    for point in points:
        while n < point:
            n += 1
            running = running * n % p
        assert ctx.factorial(n) == running
        assert ctx.inv_factorial(n) * running % p == 1
    assert ctx.factorial(p - 1) == p - 1


@pytest.mark.parametrize("p", PRIMES + (17, 19, 23))
def test_wilson(p):
    # (p-1)! = -1 mod p
    assert get_context(p).factorial(p - 1) == p - 1


def test_factorial_examples():
    assert get_context(5).factorial(4) == 4  # 24 mod 5
    assert get_context(5).factorial(5) == 0  # contains the factor p
    assert get_context(7).factorial(6) == 6


@pytest.mark.parametrize("p", [5, 13])
def test_factorial_range_errors(p):
    ctx = get_context(p)
    with pytest.raises(ValueError):
        ctx.factorial(-1)
    with pytest.raises(ValueError):
        ctx.factorial(4 * p + 1)


@pytest.mark.parametrize("p", PRIMES)
def test_factorial_cancellation(p):
    # a! * (p-1-a)! = (-1)^(a+1) for complementary arguments
    ctx = get_context(p)
    for a in range(p):
        b = p - 1 - a
        assert ctx.factorial(a) * ctx.factorial(b) % p == (-1) ** (a + 1) % p


@pytest.mark.parametrize("p", PRIMES)
def test_binomial_shift_identity(p):
    # b * C(b-1, p-a-1) = (-1)^(a+1) a! b! / (a+b-p)!  when a+b >= p
    ctx = get_context(p)
    for a in range(1, p):
        for b in range(1, p):
            if a + b < p:
                continue
            lhs = b * ctx.binomial(b - 1, p - a - 1) % p
            rhs = ((-1) ** (a + 1) * ctx.factorial(a) * ctx.factorial(b)
                   * ctx.inverse(ctx.factorial(a + b - p)) % p)
            assert lhs == rhs
            # the complementary index gives the same binomial
            assert ctx.binomial(b - 1, p - a - 1) == ctx.binomial(b - 1, a + b - p)


def test_binomial_examples():
    ctx = get_context(5)
    assert ctx.binomial(5, 1) == 0
    assert ctx.binomial(7, 3) == 0  # 35 = 5 * 7
    assert ctx.binomial(6, 1) == 1  # digits (1,1) choose (0,1)


@pytest.mark.parametrize("p", PRIMES)
def test_binomial_against_bignum(p):
    ctx = get_context(p)
    for n in range(4 * p + 1):
        for m in range(n + 1):
            assert ctx.binomial(n, m) == math.comb(n, m) % p
    assert ctx.binomial(3, 7) == 0  # m > n convention
    with pytest.raises(ValueError):
        ctx.binomial(-1, 0)


@settings(deadline=None)
@given(n=st.integers(0, 3000), m=st.integers(0, 3000), p=st.sampled_from(PRIMES))
def test_binomial_lucas_matches_bignum_large(n, m, p):
    # n far beyond the factorial tables: forces multi-digit base-p splits
    assert get_context(p).binomial(n, m) == math.comb(n, m) % p


def test_inverse_examples():
    ctx = get_context(7)
    assert ctx.inverse(3) == 5
    assert ctx.inverse(1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inverse(0)
    with pytest.raises(ZeroDivisionError):
        ctx.inverse(7)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_total_on_nonzero(p):
    ctx = get_context(p)
    for x in range(1, p):
        assert x * ctx.inverse(x) % p == 1
        assert ctx.inv_factorial(x) * ctx.factorial(x) % p == 1


@settings(deadline=None)
@given(y=st.integers(-200, 200), p=st.sampled_from(PRIMES))
def test_inverse_on_ints(y, p):
    ctx = get_context(p)
    if y % p:
        inv = ctx.inverse(y)
        assert 0 <= inv < p
        assert y * inv % p == 1
    else:
        with pytest.raises(ZeroDivisionError):
            ctx.inverse(y)
