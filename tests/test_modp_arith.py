import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg import modp_arith
from fpselberg.errors import ResourceLimitError
from fpselberg.modp_arith import FpContext, get_context, is_prime

from reference_impl import PRIMES, prime_at_or_above, ref_factorial_ratio, ref_is_prime


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
        assert ctx.factorial_ratio((), (n,)) * ctx.factorial(n) % p == 1
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
    ctx._build_tables()
    assert ctx.factorial(100) == 100
    assert len(ctx.fact) == len(ctx.inv_fact) == 51
    # Compact C-int arrays, so peak memory hardly depends on whether a query built them.
    assert ctx.fact.itemsize == ctx.inv_fact.itemsize == 4


def test_table_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(modp_arith, "MAX_TABLE_ENTRIES", 50)
    ctx = FpContext(101)  # needs 51 entries per table
    # A vanishing read answers before the cap check.
    assert ctx.factorial(101) == ctx.factorial_ratio((3, 200), (1,)) == 0
    for read in (lambda: ctx.factorial(3), lambda: ctx.factorial_ratio((), (3,)), lambda: ctx.binomial(5, 2),
                 lambda: ctx.factorial_ratio((3,), ())):
        with pytest.raises(ResourceLimitError):
            read()
    assert ctx.fact is None and ctx.inv_fact is None and ctx.swept == 0
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
        assert ctx.factorial_ratio((), (n,)) * running % p == 1
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
        assert ctx.factorial_ratio((), (x,)) * ctx.factorial(x) % p == 1


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


# -- factorial_ratio ------------------------------------------------------------


def _swept(p: int) -> FpContext:
    """A fresh context of p, whose first ratio reads sweep instead of building tables."""
    return FpContext(p)


def _tabled(p: int) -> FpContext:
    ctx = FpContext(p)
    ctx._build_tables()
    return ctx


@pytest.mark.parametrize("p", PRIMES)
def test_factorial_ratio_exhaustive_at_small_primes(p):
    # Every top argument in [0, 2p) against every bottom argument in [0, p), singly
    # and in pairs with repeats, by sweep and by table reads, against the bignum.
    fact = [math.factorial(n) % p for n in range(2 * p)]
    inverse = [pow(f, p - 2, p) for f in fact[:p]]
    tabled = _tabled(p)
    for top in [()] + [(n,) for n in range(2 * p)] + [(m, n) for m in range(p) for n in range(m, p)]:
        for bottom in [()] + [(n,) for n in range(p)] + [(n, n) for n in range(p)]:
            want = math.prod(fact[n] for n in top) * math.prod(inverse[n] for n in bottom) % p
            ctx = _swept(p)
            assert ctx.factorial_ratio(top, bottom) == want, (top, bottom)
            assert ctx.fact is None  # one read at a time never reaches the table cost here
            assert tabled.factorial_ratio(top, bottom) == want, (top, bottom)


@settings(deadline=None, max_examples=40)
@given(p=st.integers(1_000, 1_000_000).map(prime_at_or_above), data=st.data())
def test_factorial_ratio_matches_table_reads_at_large_primes(p, data):
    # Arguments on both sides of (p-1)/2, so reflected ones move across the fraction
    # with their sign, and tops >= p, whose factorial is 0.
    half = (p - 1) // 2
    arg = st.one_of(st.integers(0, half), st.integers(half + 1, p - 1), st.sampled_from((0, 1, half, half + 1, p - 1)))
    top = data.draw(st.lists(st.one_of(arg, st.integers(p, 4 * p)) if data.draw(st.booleans()) else arg,
                             max_size=6))
    bottom = data.draw(st.lists(arg, max_size=4))
    want = ref_factorial_ratio(get_context(p), top, bottom)
    ctx = _swept(p)
    assert ctx.factorial_ratio(top, bottom) == want
    assert ctx.fact is None
    assert ctx.swept <= half
    ctx._build_tables()
    assert ctx.factorial_ratio(top, bottom) == want
    get_context.cache_clear()  # the reference tables go with it


def test_factorial_ratio_builds_the_tables_once_sweeps_cost_as_much():
    p = 1009
    ctx = _swept(p)
    top, bottom = (504,), (503,)  # 504! / 503! = 504, a 504-step sweep
    assert ctx.factorial_ratio(top, bottom) == 504
    assert ctx.fact is None and ctx.swept == 504
    # 504 + 504 = 1008 steps stay under the p + 1 = 1010 both half tables take ...
    assert ctx.factorial_ratio(top, bottom) == 504
    assert ctx.fact is None and ctx.swept == 1008
    # ... and the next read builds them, then reads them.
    assert ctx.factorial_ratio((2,), ()) == 2
    assert ctx.fact is not None and ctx.swept == 1008
    assert ctx.factorial_ratio(top, bottom) == 504
    # A vanishing top sweeps nothing.
    fresh = _swept(p)
    assert fresh.factorial_ratio((500, p), (3,)) == 0
    assert fresh.fact is None and fresh.swept == 0
    # The read that builds the tables reflects on both sides: 1000 moves from
    # the top to the bottom as 8 with a sign flip, 701 from the bottom to the
    # top as 307 without one; 1008 + 307 steps reach p + 1.
    second = _swept(p)
    for _ in range(2):
        assert second.factorial_ratio(top, bottom) == 504
    assert second.fact is None and second.swept == 1008
    assert second.factorial_ratio((1000,), (3, 701)) == 208  # 1000! / (3! 701!) mod 1009
    assert second.fact is not None and second.swept == 1008


@pytest.mark.parametrize("p", [5, 1009])
def test_factorial_ratio_range_errors(p):
    for ctx in (_swept(p), _tabled(p)):
        for top, bottom in (((-1,), ()), ((4 * p + 1,), ()), ((), (p,)), ((), (-1,)), ((p,), (p,))):
            with pytest.raises(ValueError):
                ctx.factorial_ratio(top, bottom)
