"""Exact arithmetic in the prime field F_p.

An :class:`FpContext` fixes an odd prime p.  Its one factorial reader,
``factorial_ratio``, returns prod top! / prod bottom! mod p.  Factorials of
arguments >= p are 0 by construction (p divides n!), so a top argument >= p
makes the ratio 0 at any prime; the closed-form evaluators elsewhere in the
package rely on that vanishing.  Only arguments in [0, p-1] may ever be
inverted.

It checks each argument's range and reflects each into [0, (p-1)/2] once,
by Wilson's theorem, n! (p-1-n)! = (-1)^(n+1), whether its factorial and
inverse-factorial tables over [0, (p-1)/2] or a sweep then answer.  The
tables cost about p steps to build, which a point query that reads a handful
of factorials at p near 10^6 need not pay.  So the reader answers by one
ascending sweep to its largest reflected argument and one inversion until
the context's sweeps would have cost as many steps as the tables do, and
then builds them: a single point query builds none, a run of many queries at
one prime builds them after a few and reads them from then on.  A prime
whose tables would be over the cap is refused instead of swept.
``factorial`` and ``binomial`` read through it.

Field values throughout the package are plain ints reduced into [0, p);
callers write ``% p`` and ``FpContext.inverse`` where they need arithmetic.
"""

from __future__ import annotations

import functools
from array import array

from .errors import ResourceLimitError

__all__ = [
    "FpContext",
    "get_context",
    "is_prime",
]


# The first 13 primes as Miller-Rabin bases decide every n below this bound
# (Sorenson and Webster, 2015).  The first 12 do not: 318665857834031151167461
# is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check.

    Exact for every n below 3.3e24; larger n raise ``ValueError`` rather
    than get an answer that is only probable.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is not decided deterministically above {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Largest half-table the context builds, so p up to about 3e7.  Above it a
# factorial read that does not vanish raises ResourceLimitError instead of
# exhausting memory.
MAX_TABLE_ENTRIES = 15_000_000
# The tables are C-int arrays, 4 bytes an entry: residues below p < 2^25 fit,
# the two tables stay near 120 MB at the cap and 4 MB at p = 1e6, and a
# process's memory hardly depends on whether it built them.
_TABLE_TYPECODE = "i"


class FpContext:
    """An odd prime p with lazily built factorial and inverse-factorial tables.

    Constructing a context only validates p.  ``factorial_ratio`` is its one
    factorial reader; ``factorial`` and ``binomial`` call it.  Once its sweeps
    have cost as many steps as the tables (``swept`` counts them), it builds
    the half-tables, each of (p+1)/2 entries:
      * ``fact[n]`` = n! mod p for 0 <= n <= (p-1)/2;
      * ``inv_fact[n]`` = the inverse of n! mod p on the same range.
    It reaches the rest of [0, p-1] by Wilson reflection.  Both tables are
    ``None`` until then, and C-int arrays (``array('i')``) after.  Building
    them is idempotent, so a context may be shared.
    """

    __slots__ = ("p", "fact", "inv_fact", "swept")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"prime must be an integer, got {p!r}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        self.p = p
        self.fact = None
        self.inv_fact = None
        self.swept = 0

    def check_table_size(self):
        """Raise ResourceLimitError if the factorial tables of p are over the cap; builds nothing."""
        half = (self.p + 1) // 2
        if half > MAX_TABLE_ENTRIES:
            raise ResourceLimitError(
                f"factorial tables at p={self.p} need {half} entries each, cap is {MAX_TABLE_ENTRIES}"
            )

    def _build_tables(self):
        p = self.p
        half = (p + 1) // 2
        fact = array(_TABLE_TYPECODE, [1]) * half
        v = 1
        for n in range(1, half):
            v = v * n % p
            fact[n] = v
        inv_fact = array(_TABLE_TYPECODE, [1]) * half
        v = pow(v, p - 2, p)
        for n in range(half - 1, 0, -1):
            inv_fact[n] = v
            v = v * n % p
        self.inv_fact = inv_fact
        self.fact = fact

    def factorial(self, n: int) -> int:
        """n! mod p as a plain int; n must lie in [0, 4p], and n >= p gives 0."""
        return self.factorial_ratio((n,), ())

    def factorial_ratio(self, top, bottom) -> int:
        """prod(n! for n in top) / prod(n! for n in bottom) mod p, as a plain int.

        Each top argument must lie in [0, 4p], and one >= p makes the ratio 0;
        each bottom argument must lie in [0, p-1], so that its factorial is
        non-zero.  One pass checks every argument and reflects each n above
        (p-1)/2, with the sign (-1)^(n+1), to p-1-n on the other side of the
        fraction, so every m whose m! multiplies or divides is at most
        (p-1)/2.  With the tables built each m is one table read.  Before, a
        prime over the table cap is refused, and one ascending sweep to the
        largest m and one inversion answer, unless the context's sweeps would
        reach the p + 1 steps that building both half tables takes: then the
        read builds them and reads those.
        """
        p = self.p
        half = (p - 1) // 2  # the largest m a table holds
        ups, downs, minus = [], [], 0  # the m whose m! multiplies and divides; the power of -1
        for n in bottom:
            if n < 0 or n >= p:
                raise ValueError(f"inverse factorial needs 0 <= n < p, got n={n} for p={p}")
            if n <= half:
                downs.append(n)
            else:  # 1/n! = (-1)^(n+1) (p-1-n)!
                ups.append(p - 1 - n)
                minus += n + 1
        vanishes = False
        for n in top:
            if not 0 <= n < p:
                if n < 0 or n > 4 * p:
                    raise ValueError(f"factorial argument {n} outside [0, {4 * p}]")
                vanishes = True
            elif n <= half:
                ups.append(n)
            else:  # n! = (-1)^(n+1) / (p-1-n)!
                downs.append(p - 1 - n)
                minus += n + 1
        if vanishes:
            return 0
        if self.fact is None:
            self.check_table_size()
            steps = max(ups + downs, default=0)
            if self.swept + steps < p + 1:
                self.swept += steps
                num = den = v = n = 1  # v = (n-1)! mod p
                for m, up in sorted([(m, True) for m in ups] + [(m, False) for m in downs]):
                    for x in range(n, m + 1):
                        v = v * x % p
                    n = m + 1
                    if up:
                        num = num * v % p
                    else:
                        den = den * v % p
                value = num * pow(den, p - 2, p) % p
                return p - value if minus & 1 else value
            self._build_tables()
        fact, inv_fact, value = self.fact, self.inv_fact, 1  # reduced once: a few factors below p
        for m in ups:
            value *= fact[m]
        for m in downs:
            value *= inv_fact[m]
        value %= p
        return p - value if minus & 1 else value

    def binomial(self, n: int, m: int) -> int:
        """Binomial coefficient C(n, m) mod p by base-p digit factorization (Lucas).

        Total on n, m >= 0 of any size, with the convention C(n, m) = 0 when
        n < m (applied digit by digit).  A digit with m_i = 0 or m_i = n_i
        contributes 1 and reads no factorial; any other is one ratio read.
        """
        if n < 0 or m < 0:
            raise ValueError(f"binomial arguments must be non-negative, got ({n}, {m})")
        p = self.p
        result = 1
        while m:
            nd = n % p
            md = m % p
            if md > nd:
                return 0
            if 0 < md < nd:
                result = result * self.factorial_ratio((nd,), (md, nd - md)) % p
            n //= p
            m //= p
        return result

    def inverse(self, value: int) -> int:
        """The inverse of value mod p, in [0, p); ZeroDivisionError when p divides value."""
        v = value % self.p
        if v == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(v, self.p - 2, self.p)

    def __repr__(self):
        return f"FpContext(p={self.p})"


@functools.lru_cache(maxsize=None, typed=True)
def get_context(p: int) -> FpContext:
    """Shared, cached context per prime.

    Typed, so that a float equal to a cached prime is still refused.
    """
    return FpContext(p)

