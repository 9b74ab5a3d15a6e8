"""Exact arithmetic in the prime field F_p.

An :class:`FpContext` fixes an odd prime p.  Its factorial and
inverse-factorial tables cover only [0, (p-1)/2] and are built on the first
factorial read; Wilson reflection, n! (p-1-n)! = (-1)^(n+1), gives the upper
half of [0, p-1].  Factorials of arguments >= p are 0 by construction (p
divides n!), and the closed-form evaluators elsewhere in the package rely on
that vanishing; only arguments in [0, p-1] may ever be inverted.

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
# factorial read that needs the tables raises ResourceLimitError instead of
# exhausting memory.
MAX_TABLE_ENTRIES = 15_000_000
# The tables are C-int arrays, 4 bytes an entry: residues below p < 2^25 fit,
# the two tables stay near 120 MB at the cap and 4 MB at p = 1e6, and a
# process's memory hardly depends on whether it built them.
_TABLE_TYPECODE = "i"


class FpContext:
    """An odd prime p with lazily built factorial and inverse-factorial tables.

    Constructing a context only validates p.  The first factorial read that
    needs them builds the half-tables, each of (p+1)/2 entries:
      * ``fact[n]`` = n! mod p for 0 <= n <= (p-1)/2;
      * ``inv_fact[n]`` = the inverse of n! mod p on the same range.
    ``factorial``, ``inv_factorial`` and ``binomial`` reach the rest of
    [0, p-1] by Wilson reflection; both tables are ``None`` until then.
    Both are C-int arrays (``array('i')``).  Building them is idempotent, so
    a context may be shared.
    """

    __slots__ = ("p", "fact", "inv_fact")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"prime must be an integer, got {p!r}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        self.p = p
        self.fact = None
        self.inv_fact = None

    def check_table_size(self):
        """Raise ResourceLimitError if the factorial tables of p are over the cap; builds nothing."""
        half = (self.p + 1) // 2
        if half > MAX_TABLE_ENTRIES:
            raise ResourceLimitError(
                f"factorial tables at p={self.p} need {half} entries each, cap is {MAX_TABLE_ENTRIES}"
            )

    def _build_tables(self):
        self.check_table_size()
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
        p = self.p
        if n < 0 or n > 4 * p:
            raise ValueError(f"factorial argument {n} outside [0, {4 * p}]")
        if n >= p:
            return 0
        if self.fact is None:
            self._build_tables()
        if 2 * n < p:
            return self.fact[n]
        v = self.inv_fact[p - 1 - n]  # n! = (-1)^(n+1) / (p-1-n)!
        return v if n & 1 else p - v

    def inv_factorial(self, n: int) -> int:
        """Inverse of n! mod p; requires 0 <= n <= p-1 so that n! is non-zero."""
        p = self.p
        if n < 0 or n >= p:
            raise ValueError(f"inverse factorial needs 0 <= n < p, got n={n} for p={p}")
        if self.fact is None:
            self._build_tables()
        if 2 * n < p:
            return self.inv_fact[n]
        v = self.fact[p - 1 - n]  # 1/n! = (-1)^(n+1) (p-1-n)!
        return v if n & 1 else p - v

    def binomial(self, n: int, m: int) -> int:
        """Binomial coefficient C(n, m) mod p by base-p digit factorization (Lucas).

        Total on n, m >= 0 of any size, with the convention C(n, m) = 0 when
        n < m (applied digit by digit).  A digit with m_i = 0 or m_i = n_i
        contributes 1 and reads no table.
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
                result = (result * self.factorial(nd) % p * self.inv_factorial(md) % p
                          * self.inv_factorial(nd - md) % p)
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

