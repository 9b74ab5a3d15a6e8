"""Exact arithmetic in the prime field F_p.

An :class:`FpContext` fixes an odd prime p and precomputes factorials up to 4p
together with inverse factorials below p.  Factorials of arguments >= p are 0
by construction (p divides n!), and the closed-form evaluators elsewhere in
the package rely on that vanishing; only arguments in [0, p-1] may ever be
inverted.
"""

from __future__ import annotations

import functools

__all__ = [
    "FpContext",
    "FpElement",
    "get_context",
    "is_prime",
]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FpElement:
    """A canonically reduced element of F_p.

    Supports +, -, *, / and ** against other elements of the same field or
    plain integers (reduced mod p on the way in).  Division by zero raises
    ``ZeroDivisionError``.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> int | None:
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed fields: p={self.p} vs p={other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(v * pow(self.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            if self.value == 0:
                raise ZeroDivisionError(f"division by zero in F_{self.p}")
            return FpElement(pow(pow(self.value, self.p - 2, self.p), -e, self.p), self.p)
        return FpElement(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FpElement({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


class FpContext:
    """An odd prime p with factorial and inverse-factorial tables.

    Tables:
      * ``fact[n]`` for 0 <= n <= 4p, equal to n! mod p (0 exactly when n >= p);
      * ``inv_fact[n]`` for 0 <= n <= p-1, the inverse of n! mod p.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("p", "fact", "inv_fact")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"prime must be an integer, got {p!r}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        self.p = p
        fact = [1] * (4 * p + 1)
        for n in range(1, 4 * p + 1):
            fact[n] = fact[n - 1] * n % p
        self.fact = fact
        inv_fact = [1] * p
        inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
        for n in range(p - 1, 0, -1):
            inv_fact[n - 1] = inv_fact[n] * n % p
        self.inv_fact = inv_fact

    def element(self, value: int) -> FpElement:
        return FpElement(value, self.p)

    def factorial(self, n: int) -> int:
        """n! mod p as a plain int; n must lie in the table range [0, 4p]."""
        if n < 0 or n > 4 * self.p:
            raise ValueError(f"factorial argument {n} outside table range [0, {4 * self.p}]")
        return self.fact[n]

    def inv_factorial(self, n: int) -> int:
        """Inverse of n! mod p; requires 0 <= n <= p-1 so that n! is non-zero."""
        if n < 0 or n >= self.p:
            raise ValueError(f"inverse factorial needs 0 <= n < p, got n={n} for p={self.p}")
        return self.inv_fact[n]

    def binomial(self, n: int, m: int) -> int:
        """Binomial coefficient C(n, m) mod p by base-p digit factorization.

        Total on n, m >= 0 of any size, with the convention C(n, m) = 0 when
        n < m (applied digit by digit).
        """
        if n < 0 or m < 0:
            raise ValueError(f"binomial arguments must be non-negative, got ({n}, {m})")
        p = self.p
        result = 1
        while m > 0 or n > 0:
            nd = n % p
            md = m % p
            if md > nd:
                return 0
            result = result * self.fact[nd] % p * self.inv_fact[md] % p * self.inv_fact[nd - md] % p
            n //= p
            m //= p
        return result

    def inverse(self, value: int) -> int:
        v = value % self.p
        if v == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(v, self.p - 2, self.p)

    def __repr__(self):
        return f"FpContext(p={self.p})"


@functools.lru_cache(maxsize=None)
def get_context(p: int) -> FpContext:
    """Shared, cached context per prime."""
    return FpContext(p)

