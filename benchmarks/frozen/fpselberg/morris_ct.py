"""Exact-integer verification of the Morris constant-term identity.

The identity evaluates

    CT  prod_i (1-x_i)^alpha (1-1/x_i)^beta  prod_{j!=k} (1-x_j/x_k)^gamma

as a product of factorial ratios.  Everything in this module is computed over
arbitrary-precision integers (never mod p): the identity lives over Z, and
its role here is to provide a third, independent route to the [1,1] and
[2,2] Selberg coefficients via a substitution of parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping

from .errors import DomainError, ResourceLimitError
from .fp_poly import _dense_product
from .selberg_core import SelbergParams

__all__ = [
    "LaurentPoly",
    "MorrisParams",
    "morris_ct_bruteforce",
    "morris_lhs_symmetric_form",
    "morris_rhs",
    "morris_substitution",
    "selberg_via_morris",
]

# Expansion guard for the constant-term brute force.
MAX_N = 3
MAX_EXPONENT = 4


class LaurentPoly:
    """Sparse Laurent polynomial with exact integer coefficients.

    Exponents may be negative; ``terms`` maps exponent tuples to non-zero
    integers.  Only what the constant-term computations need: ring operations
    and ``constant_term``.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, int]):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        clean: dict[tuple, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {num_vars}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def one(cls, num_vars: int) -> "LaurentPoly":
        return cls(num_vars, {(0,) * num_vars: 1})

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "LaurentPoly":
        return cls(len(tuple(exps)), {tuple(exps): coeff})

    def _check(self, other: "LaurentPoly"):
        if self.num_vars != other.num_vars:
            raise ValueError(f"arity mismatch: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return LaurentPoly(self.num_vars, terms)

    def __neg__(self):
        return LaurentPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        prod: dict[tuple, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prod[key] = prod.get(key, 0) + ca * cb
        return LaurentPoly(self.num_vars, prod)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {e!r}")
        result = LaurentPoly.one(self.num_vars)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.num_vars, 0)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items())
        shown = ", ".join(f"{e}: {c}" for e, c in items[:6])
        if len(items) > 6:
            shown += f", ... ({len(items)} terms)"
        return f"LaurentPoly[k={self.num_vars}]({{{shown}}})"


@dataclass(frozen=True)
class MorrisParams:
    """Dimension n and non-negative exponents (alpha, beta, gamma)."""

    n: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v}")


def _guard(mp: MorrisParams):
    if mp.n > MAX_N or max(mp.alpha, mp.beta, mp.gamma) > MAX_EXPONENT:
        raise ResourceLimitError(
            f"constant-term expansion limited to n <= {MAX_N} and exponents <= {MAX_EXPONENT}, got {mp}"
        )


def _ct_of_factors(num_vars: int, factors: list) -> int:
    """Constant term of a product of sparse Laurent factors, exactly.

    Each factor is shifted to non-negative exponents so the product can be
    accumulated on a dense array; the total shift locates the constant term.
    """
    offsets = [0] * num_vars
    shifted = []
    for factor in factors:
        fmin = [min(e[i] for e, _ in factor) for i in range(num_vars)]
        offsets = [o + m for o, m in zip(offsets, fmin)]
        shifted.append([(tuple(e - m for e, m in zip(exps, fmin)), c) for exps, c in factor])
    arr = _dense_product(num_vars, shifted, None)
    idx = tuple(-o for o in offsets)
    if any(i < 0 or i >= s for i, s in zip(idx, arr.shape)):
        return 0
    return int(arr[idx])


def morris_ct_bruteforce(mp: MorrisParams) -> int:
    """Constant term of the Morris product, by exact Laurent expansion."""
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    zero = (0,) * n

    def unit(i, e):
        return zero[:i] + (e,) + zero[i + 1 :]

    factors = []
    for i in range(n):
        if alpha:
            factors.append([(unit(i, k), (-1) ** k * comb(alpha, k)) for k in range(alpha + 1)])
        if beta:
            factors.append([(unit(i, -k), (-1) ** k * comb(beta, k)) for k in range(beta + 1)])
    if gamma:
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                # (1 - x_j/x_k)^gamma
                factors.append(
                    [
                        (tuple((m if t == j else -m) if t in (j, k) else 0 for t in range(n)),
                         (-1) ** m * comb(gamma, m))
                        for m in range(gamma + 1)
                    ]
                )
    if not factors:
        return 1
    return _ct_of_factors(n, factors)


def morris_rhs(mp: MorrisParams) -> int:
    """The factorial product side of the identity (always a positive integer)."""
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    value = Fraction(1)
    for j in range(1, n + 1):
        value *= Fraction(factorial(j * gamma), factorial(gamma))
        value *= Fraction(
            factorial(alpha + beta + (j - 1) * gamma),
            factorial(alpha + (j - 1) * gamma) * factorial(beta + (j - 1) * gamma),
        )
    if value.denominator != 1:
        raise ArithmeticError(f"product formula did not reduce to an integer at {mp}")
    return value.numerator


def morris_lhs_symmetric_form(mp: MorrisParams) -> int:
    """The constant term rewritten through differences (x_i - x_j).

    Expands (-1)^(C(n,2)*gamma + n*beta) * prod_{i<j} (x_i-x_j)^(2*gamma)
    * prod_i x_i^(-beta-(n-1)*gamma) (1-x_i)^(alpha+beta) and takes its
    constant term; must agree with ``morris_ct_bruteforce``.
    """
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    zero = (0,) * n

    def unit(i, e):
        return zero[:i] + (e,) + zero[i + 1 :]

    shift = -beta - (n - 1) * gamma
    factors = []
    for i in range(n):
        for j in range(i + 1, n):
            factors.append(
                [
                    (tuple((2 * gamma - k if t == i else k) if t in (i, j) else 0 for t in range(n)),
                     (-1) ** k * comb(2 * gamma, k))
                    for k in range(2 * gamma + 1)
                ]
            )
    for i in range(n):
        factors.append([(unit(i, shift + k), (-1) ** k * comb(alpha + beta, k))
                        for k in range(alpha + beta + 1)])
    sign = (-1) ** ((n * (n - 1) // 2) * gamma + n * beta)
    return sign * _ct_of_factors(n, factors)


def morris_substitution(params: SelbergParams, l: int) -> MorrisParams:
    """Morris parameters matching the Selberg coefficient on the cycle [l, l].

    The diagonal coefficient of the two-variable master polynomial equals the
    constant term of the Morris product (up to the sign (-1)^c) under

        l = 1:  (alpha, beta, gamma) = (a+b+c+1-p,  p-1-a-c,  c)
        l = 2:  (alpha, beta, gamma) = (a+b+c+1-2p, 2p-1-a-c, c)

    DomainError if the shifted exponents would be negative, i.e. when the
    substitution does not apply to these parameters.
    """
    a, b, c, p = params.a, params.b, params.c, params.p
    if l not in (1, 2):
        raise ValueError(f"substitution is defined for diagonal cycles [1,1] and [2,2], got l={l}")
    alpha = a + b + c + 1 - l * p
    beta = l * p - 1 - a - c
    if alpha < 0 or beta < 0:
        raise DomainError(
            f"substitution for [{l},{l}] needs a+b+c >= {l}*p-1 and a+c <= {l}*p-1, got {params}"
        )
    return MorrisParams(2, alpha, beta, c)


def selberg_via_morris(params: SelbergParams, l: int) -> int:
    """Exact integer Selberg coefficient on [l, l] via the product formula."""
    mp = morris_substitution(params, l)
    return (-1) ** params.c * morris_rhs(mp)
