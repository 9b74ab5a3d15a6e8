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
from math import factorial

from .errors import DomainError, ResourceLimitError
from .fp_poly import _binomial_terms, _coefficient, _dense_product
from .selberg_core import SelbergParams, _master_factors

__all__ = [
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


def morris_ct_bruteforce(mp: MorrisParams) -> int:
    """Constant term of the Morris product, by exact expansion.

    With (1 - 1/x_i)^beta = x_i^(-beta) (x_i - 1)^beta and
    (1 - x_j/x_k)^gamma = x_k^(-gamma) (x_k - x_j)^gamma, the product is
    prod_i x_i^(-s) times a polynomial, s = beta + (n-1)*gamma, so the
    constant term is that polynomial's coefficient at (s, ..., s).
    """
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
    factors = []
    for unit in units:
        if alpha:
            factors.append(_binomial_terms(zero, zero, unit, alpha))
        if beta:
            factors.append(_binomial_terms(zero, unit, zero, beta))
    if gamma:
        factors += [_binomial_terms(zero, units[k], units[j], gamma)
                    for j in range(n) for k in range(n) if j != k]
    s = beta + (n - 1) * gamma
    return _coefficient(_dense_product(n, factors, None), (s,) * n)


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
    constant term, the coefficient of the polynomial part at (s, ..., s) with
    s = beta + (n-1)*gamma; must agree with ``morris_ct_bruteforce``.
    """
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    factors = _master_factors(n, 0, alpha + beta, 2 * gamma)
    s = beta + (n - 1) * gamma
    sign = (-1) ** ((n * (n - 1) // 2) * gamma + n * beta)
    return sign * _coefficient(_dense_product(n, factors, None), (s,) * n)


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
