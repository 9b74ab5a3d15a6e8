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
from math import factorial

from .errors import DomainError, ResourceLimitError
from .fp_poly import _binomial_terms, _coefficient, _dense_powers, _dense_product, _exact_dtype
from .selberg2d_closed import SelbergParams
from .selberg_core import _master_factors

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


def _morris_factors(n: int, alpha: int, beta: int, gamma: int) -> list:
    """Sparse factors of prod_i (1 - x_i)^alpha (x_i - 1)^beta * prod_{j!=k} (x_k - x_j)^gamma,
    exact integers; a zero exponent adds no factor."""
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
    factors = [_binomial_terms(zero, zero, unit, alpha) for unit in units]
    factors += [_binomial_terms(zero, unit, zero, beta) for unit in units]
    factors += [_binomial_terms(zero, units[k], units[j], gamma) for j in range(n) for k in range(n) if j != k]
    return [factor for factor in factors if factor != [(zero, 1)]]


def morris_ct_bruteforce(mp: MorrisParams) -> int:
    """Constant term of the Morris product, by exact expansion.

    With (1 - 1/x_i)^beta = x_i^(-beta) (x_i - 1)^beta and
    (1 - x_j/x_k)^gamma = x_k^(-gamma) (x_k - x_j)^gamma, the product is
    prod_i x_i^(-s) times a polynomial, s = beta + (n-1)*gamma, so the
    constant term is that polynomial's coefficient at (s, ..., s).
    """
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    s = beta + (n - 1) * gamma
    return _coefficient(_dense_product(n, _morris_factors(n, alpha, beta, gamma), None), (s,) * n)


def morris_rhs(mp: MorrisParams) -> int:
    """The factorial product side of the identity (always a positive integer)."""
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    top = bottom = 1
    for j in range(1, n + 1):
        top *= factorial(j * gamma) * factorial(alpha + beta + (j - 1) * gamma)
        bottom *= factorial(gamma) * factorial(alpha + (j - 1) * gamma) * factorial(beta + (j - 1) * gamma)
    value, rest = divmod(top, bottom)
    if rest:
        raise ArithmeticError(f"product formula did not reduce to an integer at {mp}")
    return value


def morris_lhs_symmetric_form(mp: MorrisParams) -> int:
    """The constant term rewritten through differences (x_i - x_j).

    Expands (-1)^(C(n,2)*gamma + n*beta) * prod_{i<j} (x_i-x_j)^(2*gamma)
    * prod_i x_i^(-beta-(n-1)*gamma) (1-x_i)^(alpha+beta) and takes its
    constant term, the coefficient of the polynomial part at (s, ..., s) with
    s = beta + (n-1)*gamma; must agree with ``morris_ct_bruteforce``.
    """
    _guard(mp)
    n, alpha, beta, gamma = mp.n, mp.alpha, mp.beta, mp.gamma
    factors = _master_factors(n, 0, alpha + beta, gamma)  # Phi_n(0, alpha + beta, gamma)
    s = beta + (n - 1) * gamma
    sign = (-1) ** ((n * (n - 1) // 2) * gamma + n * beta)
    return sign * _coefficient(_dense_product(n, factors, None), (s,) * n)


def _morris_family(n: int, gamma: int, top: int) -> dict:
    """Both constant-term sides at every 0 <= alpha, beta <= top for one (n, gamma).

    Maps (alpha, beta) to (``morris_ct_bruteforce``, ``morris_lhs_symmetric_form``) at
    MorrisParams(n, alpha, beta, gamma), from two expansions: prod_{j!=k} (x_k-x_j)^gamma,
    stepped in alpha by prod_i (1-x_i) and in beta by prod_i (x_i-1), and
    Phi_n(0, 0, gamma), stepped in m = alpha + beta by prod_i (1-x_i).  Both are cut at
    the largest exponent read, top + (n-1)*gamma: every factor only raises exponents.
    Each expansion takes the dtype that is exact for its largest product.
    """
    _guard(MorrisParams(n, top, top, gamma))
    one_minus = _morris_factors(n, 1, 0, 0)  # the factors 1 - x_i
    minus_one = _morris_factors(n, 0, 1, 0)  # the factors x_i - 1
    cross = _morris_factors(n, 0, 0, gamma)  # the factors (x_k - x_j)^gamma, none at gamma = 0
    master = _master_factors(n, 0, 0, gamma)  # Phi_n(0, 0, gamma)
    shift = (n - 1) * gamma  # the constant term at beta is the coefficient at beta + shift
    cut = top + shift
    ct, sym = {}, {}
    base = _dense_product(n, cross, None, cut).astype(_exact_dtype(cross + (one_minus + minus_one) * top))
    for alpha, row in enumerate(_dense_powers(base, one_minus, top, None, cut)):
        for beta, arr in enumerate(_dense_powers(row, minus_one, top, None, cut)):
            ct[alpha, beta] = _coefficient(arr, (beta + shift,) * n)
    base = _dense_product(n, master, None, cut).astype(_exact_dtype(master + one_minus * 2 * top))
    for m, arr in enumerate(_dense_powers(base, one_minus, 2 * top, None, cut)):
        for beta in range(max(0, m - top), min(m, top) + 1):
            sign = (-1) ** ((n * (n - 1) // 2) * gamma + n * beta)
            sym[m - beta, beta] = sign * _coefficient(arr, (beta + shift,) * n)
    return {key: (ct[key], sym[key]) for key in ct}


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
