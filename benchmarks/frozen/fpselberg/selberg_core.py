"""Master polynomials and the three evaluation routes for Selberg sums mod p.

The master polynomial in n variables with parameters (a, b, c) is

    Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b.

Reading off its coefficient at x_1^(l1*p-1) ... x_n^(ln*p-1) defines the
integral over the cycle [l1, ..., ln].  This module provides:

  * ``selberg_bruteforce`` - full expansion, the ground-truth oracle (with an
    exact-integer mode for the claims that hold over Z, not just mod p);
  * ``selberg_direct_2d`` - two-dimensional evaluation by binomial summation,
    O(c) field operations, no polynomial construction;
  * ``beta_closed`` and ``selberg_nd_closed`` - the one-dimensional and
    n-dimensional closed forms on their stated domains;
  * ``moment_integral`` - integrals of (x1+x2)*Phi and ((1-x1)+(1-x2))*Phi,
    the quantities tied to Phi by the contiguous recurrences.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, GuardError, ResourceLimitError
from .fp_poly import MultiPoly, _dense_mul, _dense_product, check_cycle
from .modp_arith import FpContext, FpElement, get_context

__all__ = [
    "MasterPolySpec",
    "SelbergParams",
    "beta_closed",
    "master_polynomial",
    "moment_integral",
    "selberg_bruteforce",
    "selberg_direct_2d",
    "selberg_nd_closed",
]

# Dense expansion budget (cells of the coefficient array).  The default keeps
# brute force within n <= 3 and p <= 11 in three variables while allowing the
# full two-variable sweep range; FPSELBERG_MAX_TERMS overrides it.
DEFAULT_MAX_TERMS = 250_000
MAX_TERMS_ENV = "FPSELBERG_MAX_TERMS"


@dataclass(frozen=True)
class SelbergParams:
    """Parameters (a, b, c) with 0 < a, b, c < p, the two-dimensional window."""

    a: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        get_context(self.p)  # validates the prime
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 < v < self.p:
                raise ValueError(f"parameter {name} must satisfy 0 < {name} < p={self.p}, got {v}")

    @property
    def delta(self) -> int:
        """The shift a + b + 2c + 1 - 2p governing the [1,2] case analysis."""
        return self.a + self.b + 2 * self.c + 1 - 2 * self.p

    @property
    def ctx(self) -> FpContext:
        return get_context(self.p)

    def spec(self, n: int = 2) -> "MasterPolySpec":
        return MasterPolySpec(n, self.a, self.b, self.c, self.p)


@dataclass(frozen=True)
class MasterPolySpec:
    """A master polynomial request: dimension n and non-negative (a, b, c).

    Wider than SelbergParams on purpose: the n-dimensional closed form and
    the brute-force explorer are meaningful for a, b or c equal to 0, which
    the two-dimensional window excludes.
    """

    n: int
    a: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        get_context(self.p)
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {self.n}")
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"parameter {name} must be a non-negative integer, got {v}")

    @property
    def var_degree(self) -> int:
        """Degree of Phi_n in each single variable."""
        return self.a + self.b + 2 * (self.n - 1) * self.c


def _max_cells() -> tuple[int, bool]:
    env = os.environ.get(MAX_TERMS_ENV)
    if env is None:
        return DEFAULT_MAX_TERMS, False
    try:
        return int(env), True
    except ValueError:
        raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {env!r}") from None


def _guard_expansion(spec: MasterPolySpec):
    cells = (spec.var_degree + 1) ** spec.n
    cap, overridden = _max_cells()
    if cells > cap:
        raise ResourceLimitError(
            f"master polynomial for {spec} needs {cells} coefficient cells, cap is {cap}"
            f" (raise {MAX_TERMS_ENV} to override)"
        )
    if not overridden:
        if spec.n > 3 or (spec.n == 3 and spec.p > 11):
            raise ResourceLimitError(
                f"brute-force expansion capped at n <= 3 with p <= 11, got n={spec.n}, p={spec.p}"
                f" (set {MAX_TERMS_ENV} to opt in to larger expansions)"
            )


def _master_factors(spec: MasterPolySpec) -> list:
    """Sparse factors of Phi_n, with exact integer coefficients."""
    n, a, b, c = spec.n, spec.a, spec.b, spec.c
    zero = (0,) * n

    def unit(i: int, e: int) -> tuple:
        return zero[:i] + (e,) + zero[i + 1 :]

    factors = []
    for i in range(n):
        for j in range(i + 1, n):
            # (x_i - x_j)^(2c)
            factors.append(
                [
                    (tuple((2 * c - k if t == i else k) if t in (i, j) else 0 for t in range(n)),
                     (-1) ** k * math.comb(2 * c, k))
                    for k in range(2 * c + 1)
                ]
            )
    for i in range(n):
        # x_i^a (1 - x_i)^b
        factors.append([(unit(i, a + k), (-1) ** k * math.comb(b, k)) for k in range(b + 1)])
    return factors


@functools.lru_cache(maxsize=4096)
def _dense_master(n: int, a: int, b: int, c: int, p: int, exact: bool):
    """Cached dense expansion of Phi_n.  Callers must not mutate the array."""
    spec = MasterPolySpec(n, a, b, c, p)
    return _dense_product(n, _master_factors(spec), None if exact else p)


def master_polynomial(spec: MasterPolySpec, exact: bool = False) -> MultiPoly:
    """Fully expanded Phi_n, over F_p by default or over Z with exact=True."""
    _guard_expansion(spec)
    arr = _dense_master(spec.n, spec.a, spec.b, spec.c, spec.p, exact)
    return MultiPoly.from_dense(arr, None if exact else spec.p)


def selberg_bruteforce(spec: MasterPolySpec, cycle: Sequence[int], exact: bool = False):
    """Ground-truth evaluation: expand Phi_n and read one coefficient.

    Returns an FpElement, or the exact integer coefficient when exact=True.
    """
    cycle = check_cycle(cycle, spec.n)
    _guard_expansion(spec)
    arr = _dense_master(spec.n, spec.a, spec.b, spec.c, spec.p, exact)
    target = tuple(l * spec.p - 1 for l in cycle)
    inside = all(t < s for t, s in zip(target, arr.shape))
    value = int(arr[target]) if inside else 0
    if exact:
        return value
    return FpElement(value, spec.p)


def selberg_direct_2d(params: SelbergParams, l1: int, l2: int) -> FpElement:
    """Two-dimensional evaluation by direct binomial summation.

    Expanding (x1 - x2)^(2c) and picking the coefficient of x^(l*p-1) in each
    univariate factor x^alpha (1-x)^b gives

        sum_k (-1)^k C(2c, k) * A(a+2c-k, b; l1) * A(a+k, b; l2),

    where A(alpha, b; l) = (-1)^(l*p-1-alpha) C(b, l*p-1-alpha).  All
    binomials are evaluated mod p digit-wise, so no polynomial is built and
    the cost is O(c) field operations.
    """
    check_cycle((l1, l2))
    ctx = params.ctx
    a, b, c, p = params.a, params.b, params.c, params.p
    total = 0
    for k in range(2 * c + 1):
        t1 = l1 * p - 1 - (a + 2 * c - k)
        if not 0 <= t1 <= b:
            continue
        t2 = l2 * p - 1 - (a + k)
        if not 0 <= t2 <= b:
            continue
        term = ctx.binomial(2 * c, k) * ctx.binomial(b, t1) % p * ctx.binomial(b, t2) % p
        if (k + t1 + t2) % 2:
            term = -term
        total = (total + term) % p
    return ctx.element(total)


def beta_closed(ctx: FpContext, a: int, b: int) -> FpElement:
    """Closed form of the one-dimensional integral of x^a (1-x)^b over [1].

    Equals -a! b! / (a+b-p+1)! when a+b >= p-1 and 0 otherwise; defined for
    0 <= a, b < p.
    """
    p = ctx.p
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, int) or not 0 <= v < p:
            raise ValueError(f"beta_closed needs 0 <= {name} < p={p}, got {v}")
    if a + b < p - 1:
        return ctx.element(0)
    value = -ctx.factorial(a) * ctx.factorial(b) * ctx.inv_factorial(a + b - p + 1)
    return ctx.element(value)


def selberg_nd_closed(ctx: FpContext, n: int, a: int, b: int, c: int) -> FpElement:
    """n-dimensional closed form on the cycle [1, ..., 1].

    Valid under p-1 <= a+b+(n-1)c and a+b+(2n-2)c < 2p-1, where it equals

        (-1)^n * prod_{j=1}^{n} (jc)!/c! *
                 (a+(j-1)c)! (b+(j-1)c)! / (a+b+(n+j-2)c+1-p)!

    Outside those inequalities the formula asserts nothing and a DomainError
    is raised.  Numerator factorials may vanish (argument >= p), which encodes
    genuine vanishing of the integral; denominator arguments are provably in
    [0, p-1] under the hypotheses, and a GuardError flags any violation.
    """
    p = ctx.p
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension n must be a positive integer, got {n}")
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"parameter {name} must be a non-negative integer, got {v}")
    if not (p - 1 <= a + b + (n - 1) * c and a + b + (2 * n - 2) * c < 2 * p - 1):
        raise DomainError(
            f"closed form needs p-1 <= a+b+(n-1)c and a+b+(2n-2)c < 2p-1;"
            f" got a={a}, b={b}, c={c}, n={n}, p={p}"
        )
    value = (-1) ** n % p
    for j in range(1, n + 1):
        d = a + b + (n + j - 2) * c + 1 - p
        if not 0 <= d < p:
            raise GuardError(f"denominator factorial argument {d} outside [0, p-1]")
        if j > 1:  # the j = 1 ratio (jc)!/c! is identically 1
            value = value * ctx.factorial(j * c) % p * ctx.inv_factorial(c) % p
        value = value * ctx.factorial(a + (j - 1) * c) % p
        value = value * ctx.factorial(b + (j - 1) * c) % p
        value = value * ctx.inv_factorial(d) % p
    return ctx.element(value)


_MOMENT_FACTORS = {
    "S1": [((1, 0), 1), ((0, 1), 1)],  # x1 + x2
    "S2": [((0, 0), 2), ((1, 0), -1), ((0, 1), -1)],  # (1-x1) + (1-x2)
}


def moment_integral(params: SelbergParams, cycle: Sequence[int], kind: str) -> FpElement:
    """Integral of (x1+x2)*Phi (kind "S1") or ((1-x1)+(1-x2))*Phi (kind "S2").

    Computed by multiplying Phi by the degree-1 symmetric factor and then
    extracting the cycle coefficient.
    """
    if kind not in _MOMENT_FACTORS:
        raise ValueError(f"kind must be 'S1' or 'S2', got {kind!r}")
    cycle = check_cycle(cycle, 2)
    spec = params.spec(2)
    _guard_expansion(spec)
    phi = _dense_master(2, params.a, params.b, params.c, params.p, False)
    prod = _dense_mul(phi, _MOMENT_FACTORS[kind], params.p)
    target = tuple(l * params.p - 1 for l in cycle)
    inside = all(t < s for t, s in zip(target, prod.shape))
    return params.ctx.element(int(prod[target]) if inside else 0)
