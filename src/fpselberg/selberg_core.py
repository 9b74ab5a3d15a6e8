"""Master polynomials and the three evaluation routes for Selberg sums mod p.

The master polynomial in n variables with parameters (a, b, c) is

    Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b.

Reading off its coefficient at x_1^(l1*p-1) ... x_n^(ln*p-1) defines the
integral over the cycle [l1, ..., ln].  This module provides:

  * ``selberg_bruteforce`` - full expansion, the ground-truth oracle (with an
    exact-integer mode for the claims that hold over Z, not just mod p);
  * ``selberg_direct_2d`` - two-dimensional evaluation by binomial summation,
    O(min(b, c)) field operations, no polynomial construction;
  * ``beta_closed`` and ``selberg_nd_closed`` - the one-dimensional and
    n-dimensional closed forms on their stated domains;
  * ``moment_integral`` - integrals of (x1+x2)*Phi and ((1-x1)+(1-x2))*Phi,
    the quantities tied to Phi by the contiguous recurrences.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, GuardError, ResourceLimitError
from .fp_poly import MultiPoly, _binomial_terms, _coefficient, _dense_product, check_cycle
from .modp_arith import FpContext, get_context

__all__ = [
    "MasterPolySpec",
    "SelbergGrid",
    "SelbergParams",
    "beta_closed",
    "master_polynomial",
    "moment_integral",
    "selberg_bruteforce",
    "selberg_direct_2d",
    "selberg_grid",
    "selberg_nd_closed",
]

# Coefficient cells one per-point expansion or one grid window may allocate: by
# default per-point brute force up to degree 499 per variable at n = 2 and 61 at
# n = 3, verify's shared grid up to p = 53.  FPSELBERG_MAX_TERMS overrides it.
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


def _max_cells() -> int:
    env = os.environ.get(MAX_TERMS_ENV)
    if env is None:
        return DEFAULT_MAX_TERMS
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {env!r}") from None


def _guard_expansion(spec: MasterPolySpec):
    cells = (spec.var_degree + 1) ** spec.n
    cap = _max_cells()
    if cells > cap:
        raise ResourceLimitError(
            f"master polynomial for {spec} needs {cells} coefficient cells, cap is {cap}"
            f" (raise {MAX_TERMS_ENV} to override)"
        )


def _master_factors(n: int, a: int, b: int, cross: int) -> list:
    """Sparse factors of prod_{i<j} (x_i - x_j)^cross * prod_i x_i^a (1 - x_i)^b, exact integers.

    With cross = 2c this is Phi_n.
    """
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
    factors = [_binomial_terms(zero, units[i], units[j], cross) for i in range(n) for j in range(i + 1, n)]
    factors += [_binomial_terms(zero[:i] + (a,) + zero[i + 1 :], zero, units[i], b) for i in range(n)]
    return [factor for factor in factors if factor != [(zero, 1)]]  # a factor 1 adds nothing


@functools.lru_cache(maxsize=4096)
def _dense_master(n: int, a: int, b: int, c: int, p: int, exact: bool):
    """Cached dense expansion of Phi_n.  Callers must not mutate the array."""
    return _dense_product(n, _master_factors(n, a, b, 2 * c), None if exact else p)


def master_polynomial(spec: MasterPolySpec, exact: bool = False) -> MultiPoly:
    """Fully expanded Phi_n, over F_p by default or over Z with exact=True."""
    _guard_expansion(spec)
    arr = _dense_master(spec.n, spec.a, spec.b, spec.c, spec.p, exact)
    return MultiPoly.from_dense(arr, None if exact else spec.p)


def selberg_bruteforce(spec: MasterPolySpec, cycle: Sequence[int], exact: bool = False):
    """Ground-truth evaluation: expand Phi_n and read one coefficient.

    Returns the residue in [0, p), or the exact integer coefficient when
    exact=True.
    """
    cycle = check_cycle(cycle, spec.n)
    _guard_expansion(spec)
    arr = _dense_master(spec.n, spec.a, spec.b, spec.c, spec.p, exact)
    return _coefficient(arr, tuple(l * spec.p - 1 for l in cycle))


class SelbergGrid:
    """Brute-force values and S1/S2 moments of a parameter box at one prime.

    Built by ``selberg_grid``; covers 0 <= a, b < ``ab_stop``, 0 <= c < p and
    the cycles it was built for, all of one arity n, holding the ``width`` a
    values from ``start`` on.  A read outside them rebuilds that window from
    a - 2 if above, a - 1 if below, so an ascending pass that also reads a +- 1
    builds each window once.  Reads return the same residues, as Python ints,
    as ``selberg_bruteforce`` and, for n = 2, ``moment_integral``.
    """

    __slots__ = ("p", "ab_stop", "width", "start", "_deg", "_index", "_values", "_s1")

    def __init__(self, p: int, ab_stop: int, cycles: tuple, deg: int, width: int):
        import numpy as np

        self.p = p
        self.ab_stop = ab_stop
        self.width = width
        self._deg = deg  # Q is cut at this degree
        self._index = {cycle: k for k, cycle in enumerate(cycles)}
        # int64 arrays indexed [a - start, b, c, cycle index]
        self._values = np.empty((width, ab_stop, p, len(cycles)), dtype=np.int64)
        self._s1 = np.empty_like(self._values)
        self._build(0)

    def _build(self, start: int):
        """Fill the window of a values [start, start + width), one expansion of Q per c."""
        import numpy as np

        p, deg = self.p, self._deg
        zero = deg + 1
        self.start = -self.width  # no a is in the window until the build is complete
        targets = np.array([[l * p - 1 for l in cycle] for cycle in self._index]).T[:, :, None]
        n = len(targets)
        # Read 0 is Phi[T], read i is Phi[T - e_i]: index reads x axis x cycles x a.
        shifts = np.vstack([np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)])
        index = (targets - np.arange(start, start + self.width))[None] - shifts[:, :, None, None]
        inside = ((index >= 0) & (index <= deg)).all(axis=1, keepdims=True)
        index = tuple(np.where(inside, index, zero).swapaxes(0, 1))
        reads = np.empty((self.ab_stop, *index[0].shape), dtype=np.int64)  # b x reads x cycles x a
        for c in range(p):
            q = np.zeros((zero + 1,) * n, dtype=np.int64)
            q0 = _dense_product(n, _master_factors(n, 0, 0, 2 * c), p, deg)  # Q_{0,c} = Phi_{0,0,c}
            q[tuple(map(slice, q0.shape))] = q0
            block = q[(slice(0, zero),) * n]
            axes = [np.moveaxis(block, k, 0) for k in range(n)]  # views of block, axis k first
            for b in range(self.ab_stop):
                if b:
                    for along in axes:  # times (1 - x_k)
                        along[1:] = along[1:] - along[:-1]
                    block %= p
                reads[b] = q[index]
            self._values[:, :, c] = reads[:, 0].transpose(2, 0, 1)
            self._s1[:, :, c] = (reads[:, 1:].sum(axis=1) % p).transpose(2, 0, 1)
        self.start = start

    def _slot(self, a: int, b: int, c: int, cycle) -> tuple:
        # Explicit bounds: a negative numpy index would silently wrap around.
        if not (0 <= a < self.ab_stop and 0 <= b < self.ab_stop and 0 <= c < self.p):
            raise ValueError(f"(a, b, c) = ({a}, {b}, {c}) outside the grid box"
                             f" [0, {self.ab_stop})^2 x [0, {self.p})")
        try:
            k = self._index[tuple(cycle)]
        except KeyError:
            raise ValueError(f"cycle {tuple(cycle)} is not in the grid") from None
        if not self.start <= a < self.start + self.width:
            start = a - 2 if a >= self.start + self.width else a - 1
            self._build(max(0, min(start, self.ab_stop - self.width)))
        return a - self.start, b, c, k

    def value(self, a: int, b: int, c: int, cycle) -> int:
        """The integral of Phi_{a,b,c} over the cycle, as ``selberg_bruteforce`` gives it."""
        slot = self._slot(a, b, c, cycle)
        return int(self._values[slot])

    def moments(self, a: int, b: int, c: int, cycle) -> tuple[int, int]:
        """(S1, S2) of (x1+...+xn)*Phi and ((1-x1)+...+(1-xn))*Phi, as ``moment_integral`` at n = 2."""
        slot = self._slot(a, b, c, cycle)
        s1 = int(self._s1[slot])
        return s1, (len(tuple(cycle)) * int(self._values[slot]) - s1) % self.p


def _grid_window(p: int, n: int, ab_stop: int, count: int, top: int) -> tuple:
    """(deg, width) for ``count`` cycles in n variables, largest entry ``top``: the degree Q
    is cut at, and the a values a window holds, as many as fit up to ab_stop and at
    least min(3, ab_stop) (a and a +- 1), else ResourceLimitError."""
    # Q lives in the leading (deg+1)^n block of an array whose last slice on
    # every axis stays zero; every index outside the block is sent there.
    # Shift-adds only raise exponents, so Q may be cut at the largest target
    # exponent without changing any entry that is read.
    deg = min(2 * (n - 1) * (p - 1) + ab_stop - 1, top * p - 1)
    q_cells = (deg + 2) ** n
    a_cells = 2 * ab_stop * p * count  # one a value of the value and moment boxes
    cap = _max_cells()
    width = min(ab_stop, (cap - q_cells) // a_cells)
    least = min(3, ab_stop)
    if width < least:
        raise ResourceLimitError(
            f"grid at p={p} with a, b < {ab_stop} and {count} cycles needs {q_cells + least * a_cells}"
            f" coefficient cells for a window of {least} a values, cap is {cap}"
            f" (raise {MAX_TERMS_ENV} to override)"
        )
    return deg, width


def _guard_grid(p: int, cycles: Sequence[Sequence[int]], ab_stop: int | None) -> tuple:
    """(ab_stop, distinct cycles, deg, width) of a grid request, allocating nothing."""
    get_context(p)  # validates the prime
    ab_stop = p if ab_stop is None else ab_stop
    if not isinstance(ab_stop, int) or ab_stop < 1:
        raise ValueError(f"ab_stop must be a positive integer, got {ab_stop}")
    cycles = tuple(dict.fromkeys(check_cycle(cycle) for cycle in cycles))
    if not cycles:
        raise ValueError("selberg_grid needs at least one cycle")
    n = len(cycles[0])
    cycles = tuple(check_cycle(cycle, n) for cycle in cycles)  # one arity, the number of variables
    return (ab_stop, cycles, *_grid_window(p, n, ab_stop, len(cycles), max(map(max, cycles))))


def selberg_grid(p: int, cycles: Sequence[Sequence[int]],
                 ab_stop: int | None = None) -> SelbergGrid:
    """Brute force for every 0 <= a, b < ab_stop, 0 <= c < p, a window of a at a time.

    The cycles share one arity, the number of variables n.  Phi_{a,b,c} =
    (x1...xn)^a * Q_{b,c} with Q_{b,c} = prod_{i<j} (xi-xj)^(2c) prod_i (1-xi)^b,
    so one expansion of Q_{0,c} per c serves a whole window: Q_{b+1,c} is
    Q_{b,c} times prod_i (1-xi), one shift-subtract mod p per axis, and a only
    moves the index that is read, Phi[t] = Q[t - (a, ..., a)].  S1 at the cycle
    exponents T is the sum over i of Phi[T - e_i]; an index below 0 reads as 0.
    ``ab_stop`` defaults to p.  The cells of Q and of one window's value and
    moment boxes are checked against the expansion cap before any allocation.
    """
    return SelbergGrid(p, *_guard_grid(p, cycles, ab_stop))


def selberg_direct_2d(params: SelbergParams, l1: int, l2: int) -> int:
    """Two-dimensional evaluation by direct binomial summation.

    Expanding (x1 - x2)^(2c) and picking the coefficient of x^(l*p-1) in each
    univariate factor x^alpha (1-x)^b gives

        sum_k (-1)^k C(2c, k) * A(a+2c-k, b; l1) * A(a+k, b; l2),

    where A(alpha, b; l) = (-1)^(l*p-1-alpha) C(b, l*p-1-alpha).  Only the k
    with both t1 = l1*p-1-(a+2c-k) and t2 = l2*p-1-(a+k) in [0, b] contribute,
    and the sign is (-1)^(k+l1+l2) since p is odd.  C(b, t) is one base-p
    digit, b!/(t! (b-t)!).  2c < 2p has the Lucas digits (1, n0 = 2c-p) or
    (0, n0 = 2c), so C(2c, k) = C(n0, k - start) on the k ranges [0, n0] and,
    when 2c >= p, [p, 2c], and vanishes between them.  No polynomial is
    built, the cost is O(min(b, c)) field operations, and an empty interval
    returns 0 without reading a factorial.
    """
    check_cycle((l1, l2))
    ctx = params.ctx
    a, b, c, p = params.a, params.b, params.c, params.p
    shift = a + 2 * c + 1 - l1 * p  # t1 = k - shift
    top = l2 * p - 1 - a  # t2 = top - k
    lo, hi = max(shift, top - b), min(shift + b, top)
    n0 = 2 * c % p
    inv = ctx.inv_factorial
    total = 0
    for start, stop in ((0, n0), (p, 2 * c)) if 2 * c >= p else ((0, n0),):
        for k in range(max(lo, start), min(hi, stop) + 1):
            t1, t2 = k - shift, top - k
            term = (inv(k - start) * inv(n0 - k + start) % p * inv(t1) % p * inv(b - t1) % p
                    * inv(t2) % p * inv(b - t2) % p)
            total = (total - term if (k + l1 + l2) & 1 else total + term) % p
    if total:
        total = total * ctx.factorial(n0) % p * ctx.factorial(b) ** 2 % p
    return total


def beta_closed(ctx: FpContext, a: int, b: int) -> int:
    """Closed form of the one-dimensional integral of x^a (1-x)^b over [1].

    Equals -a! b! / (a+b-p+1)! when a+b >= p-1 and 0 otherwise; defined for
    0 <= a, b < p.
    """
    p = ctx.p
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, int) or not 0 <= v < p:
            raise ValueError(f"beta_closed needs 0 <= {name} < p={p}, got {v}")
    if a + b < p - 1:
        return 0
    return -ctx.factorial(a) * ctx.factorial(b) * ctx.inv_factorial(a + b - p + 1) % p


def selberg_nd_closed(ctx: FpContext, n: int, a: int, b: int, c: int) -> int:
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
    return value


def moment_integral(params: SelbergParams, cycle: Sequence[int], kind: str) -> int:
    """Integral of (x1+x2)*Phi (kind "S1") or ((1-x1)+(1-x2))*Phi (kind "S2").

    Read off the cached expansion of Phi as an index sum: the coefficient of
    (x1+x2)*Phi at (t1, t2) is Phi[t1-1, t2] + Phi[t1, t2-1], and
    ((1-x1)+(1-x2)) = 2 - (x1+x2) gives S2 = 2*S - S1.
    """
    if kind not in ("S1", "S2"):
        raise ValueError(f"kind must be 'S1' or 'S2', got {kind!r}")
    cycle = check_cycle(cycle, 2)
    spec = params.spec(2)
    _guard_expansion(spec)
    phi = _dense_master(2, params.a, params.b, params.c, params.p, False)
    t1, t2 = (l * params.p - 1 for l in cycle)
    s1 = _coefficient(phi, (t1 - 1, t2)) + _coefficient(phi, (t1, t2 - 1))
    if kind == "S2":
        return (2 * _coefficient(phi, (t1, t2)) - s1) % params.p
    return s1 % params.p
