"""Master polynomials, their brute-force expansion and closed forms for Selberg sums mod p.

The master polynomial in n variables with parameters (a, b, c) is

    Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b.

Reading off its coefficient at x_1^(l1*p-1) ... x_n^(ln*p-1) defines the
integral over the cycle [l1, ..., ln].  This module provides:

  * ``selberg_bruteforce`` - full expansion, the ground-truth oracle (with an
    exact-integer mode for the claims that hold over Z, not just mod p);
  * ``beta_closed`` and ``selberg_nd_closed`` - the one-dimensional and
    n-dimensional closed forms on their stated domains;
  * ``moment_integral`` - integrals of (x1+x2)*Phi and ((1-x1)+(1-x2))*Phi,
    the quantities tied to Phi by the contiguous recurrences.

Only brute force expands Phi, from the master polynomial's factors built
here; the moments read its coefficients by the direct sum,
``_direct_coefficient``.  That sum, the direct route, ``SelbergParams`` and
``check_cycle`` are defined in the point module ``selberg2d_closed`` and read
from there, so a point query never loads this module or the dense kernels it
imports; the brute-force grid and the expansion cap's guards are here.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterator, Sequence

from .errors import MAX_TERMS_ENV, DomainError, GuardError, ResourceLimitError, _max_cells
from .fp_poly import _binomial_terms, _coefficient, _dense_powers, _dense_product
from .modp_arith import FpContext, get_context
from .selberg2d_closed import SelbergParams, _direct_coefficient, check_cycle
from .selberg2d_closed import selberg_direct_2d  # noqa: F401  kept importable from here

__all__ = [
    "MasterPolySpec",
    "beta_closed",
    "moment_integral",
    "selberg_bruteforce",
    "selberg_grid",
    "selberg_nd_closed",
]

class MasterPolySpec(namedtuple("MasterPolySpec", "n a b c p")):
    """A master polynomial request: dimension n and non-negative (a, b, c).

    Wider than SelbergParams on purpose: the n-dimensional closed form and
    the brute-force explorer are meaningful for a, b or c equal to 0, which
    the two-dimensional window excludes.
    """

    __slots__ = ()

    def __init__(self, n: int, a: int, b: int, c: int, p: int):
        get_context(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {n}")
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"parameter {name} must be a non-negative integer, got {v}")


def _master_factors(n: int, a: int, b: int, c: int) -> list:
    """Sparse factors of Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b, exact integers."""
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
    factors = [_binomial_terms(zero, units[i], units[j], 2 * c) for i in range(n) for j in range(i + 1, n)]
    factors += [_binomial_terms(zero[:i] + (a,) + zero[i + 1 :], zero, units[i], b) for i in range(n)]
    return [factor for factor in factors if factor != [(zero, 1)]]  # a factor 1 adds nothing


@functools.lru_cache(maxsize=1)  # every reuse in the package reads the point just expanded
def _dense_master(n: int, a: int, b: int, c: int, p: int | None):
    """The last expansion made, p = None for exact integers."""
    return _dense_product(n, _master_factors(n, a, b, c), p)


def selberg_bruteforce(spec: MasterPolySpec, cycle: Sequence[int], exact: bool = False):
    """Ground-truth evaluation: expand Phi_n and read one coefficient.

    Returns the residue in [0, p), or the exact integer coefficient when
    exact=True.  Over the cell cap it raises ResourceLimitError, before numpy loads.
    """
    cycle = check_cycle(cycle, spec.n)
    n, a, b, c, p = spec
    cells, cap = (a + b + 2 * (n - 1) * c + 1) ** n, _max_cells()
    if cells > cap:
        raise ResourceLimitError(f"expansion (n, a, b, c) = ({n}, {a}, {b}, {c}) needs {cells}"
                                 f" coefficient cells, cap is {cap} (raise {MAX_TERMS_ENV} to override)")
    return _coefficient(_dense_master(n, a, b, c, None if exact else p), tuple(l * p - 1 for l in cycle))


def _build_window(p: int, cycles: tuple, deg: int, chunk: int, start: int, values, s1) -> None:
    """Fill the boxes ``values`` and ``s1``, indexed [a - start, b, c, cycle], for the window
    of a values from ``start``, stepping one factor at a time.

    Q_{0,c} is stepped over c, cut at ``deg``; the cut is exact, since every factor
    only raises exponents.  b is stepped on stacks of ``chunk`` consecutive c, one
    shift-subtract per axis and one reduction mod p per b for the whole stack, and
    one gather per (stack, b) writes both boxes.
    """
    import numpy as np

    width, ab_stop = values.shape[:2]
    zero = deg + 1
    targets = np.array([[l * p - 1 for l in cycle] for cycle in cycles])  # cycles x axis
    n = targets.shape[1]
    # Read 0 is Phi[T], read i is Phi[T - e_i]: index reads x a x cycles x axis.
    shifts = np.vstack([np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)])
    index = targets - np.arange(start, start + width)[:, None, None] - shifts[:, None, None]
    inside = ((index >= 0) & (index <= deg)).all(axis=-1, keepdims=True)
    index = np.where(inside, index, zero) @ (zero + 1) ** np.arange(n - 1, -1, -1)  # into one Q
    # Each Q lives in the leading (deg+1)^n block of its stack slot, whose last slice on
    # every axis stays zero; every index outside the block is sent there.
    stack = np.zeros((chunk,) + (zero + 1,) * n, dtype=np.int64)
    flat = index[:, :, None] + (zero + 1) ** n * np.arange(chunk)[:, None]  # reads x a x slot x cycles
    block = stack[(slice(None),) + (slice(0, zero),) * n]
    axes = [np.moveaxis(block, k, 0) for k in range(1, n + 1)]  # views of block, axis k first
    # Q_{0,c} for c = 0, 1, ..., p - 1: Q_{0,c+1} = Q_{0,c} prod_{i<j} (xi-xj)^2
    qs = _dense_powers(np.ones((1,) * n, dtype=np.int64), _master_factors(n, 0, 0, 1), p - 1, p, deg)
    for low in range(0, p, chunk):
        high = min(low + chunk, p)
        stack.fill(0)
        for slot, q in enumerate(itertools.islice(qs, chunk)):
            stack[(slot, *map(slice, q.shape))] = q
        for b in range(ab_stop):
            if b:
                for along in axes:  # times (1 - x_k)
                    along[1:] = along[1:] - along[:-1]
                block %= p
            reads = stack.take(flat[:, :, : high - low])
            values[:, b, low:high] = reads[0]
            np.remainder(reads[1:].sum(axis=0), p, out=s1[:, b, low:high])


def _grid_window(p: int, n: int, ab_stop: int, count: int, top: int) -> tuple:
    """The cell budget of a grid of ``count`` cycles in n variables, largest entry ``top``:
    (deg, width, chunk), the degree Q is cut at, the a values a window holds, as many as
    fit up to ab_stop and at least one, else ResourceLimitError, and the c values a
    build stacks, as many Q as the cells the window leaves hold, at most p."""
    # Q lives in the leading (deg+1)^n block of an array whose last slice on
    # every axis stays zero; every index outside the block is sent there.
    # Shift-adds only raise exponents, so Q may be cut at the largest target
    # exponent without changing any entry that is read.
    deg = min(2 * (n - 1) * (p - 1) + ab_stop - 1, top * p - 1)
    q_cells = (deg + 2) ** n
    a_cells = 2 * ab_stop * p * count  # one a value of the value and moment boxes
    cap = _max_cells()
    width = min(ab_stop, (cap - q_cells) // a_cells)
    if width < 1:
        raise ResourceLimitError(
            f"grid at p={p} with a, b < {ab_stop} and {count} cycles needs {q_cells + a_cells}"
            f" coefficient cells for a window of 1 a value, cap is {cap}"
            f" (raise {MAX_TERMS_ENV} to override)"
        )
    return deg, width, min(p, (cap - width * a_cells) // q_cells)


def _guard_grid(p: int, cycles: Sequence[Sequence[int]], ab_stop: int | None) -> tuple:
    """(ab_stop, distinct cycles, deg, width, chunk) of a grid request, allocating nothing."""
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


def _walk_grid(p: int, ab_stop: int, cycles: tuple, deg: int, width: int, chunk: int) -> Iterator[tuple]:
    import numpy as np

    values = np.empty((width, ab_stop, p, len(cycles)), dtype=np.int64)
    s1 = np.empty_like(values)
    for start in range(0, ab_stop, width):  # the last window may run past the box
        _build_window(p, cycles, deg, chunk, start, values, s1)
        for k in range(min(width, ab_stop - start)):
            yield values[k].copy(), s1[k].copy()


def selberg_grid(p: int, cycles: Sequence[Sequence[int]], ab_stop: int | None = None) -> Iterator[tuple]:
    """Brute force for every 0 <= a, b < ab_stop, 0 <= c < p, as one walk in ascending a.

    Yields (values, S1) for a = 0, 1, ..., ab_stop - 1: int64 copies indexed
    [b, c, i] for 0 <= b < ab_stop, 0 <= c < p and the i-th distinct cycle, in
    the order given; a value is what ``selberg_bruteforce`` gives.  S1 is the
    integral of (x1+...+xn)*Phi and S2 = n*value - S1 that of
    ((1-x1)+...+(1-xn))*Phi, as ``moment_integral`` gives them at n = 2.

    The cycles share one arity, the number of variables n.  Phi_{a,b,c} =
    (x1...xn)^a * Q_{b,c} with Q_{b,c} = prod_{i<j} (xi-xj)^(2c) prod_i (1-xi)^b,
    and each window of ``width`` consecutive a values is built once, when the
    walk reaches it, one factor at a time: Q_{0,c+1} is Q_{0,c} times
    prod_{i<j} (xi-xj)^2, Q_{b+1,c} is Q_{b,c} times prod_i (1-xi), one
    shift-subtract mod p per axis on a stack of consecutive c, and a only moves
    the index that is read, Phi[t] = Q[t - (a, ..., a)].  S1 at the cycle
    exponents T is the sum over i of Phi[T - e_i]; an index below 0 reads as 0.
    ``ab_stop`` defaults to p.  The request is validated, and its cell budget
    (``_grid_window``) checked against the expansion cap, when this is called,
    before any allocation.
    """
    return _walk_grid(p, *_guard_grid(p, cycles, ab_stop))


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
    return -ctx.factorial_ratio((a, b), (a + b - p + 1,)) % p


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
    MasterPolySpec(n, a, b, c, p)  # validates n, a, b and c
    if not (p - 1 <= a + b + (n - 1) * c and a + b + (2 * n - 2) * c < 2 * p - 1):
        raise DomainError(
            f"closed form needs p-1 <= a+b+(n-1)c and a+b+(2n-2)c < 2p-1;"
            f" got a={a}, b={b}, c={c}, n={n}, p={p}"
        )
    top, bottom = [], []
    for j in range(1, n + 1):
        d = a + b + (n + j - 2) * c + 1 - p
        if not 0 <= d < p:
            raise GuardError(f"denominator factorial argument {d} outside [0, p-1]")
        if j > 1:  # the j = 1 ratio (jc)!/c! is identically 1
            top.append(j * c)
            bottom.append(c)
        top += [a + (j - 1) * c, b + (j - 1) * c]
        bottom.append(d)
    return (-1) ** n * ctx.factorial_ratio(top, bottom) % p


def moment_integral(params: SelbergParams, cycle: Sequence[int], kind: str) -> int:
    """Integral of (x1+x2)*Phi (kind "S1") or ((1-x1)+(1-x2))*Phi (kind "S2").

    Coefficients of Phi read by the direct sum: the coefficient of (x1+x2)*Phi
    at (t1, t2) is Phi[t1-1, t2] + Phi[t1, t2-1], and ((1-x1)+(1-x2)) =
    2 - (x1+x2) gives S2 = 2*S - S1.
    """
    if kind not in ("S1", "S2"):
        raise ValueError(f"kind must be 'S1' or 'S2', got {kind!r}")
    cycle = check_cycle(cycle, 2)
    phi = functools.partial(_direct_coefficient, params.ctx, params.a, params.b, params.c)
    t1, t2 = (l * params.p - 1 for l in cycle)
    s1 = phi(t1 - 1, t2) + phi(t1, t2 - 1)
    if kind == "S2":
        return (2 * phi(t1, t2) - s1) % params.p
    return s1 % params.p
