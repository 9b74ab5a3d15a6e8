"""Sparse polynomials over F_p, their cycle integrals, and the dense kernels.

Coefficient extraction at exponents (l1*p - 1, ..., lk*p - 1) is the
"integral over the cycle [l1, ..., lk]" used throughout the package: it is
linear and kills every first partial derivative, which is what makes it
behave like integration over a closed contour.

Representation: ``terms`` maps exponent tuples to non-zero residues mod p, e.g.

    {(2, 0): 1, (1, 1): p - 2, (0, 2): 1}   is   x1^2 - 2*x1*x2 + x2^2

The dense kernels below build the master polynomials, over F_p or, with
``p`` = None, with exact integer coefficients.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .selberg2d_closed import check_cycle

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MultiPoly",
    "fp_integral",
    "partial_derivative",
]

# int64 accumulators are exact as long as every intermediate stays below this.
_INT64_SAFE = 1 << 62


class MultiPoly:
    """Sparse polynomial in ``num_vars`` variables over F_p: integer terms, reduced and merged."""

    __slots__ = ("num_vars", "p", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, int], p: int):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        clean: dict[tuple, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {num_vars}")
            if not isinstance(coeff, int) or not all(isinstance(e, int) for e in exps):
                raise ValueError(f"term {exps}: {coeff!r} needs integer exponents and coefficient")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}; this type is polynomial-only")
            coeff = (clean.get(exps, 0) + coeff) % p
            if coeff:
                clean[exps] = coeff
            else:
                clean.pop(exps, None)
        self.num_vars = num_vars
        self.p = p
        self.terms = clean


def partial_derivative(P: MultiPoly, i: int) -> MultiPoly:
    """Formal derivative with respect to x_i (1-based index)."""
    if not 1 <= i <= P.num_vars:
        raise ValueError(f"variable index {i} out of range 1..{P.num_vars}")
    terms: dict[tuple, int] = {}
    for exps, coeff in P.terms.items():
        e = exps[i - 1]
        if e == 0:
            continue
        key = exps[: i - 1] + (e - 1,) + exps[i:]
        terms[key] = terms.get(key, 0) + coeff * e
    return MultiPoly(P.num_vars, terms, P.p)


def fp_integral(P: MultiPoly, cycle: Sequence[int]) -> int:
    """Coefficient of x1^(l1*p-1) * ... * xk^(lk*p-1), as a residue in [0, p)."""
    cycle = check_cycle(cycle, P.num_vars)
    target = tuple(l * P.p - 1 for l in cycle)
    return P.terms.get(target, 0)


# -- dense kernels ------------------------------------------------------------
#
# Products of many small factors (the master polynomials) are built on dense
# coefficient arrays: each factor term contributes one shifted slice-add of
# the whole accumulator, which beats dict convolution by a wide margin for
# the 2- and 3-variable sweep grids.  Every factor in the package is a
# binomial power, built by ``_binomial_terms``.  numpy is imported inside the
# functions that use it, so runs that load this module but build no dense
# array never pay for loading it: ``verify --suite stokes``, and a brute-force
# ``eval`` that the cap refuses before numpy loads.


def _binomial_terms(shift: Sequence[int], first: Sequence[int], second: Sequence[int], e: int) -> list:
    """Sparse terms of x^shift * (x^first - x^second)^e, with exact integer coefficients.

    ``shift``, ``first`` and ``second`` are exponent vectors of one arity;
    term k is (-1)^k C(e, k) x^(shift + (e-k)*first + k*second).
    """
    # One arithmetic progression of exponents per axis, zipped into the term tuples.
    axes = [range(s + e * f, s + e * g + g - f, g - f) if g != f else [s + e * f] * (e + 1)
            for s, f, g in zip(shift, first, second)]
    return [(exps, -comb(e, k) if k & 1 else comb(e, k)) for k, exps in enumerate(zip(*axes))]


def _coefficient(arr: np.ndarray, index: tuple) -> int:
    """Entry of a dense coefficient array, 0 outside it (never wrapping a negative index)."""
    inside = all(0 <= i < s for i, s in zip(index, arr.shape))
    return int(arr[index]) if inside else 0


def _exact_dtype(factors: Iterable[Iterable[tuple]]) -> object:
    import numpy as np

    # L1 norm of a product is at most the product of L1 norms, so int64 is
    # provably exact below _INT64_SAFE; otherwise fall back to Python ints.
    bound = 1
    for factor in factors:
        bound *= sum(abs(c) for _, c in factor)
        if bound >= _INT64_SAFE:
            return object
    return np.int64


def _dense_mul(arr: np.ndarray, factor: list, p: int | None, cut: int | None = None) -> np.ndarray:
    """Multiply a dense coefficient array by one sparse factor, dropping exponents above ``cut``."""
    import numpy as np

    fdeg = tuple(max(e[i] for e, _ in factor) for i in range(arr.ndim))
    shape = tuple(s + d if cut is None else min(s + d, cut + 1) for s, d in zip(arr.shape, fdeg))
    out = np.zeros(shape, dtype=arr.dtype)
    # In mod-p mode each slice-add contributes less than p^2 per cell; when
    # the sum over all terms could leave int64, reduce after every add.
    reduce_each = p is not None and arr.dtype != object and len(factor) * (p - 1) ** 2 >= _INT64_SAFE
    for exps, coeff in factor:
        src = arr if cut is None else arr[tuple(slice(0, max(0, cut + 1 - e)) for e in exps)]  # may be empty
        sl = tuple(slice(e, e + s) for e, s in zip(exps, src.shape))
        if p is not None:
            coeff %= p
        out[sl] += coeff * src
        if reduce_each:
            out[sl] %= p
    if p is not None:
        out %= p
    return out


def _dense_powers(arr: np.ndarray, factors: list, count: int, p: int | None, cut: int | None = None):
    """arr times (prod of ``factors``)^k for k = 0, ..., count, each stepped from the last."""
    yield arr
    for _ in range(count):
        for factor in factors:
            arr = _dense_mul(arr, factor, p, cut)
        yield arr


def _dense_product(num_vars: int, factors: list, p: int | None, cut: int | None = None) -> np.ndarray:
    """Expand a product of sparse factors into a dense coefficient array.

    Each factor is a list of (exponent tuple, coefficient) pairs.  The result
    is indexed by exponent vectors; dtype is int64 when that is provably
    exact (in mod-p mode: p below about 2^31), Python objects otherwise.
    Exponents above ``cut``, if given, are dropped as the product is built.
    An empty factor makes the product 0, one zero cell.
    """
    import numpy as np

    if not all(factors):
        return np.zeros((1,) * num_vars, dtype=np.int64)
    if p is None:
        dtype = _exact_dtype(factors)
    else:
        # reduced accumulator plus one product must stay exact in int64
        dtype = np.int64 if (p - 1) ** 2 + p < _INT64_SAFE else object
    arr = np.ones((1,) * num_vars, dtype=dtype)
    for factor in factors:
        arr = _dense_mul(arr, factor, p, cut)
    return arr
