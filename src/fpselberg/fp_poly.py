"""Sparse multivariate polynomials over F_p or over exact integers.

Coefficient extraction at exponents (l1*p - 1, ..., lk*p - 1) is the
"integral over the cycle [l1, ..., lk]" used throughout the package: it is
linear and kills every first partial derivative, which is what makes it
behave like integration over a closed contour.

Representation: ``terms`` maps exponent tuples to non-zero coefficients, e.g.

    {(2, 0): 1, (1, 1): -2, (0, 2): 1}   is   x1^2 - 2*x1*x2 + x2^2

In F_p mode (``p`` set) coefficients are reduced eagerly at every step; in
exact mode (``p`` = None) they are arbitrary-precision integers.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MultiPoly",
    "check_cycle",
    "fp_integral",
    "partial_derivative",
]

# int64 accumulators are exact as long as every intermediate stays below this.
_INT64_SAFE = 1 << 62


class MultiPoly:
    """Immutable sparse polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "p", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, int], p: int | None = None):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        clean: dict[tuple, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}; this type is polynomial-only")
            if p is not None:
                coeff %= p
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if p is not None:
                    clean[exps] %= p
                if not clean[exps]:
                    del clean[exps]
        self.num_vars = num_vars
        self.p = p
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, p: int | None = None) -> "MultiPoly":
        return cls(num_vars, {}, p)

    @classmethod
    def one(cls, num_vars: int, p: int | None = None) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: 1}, p)

    @classmethod
    def constant(cls, value: int, num_vars: int, p: int | None = None) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: value}, p)

    @classmethod
    def variable(cls, i: int, num_vars: int, p: int | None = None) -> "MultiPoly":
        """The monomial x_i (1-based index)."""
        if not 1 <= i <= num_vars:
            raise ValueError(f"variable index {i} out of range 1..{num_vars}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(num_vars))
        return cls(num_vars, {exps: 1}, p)

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: int = 1, p: int | None = None) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coeff}, p)

    @classmethod
    def from_dense(cls, arr: np.ndarray, p: int | None = None) -> "MultiPoly":
        """Build from a dense coefficient array indexed by exponents."""
        import numpy as np

        terms = {}
        for idx in zip(*np.nonzero(arr)):
            terms[tuple(int(e) for e in idx)] = int(arr[idx])
        return cls(arr.ndim, terms, p)

    # -- ring plumbing ------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.num_vars != other.num_vars:
            raise ValueError(f"arity mismatch: {self.num_vars} vs {other.num_vars} variables")
        if self.p != other.p:
            raise ValueError(f"coefficient ring mismatch: p={self.p} vs p={other.p}")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return other
        if isinstance(other, int):
            return MultiPoly.constant(other, self.num_vars, self.p)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly(self.num_vars, terms, self.p)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()}, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        p = self.p
        prod: dict[tuple, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prod[key] = (prod.get(key, 0) + ca * cb) % p if p else prod.get(key, 0) + ca * cb
        return MultiPoly(self.num_vars, prod, p)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {e!r}")
        result = MultiPoly.one(self.num_vars, self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- queries -------------------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> int:
        """Raw coefficient at the given exponent vector (0 if absent)."""
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {self.num_vars}")
        return self.terms.get(exps, 0)

    def degree(self, i: int) -> int:
        """Largest exponent of x_i (1-based); -1 for the zero polynomial."""
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"variable index {i} out of range 1..{self.num_vars}")
        return max((e[i - 1] for e in self.terms), default=-1)

    def degrees(self) -> tuple:
        return tuple(self.degree(i) for i in range(1, self.num_vars + 1))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def reduce_mod(self, p: int) -> "MultiPoly":
        """Project an exact-integer polynomial to F_p."""
        if self.p is not None:
            raise ValueError("already a mod-p polynomial")
        return MultiPoly(self.num_vars, self.terms, p)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.p == other.p and self.terms == other.terms

    def __repr__(self):
        ring = f"F_{self.p}" if self.p else "Z"
        items = sorted(self.terms.items())
        shown = ", ".join(f"{e}: {c}" for e, c in items[:6])
        if len(items) > 6:
            shown += f", ... ({len(items)} terms)"
        return f"MultiPoly[{ring}, k={self.num_vars}]({{{shown}}})"


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


def check_cycle(cycle: Sequence[int], num_vars: int | None = None) -> tuple:
    """Validate a cycle label: positive integer entries, optional arity check."""
    cycle = tuple(cycle)
    if not cycle or any(not isinstance(l, int) or l < 1 for l in cycle):
        raise ValueError(f"cycle entries must be positive integers, got {cycle}")
    if num_vars is not None and len(cycle) != num_vars:
        raise ValueError(f"cycle {cycle} has length {len(cycle)}, expected {num_vars}")
    return cycle


def fp_integral(P: MultiPoly, cycle: Sequence[int]) -> int:
    """Coefficient of x1^(l1*p-1) * ... * xk^(lk*p-1), as a residue in [0, p)."""
    if P.p is None:
        raise ValueError("fp_integral needs a mod-p polynomial; use coefficient() on exact ones")
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
# functions that use it, so the point-query routes (closed form, direct sum,
# classifier) never pay for loading it.


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


def _dense_mul(arr: np.ndarray, factor: list, p: int | None) -> np.ndarray:
    """Multiply a dense coefficient array by one sparse factor."""
    import numpy as np

    if not factor:
        return np.zeros((1,) * arr.ndim, dtype=arr.dtype)
    fdeg = tuple(max(e[i] for e, _ in factor) for i in range(arr.ndim))
    out = np.zeros(tuple(s + d for s, d in zip(arr.shape, fdeg)), dtype=arr.dtype)
    # In mod-p mode each slice-add contributes less than p^2 per cell; when
    # the sum over all terms could leave int64, reduce after every add.
    reduce_each = p is not None and arr.dtype != object and len(factor) * (p - 1) ** 2 >= _INT64_SAFE
    for exps, coeff in factor:
        sl = tuple(slice(e, e + s) for e, s in zip(exps, arr.shape))
        if p is not None:
            coeff %= p
        out[sl] += coeff * arr
        if reduce_each:
            out[sl] %= p
    if p is not None:
        out %= p
    return out


def _dense_product(num_vars: int, factors: list, p: int | None) -> np.ndarray:
    """Expand a product of sparse factors into a dense coefficient array.

    Each factor is a list of (exponent tuple, coefficient) pairs.  The result
    is indexed by exponent vectors; dtype is int64 when that is provably
    exact (in mod-p mode: p below about 2^31), Python objects otherwise.
    """
    import numpy as np

    if p is None:
        dtype = _exact_dtype(factors)
    else:
        # reduced accumulator plus one product must stay exact in int64
        dtype = np.int64 if (p - 1) ** 2 + p < _INT64_SAFE else object
    arr = np.zeros((1,) * num_vars, dtype=dtype)
    arr[(0,) * num_vars] = 1
    for factor in factors:
        arr = _dense_mul(arr, factor, p)
    return arr
