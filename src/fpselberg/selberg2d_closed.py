"""Complete case analysis for two-dimensional Selberg sums mod p.

For 0 < a, b, c < p and a cycle (l1, l2), exactly one branch below applies
(after swapping so that l1 <= l2; the sum is symmetric in the cycle labels).
``classify`` returns it as a ``Branch``, a str-valued enum whose str() is
the name below.  Writing delta = a+b+2c+1-2p:

  (1,1)  NOT_APPLICABLE_zero   a+c >= p or a+b+c <= p-2 (coefficient absent)
         C11_i                 b+c <= p-1        -> formula, non-zero iff 2c < p
         C11_ii                b+c >= p, a+b+2c >= 2p-1 -> formula, non-zero iff 2c < p
         C11_iii_zero          b+c >= p, a+b+2c <= 2p-2
  (2,2)  NOT_APPLICABLE_zero   a+b+c <= 2p-2 (coefficient absent)
         C22_i                 a+b+2c <= 3p-2    -> formula, non-zero iff 2c < p
         C22_ii                a+b+2c >= 3p-1    -> formula, always non-zero
  (1,2)  C12_delta_neg_zero    delta < 0
         C12_delta0_zero       delta = 0, a+b < p-1
         C12_delta0_formula    delta = 0, a+b >= p-1
         C12_i                 delta > 0, 2c < p, a+c <= p-1 (then b+c >= p)
         C12_ii                delta > 0, 2c < p, b+c <= p-1 (then a+c >= p)
         C12_iii_zero          delta > 0, 2c < p, a+c,b+c >= p, a+b+c < 2p-1
         C12_iv                delta > 0, 2c < p, a+b+c >= 2p-1
         C12_v_zero            delta > 0, 2c > p, a+c >= p
         C12_vi_zero           delta > 0, 2c > p, b+c >= p
  (1,3)  C13_zero              a+b+2c < 3p-1
         C13_formula           a+b+2c >= 3p-1    -> formula, always non-zero
  (2,3)  C23_zero              always
  other  OTHER_zero            always (degree cannot reach the coefficient)

The table ``_CYCLE_CLASSES`` is the dispatch: under each cycle it holds the
block's label and either its classifier over plain ints (a, b, c, p) or, for
(2,3), its one branch; OTHER_zero, off the table, is one branch too.  A
lookup, and a call only where the entry is a classifier; sweeps and verify
resolve the one-branch classes once per run, not once per point.
Within a block the conditions are exhaustive and mutually exclusive; the
(1,2) classifier raises GuardError if it ever falls through, and the test
suite checks that this never happens.  What a branch answers is its row in
``_ROWS``, one per branch: a formula branch's template and formula, a signed
ratio of factorials whose denominator arguments provably lie in [0, p-1] on
its branch, or a zero branch's reason and whether it vanishes over Z.
``_ZERO_BRANCHES``, ``_formula``, ``describe`` and verify's integer mode all
read these rows; ``Branch.is_zero`` and ``_closed_value`` read that set.

It is the point path: ``SelbergParams``, ``check_cycle``, the direct sum
``_direct_coefficient`` and its route ``selberg_direct_2d`` live here, so
``eval`` and ``classify`` load this module, ``errors`` and ``modp_arith``
and nothing of the expansion code.  A closed value is one
``FpContext.factorial_ratio`` read, which at a single large prime sweeps
instead of building factorial tables, and answers 0 at any prime when a
numerator argument reaches p; the direct sum steps each run of its k
interval by the ratio of consecutive terms, one inversion and one ratio read
per run.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from operator import mul
from types import SimpleNamespace
from typing import Sequence

from .errors import GuardError
from .modp_arith import FpContext, get_context

__all__ = [
    "ALL_METHODS",
    "Branch",
    "SelbergParams",
    "check_cycle",
    "classify",
    "describe",
    "eval_closed",
    "in_condition_sets",
    "selberg_direct_2d",
]


class SelbergParams(namedtuple("SelbergParams", "a b c p")):
    """Parameters (a, b, c) with 0 < a, b, c < p, the two-dimensional window."""

    __slots__ = ()

    def __init__(self, a: int, b: int, c: int, p: int):
        get_context(p)  # validates the prime
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not isinstance(v, int) or not 0 < v < p:
                raise ValueError(f"parameter {name} must satisfy 0 < {name} < p={p}, got {v}")

    @property
    def delta(self) -> int:
        """The shift a + b + 2c + 1 - 2p governing the [1,2] case analysis."""
        return self.a + self.b + 2 * self.c + 1 - 2 * self.p

    @property
    def ctx(self) -> FpContext:
        return get_context(self.p)

    def spec(self, n: int = 2):
        """The brute-force request ``selberg_core.MasterPolySpec`` for these parameters in n variables."""
        from .selberg_core import MasterPolySpec

        return MasterPolySpec(n, self.a, self.b, self.c, self.p)


def check_cycle(cycle: Sequence[int], num_vars: int | None = None) -> tuple:
    """Validate a cycle label: positive integer entries, optional arity check."""
    cycle = tuple(cycle)
    if not cycle or any(not isinstance(l, int) or l < 1 for l in cycle):
        raise ValueError(f"cycle entries must be positive integers, got {cycle}")
    if num_vars is not None and len(cycle) != num_vars:
        raise ValueError(f"cycle {cycle} has length {len(cycle)}, expected {num_vars}")
    return cycle


class Branch(str, Enum):
    """The unique case applying to one (a, b, c, p, l1, l2) input; prints as its value."""

    C11_i = "C11_i"
    C11_ii = "C11_ii"
    C11_iii_zero = "C11_iii_zero"
    C22_i = "C22_i"
    C22_ii = "C22_ii"
    C12_delta_neg_zero = "C12_delta_neg_zero"
    C12_delta0_zero = "C12_delta0_zero"
    C12_delta0_formula = "C12_delta0_formula"
    C12_i = "C12_i"
    C12_ii = "C12_ii"
    C12_iii_zero = "C12_iii_zero"
    C12_iv = "C12_iv"
    C12_v_zero = "C12_v_zero"
    C12_vi_zero = "C12_vi_zero"
    C13_zero = "C13_zero"
    C13_formula = "C13_formula"
    C23_zero = "C23_zero"
    OTHER_zero = "OTHER_zero"
    NOT_APPLICABLE_zero = "NOT_APPLICABLE_zero"

    def __str__(self):
        return self.value

    @property
    def is_zero(self) -> bool:
        return self in _ZERO_BRANCHES


def classify(params: SelbergParams, l1: int, l2: int) -> Branch:
    """Return the unique applicable branch for this input."""
    return _branch(params, *check_cycle((l1, l2)))


def _branch(params: SelbergParams, l1: int, l2: int) -> Branch:
    """``classify`` on a checked cycle: one lookup in the cycle-class table, one call if it is a classifier."""
    rule = _CYCLE_CLASSES.get((l1, l2) if l1 <= l2 else (l2, l1), _OTHER_CLASS)[1]
    return rule if isinstance(rule, Branch) else rule(*params)


# Branch's members as plain attributes.  A member read off Branch itself takes
# EnumType's lookup hook, about 100 ns, and every classifier call below makes one read.
_Branch = SimpleNamespace(**Branch.__members__)


# One classifier per cycle class, over plain ints (a, b, c, p), returning its branch.
def _c11(a: int, b: int, c: int, p: int) -> Branch:
    if a + c >= p or a + b + c <= p - 2:
        return _Branch.NOT_APPLICABLE_zero
    # now a+c <= p-1 and a+b+c >= p-1
    if b + c <= p - 1:
        return _Branch.C11_i
    if a + b + 2 * c >= 2 * p - 1:
        return _Branch.C11_ii
    return _Branch.C11_iii_zero


def _c22(a: int, b: int, c: int, p: int) -> Branch:
    if a + b + c <= 2 * p - 2:
        return _Branch.NOT_APPLICABLE_zero
    return _Branch.C22_i if a + b + 2 * c <= 3 * p - 2 else _Branch.C22_ii


def _c12(a: int, b: int, c: int, p: int) -> Branch:
    delta = a + b + 2 * c + 1 - 2 * p
    if delta < 0:
        return _Branch.C12_delta_neg_zero
    if delta == 0:
        return _Branch.C12_delta0_zero if a + b < p - 1 else _Branch.C12_delta0_formula
    # delta > 0 forces (a+c) + (b+c) >= 2p, so a+c and b+c cannot both
    # stay below p; 2c = p is impossible for odd p.
    if 2 * c < p:
        if a + c <= p - 1:
            return _Branch.C12_i
        if b + c <= p - 1:
            return _Branch.C12_ii
        if a + b + c < 2 * p - 1:
            return _Branch.C12_iii_zero
        return _Branch.C12_iv
    if a + c >= p:
        return _Branch.C12_v_zero
    if b + c >= p:
        return _Branch.C12_vi_zero
    raise GuardError(f"unreachable [1,2] case at {SelbergParams(a, b, c, p)}")


def _c13(a: int, b: int, c: int, p: int) -> Branch:
    return _Branch.C13_zero if a + b + 2 * c < 3 * p - 1 else _Branch.C13_formula


# The cycle classes by canonical cycle (l1 <= l2): the label describe prints and the
# classifier, or the branch of a class with one branch, which must be a zero branch.
# Every other cycle is in ``_OTHER_CLASS``.
_CYCLE_CLASSES = {
    (1, 1): ("C11", _c11),
    (2, 2): ("C22", _c22),
    (1, 2): ("C12", _c12),
    (1, 3): ("C13", _c13),
    (2, 3): ("C23", Branch.C23_zero),
}
_OTHER_CLASS = ("OTHER", Branch.OTHER_zero)


# One row per branch.  A formula branch's row holds its template, as describe prints it,
# and its formula: (a, b, c, p) -> (sign, numerator factorial arguments, denominator
# factorial arguments).  Denominator arguments are in [0, p-1] whenever the branch
# conditions hold; numerators may vanish (argument >= p), encoding the "non-zero iff
# 2c < p" dichotomy on C11_i, C11_ii and C22_i.  A zero branch's row holds the reason it
# vanishes and whether it vanishes over Z (degree or truncation arguments), not merely
# mod p, which verify's integer mode checks with the exact oracle.
_FormulaRow = namedtuple("_FormulaRow", "template formula")
_ZeroRow = namedtuple("_ZeroRow", "reason over_z")

_ROWS = {
    Branch.C11_i: _FormulaRow(
        "(2c)!/c! * a!(a+c)!b!(b+c)! / ((a+b+c-p+1)!(a+b+2c-p+1)!)",
        lambda a, b, c, p: (1, [2 * c, a, a + c, b, b + c],
                            [c, a + b + c - p + 1, a + b + 2 * c - p + 1])),
    Branch.C11_ii: _FormulaRow(
        "(2c)!/c! * a!(a+c)!b!(b+c-p)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
        lambda a, b, c, p: (1, [2 * c, a, a + c, b, b + c - p],
                            [c, a + b + c - p + 1, a + b + 2 * c - 2 * p + 1])),
    Branch.C11_iii_zero: _ZeroRow("b+c >= p with a+b+2c <= 2p-2", False),
    Branch.C22_i: _FormulaRow(
        "-(2c)!/c! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-2p+1)!)",
        lambda a, b, c, p: (-1, [2 * c, a, a + c - p, b, b + c - p],
                            [c, a + b + c - 2 * p + 1, a + b + 2 * c - 2 * p + 1])),
    Branch.C22_ii: _FormulaRow(
        "-(2c-p)!/c! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-3p+1)!)",
        lambda a, b, c, p: (-1, [2 * c - p, a, a + c - p, b, b + c - p],
                            [c, a + b + c - 2 * p + 1, a + b + 2 * c - 3 * p + 1])),
    Branch.C12_delta_neg_zero: _ZeroRow("delta < 0: x2 exponent 2p-1 is out of reach", True),
    Branch.C12_delta0_zero: _ZeroRow("delta = 0 with a+b < p-1", True),
    Branch.C12_delta0_formula: _FormulaRow(
        "(-1)^(b+1) * a!b! / (a+b-p+1)!",
        lambda a, b, c, p: ((-1) ** (b + 1), [a, b], [a + b - p + 1])),
    Branch.C12_i: _FormulaRow(
        "-(2c-1)!/(c-1)! * a!(a+c)!b!(b+c-p)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
        lambda a, b, c, p: (-1, [2 * c - 1, a, a + c, b, b + c - p],
                            [c - 1, a + b + c - p + 1, a + b + 2 * c - 2 * p + 1])),
    # Sign is +: at delta = 0 this form must agree with the (-1)^(b+1) a! b! / (a+b-p+1)!
    # form, and a+b odd there forces it; pinned against the expansion oracle on the full grid.
    Branch.C12_ii: _FormulaRow(
        "(2c-1)!/(c-1)! * a!(a+c-p)!b!(b+c)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
        lambda a, b, c, p: (1, [2 * c - 1, a, a + c - p, b, b + c],
                            [c - 1, a + b + c - p + 1, a + b + 2 * c - 2 * p + 1])),
    Branch.C12_iii_zero: _ZeroRow("a+c, b+c >= p with a+b+c < 2p-1", False),
    Branch.C12_iv: _FormulaRow(
        "(2c-1)!/(c-1)! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-2p+1)!)",
        lambda a, b, c, p: (1, [2 * c - 1, a, a + c - p, b, b + c - p],
                            [c - 1, a + b + c - 2 * p + 1, a + b + 2 * c - 2 * p + 1])),
    Branch.C12_v_zero: _ZeroRow("2c > p with a+c >= p", False),
    Branch.C12_vi_zero: _ZeroRow("2c > p with b+c >= p", False),
    Branch.C13_zero: _ZeroRow("a+b+2c < 3p-1: x2 exponent 3p-1 is out of reach", True),
    Branch.C13_formula: _FormulaRow(
        "(2c-1-p)!/(c-1)! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-3p+1)!)",
        lambda a, b, c, p: (1, [2 * c - 1 - p, a, a + c - p, b, b + c - p],
                            [c - 1, a + b + c - 2 * p + 1, a + b + 2 * c - 3 * p + 1])),
    Branch.C23_zero: _ZeroRow("the [2,3] coefficient always vanishes in the window 0 < a,b,c < p", False),
    Branch.OTHER_zero: _ZeroRow("cycle outside {(1,1),(2,2),(1,2),(1,3)}: degree too small", True),
    Branch.NOT_APPLICABLE_zero: _ZeroRow("target monomial cannot occur in the expansion", True),
}
_ZERO_BRANCHES = frozenset(branch for branch, row in _ROWS.items() if type(row) is _ZeroRow)


def _formula(branch: Branch, params: SelbergParams) -> tuple[int, list[int], list[int]]:
    """The sign and the numerator and denominator factorial arguments of a formula branch."""
    row = _ROWS[branch]
    if type(row) is _ZeroRow:
        raise GuardError(f"no formula for branch {branch}")
    return row.formula(*params)


# The evaluation routes of a two-dimensional point, by CLI --method name.
ALL_METHODS = ("bruteforce", "direct", "closed")


def selberg_direct_2d(params: SelbergParams, l1: int, l2: int) -> int:
    """Two-dimensional evaluation by direct binomial summation: ``_direct_coefficient``
    at the cycle exponents, O(min(b, c)) field operations, no polynomial built."""
    l1, l2 = check_cycle((l1, l2))
    return _direct_coefficient(params.ctx, params.a, params.b, params.c, l1 * params.p - 1, l2 * params.p - 1)


def _direct_coefficient(ctx: FpContext, a: int, b: int, c: int, t1: int, t2: int) -> int:
    """The coefficient of x1^t1 x2^t2 in Phi_2(a, b, c) mod p, 0 <= a, b, c < p, any integer t.

    Expanding (x1 - x2)^(2c) and picking the coefficient of x^t in each
    univariate factor x^alpha (1-x)^b gives

        sum_k (-1)^k C(2c, k) * A(a+2c-k, b; t1) * A(a+k, b; t2),

    where A(alpha, b; t) = (-1)^(t-alpha) C(b, t-alpha).  Only the k with both
    j1 = t1-(a+2c-k) and j2 = t2-(a+k) in [0, b] contribute, with the sign
    (-1)^(k+j1+j2) = (-1)^(k+t1+t2).  C(b, j) is one base-p digit.  2c < 2p
    has the Lucas digits (1, n0 = 2c-p) or (0, n0 = 2c), so C(2c, k) =
    C(n0, i) with i = k - start on the k runs [0, n0] and, when 2c >= p,
    [p, 2c], and vanishes between them.

    Within a run consecutive terms differ by the rational factor

        T(k+1) / T(k) = -(n0-i)(b-j1) j2 / ((i+1)(j1+1)(b-j2+1)),

    whose six factors all lie in [1, p-1] while k+1 stays in the run.  So the
    part [k0, k1] of a run that the k interval [lo, hi] meets sums
    Horner-style from its top, T(k0) * (1 + r_k0 * (1 + r_(k0+1) * (...))),
    with the bracket held as one numerator/denominator pair: one inversion
    per run, and T(k0) = +-n0! b!^2 / (i! (n0-i)! j1! (b-j1)! j2! (b-j2)!)
    one ``factorial_ratio`` read of its end-point factorials.  An empty k
    interval, or one that meets no run, returns 0 at once, before any
    factorial is read.
    """
    p = ctx.p
    shift = a + 2 * c - t1  # j1 = k - shift
    top = t2 - a  # j2 = top - k
    lo, hi = (shift if shift > top - b else top - b), (top if top < shift + b else shift + b)
    if lo > hi:
        return 0
    n0 = 2 * c % p
    total = 0
    for start, stop in ((0, n0), (p, 2 * c)) if 2 * c >= p else ((0, n0),):
        k0, k1 = max(lo, start), min(hi, stop)
        if k0 > k1:
            continue
        i, j1, j2 = k0 - start, k0 - shift, top - k0
        run = ctx.factorial_ratio((n0, b, b), (i, n0 - i, j1, b - j1, j2, b - j2))
        if k1 > k0:
            # The ratio's six factors at k = k1-1, ..., k0: (n0-i), (b-j1) and j2 rise, the rest fall.
            rises = map(mul, map(mul, range(n0 - k1 + start + 1, n0 - i + 1), range(b - k1 + shift + 1, b - j1 + 1)),
                        range(top - k1 + 1, j2 + 1))
            falls = map(mul, map(mul, range(k1 - start, i, -1), range(k1 - shift, j1, -1)),
                        range(b - top + k1, b - j2, -1))
            num = den = 1
            for n, d in zip(rises, falls):
                num = (d * den - n * num) % p
                den = d * den % p
            run = run * num % p * ctx.inverse(den) % p
        total = total - run if (k0 + t1 + t2) & 1 else total + run
    return total % p


def _closed_value(branch: Branch, params: SelbergParams) -> int:
    """The value of ``branch`` at ``params``: its formula, one factorial ratio read, or 0 on a
    vanishing branch."""
    if branch in _ZERO_BRANCHES:
        return 0
    p = params.p
    sign, top, bottom = _formula(branch, params)
    for arg in bottom:
        if not 0 <= arg < p:
            raise GuardError(f"denominator factorial argument {arg} outside [0, p-1] "
                             f"on branch {branch.value}")
    return sign * params.ctx.factorial_ratio(top, bottom) % p


def eval_closed(params: SelbergParams, l1: int, l2: int) -> int:
    """Closed-form value of the classified branch; 0 on vanishing branches."""
    return _closed_value(classify(params, l1, l2), params)


def describe(params: SelbergParams, l1: int, l2: int, branch: Branch | None = None,
             value: int | None = None) -> str:
    """Classification explanation with the instantiated formula arguments; the branch and the
    closed value are computed here unless the caller passes them in."""
    branch = classify(params, l1, l2) if branch is None else branch
    cycle_class, _ = _CYCLE_CLASSES.get((min(l1, l2), max(l1, l2)), _OTHER_CLASS)
    a, b, c, p = params.a, params.b, params.c, params.p
    lines = [
        f"p={p} a={a} b={b} c={c} cycle=[{l1},{l2}]",
        f"cycle class {cycle_class}, branch {branch}, delta={params.delta}",
    ]
    if branch.is_zero:
        lines.append(f"value 0: {_ROWS[branch].reason}")
    else:
        sign, top, bottom = _formula(branch, params)
        lines.append(f"formula: {_ROWS[branch].template}")
        sgn = "-" if sign % p == p - 1 else "+"
        lines.append(f"numerator factorial arguments {top!r}, denominator {bottom!r}, sign {sgn}")
        lines.append(f"value {_closed_value(branch, params) if value is None else value}")
    return "\n".join(lines)


def in_condition_sets(params: SelbergParams) -> tuple[bool, bool, bool]:
    """Membership of (a, b, c) in the regimes R1, R2, R3 (mutually exclusive), where several
    cycles are non-zero at once; every sweep row prints it, and ``relations`` checks them."""
    a, b, c, p = params.a, params.b, params.c, params.p
    r1 = 2 * c < p and a + c <= p - 1 and b + c >= p and a + b + 2 * c >= 2 * p - 1
    r2 = 2 * c < p and a + b + c >= 2 * p - 1
    r3 = 2 * c > p and a + b + 2 * c >= 3 * p - 1
    return r1, r2, r3


def __getattr__(name):
    # benchmarks/inproc.py reads these two checks here; they live in ``relations``.
    if name in ("relations_check", "skew_symmetry_check"):
        from . import relations

        return getattr(relations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
