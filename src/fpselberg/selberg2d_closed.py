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

The branch conditions are exhaustive and mutually exclusive; the classifier
raises GuardError if it ever falls through, and the test suite checks that
this never happens.  Every formula is a signed ratio of factorials whose
denominator arguments provably lie in [0, p-1] on its branch.

The module also verifies the three regimes in which several cycles are
non-zero at once (condition sets R1, R2, R3 and the -1/2 relations between
cycles) and the coefficient-level skew-symmetry argument behind the R3
relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import DomainError, GuardError
from .fp_poly import _coefficient, _dense_product, check_cycle
from .selberg_core import SelbergParams, _master_factors, selberg_bruteforce

__all__ = [
    "Branch",
    "RELATION_CYCLES",
    "RelationReport",
    "classify",
    "condition_set",
    "delta_boundary_forms",
    "describe",
    "eval_closed",
    "in_condition_sets",
    "relations_check",
    "relations_from_values",
    "skew_symmetry_check",
]


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
        return self in _ZERO_REASONS


# Cycle-class labels that describe prints, keyed by canonical cycle.
_CYCLE_CLASSES = {(1, 1): "C11", (2, 2): "C22", (1, 2): "C12", (1, 3): "C13", (2, 3): "C23"}


def _canonical(l1: int, l2: int) -> tuple[int, int]:
    l1, l2 = check_cycle((l1, l2))
    return (l1, l2) if l1 <= l2 else (l2, l1)


def classify(params: SelbergParams, l1: int, l2: int) -> Branch:
    """Return the unique applicable branch for this input."""
    l1, l2 = _canonical(l1, l2)
    a, b, c, p = params.a, params.b, params.c, params.p

    if (l1, l2) == (1, 1):
        if a + c >= p or a + b + c <= p - 2:
            return Branch.NOT_APPLICABLE_zero
        # now a+c <= p-1 and a+b+c >= p-1
        if b + c <= p - 1:
            return Branch.C11_i
        if a + b + 2 * c >= 2 * p - 1:
            return Branch.C11_ii
        return Branch.C11_iii_zero

    if (l1, l2) == (2, 2):
        if a + b + c <= 2 * p - 2:
            return Branch.NOT_APPLICABLE_zero
        if a + b + 2 * c <= 3 * p - 2:
            return Branch.C22_i
        return Branch.C22_ii

    if (l1, l2) == (1, 2):
        delta = params.delta
        if delta < 0:
            return Branch.C12_delta_neg_zero
        if delta == 0:
            if a + b < p - 1:
                return Branch.C12_delta0_zero
            return Branch.C12_delta0_formula
        # delta > 0 forces (a+c) + (b+c) >= 2p, so a+c and b+c cannot both
        # stay below p; 2c = p is impossible for odd p.
        if 2 * c < p:
            if a + c <= p - 1:
                return Branch.C12_i
            if b + c <= p - 1:
                return Branch.C12_ii
            if a + b + c < 2 * p - 1:
                return Branch.C12_iii_zero
            return Branch.C12_iv
        if a + c >= p:
            return Branch.C12_v_zero
        if b + c >= p:
            return Branch.C12_vi_zero
        raise GuardError(f"unreachable [1,2] case at {params}")

    if (l1, l2) == (1, 3):
        if a + b + 2 * c < 3 * p - 1:
            return Branch.C13_zero
        return Branch.C13_formula

    if (l1, l2) == (2, 3):
        return Branch.C23_zero

    return Branch.OTHER_zero


# Non-zero branch formulas: sign, numerator factorial args, denominator
# factorial args.  Denominator arguments are in [0, p-1] whenever the branch
# conditions hold; numerators may vanish (argument >= p), encoding the
# "non-zero iff 2c < p" dichotomy on C11_i, C11_ii and C22_i.
def _formula(branch: Branch, params: SelbergParams) -> tuple[int, list[int], list[int]]:
    a, b, c, p = params.a, params.b, params.c, params.p
    s = a + b + c
    t = a + b + 2 * c
    if branch == Branch.C11_i:
        return 1, [2 * c, a, a + c, b, b + c], [c, s - p + 1, t - p + 1]
    if branch == Branch.C11_ii:
        return 1, [2 * c, a, a + c, b, b + c - p], [c, s - p + 1, t - 2 * p + 1]
    if branch == Branch.C22_i:
        return -1, [2 * c, a, a + c - p, b, b + c - p], [c, s - 2 * p + 1, t - 2 * p + 1]
    if branch == Branch.C22_ii:
        return -1, [2 * c - p, a, a + c - p, b, b + c - p], [c, s - 2 * p + 1, t - 3 * p + 1]
    if branch == Branch.C12_delta0_formula:
        return (-1) ** (b + 1), [a, b], [a + b - p + 1]
    if branch == Branch.C12_i:
        return -1, [2 * c - 1, a, a + c, b, b + c - p], [c - 1, s - p + 1, t - 2 * p + 1]
    if branch == Branch.C12_ii:
        # Sign is +: at delta = 0 this form must agree with the
        # (-1)^(b+1) a! b! / (a+b-p+1)! form, and a+b odd there forces it;
        # pinned against the expansion oracle on the full grid.
        return 1, [2 * c - 1, a, a + c - p, b, b + c], [c - 1, s - p + 1, t - 2 * p + 1]
    if branch == Branch.C12_iv:
        return 1, [2 * c - 1, a, a + c - p, b, b + c - p], [c - 1, s - 2 * p + 1, t - 2 * p + 1]
    if branch == Branch.C13_formula:
        return 1, [2 * c - 1 - p, a, a + c - p, b, b + c - p], [c - 1, s - 2 * p + 1, t - 3 * p + 1]
    raise GuardError(f"no formula for branch {branch}")


_TEMPLATES = {
    Branch.C11_i: "(2c)!/c! * a!(a+c)!b!(b+c)! / ((a+b+c-p+1)!(a+b+2c-p+1)!)",
    Branch.C11_ii: "(2c)!/c! * a!(a+c)!b!(b+c-p)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
    Branch.C22_i: "-(2c)!/c! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-2p+1)!)",
    Branch.C22_ii: "-(2c-p)!/c! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-3p+1)!)",
    Branch.C12_delta0_formula: "(-1)^(b+1) * a!b! / (a+b-p+1)!",
    Branch.C12_i: "-(2c-1)!/(c-1)! * a!(a+c)!b!(b+c-p)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
    Branch.C12_ii: "(2c-1)!/(c-1)! * a!(a+c-p)!b!(b+c)! / ((a+b+c-p+1)!(a+b+2c-2p+1)!)",
    Branch.C12_iv: "(2c-1)!/(c-1)! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-2p+1)!)",
    Branch.C13_formula: "(2c-1-p)!/(c-1)! * a!(a+c-p)!b!(b+c-p)! / ((a+b+c-2p+1)!(a+b+2c-3p+1)!)",
}

_ZERO_REASONS = {
    Branch.NOT_APPLICABLE_zero: "target monomial cannot occur in the expansion",
    Branch.C11_iii_zero: "b+c >= p with a+b+2c <= 2p-2",
    Branch.C12_delta_neg_zero: "delta < 0: x2 exponent 2p-1 is out of reach",
    Branch.C12_delta0_zero: "delta = 0 with a+b < p-1",
    Branch.C12_iii_zero: "a+c, b+c >= p with a+b+c < 2p-1",
    Branch.C12_v_zero: "2c > p with a+c >= p",
    Branch.C12_vi_zero: "2c > p with b+c >= p",
    Branch.C13_zero: "a+b+2c < 3p-1: x2 exponent 3p-1 is out of reach",
    Branch.C23_zero: "the [2,3] coefficient always vanishes in the window 0 < a,b,c < p",
    Branch.OTHER_zero: "cycle outside {(1,1),(2,2),(1,2),(1,3)}: degree too small",
}


def _eval_formula(branch: Branch, params: SelbergParams) -> int:
    ctx = params.ctx
    p = params.p
    sign, top, bottom = _formula(branch, params)
    value = sign % p
    for arg in top:
        value = value * ctx.factorial(arg) % p
    for arg in bottom:
        if not 0 <= arg < p:
            raise GuardError(
                f"denominator factorial argument {arg} outside [0, p-1] on branch {branch.value}"
            )
        value = value * ctx.inv_factorial(arg) % p
    return value


def eval_closed(params: SelbergParams, l1: int, l2: int) -> int:
    """Closed-form value of the classified branch; 0 on vanishing branches."""
    branch = classify(params, l1, l2)
    if branch.is_zero:
        return 0
    return _eval_formula(branch, params)


def describe(params: SelbergParams, l1: int, l2: int) -> str:
    """Classification explanation with the instantiated formula arguments."""
    branch = classify(params, l1, l2)
    cycle_class = _CYCLE_CLASSES.get(_canonical(l1, l2), "OTHER")
    a, b, c, p = params.a, params.b, params.c, params.p
    lines = [
        f"p={p} a={a} b={b} c={c} cycle=[{l1},{l2}]",
        f"cycle class {cycle_class}, branch {branch}, delta={params.delta}",
    ]
    if branch.is_zero:
        lines.append(f"value 0: {_ZERO_REASONS[branch]}")
    else:
        sign, top, bottom = _formula(branch, params)
        lines.append(f"formula: {_TEMPLATES[branch]}")
        sgn = "-" if sign % p == p - 1 else "+"
        lines.append(f"numerator factorial arguments {top!r}, denominator {bottom!r}, sign {sgn}")
        lines.append(f"value {_eval_formula(branch, params)}")
    return "\n".join(lines)


def delta_boundary_forms(params: SelbergParams) -> dict[str, int]:
    """All closed forms valid at delta = 0 with a+b >= p-1.

    Returns the canonical value plus every alternate expression whose side
    condition holds ('b_side' needs b+c >= p, 'a_side' needs a+c >= p); the
    test suite checks they agree.
    """
    if params.delta != 0 or params.a + params.b < params.p - 1:
        raise DomainError(f"delta-boundary forms need delta=0 and a+b >= p-1, got {params}")
    forms = {"canonical": _eval_formula(Branch.C12_delta0_formula, params)}
    if params.b + params.c >= params.p:
        forms["b_side"] = _eval_formula(Branch.C12_i, params)
    if params.a + params.c >= params.p:
        forms["a_side"] = _eval_formula(Branch.C12_ii, params)
    return forms


# -- multi-cycle regimes -------------------------------------------------------

_REL_CYCLES = {
    "R1": ((1, 1), (1, 2), (2, 1)),
    "R2": ((2, 2), (1, 2), (2, 1)),
    "R3": ((2, 2), (1, 3), (3, 1)),
}
_UNIQUENESS_CYCLES = tuple((l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5))
# Every cycle the relation check reads; the transposed (2,1) and (3,1) are
# read as coefficients in their own right, not by symmetry.
RELATION_CYCLES = tuple(dict.fromkeys(_UNIQUENESS_CYCLES + sum(_REL_CYCLES.values(), ())))


def in_condition_sets(params: SelbergParams) -> tuple[bool, bool, bool]:
    """Membership of (a, b, c) in the regimes R1, R2, R3 (mutually exclusive)."""
    a, b, c, p = params.a, params.b, params.c, params.p
    r1 = 2 * c < p and a + c <= p - 1 and b + c >= p and a + b + 2 * c >= 2 * p - 1
    r2 = 2 * c < p and a + b + c >= 2 * p - 1
    r3 = 2 * c > p and a + b + 2 * c >= 3 * p - 1
    return r1, r2, r3


def condition_set(params: SelbergParams) -> str | None:
    flags = in_condition_sets(params)
    hits = [name for name, hit in zip(("R1", "R2", "R3"), flags) if hit]
    if len(hits) > 1:
        raise GuardError(f"condition sets overlap at {params}: {hits}")
    return hits[0] if hits else None


@dataclass
class RelationReport:
    """Outcome of checking the multi-cycle relations for one (a, b, c).

    Inside a condition set, ``relation_holds`` records that the three listed
    integrals are non-zero and satisfy -1/2 * first = second = third; outside
    all sets, ``uniqueness_holds`` records that at most one pair l1 <= l2 <= 4
    carries a non-zero value.
    """

    params: SelbergParams
    condition_set: str | None
    values: dict = field(default_factory=dict)
    relation_holds: bool | None = None
    uniqueness_holds: bool | None = None

    @property
    def ok(self) -> bool:
        return self.relation_holds if self.condition_set else self.uniqueness_holds


def relations_check(params: SelbergParams) -> RelationReport:
    """Verify the applicable multi-cycle relation with brute-force values."""
    spec = params.spec(2)
    return relations_from_values(params, lambda cycle: selberg_bruteforce(spec, cycle))


def relations_from_values(params: SelbergParams, value: Callable[[tuple], int]) -> RelationReport:
    """The multi-cycle relation check on given integrals.

    ``value(cycle)`` returns the integral over ``cycle`` as a residue in
    [0, p); it is asked only for cycles in ``RELATION_CYCLES``.
    """
    cs = condition_set(params)
    report = RelationReport(params=params, condition_set=cs)
    if cs is None:
        report.values = {cycle: value(cycle) for cycle in _UNIQUENESS_CYCLES}
        report.uniqueness_holds = sum(1 for v in report.values.values() if v) <= 1
        return report
    head, second, third = _REL_CYCLES[cs]
    values = {cycle: value(cycle) for cycle in (head, second, third)}
    report.values = values
    minus_half = -values[head] * params.ctx.inverse(2) % params.p
    report.relation_holds = (
        all(bool(v) for v in values.values())
        and minus_half == values[second]
        and values[second] == values[third]
    )
    return report


def skew_symmetry_check(params: SelbergParams) -> bool:
    """Coefficient-level verification of the R3 relation between cycles.

    Over F_p, (x1-x2)^(2c) = (x1^p - x2^p) * (x1-x2)^(2c-p), so with

        full  = (x1-x2)^(2c)   * x1^a (1-x1)^b x2^a (1-x2)^b   (coeffs alpha)
        lower = (x1-x2)^(2c-p) * x1^a (1-x1)^b x2^a (1-x2)^b   (coeffs beta)

    the alpha coefficients at cycle exponents are finite differences of beta,
    and `lower` is skew-symmetric in x1, x2.  Confirms, for parameters with
    2c > p and a+b+2c >= 3p-1:

        beta(p-1, 2p-1) = -beta(2p-1, p-1)
        alpha(3p-1, p-1) =  beta(2p-1, p-1)
        alpha(2p-1, 2p-1) = beta(p-1, 2p-1) - beta(2p-1, p-1)
        alpha(p-1, 3p-1) = -beta(p-1, 2p-1)
        -1/2 * alpha(2p-1, 2p-1) = alpha(p-1, 3p-1) = alpha(3p-1, p-1)
    """
    a, b, c, p = params.a, params.b, params.c, params.p
    if not (2 * c > p and a + b + 2 * c >= 3 * p - 1):
        raise DomainError(f"skew-symmetry check needs 2c > p and a+b+2c >= 3p-1, got {params}")

    full = _dense_product(2, _master_factors(2, a, b, 2 * c), p)
    lower = _dense_product(2, _master_factors(2, a, b, 2 * c - p), p)
    alpha_31, alpha_22, alpha_13 = (_coefficient(full, t) for t in
                                    ((3 * p - 1, p - 1), (2 * p - 1, 2 * p - 1), (p - 1, 3 * p - 1)))
    beta_12, beta_21 = (_coefficient(lower, t) for t in ((p - 1, 2 * p - 1), (2 * p - 1, p - 1)))

    return (
        beta_12 == -beta_21 % p
        and alpha_31 == beta_21
        and alpha_22 == (beta_12 - beta_21) % p
        and alpha_13 == -beta_12 % p
        and -alpha_22 * params.ctx.inverse(2) % p == alpha_13
        and alpha_13 == alpha_31
    )
