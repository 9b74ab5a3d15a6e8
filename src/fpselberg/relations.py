"""The regimes in which several cycles are non-zero at once, and their checks.

Inside the window 0 < a, b, c < p at most one cycle l1 <= l2 <= 4 carries a
non-zero value, except in three regimes, the condition sets R1, R2 and R3
(``selberg2d_closed.in_condition_sets``).  In each, three cycles carry
values locked together by -1/2 * first = second = third:

  R1  2c < p, a+c <= p-1, b+c >= p, a+b+2c >= 2p-1   (1,1), (1,2), (2,1)
  R2  2c < p, a+b+c >= 2p-1                           (2,2), (1,2), (2,1)
  R3  2c > p, a+b+2c >= 3p-1                          (2,2), (1,3), (3,1)

``relations_from_values`` checks the relation, or uniqueness outside all
three sets, on values the caller reads (verify reads them off its grid);
``relations_check`` reads them by brute force.  ``skew_symmetry_check``
checks the coefficient-level argument behind the R3 relation with the
direct sum.  ``verify`` imports this module; no point query or sweep
loads it.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Callable

from .errors import DomainError, GuardError
from .selberg2d_closed import SelbergParams, _direct_coefficient, in_condition_sets

__all__ = [
    "RELATION_CYCLES",
    "RelationReport",
    "condition_set",
    "relations_check",
    "relations_from_values",
    "skew_symmetry_check",
]

_REL_CYCLES = {
    "R1": ((1, 1), (1, 2), (2, 1)),
    "R2": ((2, 2), (1, 2), (2, 1)),
    "R3": ((2, 2), (1, 3), (3, 1)),
}
_UNIQUENESS_CYCLES = tuple((l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5))
# Every cycle the relation check reads; the transposed (2,1) and (3,1) are
# read as coefficients in their own right, not by symmetry.
RELATION_CYCLES = tuple(dict.fromkeys(_UNIQUENESS_CYCLES + sum(_REL_CYCLES.values(), ())))


def condition_set(params: SelbergParams) -> str | None:
    flags = in_condition_sets(params)
    hits = [name for name, hit in zip(("R1", "R2", "R3"), flags) if hit]
    if len(hits) > 1:
        raise GuardError(f"condition sets overlap at {params}: {hits}")
    return hits[0] if hits else None


class RelationReport(namedtuple("RelationReport",
                                "params condition_set values relation_holds uniqueness_holds")):
    """Outcome of checking the multi-cycle relations for one (a, b, c).

    Inside a condition set, ``relation_holds`` records that the three listed
    integrals are non-zero and satisfy -1/2 * first = second = third; outside
    all sets, ``uniqueness_holds`` records that at most one pair l1 <= l2 <= 4
    carries a non-zero value.  ``values`` maps each cycle read to its integral.
    """

    __slots__ = ()


def relations_check(params: SelbergParams) -> RelationReport:
    """Verify the applicable multi-cycle relation with brute-force values."""
    from .selberg_core import selberg_bruteforce

    spec = params.spec(2)
    return relations_from_values(params, lambda cycle: selberg_bruteforce(spec, cycle))


def relations_from_values(params: SelbergParams, value: Callable[[tuple], int]) -> RelationReport:
    """The multi-cycle relation check on given integrals.

    ``value(cycle)`` returns the integral over ``cycle`` as a residue in
    [0, p); it is asked only for cycles in ``RELATION_CYCLES``.
    """
    cs = condition_set(params)
    if cs is None:
        values = {cycle: value(cycle) for cycle in _UNIQUENESS_CYCLES}
        return RelationReport(params, cs, values, None, sum(1 for v in values.values() if v) <= 1)
    head, second, third = _REL_CYCLES[cs]
    values = {cycle: value(cycle) for cycle in (head, second, third)}
    minus_half = -values[head] * params.ctx.inverse(2) % params.p
    holds = all(values.values()) and minus_half == values[second] == values[third]
    return RelationReport(params, cs, values, holds, None)


def skew_symmetry_check(params: SelbergParams) -> bool:
    """Coefficient-level verification of the R3 relation between cycles.

    Over F_p, (x1-x2)^(2c) = (x1^p - x2^p) * (x1-x2)^(2c-p), so with

        full  = (x1-x2)^(2c)   * x1^a (1-x1)^b x2^a (1-x2)^b   (coeffs alpha)
        lower = (x1-x2)^(2c-p) * x1^a (1-x1)^b x2^a (1-x2)^b   (coeffs beta)

    the alpha coefficients at cycle exponents are finite differences of beta,
    and `lower` is skew-symmetric in x1, x2.  Confirms, for parameters in R3
    (2c > p and a+b+2c >= 3p-1):

        beta(p-1, 2p-1) = -beta(2p-1, p-1)
        alpha(3p-1, p-1) =  beta(2p-1, p-1)
        alpha(2p-1, 2p-1) = beta(p-1, 2p-1) - beta(2p-1, p-1)
        alpha(p-1, 3p-1) = -beta(p-1, 2p-1)
        -1/2 * alpha(2p-1, 2p-1) = alpha(p-1, 3p-1) = alpha(3p-1, p-1)

    `full` is Phi(a, b, c), and `lower` is (x1-x2) * Phi(a, b, h) with
    h = c - (p+1)/2 in [0, (p-3)/2], so beta(t) = half[t - e1] - half[t - e2]
    on half = Phi(a, b, h).  alpha and beta are read by the direct sum.
    """
    if not in_condition_sets(params)[2]:
        raise DomainError(f"skew-symmetry check needs 2c > p and a+b+2c >= 3p-1, got {params}")

    a, b, c, p = params.a, params.b, params.c, params.p
    full = functools.partial(_direct_coefficient, params.ctx, a, b, c)
    alpha_31, alpha_22, alpha_13 = (full(*t) for t in
                                    ((3 * p - 1, p - 1), (2 * p - 1, 2 * p - 1), (p - 1, 3 * p - 1)))
    half = functools.partial(_direct_coefficient, params.ctx, a, b, c - (p + 1) // 2)
    beta_12, beta_21 = ((half(t1 - 1, t2) - half(t1, t2 - 1)) % p
                        for t1, t2 in ((p - 1, 2 * p - 1), (2 * p - 1, p - 1)))

    return (
        beta_12 == -beta_21 % p
        and alpha_31 == beta_21
        and alpha_22 == (beta_12 - beta_21) % p
        and alpha_13 == -beta_12 % p
        and -alpha_22 * params.ctx.inverse(2) % p == alpha_13
        and alpha_13 == alpha_31
    )
