"""Exception types shared across the package, and the expansion cap.

Plain ``ValueError`` is used for malformed arguments (bad prime, out-of-range
parameters, arity or ring mismatches).  The classes below mark situations a
caller may want to handle separately from bad input.  ``_max_cells`` is the
cap behind the expansion guard's ``ResourceLimitError``; it lives here so the
CLI can check it without loading the expansion code.
"""

import os

# Coefficient cells one brute-force expansion or grid window may allocate: by default
# degree 499 per variable at n = 2 and 61 at n = 3, verify's shared grid up to p = 83.
# FPSELBERG_MAX_TERMS overrides it.
DEFAULT_MAX_TERMS = 250_000
MAX_TERMS_ENV = "FPSELBERG_MAX_TERMS"


class FpSelbergError(Exception):
    """Base class for package-specific errors."""


class DomainError(FpSelbergError):
    """A formula was requested outside the hypotheses under which it holds.

    Distinct from a zero value: vanishing branches return the residue 0,
    while a DomainError means the closed form asserts nothing at this input.
    """


class ResourceLimitError(FpSelbergError):
    """A computation was refused because its expansion or factorial table would be too large."""


class GuardError(FpSelbergError):
    """An internal consistency guard fired.

    Raised when a classifier reaches a provably unreachable branch or a
    closed-form denominator falls outside [0, p-1].  Any occurrence is a bug.
    """


def _max_cells() -> int:
    """The expansion cap: FPSELBERG_MAX_TERMS, else DEFAULT_MAX_TERMS; ValueError if malformed."""
    env = os.environ.get(MAX_TERMS_ENV)
    if env is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{MAX_TERMS_ENV} must be an integer >= 1, got {env!r}")
    return cap
