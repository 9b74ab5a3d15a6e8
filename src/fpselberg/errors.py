"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (bad prime, out-of-range
parameters, arity or ring mismatches).  The classes below mark situations a
caller may want to handle separately from bad input.
"""


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
