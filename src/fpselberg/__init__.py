"""Finite-field Selberg integrals: evaluators, case analysis, verification.

The package computes coefficients of master polynomials

    Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b

at exponent vectors (l1*p-1, ..., ln*p-1) over F_p, by three independent
routes (full expansion, direct binomial summation, closed-form case
analysis), and machine-checks the identities relating them over exhaustive
small-prime grids.
"""

from .errors import DomainError, FpSelbergError, GuardError, ResourceLimitError
from .fp_poly import MultiPoly, fp_integral, partial_derivative
from .golden import GOLDEN_2D, GoldenValue
from .modp_arith import FpContext, get_context, is_prime
from .morris_ct import (
    MorrisParams,
    morris_ct_bruteforce,
    morris_lhs_symmetric_form,
    morris_rhs,
    morris_substitution,
    selberg_via_morris,
)
from .selberg_core import (
    MasterPolySpec,
    SelbergParams,
    beta_closed,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_nd_closed,
)
from .selberg2d_closed import (
    Branch,
    RelationReport,
    classify,
    condition_set,
    describe,
    eval_closed,
    in_condition_sets,
    relations_check,
    skew_symmetry_check,
)
from .verify import (
    ALL_SUITES,
    SweepConfig,
    SuiteResult,
    VerificationReport,
    render_report,
    render_sweep,
    run_verification,
    sweep_rows,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "Branch",
    "DomainError",
    "FpContext",
    "FpSelbergError",
    "GOLDEN_2D",
    "GoldenValue",
    "GuardError",
    "MasterPolySpec",
    "MorrisParams",
    "MultiPoly",
    "RelationReport",
    "ResourceLimitError",
    "SelbergParams",
    "SuiteResult",
    "SweepConfig",
    "VerificationReport",
    "beta_closed",
    "classify",
    "condition_set",
    "describe",
    "eval_closed",
    "fp_integral",
    "get_context",
    "in_condition_sets",
    "is_prime",
    "moment_integral",
    "morris_ct_bruteforce",
    "morris_lhs_symmetric_form",
    "morris_rhs",
    "morris_substitution",
    "partial_derivative",
    "relations_check",
    "render_report",
    "render_sweep",
    "run_verification",
    "selberg_bruteforce",
    "selberg_direct_2d",
    "selberg_nd_closed",
    "selberg_via_morris",
    "skew_symmetry_check",
    "sweep_rows",
]
