"""Finite-field Selberg integrals: evaluators, case analysis, verification.

The package computes coefficients of master polynomials

    Phi_n = prod_{i<j} (x_i - x_j)^(2c) * prod_i x_i^a (1 - x_i)^b

at exponent vectors (l1*p-1, ..., ln*p-1) over F_p, by three independent
routes (full expansion, direct binomial summation, closed-form case
analysis), and machine-checks the identities relating them over exhaustive
small-prime grids.

The namespace is lazy: ``import fpselberg`` loads no submodule, and the
first read of an exported name imports the submodule that defines it, so a
point query never pays for the verifier.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("DomainError", "FpSelbergError", "GuardError", "ResourceLimitError"), "errors"),
    **dict.fromkeys(("MultiPoly", "fp_integral", "partial_derivative"), "fp_poly"),
    **dict.fromkeys(("GOLDEN_2D", "GoldenValue"), "golden"),
    **dict.fromkeys(("FpContext", "get_context", "is_prime"), "modp_arith"),
    **dict.fromkeys(("MorrisParams", "morris_ct_bruteforce", "morris_lhs_symmetric_form", "morris_rhs",
                     "morris_substitution", "selberg_via_morris"), "morris_ct"),
    **dict.fromkeys(("MasterPolySpec", "beta_closed", "moment_integral", "selberg_bruteforce",
                     "selberg_nd_closed"), "selberg_core"),
    **dict.fromkeys(("Branch", "RelationReport", "SelbergParams", "classify", "condition_set", "describe",
                     "eval_closed", "in_condition_sets", "relations_check", "selberg_direct_2d",
                     "skew_symmetry_check"), "selberg2d_closed"),
    **dict.fromkeys(("ALL_SUITES", "SweepConfig", "render_sweep", "sweep_rows"), "sweep"),
    **dict.fromkeys(("SuiteResult", "VerificationReport", "render_report", "run_verification"), "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
