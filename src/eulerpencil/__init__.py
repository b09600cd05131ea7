"""Finite-dimensional operator encoding of L-function Euler factors.

Exact basepoint solving via the master quadratic, per-prime Euler-factor
matching, the j-invariant moduli map of 2x2 causal pencils, the eta-Gram in
closed form, and the continuum/statistical limits (arcsine universality,
CM Sato-Tate, accumulation).

The names in ``__all__`` are re-exported from their submodules and resolve
on first use (PEP 562): ``import eulerpencil`` runs no submodule, and
``eulerpencil.ap_count`` imports ``eulerpencil.curves`` and what it imports.
"""

import importlib

_EXPORTS = {
    "exactmath": ("LaurentPoly", "Matrix2", "QuadExt", "Rational", "group_pseudoinverse2",
                  "quad_roots"),
    "curves": ("CatalogueEntry", "WeierstrassCurve", "ap_count", "catalogue_entry",
               "cornacchia_candidates", "curve_invariants", "good_primes", "hasse_check",
               "legendre_j", "load_catalogue", "quartic_to_weierstrass"),
    "pencil": ("EtaGram", "Pencil2", "eta_gram", "j1728_locus_Q", "j_formula",
               "j_formula_tausq", "lambda_evenness_check", "monomial_gram8", "pencil_from_tdd",
               "pontryagin_index", "zco_pencil"),
    "matching": ("Basepoint", "MatchReport", "basepoint_for", "basepoint_solve",
                 "canonical_basepoint", "cd_matching_ratio", "discriminant_identity",
                 "euler_match_verify", "golden_ratio_spectrum", "interpolation_obstruction",
                 "master_quadratic", "offshell_distance", "symbolic_reduction_check",
                 "tco_basepoint", "zco_basepoint", "zco_c_trace_invariance", "zco_euler_factor"),
    "continuum": ("ALGEBRAIC", "TANH", "Dispersion", "arcsine_cdf", "arcsine_closed_form",
                  "arcsine_pdf", "dirichlet_L_chi4", "eta_functional_equation_residual",
                  "eta_value", "universality_integral"),
    "stats": ("PrimeSeries", "accumulation_means", "bulk_count", "bulk_target",
              "delta_p_series", "sato_tate_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
