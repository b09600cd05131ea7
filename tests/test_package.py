"""The package namespace: its re-exports resolve on first use, as before."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerpencil

#: the names ``eulerpencil`` re-exports, by the submodule that defines them
EXPORTS = {
    "exactmath": ["LaurentPoly", "Matrix2", "QuadExt", "Rational", "group_pseudoinverse2",
                  "quad_roots"],
    "curves": ["CatalogueEntry", "WeierstrassCurve", "ap_count", "catalogue_entry",
               "cornacchia_candidates", "curve_invariants", "good_primes", "hasse_check",
               "legendre_j", "load_catalogue", "quartic_to_weierstrass"],
    "pencil": ["EtaGram", "Pencil2", "eta_gram", "j1728_locus_Q", "j_formula",
               "j_formula_tausq", "lambda_evenness_check", "monomial_gram8", "pencil_from_tdd",
               "pontryagin_index", "zco_pencil"],
    "matching": ["Basepoint", "MatchReport", "basepoint_for", "basepoint_solve",
                 "canonical_basepoint", "cd_matching_ratio", "discriminant_identity",
                 "euler_match_verify", "golden_ratio_spectrum", "interpolation_obstruction",
                 "master_quadratic", "offshell_distance", "symbolic_reduction_check",
                 "tco_basepoint", "zco_basepoint", "zco_c_trace_invariance", "zco_euler_factor"],
    "continuum": ["ALGEBRAIC", "TANH", "Dispersion", "arcsine_cdf", "arcsine_closed_form",
                  "arcsine_pdf", "dirichlet_L_chi4", "eta_functional_equation_residual",
                  "eta_value", "universality_integral"],
    "stats": ["PrimeSeries", "accumulation_means", "bulk_count", "bulk_target",
              "delta_p_series", "sato_tate_report"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_every_export():
    assert len(NAMES) == 61
    assert sorted(eulerpencil.__all__) == sorted(name for _, name in NAMES)
    assert eulerpencil.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", NAMES)
def test_export_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"eulerpencil.{module}")
    assert getattr(eulerpencil, name) is getattr(submodule, name)
    assert name in dir(eulerpencil)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from eulerpencil import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"eulerpencil.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulerpencil.no_such_name  # noqa: B018


def test_submodule_import_in_a_fresh_interpreter():
    src = str(Path(eulerpencil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import eulerpencil.curves; print(eulerpencil.curves.ap_count.__name__); "
            "import eulerpencil.cli; print(eulerpencil.stats.delta_p_series.__name__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ap_count\ndelta_p_series\n", "")
