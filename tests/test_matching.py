"""Per-prime Euler-factor matching tests."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerpencil
from eulerpencil import matching
from eulerpencil.exactmath import (
    DegenerateQuadraticError,
    LaurentPoly,
    Matrix2,
    QuadExt,
    group_pseudoinverse2,
)
from eulerpencil.matching import (
    CANONICAL_PARAMS,
    HasseViolationError,
    ReductionFailureError,
    ZCO_ON_SHELL,
    basepoint_for,
    basepoint_solve,
    canonical_basepoint,
    canonical_match_exact,
    cd_matching_ratio,
    discriminant_identity,
    euler_match_verify,
    golden_ratio_spectrum,
    interpolation_obstruction,
    master_quadratic,
    offshell_distance,
    symbolic_reduction_check,
    tco_basepoint,
    zco_basepoint,
    zco_c_trace_invariance,
    zco_euler_factor,
    zco_matrix,
)
from eulerpencil.pencil import spectral_value, zco_pencil
from eulerpencil.curves import WeierstrassCurve, hasse_check, primes_upto

PRIMES = primes_upto(60)


def hasse_pairs():
    out = []
    for p in PRIMES:
        bound = int((4 * p) ** 0.5)
        for a_p in range(-bound, bound + 1):
            if a_p * a_p < 4 * p:
                out.append((a_p, p))
    return out


# -- master quadratic and basepoints ------------------------------------------


def test_master_quadratic_canonical_oracle():
    # [DERIVED] canonical (2,0,2), a_p=-4, p=5: A=-4, B=-16/5, C=88/25
    A, B, C = master_quadratic(2, 0, 2, -4, 5)
    assert (A, B, C) == (-4, Fraction(-16, 5), Fraction(88, 25))


def test_master_quadratic_tau_zero_rejected():
    with pytest.raises(DegenerateQuadraticError):
        master_quadratic(0, 1, 1, 2, 5)


@given(st.sampled_from(hasse_pairs()))
@settings(max_examples=60, deadline=None)
def test_canonical_branch_law(pair):
    # w^+ > w^- exactly; discriminant Delta_p = 4p(p+1)-a_p^2 >= 4p > 0
    a_p, p = pair
    plus = canonical_basepoint(a_p, p, "plus")
    minus = canonical_basepoint(a_p, p, "minus")
    assert isinstance(plus.w, QuadExt)
    assert (plus.w - minus.w).sign() == 1
    delta_p, d_p, total = discriminant_identity(a_p, p)
    assert delta_p > 4 * p  # strict: a_p^2 < 4p under Hasse
    assert total == 4 * p * p


def test_canonical_sheet_is_exact_on_every_hasse_pair_to_3000():
    # w+ w- = (2 a_p^2 - 4p(p+1))/(4p^2) < 0 under Hasse: w+ > 0 is real, w- < 0 imaginary;
    # the exact sign agrees with the float classification everywhere
    for p in primes_upto(3000):
        bound = math.isqrt(4 * p)
        for a_p in range(-bound, bound + 1):
            plus, minus = (canonical_basepoint(a_p, p, b) for b in ("plus", "minus"))
            assert (plus.sheet, minus.sheet) == ("real", "imaginary")
            assert (plus.w * minus.w).sign() == -1
            for bp in (plus, minus):
                assert matching._classify_sheet(complex(bp.w)) == bp.sheet


def test_canonical_basepoint_hasse_guard():
    with pytest.raises(HasseViolationError):
        canonical_basepoint(50, 2)  # a_p^2 far beyond 4p(p+1)


@given(st.sampled_from(hasse_pairs()), st.sampled_from(["plus", "minus"]))
@settings(max_examples=60, deadline=None)
def test_canonical_match_exact_is_exact(pair, branch):
    a_p, p = pair
    tr, det, P = canonical_match_exact(a_p, p, branch)
    assert tr == a_p
    assert det == p
    assert P != 0


@given(st.sampled_from(hasse_pairs()))
@settings(max_examples=40, deadline=None)
def test_basepoint_solve_satisfies_quadratic(pair):
    a_p, p = pair
    tau, delta, Delta = Fraction(3), Fraction(1), Fraction(1, 2)
    A, B, C = master_quadratic(tau, delta, Delta, a_p, p)
    for branch in ("plus", "minus"):
        bp = basepoint_solve(tau, delta, Delta, a_p, p, branch)
        w = complex(bp.w)
        res = complex(A) * w * w + complex(B) * w + complex(C)
        assert abs(res) <= 1e-9 * max(1.0, abs(w) ** 2)
        # lambda constraint lam = (2u^3 - a_p u / p)/tau
        lam_expect = (2 * bp.u**3 - a_p * bp.u / p) / complex(tau)
        assert abs(bp.lam - lam_expect) <= 1e-12 * max(1.0, abs(lam_expect))


@pytest.mark.parametrize("params", [CANONICAL_PARAMS, (3, 1, Fraction(1, 2))])
def test_basepoint_for_checks_hasse_on_every_pencil(params):
    # a_p = 5 at p = 5 breaks Hasse although Delta_p = 95 > 0
    for a_p in (100, 5, -5):
        with pytest.raises(HasseViolationError, match=rf"^\(a_p={a_p}, p=5\) violates"):
            basepoint_for(params, a_p, 5)
    basepoint_for(params, 4, 5)


def test_basepoint_for_is_exact_on_the_canonical_pencil_only():
    # the canonical pencil given as numbers takes the exact root, so "plus" is w+
    for params in (CANONICAL_PARAMS, (2, 0, 2), (Fraction(4, 2), 0, Fraction(2))):
        assert basepoint_for(params, -4, 5) == canonical_basepoint(-4, 5)
    assert basepoint_for((3, 1, Fraction(1, 2)), -2, 7, "minus") == basepoint_solve(
        3, 1, Fraction(1, 2), -2, 7, "minus")
    # basepoint_solve keeps its convention: with A = -4 < 0, its "plus" root is w-
    w = basepoint_solve(2, 0, 2, -4, 5).w
    assert abs(w - complex(canonical_basepoint(-4, 5, "minus").w)) <= 1e-12


# -- verification reports -----------------------------------------------------


@given(st.sampled_from(hasse_pairs()), st.sampled_from(["plus", "minus"]))
@settings(max_examples=40, deadline=None)
def test_euler_match_verify_canonical(pair, branch):
    a_p, p = pair
    rep = euler_match_verify("canonical", a_p, p, branch)
    assert rep.passed and rep.status == "PASS"
    assert rep.residual_tr <= 1e-9 and rep.residual_det <= 1e-9
    assert rep.euler_poly == (1, -a_p, p)


def test_euler_match_verify_general_params():
    # a non-canonical pencil still matches on both branches
    for branch in ("plus", "minus"):
        rep = euler_match_verify((3, 1, Fraction(1, 2)), -2, 7, branch)
        assert rep.passed, (rep.residual_tr, rep.residual_det, rep.P_residual)


def test_euler_match_verify_hasse_guard():
    with pytest.raises(HasseViolationError):
        euler_match_verify("canonical", 10, 5)


def test_euler_match_verify_unknown_preset():
    with pytest.raises(ValueError):
        euler_match_verify("weird", 1, 5)


@pytest.mark.parametrize("branch", ["Plus", "up", "", "minus "])
def test_unknown_branch_rejected(branch):
    # neither root is picked silently under a misspelt name
    for call in (lambda: canonical_basepoint(-4, 5, branch),
                 lambda: basepoint_solve(3, 1, Fraction(1, 2), -2, 7, branch),
                 lambda: canonical_match_exact(-4, 5, branch),
                 lambda: euler_match_verify("canonical", -4, 5, branch),
                 lambda: euler_match_verify((3, 1, Fraction(1, 2)), -2, 7, branch)):
        with pytest.raises(ValueError, match="branch must be"):
            call()


# -- symbolic reduction -------------------------------------------------------


@given(
    st.sampled_from([1, 2, 3, Fraction(5, 2), -2]),
    st.sampled_from([0, 1, -1, Fraction(1, 2)]),
    st.sampled_from([1, 2, Fraction(-1, 3), Fraction(1, 2)]),
    st.sampled_from(hasse_pairs()),
)
@settings(max_examples=60, deadline=None)
def test_symbolic_reduction_generic(tau, delta, Delta, pair):
    a_p, p = pair
    assert symbolic_reduction_check(tau, delta, Delta, a_p, p)


def test_symbolic_reduction_tau_zero_rejected():
    with pytest.raises(DegenerateQuadraticError):
        symbolic_reduction_check(0, 1, 1, 2, 5)


def test_symbolic_reduction_rejects_non_rationals():
    with pytest.raises(TypeError):
        symbolic_reduction_check(2.0, 0, 2, -4, 5)
    with pytest.raises(TypeError):
        symbolic_reduction_check(2, 0, 2, -4.0, 5)
    with pytest.raises(TypeError):
        symbolic_reduction_check(2, 0, 2, -4, 5.0)


def test_symbolic_reduction_needs_a_nonzero_p():
    with pytest.raises(ZeroDivisionError):
        symbolic_reduction_check(2, 0, 2, -4, 0)


def test_reduction_identity_holds_generically():
    # tau^2 (P(u, lam(u)) - q u^2) = -Y (A Y^2 + B Y + C), lam(u) = (2u^3 - a u)/tau,
    # Y = u^2, identically in (tau, delta, Delta, a, q), on the functions the float
    # matcher runs
    tau, delta, Delta, a, q, u = (LaurentPoly.term(1, **{name: 1})
                                  for name in ("tau", "delta", "Delta", "a", "q", "u"))
    Y = u * u
    lam = matching._lambda_from_u(tau, a, 1, u)
    assert lam == (2 * u**3 - a * u) / tau
    P = spectral_value(1, tau, delta, Delta, u, lam)
    A, B, C = matching._master_coefficients(tau, delta, Delta, a, q)
    assert tau**2 * (P - q * Y) == -Y * (A * Y * Y + B * Y + C)
    # the corollary: on lam(u) the resolvent numerator u (2u^3 - tau lam) is a u^2
    assert u * (2 * u**3 - tau * lam) == a * u**2
    assert matching._master_reduction.__wrapped__() is True


def _with_coefficients(change):
    real = matching._master_coefficients
    return "_master_coefficients", lambda tau, delta, Delta, a, q: change(
        *real(tau, delta, Delta, a, q), q)


def _lambda_plus_u(tau, a_p, p, u):
    return (2 * u**3 - a_p * u / p) / tau + u


@pytest.mark.parametrize("name, wrong", [
    _with_coefficients(lambda A, B, C, q: (A, B, C + q)),
    _with_coefficients(lambda A, B, C, q: (A, B + 1, C)),
    _with_coefficients(lambda A, B, C, q: (2 * A, B, C)),
    ("spectral_value", lambda E, tau, delta, Delta, u, lam:
        spectral_value(E, tau, delta, Delta, u, lam) - Delta * lam**2),
    ("_lambda_from_u", _lambda_plus_u),
], ids=["C+q", "B+1", "2A", "P-without-lam^2", "lam+u"])
def test_symbolic_reduction_rejects_a_wrong_master_reduction(monkeypatch, name, wrong):
    # the real derivation, run on a wrong master quadratic, a wrong P or a wrong
    # lambda(u), fails
    assert symbolic_reduction_check(3, 1, Fraction(1, 2), 2, 13)
    monkeypatch.setattr(matching, name, wrong)
    matching._master_reduction.cache_clear()
    try:
        with pytest.raises(ReductionFailureError, match="no reduction"):
            symbolic_reduction_check(3, 1, Fraction(1, 2), 2, 13)
    finally:
        matching._master_reduction.cache_clear()


def _fresh(code: str) -> str:
    src = str(Path(eulerpencil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout.split()


def test_reduction_is_derived_once_per_process_and_not_at_import():
    misses = "matching._master_reduction.cache_info().misses"
    out = _fresh(f"import eulerpencil; from eulerpencil import acceptance, matching; "
                 f"print({misses}); acceptance.run_all(); print({misses})")
    assert out == ["0", "1"]


# -- off-shell distance and CD ratio ------------------------------------------


def test_offshell_distance_exact_and_float():
    assert offshell_distance(Fraction(1, 2), 5) == Fraction(1, 15)
    assert offshell_distance(2, 5) == Fraction(2, 15)
    assert isinstance(offshell_distance(2, 5), Fraction)
    w = QuadExt(Fraction(1, 2), Fraction(1, 10), 104)
    d = offshell_distance(w, 5)
    assert d * (w + 1) * 5 == w
    assert abs(offshell_distance(0.5 + 0j, 5) - 1 / 15) <= 1e-12


def test_offshell_distance_pole():
    for w in (-1, Fraction(-1), QuadExt(-1), -1 + 0j):
        with pytest.raises(ZeroDivisionError, match="pole at w = -1"):
            offshell_distance(w, 5)


def test_cd_matching_ratio_negative_discriminant_sweep():
    # Delta_CD = 9 - 60 R_A < 0 across the Hasse range at several primes
    for a_p, p in hasse_pairs():
        r, disc = cd_matching_ratio(a_p, p)
        assert r == Fraction(p * (p + 1 - a_p), (a_p - 2 * p) ** 2)
        assert disc < 0


def test_cd_matching_ratio_pole():
    with pytest.raises(ZeroDivisionError):
        cd_matching_ratio(2, 1)


def test_tco_basepoint_oracle():
    # [DERIVED] (a_p, p) = (-2, 7): Y = -9/14
    y, lam_sq, ok = tco_basepoint(-2, 7)
    assert y == Fraction(-9, 14)
    assert lam_sq == y**3 + y * y + y
    assert ok is hasse_check(-2, 7)


# -- ZCO ----------------------------------------------------------------------


def test_zco_basepoint_oracle():
    u, lam = zco_basepoint()
    assert abs(u - 1 / 2**0.5) <= 1e-15
    assert abs(lam + 3 / (8 * 2**0.5)) <= 1e-15


def test_zco_matrix_rank_one_on_shell():
    u, lam = zco_basepoint()
    u_sq, k = ZCO_ON_SHELL
    assert abs(u * u - u_sq) <= 1e-15 and abs(lam / u - k) <= 1e-15
    m = zco_matrix(u_sq, k)
    assert m == Matrix2(Fraction(-1, 8), Fraction(3, 8), Fraction(-3, 8), Fraction(9, 8))
    assert m.det() == 0
    assert m.trace() == 2 * u_sq


def test_zco_matrix_is_the_zco_pencil_and_its_trace_ignores_c():
    # zco_matrix(u^2, lam/u) is A(u; lam) of zco_pencil(), and the DC term
    # diag(c, -c)/u^2 never moves the trace: tr A_c = 2u^2 for every (u, k, c)
    u, lam, k, c = (LaurentPoly.term(1, **{name: 1}) for name in ("u", "lam", "k", "c"))
    zco = zco_pencil()
    assert (u**2 * zco_matrix(u * u, lam / u).det()
            == spectral_value(zco.E1, zco.tau, zco.delta, zco.Delta, u, lam))
    assert zco_matrix(u * u, k, c).trace() == 2 * u * u


def test_zco_operator_is_idempotent_on_shell():
    A = zco_matrix(*ZCO_ON_SHELL)
    assert A.det() == 0 and A.trace() == 1
    rows = ((A.e11, A.e12), (A.e21, A.e22))
    square = [[sum(x * y for x, y in zip(r, c)) for c in zip(*rows)] for r in rows]
    assert square == [list(r) for r in rows]  # A^2 = A
    assert group_pseudoinverse2(A) == A


def test_zco_euler_factor_is_one_minus_tau():
    for t in (Fraction(1, 3), Fraction(-1, 2), Fraction(7, 5), 0.3, 0.2 + 0.1j):
        assert zco_euler_factor(t) == 1 - t


@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=0.3, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_zco_c_trace_invariance(c, u):
    # adding the DC term diag(c,-c)/u^2 never moves the trace
    assert zco_c_trace_invariance(c, u)


def test_golden_ratio_spectrum_oracle():
    phi, psi = golden_ratio_spectrum()
    assert phi == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert psi == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
    assert phi + psi == 1 and phi * psi == -1


# -- interpolation obstruction ------------------------------------------------


def test_interpolation_obstruction_found():
    curve = WeierstrassCurve.short(-1, 0)  # 32a2: a_3 = 0, a_5 = -2
    hit = interpolation_obstruction(curve, 4)
    assert hit is not None
    p, q, a_p, a_q, slopes = hit
    assert (p, q, a_p, a_q) == (3, 5, 0, -2)
    assert slopes == (0, 2)


def test_interpolation_obstruction_k_guard():
    with pytest.raises(ValueError):
        interpolation_obstruction(WeierstrassCurve.short(-1, 0), 1)
