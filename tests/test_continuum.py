"""Dispersion universality, arcsine measure, and eta-identity tests."""

import cmath
import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

from eulerpencil.continuum import (
    ALGEBRAIC,
    DISPERSIONS,
    TANH,
    BranchCutError,
    _gk15,
    ConvergenceError,
    arcsine_cdf,
    arcsine_closed_form,
    arcsine_pdf,
    dirichlet_L_chi4,
    eta_functional_equation_residual,
    eta_value,
    universality_integral,
)

SAMPLE_Z = [2.0, 1.5, 3.0 + 0.5j, 1.2 + 1.0j, 0.5 + 2.0j,
            # near the cut, near the origin, near the imaginary axis, far out
            1.1, 0.5 + 0.1j, 1.001, 1.0001, 1 + 1e-6, 0.5 + 1e-4j, 0.9 + 1e-3j,
            0.999 + 1e-6j, 0.3 + 0.01j, 0.01 + 0.01j, 1e-12 + 1j, 5 + 5j, 1e6]


def _scipy_quad(dispersion, z, tol):
    """The same integral by scipy's QUADPACK on xi in [0, inf), real and
    imaginary parts apart: (value, error estimate), or None when it fails."""
    def f(xi):
        a = dispersion.a(xi)
        oma = dispersion.one_minus_a_sq(xi)
        if oma <= 0.0:
            return 0j
        return dispersion.a_prime(xi) / (math.pi * math.sqrt(oma)) * a / (z * z - a * a)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = quad(lambda x: f(x).real, 0.0, math.inf,
                          epsabs=tol / 2, epsrel=tol / 2, limit=400)
        im, im_err = quad(lambda x: f(x).imag, 0.0, math.inf,
                          epsabs=tol / 2, epsrel=tol / 2, limit=400)
    if not re_err + im_err <= tol:
        return None
    return complex(re, im), re_err + im_err


# -- universality -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DISPERSIONS))
@pytest.mark.parametrize("z", SAMPLE_Z)
def test_universality_matches_closed_form(name, z):
    # the integral is dispersion-independent and equals the arcsine form
    result = universality_integral(DISPERSIONS[name], z)
    expect = arcsine_closed_form(z)
    assert abs(result.value - expect) <= 1e-8 * max(1.0, abs(expect))
    assert result.estimated_error <= 1e-10
    assert result.evaluations > 0


def test_gk15_exactness_and_error_floor():
    # K15 is exact on x^n up to n = 23 (odd n by symmetry), G7 up to n = 13, so
    # the estimate |K15 - G7| is round-off through n = 13 and large from n = 14
    for n in range(24):
        value, err = _gk15(lambda x: x**n, -1.0, 1.0)
        assert abs(value - (1 + (-1) ** n) / (n + 1)) <= 1e-15
        assert (err > 1e-3) == (n >= 14 and n % 2 == 0)
    # where K15 and G7 agree to the last bit the estimate is the round-off floor, not 0
    value, err = _gk15(lambda x: 3.0, 0.0, 1.0)
    assert value == 3.0 and 0 < err <= 1e-13


@pytest.mark.parametrize("name", sorted(DISPERSIONS))
@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_universality_succeeds_where_scipy_succeeds(name, tol):
    failed_by_scipy = []
    for z in SAMPLE_Z:
        z = complex(z)
        result = universality_integral(DISPERSIONS[name], z, tol)
        oracle = _scipy_quad(DISPERSIONS[name], z, tol)
        if oracle is None:
            failed_by_scipy.append(z)
        else:
            assert abs(result.value - oracle[0]) <= tol + oracle[1] + result.estimated_error
    # scipy fails only at a few points close to the cut, so the comparison is not vacuous
    assert len(failed_by_scipy) < len(SAMPLE_Z) // 2


@pytest.mark.parametrize("name", sorted(DISPERSIONS))
@pytest.mark.parametrize("tol", [1e-300, 0.0, -1.0])
def test_universality_unreachable_tol_raises(name, tol):
    # 400 subintervals cannot bring the estimate, floored by round-off, to tol
    with pytest.raises(ArithmeticError, match="quadrature error estimate .* exceeds tol"):
        universality_integral(DISPERSIONS[name], 2.0, tol)


def test_universality_two_dispersions_agree():
    for z in SAMPLE_Z:
        v1 = universality_integral(TANH, z).value
        v2 = universality_integral(ALGEBRAIC, z).value
        assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


@pytest.mark.parametrize("z", [0.5, 1.0, -2.0, 0.3 + 0.0j, -1.0 + 1.0j,
                               complex(math.nan), complex(math.inf, 1.0)])
def test_branch_cut_rejected(z):
    with pytest.raises(BranchCutError):
        universality_integral(TANH, z)
    with pytest.raises(BranchCutError):
        arcsine_closed_form(z)


def test_arcsine_closed_form_extreme_z():
    # sqrt(z^2 - 1) is taken as z sqrt(1 - 1/z^2), so z^2 never overflows
    for z in (1e300, 1e300 + 1e299j, 1e200j + 1.0):
        value = arcsine_closed_form(z)
        assert math.isfinite(value.real) and math.isfinite(value.imag)
    with pytest.raises(ArithmeticError):  # 1/z overflows
        arcsine_closed_form(1e-200 + 1e-200j)


@pytest.mark.parametrize("z", [1.0001, 1.001, 2.0, 1e3, 1e6])
def test_arcsine_closed_form_real_z_is_real(z):
    # the complex log form, whose imaginary part at real z is round-off only
    w = 1 / complex(z)
    root = cmath.sqrt(1 - w * w)
    reference = -1j * cmath.log(1j * w + root) / (math.pi * z * root)
    value = arcsine_closed_form(z)
    assert value.imag == 0.0
    assert abs(value.real - reference.real) <= 1e-12 * abs(reference)


# -- arcsine measure ----------------------------------------------------------


def test_arcsine_pdf_normalised():
    total, err = quad(arcsine_pdf, -1 + 1e-12, 1 - 1e-12)
    assert abs(total - 1.0) <= 1e-6
    assert err <= 1e-6


def test_arcsine_pdf_domain_guard():
    with pytest.raises(ValueError):
        arcsine_pdf(1.0)
    with pytest.raises(ValueError):
        arcsine_pdf(-1.5)


def test_arcsine_cdf_endpoints_and_clamping():
    assert arcsine_cdf(-1.0) == 0.0
    assert arcsine_cdf(1.0) == 1.0
    assert arcsine_cdf(0.0) == 0.5
    assert arcsine_cdf(-5.0) == 0.0 and arcsine_cdf(5.0) == 1.0
    # matches the integrated density at an interior point
    t = 0.37
    integral, _ = quad(arcsine_pdf, -1 + 1e-12, t)
    assert abs(arcsine_cdf(t) - integral) <= 1e-6


def test_arcsine_cdf_monotone():
    xs = [-1 + 0.05 * k for k in range(41)]
    vals = [arcsine_cdf(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# -- chi_{-4} and eta ---------------------------------------------------------


def test_L_chi4_oracles():
    # [TRIVIAL] L(1) = pi/4 (Leibniz); L(2) = Catalan's constant
    assert abs(dirichlet_L_chi4(1.0) - math.pi / 4) <= 1e-10
    assert abs(dirichlet_L_chi4(2.0) - 0.915965594177219) <= 1e-10
    with pytest.raises(NotImplementedError):
        dirichlet_L_chi4(0.0)


def test_L_chi4_raises_when_not_converged():
    # below double precision at L(2) ~ 0.916 only bit-identical estimates meet tol
    with pytest.raises(ConvergenceError, match="not converged within 640 terms"):
        dirichlet_L_chi4(2.0, tol=1e-18)
    assert issubclass(ConvergenceError, ValueError)


def test_eta_is_twice_L():
    for s in (0.5, 1.0, 2.0):
        assert eta_value(s) == 2.0 * dirichlet_L_chi4(s)


@pytest.mark.parametrize("s", [0.2, 0.35, 0.5, 0.65, 0.8])
def test_eta_functional_equation(s):
    assert eta_functional_equation_residual(s) <= 1e-6


def test_eta_functional_equation_domain_guard():
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            eta_functional_equation_residual(s)
