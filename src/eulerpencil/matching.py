"""Per-prime Euler-factor matching.

Solves the master quadratic A Y^2 + B Y + C = 0 in Y = u^2 for the
basepoint at which the pencil resolvent reproduces the local Euler factor
1 - a_p p^{-s} + p^{1-2s}, exactly in the canonical case and numerically in
general, together with the exact symbolic reduction, the discriminant
identity, off-shell distance, the TCO/ZCO/golden-ratio special operators,
the CD matching ratio, and the interpolation-obstruction witness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .curves import WeierstrassCurve, ap_count, good_primes, hasse_check
from .exactmath import (
    DegenerateQuadraticError,
    LaurentBiPoly,
    Matrix2,
    QuadExt,
    Rational,
    _as_fraction,
    group_pseudoinverse2,
    poly_divrem,
    quad_roots,
)
from .pencil import Pencil2, pencil_from_tdd, resolvent_tr_det, spectral_poly, zco_pencil

CANONICAL_PARAMS = (Fraction(2), Fraction(0), Fraction(2))


class HasseViolationError(ValueError):
    """Raised when (a_p, p) violates the Hasse bound where it is required."""


class ReductionFailureError(ValueError):
    """Raised if the symbolic reduction leaves a nonzero remainder."""


@dataclass(frozen=True)
class Basepoint:
    """Solution of the master quadratic: w = u^2, u principal, lambda from (**)."""

    w: Union[QuadExt, complex]
    u: complex
    lam: complex
    branch: str  # "plus" | "minus"
    sheet: str  # "real" | "imaginary" | "complex"


@dataclass(frozen=True)
class MatchReport:
    p: int
    a_p: int
    params: tuple[Rational, Rational, Rational]
    basepoint: Basepoint
    residual_tr: float
    residual_det: float
    P_value: complex
    P_residual: float
    offshell_distance: complex
    euler_poly: tuple[int, int, int]
    tolerance: float
    passed: bool

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def master_quadratic(tau, delta, Delta, a_p: int, p: int):
    """Coefficients (A, B, C) of the master quadratic in Y = u^2.

    A = tau^2 - 4 Delta; B = -a_p A / p + 2 delta tau;
    C = tau^2 - a_p delta tau / p - Delta a_p^2 / p^2 + tau^2 / p.
    """
    tau, delta, Delta = (_as_fraction(v) for v in (tau, delta, Delta))
    if tau == 0:
        raise DegenerateQuadraticError("tau = 0: route through the ZCO path")
    A = tau * tau - 4 * Delta
    B = -Fraction(a_p, p) * A + 2 * delta * tau
    C = (
        tau * tau
        - Fraction(a_p, p) * delta * tau
        - Delta * Fraction(a_p * a_p, p * p)
        + tau * tau / p
    )
    return A, B, C


def _classify_sheet(w: complex, tol: float = 1e-12) -> str:
    if abs(w.imag) > tol * max(1.0, abs(w)):
        return "complex"
    return "real" if w.real > 0 else "imaginary"


def _lambda_from_u(tau, a_p: int, p: int, u: complex) -> complex:
    tau = float(tau)
    return 2 * u**3 / tau - a_p * u / (p * tau)


def _branch_sign(branch: str) -> int:
    """+1 for the "plus" root, -1 for "minus"; ValueError for anything else."""
    if branch == "plus":
        return 1
    if branch == "minus":
        return -1
    raise ValueError(f"branch must be 'plus' or 'minus', not {branch!r}")


def basepoint_solve(tau, delta, Delta, a_p: int, p: int, branch: str = "plus") -> Basepoint:
    """Numeric basepoint for general pencil invariants (tau != 0)."""
    sign = _branch_sign(branch)
    A, B, C = master_quadratic(tau, delta, Delta, a_p, p)
    if A == 0:
        if B == 0:
            raise DegenerateQuadraticError("A = B = 0: no basepoint solution")
        w = complex(-C / B)
    else:
        disc = cmath.sqrt(complex(B * B - 4 * A * C))
        w = (-complex(B) + sign * disc) / (2 * complex(A))
    u = cmath.sqrt(w)
    lam = _lambda_from_u(tau, a_p, p, u)
    return Basepoint(w=w, u=u, lam=lam, branch=branch, sheet=_classify_sheet(w))


def canonical_basepoint(a_p: int, p: int, branch: str = "plus") -> Basepoint:
    """Exact canonical basepoint w^+- = (a_p +- sqrt(Delta_p)) / (2p) in QuadExt.

    Delta_p = 4p(p+1) - a_p^2 > 0 under Hasse; lambda = u^3 - (a_p/2p) u on
    the principal branch.
    """
    sign = _branch_sign(branch)
    disc = 4 * p * (p + 1) - a_p * a_p
    if disc <= 0:
        raise HasseViolationError(f"Delta_p = {disc} <= 0 for (a_p={a_p}, p={p})")
    w = QuadExt(Fraction(a_p, 2 * p), Fraction(sign, 2 * p), Fraction(disc))
    u = cmath.sqrt(w.to_complex())
    lam = u**3 - a_p * u / (2 * p)
    return Basepoint(w=w, u=u, lam=lam, branch=branch, sheet=_classify_sheet(w.to_complex()))


def canonical_match_exact(a_p: int, p: int, branch: str = "plus"):
    """Exact (tr, det) at the canonical basepoint, in QuadExt arithmetic.

    Works in the field generated by w: with lambda*u = w^2 - (a_p/2p) w,
    tr = (2w^2 - 2 lambda u)/P = a_p and det = w/P = p where P = P(u_p, lambda_p).
    """
    bp = canonical_basepoint(a_p, p, branch)
    w = bp.w
    lam_u = w * w - Fraction(a_p, 2 * p) * w
    # Canonical P(u, lambda) = u^6 - 2 lambda u^3 - u^2 + 2 lambda^2, with
    # lambda = u^3 - (a_p/2p) u:
    # P = w^3 - 2(w + ... ) ... evaluated via lambda^2 = (lambda u)^2 / w.
    lam_sq = lam_u * lam_u / w
    P = w**3 - 2 * lam_u * w - w + 2 * lam_sq
    tr = (2 * w * w - 2 * lam_u) / P
    det = w / P
    return tr, det, P


def euler_match_verify(
    params,
    a_p: int,
    p: int,
    branch: str = "plus",
    tolerance: float = 1e-9,
) -> MatchReport:
    """Verify tr R = a_p and det R = p at the solved basepoint.

    ``params`` is a (tau, delta, Delta) triple or the string "canonical".
    Returns a PASS/FAIL report (no exception on residual failure).
    """
    if isinstance(params, str):
        if params != "canonical":
            raise ValueError(f"unknown parameter preset {params!r}")
        params = CANONICAL_PARAMS
    tau, delta, Delta = (_as_fraction(v) for v in params)
    if not hasse_check(a_p, p):
        raise HasseViolationError(f"(a_p={a_p}, p={p}) violates the Hasse bound")
    if (tau, delta, Delta) == CANONICAL_PARAMS:
        bp = canonical_basepoint(a_p, p, branch)
    else:
        bp = basepoint_solve(tau, delta, Delta, a_p, p, branch)
    pencil = pencil_from_tdd(tau, delta, Delta, 1)
    u, lam = bp.u, bp.lam
    tr, det = resolvent_tr_det(pencil, u, lam, tol=1e-300)
    P = spectral_poly(pencil).evaluate(u, lam)
    w = complex(bp.w) if not isinstance(bp.w, QuadExt) else bp.w.to_complex()
    residual_tr = abs(tr - a_p)
    residual_det = abs(det - p)
    P_residual = abs(P - w / p)
    d_off = offshell_distance(w, p)
    passed = residual_tr <= tolerance and residual_det <= tolerance and P_residual <= tolerance
    return MatchReport(
        p=p,
        a_p=a_p,
        params=(tau, delta, Delta),
        basepoint=bp,
        residual_tr=residual_tr,
        residual_det=residual_det,
        P_value=P,
        P_residual=P_residual,
        offshell_distance=d_off,
        euler_poly=(1, -a_p, p),
        tolerance=tolerance,
        passed=passed,
    )


def symbolic_reduction_check(tau, delta, Delta, a_p: int, p: int) -> bool:
    """Exact reduction of the matching system to the master quadratic.

    Substitutes lambda(u) = (2u^3 - a_p u / p)/tau into P(u, lambda) - u^2/p,
    rewrites the resulting even degree-6 polynomial in Y = u^2, and verifies
    exact divisibility by A Y^2 + B Y + C with quotient k*Y, k != 0.
    """
    tau, delta, Delta = (_as_fraction(v) for v in (tau, delta, Delta))
    if tau == 0:
        raise DegenerateQuadraticError("tau = 0: route through the ZCO path")
    pencil = pencil_from_tdd(tau, delta, Delta, 1)
    lam_of_u = LaurentBiPoly(
        {(3, 0): Fraction(2) / tau, (1, 0): -Fraction(a_p, p) / tau}
    )
    poly_u = spectral_poly(pencil).subs_lambda(lam_of_u) - LaurentBiPoly.term(
        Fraction(1, p), 2
    )
    if any(jl != 0 or ju % 2 or ju < 0 for (ju, jl) in poly_u.terms):
        raise ReductionFailureError("substituted polynomial is not even in u")
    max_deg = max((ju for (ju, _) in poly_u.terms), default=0) // 2
    cubic = [poly_u.coeff(2 * k, 0) for k in range(max_deg + 1)]
    A, B, C = master_quadratic(tau, delta, Delta, a_p, p)
    quot, rem = poly_divrem(cubic, [C, B, A])
    if any(c != 0 for c in rem):
        raise ReductionFailureError(f"nonzero remainder {rem}")
    # quotient must be k*Y with k != 0
    if len(quot) != 2 or quot[0] != 0 or quot[1] == 0:
        raise ReductionFailureError(f"quotient {quot} is not a nonzero multiple of Y")
    return True


def discriminant_identity(a_p: int, p: int):
    """(Delta_p, D_p, Delta_p + D_p) with Delta_p = 4p(p+1)-a_p^2, D_p = a_p^2-4p."""
    delta_p = 4 * p * (p + 1) - a_p * a_p
    d_p = a_p * a_p - 4 * p
    return delta_p, d_p, delta_p + d_p


def offshell_distance(w, p: int):
    """d_off = w / (p (w + 1)); exact for exact w."""
    if w == -1:
        raise ZeroDivisionError("off-shell distance pole at w = -1")
    if isinstance(w, (int, Fraction)):
        return Fraction(w) / (p * (Fraction(w) + 1))
    if isinstance(w, QuadExt):
        return w / ((w + 1) * p)
    w = complex(w)
    return w / (p * (w + 1))


def cd_matching_ratio(a_p: int, p: int):
    """(R_A, Delta_CD): R_A = p(p+1-a_p)/(a_p-2p)^2, Delta_CD = 9 - 60 R_A."""
    if a_p == 2 * p:
        raise ZeroDivisionError("a_p = 2p pole (excluded by Hasse for p > 1)")
    r = Fraction(p * (p + 1 - a_p), (a_p - 2 * p) ** 2)
    return r, 9 - 60 * r


def tco_basepoint(a_p: int, p: int):
    """TCO basepoint data: Y = (a_p - p)/(2p), lambda^2 = Y^3 + Y^2 + Y."""
    y = Fraction(a_p - p, 2 * p)
    lam_sq = y**3 + y * y + y
    return y, lam_sq, hasse_check(a_p, p)


# ---------------------------------------------------------------------------
# ZCO and friends


def zco_basepoint() -> tuple[complex, complex]:
    """The ZCO basepoint u = 1/sqrt(2), lambda = (u^5 - u)/2 = -3/(8 sqrt(2))."""
    u = 1 / math.sqrt(2)
    lam = (u**5 - u) / 2
    return complex(u), complex(lam)


def zco_matrix(u: complex, lam: complex, c=0) -> Matrix2:
    """The ZCO pencil matrix, optionally with the DC term diag(c,-c) u^{-2}."""
    u, lam = complex(u), complex(lam)
    c = complex(c)
    k = lam / u
    return Matrix2(
        u * u - 1 - k + c / (u * u),
        -k,
        k,
        u * u + 1 + k - c / (u * u),
    )


def zco_euler_factor(tau_var: complex) -> complex:
    """det_reg(I - tau_var A^+) = 1 - tau_var tr(A^+) at the ZCO basepoint.

    A is rank-1 on shell with nonzero eigenvalue mu = tr(A) = 2u^2 = 1, so
    the on-shell (group) pseudoinverse has trace 1/mu = 1 and the factor is
    1 - tau_var: with tau_var = p^{-s} this is the local inverse zeta factor.
    """
    u, lam = zco_basepoint()
    aplus = group_pseudoinverse2(zco_matrix(u, lam))
    return 1 - complex(tau_var) * aplus.trace()


def zco_c_trace_invariance(c, u: complex, tol: float = 1e-12) -> bool:
    """tr(A_c) = 2u^2 for any DC strength c (the sterility mechanism)."""
    u = complex(u)
    if u == 0:
        raise ZeroDivisionError("u = 0")
    lam = (u**5 - u) / 2  # any lambda works; use the spectral-curve value
    m = zco_matrix(u, lam, c)
    return abs(m.trace() - 2 * u * u) <= tol


def golden_ratio_spectrum() -> tuple[QuadExt, QuadExt]:
    """Eigenvalues (1 +- sqrt 5)/2 of ((3/2, 1/2), (1/2, -1/2)), exactly."""
    m = Matrix2(Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    # characteristic polynomial: x^2 - tr x + det = x^2 - x - 1
    return quad_roots(Fraction(1), -m.trace(), m.det())


def interpolation_obstruction(curve: WeierstrassCurve, K: int):
    """First pair of good primes with distinct traces, plus the origin slopes.

    Scans the first K good primes; returns (p, q, a_p, a_q, (-a_p, -a_q)) or
    None if all K traces coincide.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    X = 10
    primes: list[int] = []
    while len(primes) < K:
        X *= 2
        primes = good_primes(curve, X)
    primes = primes[:K]
    first = primes[0]
    a_first = ap_count(curve, first)
    for q in primes[1:]:
        a_q = ap_count(curve, q)
        if a_q != a_first:
            return (first, q, a_first, a_q, (-a_first, -a_q))
    return None
