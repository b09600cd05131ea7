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
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .curves import WeierstrassCurve, ap_count, good_primes, hasse_check
from .exactmath import (
    DegenerateQuadraticError,
    LaurentPoly,
    Matrix2,
    QuadExt,
    Rational,
    _as_fraction,
    group_pseudoinverse2,
    quad_roots,
)
from .pencil import resolvent_floats, spectral_value

CANONICAL_PARAMS = (Fraction(2), Fraction(0), Fraction(2))
#: (u^2, k = lambda/u) at the ZCO basepoint u = 1/sqrt(2), lambda = (u^5 - u)/2
ZCO_ON_SHELL = (Fraction(1, 2), Fraction(-3, 8))


class HasseViolationError(ValueError):
    """Raised when (a_p, p) violates the Hasse bound where it is required."""


class ReductionFailureError(ValueError):
    """Raised if the generic symbolic reduction to the master quadratic fails."""


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

    A = tau^2 - 4 Delta; B = -a A + 2 delta tau;
    C = tau^2 - a delta tau - Delta a^2 + q tau^2, with a = a_p/p and q = 1/p.
    """
    tau, delta, Delta = (_as_fraction(v) for v in (tau, delta, Delta))
    if tau == 0:
        raise DegenerateQuadraticError("tau = 0: route through the ZCO path")
    return _master_coefficients(tau, delta, Delta, Fraction(a_p, p), Fraction(1, p))


def _master_coefficients(tau, delta, Delta, a, q):
    """(A, B, C) of ``master_quadratic`` over any ring that holds its arguments."""
    A = tau * tau - 4 * Delta
    B = -a * A + 2 * delta * tau
    C = tau * tau - a * delta * tau - Delta * a * a + q * tau * tau
    return A, B, C


def _classify_sheet(w: complex, tol: float = 1e-12) -> str:
    if abs(w.imag) > tol * max(1.0, abs(w)):
        return "complex"
    return "real" if w.real > 0 else "imaginary"


def _lambda_from_u(tau, a_p, p, u):
    """lambda(u) = (2u^3 - (a_p/p) u)/tau, over any ring that holds its arguments."""
    return 2 * u**3 / tau - a_p * u / (p * tau)


def _branch_sign(branch: str) -> int:
    """+1 for the "plus" root, -1 for "minus"; ValueError for anything else."""
    if branch == "plus":
        return 1
    if branch == "minus":
        return -1
    raise ValueError(f"branch must be 'plus' or 'minus', not {branch!r}")


def basepoint_solve(tau, delta, Delta, a_p: int, p: int, branch: str = "plus") -> Basepoint:
    """Numeric basepoint for general pencil invariants (tau != 0).

    "plus" is w = (-B + sqrt(B^2 - 4AC))/(2A), principal root: the smaller
    real w when A < 0.  Both branches give w = -C/B when A = 0.
    """
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
    lam = _lambda_from_u(float(tau), a_p, p, u)
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
    u = cmath.sqrt(w)
    lam = u**3 - a_p * u / (2 * p)
    sheet = "real" if w.sign() > 0 else "imaginary"  # w is real: Delta_p > 0
    return Basepoint(w=w, u=u, lam=lam, branch=branch, sheet=sheet)


def basepoint_for(params, a_p: int, p: int, branch: str = "plus") -> Basepoint:
    """The basepoint of (tau, delta, Delta): exact on the canonical pencil, numeric otherwise.

    HasseViolationError on every pencil unless a_p^2 <= 4p.
    """
    if not hasse_check(a_p, p):
        raise HasseViolationError(f"(a_p={a_p}, p={p}) violates the Hasse bound")
    if tuple(params) == CANONICAL_PARAMS:
        return canonical_basepoint(a_p, p, branch)
    return basepoint_solve(*params, a_p, p, branch)


def canonical_match_exact(a_p: int, p: int, branch: str = "plus"):
    """Exact (tr, det) at the canonical basepoint, in QuadExt arithmetic.

    Works in the field generated by w: with lambda*u = w^2 - (a_p/2p) w,
    tr = (2w^2 - 2 lambda u)/P = a_p and det = w/P = p where P = P(u_p, lambda_p).
    """
    bp = canonical_basepoint(a_p, p, branch)
    w = bp.w
    lam_u = w * w - Fraction(a_p, 2 * p) * w
    # canonical P = u^6 - 2 lambda u^3 - u^2 + 2 lambda^2, with lambda^2 = (lambda u)^2 / w
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
    Returns a PASS/FAIL report (no exception on residual failure).  P(u, lambda)
    and the resolvent come from ``resolvent_floats`` with E = 1, in complex floats.
    """
    if isinstance(params, str):
        if params != "canonical":
            raise ValueError(f"unknown parameter preset {params!r}")
        params = CANONICAL_PARAMS
    tau, delta, Delta = (_as_fraction(v) for v in params)
    bp = basepoint_for((tau, delta, Delta), a_p, p, branch)
    P, tr, det = resolvent_floats(1, float(tau), float(delta), float(Delta), bp.u, bp.lam,
                                  tol=1e-300)
    w = complex(bp.w)
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

    lambda(u) = (2u^3 - a u)/tau turns P(u, lambda) - q u^2, a = a_p/p and
    q = 1/p, into -Y (A Y^2 + B Y + C)/tau^2 with Y = u^2.  That identity is
    proven once, generically, by ``_master_reduction``; each call checks only
    its hypotheses: exact tau, delta, Delta, a and q, and tau != 0.
    """
    tau, delta, Delta = (_as_fraction(v) for v in (tau, delta, Delta))
    if tau == 0:
        raise DegenerateQuadraticError("tau = 0: route through the ZCO path")
    Fraction(a_p, p)  # a and q: TypeError unless a_p and p are exact, ZeroDivisionError at p = 0
    return _master_reduction()


@functools.cache
def _master_reduction() -> bool:
    """Prove tau^2 (P(u, lambda(u)) - q Y) = -Y (A Y^2 + B Y + C), once, on first use.

    Over Q[tau^+-1, delta, Delta, a, q, u], on the functions the float matcher
    runs: P is ``spectral_value`` at E = 1, lambda(u) is ``_lambda_from_u`` at
    a_p = a and p = 1, and A, B, C are ``_master_coefficients``; Y = u^2.
    Multiplying back states the division by the unit tau^2;
    ReductionFailureError if the two sides differ.
    """
    names = ("tau", "delta", "Delta", "a", "q", "u")
    tau, delta, Delta, a, q, u = (LaurentPoly.term(1, **{name: 1}) for name in names)
    Y = u * u
    P = spectral_value(1, tau, delta, Delta, u, _lambda_from_u(tau, a, 1, u))
    A, B, C = _master_coefficients(tau, delta, Delta, a, q)
    lhs = tau**2 * (P - q * Y)
    rhs = -Y * (A * Y * Y + B * Y + C)
    if lhs != rhs:
        raise ReductionFailureError(f"{lhs} != {rhs}: no reduction")
    return True


def discriminant_identity(a_p: int, p: int):
    """(Delta_p, D_p, Delta_p + D_p) with Delta_p = 4p(p+1)-a_p^2, D_p = a_p^2-4p."""
    delta_p = 4 * p * (p + 1) - a_p * a_p
    d_p = a_p * a_p - 4 * p
    return delta_p, d_p, delta_p + d_p


def offshell_distance(w, p: int):
    """d_off = w / (p (w + 1)) for a Fraction, QuadExt or complex w; an int w is a Fraction."""
    if w == -1:
        raise ZeroDivisionError("off-shell distance pole at w = -1")
    if isinstance(w, int):
        w = Fraction(w)
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


def zco_matrix(u_sq, k, c=0) -> Matrix2:
    """The ZCO pencil matrix u^2 I - diag(1, -1) - k ((1, 1), (-1, -1)), k = lambda/u.

    Plus the DC term diag(c, -c) u^{-2} (none at c = 0).  Exact inputs stay exact.
    """
    dc = c / u_sq
    return Matrix2(u_sq - 1 - k + dc, -k, k, u_sq + 1 + k - dc)


def zco_euler_factor(tau_var):
    """det_reg(I - tau_var A^+) = 1 - tau_var tr(A^+) at the ZCO basepoint.

    On shell A = zco_matrix(*ZCO_ON_SHELL) = ((-1/8, 3/8), (-3/8, 9/8)) is
    idempotent (det A = 0, tr A = 1, A^2 = A), so its group pseudoinverse is
    A^+ = A and the factor is exactly 1 - tau_var: with tau_var = p^{-s} this
    is the local inverse zeta factor.
    """
    aplus = group_pseudoinverse2(zco_matrix(*ZCO_ON_SHELL))
    return 1 - tau_var * aplus.trace()


def zco_c_trace_invariance(c, u: complex, tol: float = 1e-12) -> bool:
    """tr(A_c) = 2u^2 for any DC strength c (the sterility mechanism)."""
    u = complex(u)
    if u == 0:
        raise ZeroDivisionError("u = 0")
    u_sq = u * u
    # any k works; use the spectral-curve value k = (u^4 - 1)/2
    m = zco_matrix(u_sq, (u_sq * u_sq - 1) / 2, c)
    return abs(m.trace() - 2 * u_sq) <= tol


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
