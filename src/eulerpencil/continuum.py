"""The genus-infinity analytic limit.

Dispersion-universal quadrature of the arcsine integral, the arcsine
measure, and the chi_{-4} Dirichlet L-function identities (eta = 2L and its
functional equation).
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable


class BranchCutError(ValueError):
    """Raised for evaluation points on the arcsine branch cut [-1, 1]."""


class ConvergenceError(ValueError):
    """Raised when a series does not reach its tolerance within its term budget."""


@dataclass(frozen=True)
class Dispersion:
    """A smooth odd surjection a: R -> (-1, 1) with a'(xi) > 0.

    ``one_minus_a_sq`` evaluates 1 - a(xi)^2 without the catastrophic
    cancellation of the literal expression (which underflows to 0 while
    a'(xi) is still finite, exploding the arcsine weight a'/sqrt(1 - a^2)).
    """

    name: str
    a: Callable[[float], float]
    a_prime: Callable[[float], float]
    one_minus_a_sq: Callable[[float], float]


def _sech_sq(x: float) -> float:
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, overflow-safe for large |x|
    e = math.exp(-2.0 * abs(x))
    return 4.0 * e / (1.0 + e) ** 2


TANH = Dispersion("tanh", math.tanh, _sech_sq, _sech_sq)
ALGEBRAIC = Dispersion(
    "algebraic",
    lambda x: x / math.sqrt(1 + x * x),
    lambda x: (1 + x * x) ** -1.5,
    lambda x: 1.0 / (1 + x * x),
)

DISPERSIONS = {d.name: d for d in (TANH, ALGEBRAIC)}


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    estimated_error: float
    evaluations: int


def _check_off_cut(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise BranchCutError(f"z = {z} is not finite")
    if z.real <= 0:
        raise BranchCutError(f"Re(z) = {z.real} <= 0 outside the validity domain")
    if z.imag == 0 and -1.0 <= z.real <= 1.0:
        raise BranchCutError(f"z = {z} lies on the branch cut [-1, 1]")
    return z


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15; Piessens et al., QUADPACK,
# Springer 1983): the Kronrod nodes x >= 0 from the outside in with their
# weights, and the Gauss weights of x[1], x[3], x[5] and the centre.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the same rules over all 15 nodes, left to right; the Gauss weight is 0 at
# the nodes only Kronrod uses
_X15 = tuple(-x for x in _XGK) + _XGK[6::-1]
_K15 = _WGK + _WGK[6::-1]
_G15 = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
        0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)
_QUAD_LIMIT = 400  # subintervals


def _gk15(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    """QUADPACK's qk15 on [a, b]: the Kronrod value and its error estimate.

    The estimate is |K15 - G7| scaled as QUADPACK does, floored at
    50 eps sum|f| w so that round-off keeps it above 0.
    """
    h = 0.5 * (b - a)
    c = a + h
    fx = [f(c + h * x) for x in _X15]
    kronrod = sum(w * fi for w, fi in zip(_K15, fx))
    gauss = sum(w * fi for w, fi in zip(_G15, fx))
    mean = 0.5 * kronrod
    asc = h * sum(w * abs(fi - mean) for w, fi in zip(_K15, fx))
    err = h * abs(kronrod - gauss)
    if asc and err:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    floor = 50.0 * sys.float_info.epsilon * h * sum(w * abs(fi) for w, fi in zip(_K15, fx))
    return h * kronrod, max(err, floor)


def universality_integral(
    dispersion: Dispersion, z: complex, tol: float = 1e-10
) -> QuadratureResult:
    """Adaptive quadrature of int_0^inf w(xi) a(xi) / (z^2 - a(xi)^2) dxi

    with the arcsine weight w = a' / (pi sqrt(1 - a^2)).  Independent of the
    dispersion; converges to arcsin(1/z)/(pi sqrt(z^2 - 1)).

    The rule is globally adaptive Gauss-Kronrod 7/15 (QUADPACK's qk15) on
    xi = (1 - t)/t, t in (0, 1]: the subinterval with the largest error
    estimate is bisected until the summed estimate is <= tol, with at most
    400 subintervals.  Raises ArithmeticError when the estimate is not within
    tol.  The tail xi -> inf sits at t -> 0, where floats are dense, so no
    node rounds onto the endpoint.
    """
    z = _check_off_cut(z)
    # a real z keeps the integrand real, so the value's imaginary part is +0.0
    z_sq = z.real * z.real if z.imag == 0 else z * z
    count = 0

    def integrand(t: float) -> complex:
        nonlocal count
        count += 1
        xi = (1.0 - t) / t
        a = dispersion.a(xi)
        oma = dispersion.one_minus_a_sq(xi)
        if oma <= 0.0:
            return 0.0
        w = dispersion.a_prime(xi) / (math.pi * math.sqrt(oma))
        return w * a / ((z_sq - a * a) * t * t)

    value, err = _gk15(integrand, 0.0, 1.0)
    heap = [(-err, 0.0, 1.0, value)]
    while not err <= tol and len(heap) < _QUAD_LIMIT:  # a NaN estimate goes on
        neg_err, a, b, _ = heapq.heappop(heap)
        err += neg_err
        for lo, hi in ((a, 0.5 * (a + b)), (0.5 * (a + b), b)):
            part, part_err = _gk15(integrand, lo, hi)
            heapq.heappush(heap, (-part_err, lo, hi, part))
            err += part_err
    err = math.fsum(-e for e, *_ in heap)  # the running total carries round-off
    if not err <= tol:
        raise ArithmeticError(f"quadrature error estimate {err:.3e} exceeds tol {tol:.3e}")
    return QuadratureResult(value=complex(sum(part for *_, part in heap)),
                            estimated_error=err, evaluations=count)


def arcsine_closed_form(z: complex) -> complex:
    """arcsin(1/z) / (pi sqrt(z^2 - 1)) with principal branches.

    Raises ArithmeticError when the result is not finite (|z| below ~1e-154,
    where 1/z overflows).
    """
    z = _check_off_cut(z)
    if z.imag == 0:
        # real z > 1: the real branch, with no round-off left in an imaginary
        # part and no cancellation in 1 - 1/z^2 near the cut
        x = z.real
        value = complex(math.asin(1 / x) / (math.pi * math.sqrt(x - 1) * math.sqrt(x + 1)))
    else:
        w = 1 / z
        root = cmath.sqrt(1 - w * w)
        # principal arcsin continued by the log form for |w| > 1
        asn = -1j * cmath.log(1j * w + root)
        # sqrt(z^2 - 1) = z sqrt(1 - w^2) for Re z > 0, without squaring a large z
        value = asn / (math.pi * z * root)
    if not cmath.isfinite(value):
        raise ArithmeticError(f"arcsine closed form at z = {z} is not finite")
    return value


def arcsine_pdf(t: float) -> float:
    """Density 1/(pi sqrt(1 - t^2)) on (-1, 1)."""
    if not -1.0 < t < 1.0:
        raise ValueError(f"t = {t} outside (-1, 1)")
    return 1.0 / (math.pi * math.sqrt(1.0 - t * t))


def arcsine_cdf(t: float) -> float:
    """CDF 1/2 + arcsin(t)/pi on [-1, 1] (clamped outside)."""
    t = max(-1.0, min(1.0, t))
    return 0.5 + math.asin(t) / math.pi


# ---------------------------------------------------------------------------
# chi_{-4} and the eta identity


def dirichlet_L_chi4(s: float, tol: float = 1e-12) -> float:
    """L(s, chi_{-4}) = sum_{k>=0} (-1)^k / (2k+1)^s by Euler transformation.

    The alternating series converges for s > 0; iterated averaging of the
    partial sums accelerates it to desk precision.  Raises ConvergenceError
    when successive estimates still differ by more than tol/2 at 640 terms.
    """
    if s <= 0:
        raise NotImplementedError("series path needs s > 0; use the functional equation")
    n_terms = 40
    last, change = None, math.inf
    while n_terms <= 640:
        partial = []
        total = 0.0
        for k in range(n_terms):
            total += (-1) ** k / float(2 * k + 1) ** s
            partial.append(total)
        # iterated averaging (Euler transform of the partial-sum sequence)
        row = partial
        while len(row) > 1:
            row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
        value = row[0]
        if last is not None:
            change = abs(value - last)
            if change <= tol / 2:
                return value
        last = value
        n_terms *= 2
    raise ConvergenceError(
        f"L(s, chi_-4) at s={s} not converged within 640 terms: "
        f"last change {change:.3e} > tol/2 = {tol / 2:.3e}"
    )


def eta_value(s: float, tol: float = 1e-12) -> float:
    """The eta invariant eta(s) = 2 L(s, chi_{-4})."""
    return 2.0 * dirichlet_L_chi4(s, tol)


def eta_functional_equation_residual(s: float) -> float:
    """|eta(s) - 2 (2/pi)^{1-s} cos(pi s/2) Gamma(1-s) L(1-s, chi_{-4})|.

    The reflection factor is the odd-character (Dirichlet beta) one,
    beta(s) = (2/pi)^{1-s} cos(pi s/2) Gamma(1-s) beta(1-s) -- note cos, not
    the sin of the zeta template.  Valid for s in (0, 1) where both series
    converge.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    lhs = eta_value(s)
    rhs = (
        2.0
        * (2.0 / math.pi) ** (1.0 - s)
        * math.cos(math.pi * s / 2.0)
        * math.gamma(1.0 - s)
        * dirichlet_L_chi4(1.0 - s)
    )
    return abs(lhs - rhs)
