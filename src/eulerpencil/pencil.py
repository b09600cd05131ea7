"""The 2x2 J-self-adjoint causal pencil.

A(u; lambda) = u^2 I - diag(E1, E2) - (lambda/u) V with V = ((a, b), (-b, d))
and fundamental symmetry J = diag(1, -1).  This module computes the spectral
polynomial in closed form, the resolvent trace/determinant in complex floats,
the eta-Gram residue pairing in closed form with its lambda-evenness and
Pontryagin index, the j-invariant moduli map with its special loci, and the
8-dimensional monomial Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import QuadExt, Rational, _as_fraction


class OnShellError(ValueError):
    """Raised when the resolvent is evaluated on the spectral curve."""


class SingularLocusError(ValueError):
    """Raised when a j-formula denominator factor vanishes."""


class DegenerateGramError(ValueError):
    """Raised by pontryagin_index for a Gram with zero diagonal at lambda=0."""


@dataclass(frozen=True)
class Pencil2:
    """Pencil data: background (E1, E2) and coupling (a, d, b_sq).

    b_sq is b^2 and may be negative (complex coupling).  The scalar
    invariants are tau = a+d, delta = a-d, Delta = ad + b^2 and the derived
    mu = -b^2 = (tau^2 - delta^2)/4 - Delta.
    """

    E1: Rational
    E2: Rational
    a: Rational
    d: Rational
    b_sq: Rational

    @property
    def tau(self) -> Rational:
        return self.a + self.d

    @property
    def delta(self) -> Rational:
        return self.a - self.d

    @property
    def Delta(self) -> Rational:
        return self.a * self.d + self.b_sq

    @property
    def mu(self) -> Rational:
        return -self.b_sq


def pencil_from_tdd(tau, delta, Delta, E=1) -> Pencil2:
    """Pencil from rational invariants: a=(tau+delta)/2, d=(tau-delta)/2, b_sq=Delta-ad."""
    tau, delta, Delta, E = (_as_fraction(v) for v in (tau, delta, Delta, E))
    a = (tau + delta) / 2
    d = (tau - delta) / 2
    return Pencil2(E1=E, E2=-E, a=a, d=d, b_sq=Delta - a * d)


def zco_pencil(E=1) -> Pencil2:
    """The genus-0 zeta pencil: V = ((1,1),(-1,-1))."""
    E = _as_fraction(E)
    return Pencil2(E1=E, E2=-E, a=Fraction(1), d=Fraction(-1), b_sq=Fraction(1))


def spectral_value(E, tau, delta, Delta, u, lam):
    """P(u, lambda) = u^2 det A(u; lambda) on the background diag(E, -E), over any
    ring that holds its arguments.

    P = Delta lambda^2 - E delta u lambda - E^2 u^2 - tau u^3 lambda + u^6 (proven
    equal to u^2 det A over symbolic E, tau, delta, Delta, u and lambda in
    tests/test_pencil.py).  Called on LaurentPoly symbols u and lam it is the
    spectral polynomial; called on numbers, its value.  Each coefficient is the
    last factor of its product.
    """
    return lam**2 * Delta - u * lam * (E * delta) - u**2 * (E * E) - u**3 * lam * tau + u**6


def resolvent_floats(E, tau, delta, Delta, u: complex, lam: complex, tol: float):
    """(P, tr R, det R) in complex floats on the background diag(E, -E).

    tr R = u (2u^3 - tau lambda) / P and det R = u^2 / P (independent of
    delta), with P = ``spectral_value``; OnShellError when |P| < tol.
    """
    P = spectral_value(E, tau, delta, Delta, u, lam)
    if abs(P) < tol:
        raise OnShellError(f"|P(u, lambda)| = {abs(P):.3e} < tol: on the spectral curve")
    return P, u * (2 * u**3 - tau * lam) / P, u * u / P


@dataclass(frozen=True)
class EtaGram:
    """The 2x2 eta-Gram: entries are lambda-polynomials {exp: coeff}."""

    entries: tuple[tuple[dict, dict], tuple[dict, dict]]
    c: Rational

    def at_lambda_zero(self) -> tuple[Rational, Rational]:
        """Diagonal of G(0)."""
        return (
            self.entries[0][0].get(0, Fraction(0)),
            self.entries[1][1].get(0, Fraction(0)),
        )


def eta_gram(pencil: Pencil2, c=1) -> EtaGram:
    """G_ij(lambda) = c * Res_{u=0} phi_i(-u)^T J phi_j(u) / u, in closed form.

    phi_1 = (u^2 - E2 - d lambda/u, -b lambda/u) and
    phi_2 = (b lambda/u, u^2 - E1 - a lambda/u) are the columns of
    adj A(u; lambda).  Theorem (multiplied out over symbolic E1, E2, a, d, b
    and c in tests/test_pencil.py): G = c diag(E2^2, -E1^2) for every
    coupling.  G is constant in lambda and its off-diagonal entries vanish;
    zero entries are {}.
    """
    c, E1, E2 = (_as_fraction(v) for v in (c, pencil.E1, pencil.E2))
    g11, g22 = c * E2 * E2, -c * E1 * E1
    return EtaGram(entries=(({0: g11} if g11 else {}, {}), ({}, {0: g22} if g22 else {})), c=c)


def lambda_evenness_check(gram: EtaGram) -> bool:
    """True iff every odd-lambda coefficient of every entry is exactly zero.

    Always True for an ``eta_gram``: the theorem there makes G constant in lambda.
    """
    for row in gram.entries:
        for entry in row:
            if any(exp % 2 == 1 and coeff != 0 for exp, coeff in entry.items()):
                return False
    return True


def pontryagin_index(gram: EtaGram) -> int:
    """Count of strictly negative diagonal entries of G(0).

    For an ``eta_gram``, G(0) = c diag(E2^2, -E1^2), so the index is 1
    whenever c E1 E2 != 0; a zero E1, E2 or c raises DegenerateGramError.
    """
    diag = gram.at_lambda_zero()
    if any(v == 0 for v in diag):
        raise DegenerateGramError("zero diagonal entry in G(0)")
    return sum(1 for v in diag if v < 0)


# ---------------------------------------------------------------------------
# j-invariant moduli map


def j_formula(tau, delta, Delta):
    """j = 16 (tau^2 delta^2 + 12 Delta mu)^3 / (Delta^2 mu^2 (tau^2-4Delta)(delta^2+4Delta))

    with the derived mu = (tau^2 - delta^2)/4 - Delta.  Works over any exact
    field scalars (Rational or QuadExt).
    """
    return j_formula_tausq(tau * tau, delta, Delta)


def j_formula_tausq(tau_sq, delta, Delta):
    """The j-formula parameterised by tau^2 (for loci with irrational tau)."""
    mu = (tau_sq - delta * delta) * Fraction(1, 4) - Delta
    factors = {
        "Delta": Delta,
        "mu": mu,
        "tau^2-4Delta": tau_sq - 4 * Delta,
        "delta^2+4Delta": delta * delta + 4 * Delta,
    }
    for name, value in factors.items():
        if value == 0:
            raise SingularLocusError(f"j-formula denominator factor {name} vanishes")
    num = 16 * (tau_sq * delta * delta + 12 * Delta * mu) ** 3
    den = Delta * Delta * mu * mu * (tau_sq - 4 * Delta) * (delta * delta + 4 * Delta)
    return num / den


def j1728_locus_Q(tau_sq, delta, Delta):
    """Q = -2 tau^2 delta^2 - 9 tau^2 Delta + 9 delta^2 Delta + 36 Delta^2.

    Q = 0 cuts the third irreducible component of the j = 1728 fiber.
    """
    t2, d, D = tau_sq, delta, Delta
    return -2 * t2 * d * d - 9 * t2 * D + 9 * d * d * D + 36 * D * D


def j_zero_locus_Delta(tau_sq, delta) -> tuple[QuadExt, QuadExt]:
    """Roots Delta of the j=0 locus 12 Delta^2 - 3(tau^2-delta^2) Delta - tau^2 delta^2 = 0."""
    from .exactmath import quad_roots

    t2, d = _as_fraction(tau_sq), _as_fraction(delta)
    return quad_roots(Fraction(12), -3 * (t2 - d * d), -t2 * d * d)


# ---------------------------------------------------------------------------
# monomial Gram


def monomial_gram8(eps1: int, eps2: int):
    """The 8x8 monomial Gram on (e1/u, e2/u, e1, e2, e1 u, e2 u, e1 u^2, e2 u^2).

    The only nonzero pairings couple the u^{-1} and u^{+1} blocks with
    entries -2 eps_i; the constant and u^2 blocks are isotropic (the
    radical).  Returns (matrix, rank, reduced_eigenvalues) in closed form:
    the four nonzero entries -2 eps_i lie in distinct rows and columns, so
    the rank is 4; the reduced block on (e1/u, e2/u, e1 u, e2 u) splits into
    ((0, -2 eps_i), (-2 eps_i, 0)), i = 1, 2, whose eigenvalues are +-2 for
    either sign, so the spectrum is [-2, -2, 2, 2].
    """
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError("eps1, eps2 must be +-1")
    G = [[Fraction(0)] * 8 for _ in range(8)]
    for i, eps in ((0, eps1), (1, eps2)):
        G[i][4 + i] = Fraction(-2 * eps)
        G[4 + i][i] = Fraction(-2 * eps)
    return G, 4, [-2, -2, 2, 2]
