"""Spectral polynomial, resolvent, eta-Gram and j-map tests."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerpencil import pencil as pencil_mod
from eulerpencil.exactmath import LaurentPoly, Matrix2, QuadExt
from eulerpencil.pencil import (
    DegenerateGramError,
    OnShellError,
    SingularLocusError,
    eta_gram,
    j1728_locus_Q,
    j_formula,
    j_formula_tausq,
    j_zero_locus_Delta,
    lambda_evenness_check,
    monomial_gram8,
    pencil_from_tdd,
    pontryagin_index,
    resolvent_floats,
    spectral_value,
    zco_pencil,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def pencil_matrix(pen, u: complex, lam: complex, b: complex) -> Matrix2:
    """The oracle: A(u; lambda) = u^2 I - diag(E1, E2) - (lambda/u) ((a, b), (-b, d)), numerically."""
    E1, E2, a, d = (complex(v) for v in (pen.E1, pen.E2, pen.a, pen.d))
    k = lam / u
    return Matrix2(u * u - E1 - k * a, -k * b, k * b, u * u - E2 - k * d)


@st.composite
def pencils(draw):
    tau = draw(rationals)
    delta = draw(rationals)
    Delta = draw(rationals)
    E = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    return pencil_from_tdd(tau, delta, Delta, E)


# -- invariants ---------------------------------------------------------------


@given(pencils())
@settings(max_examples=60, deadline=None)
def test_invariant_roundtrip_and_mu_relation(pen):
    assert pen.tau == pen.a + pen.d
    assert pen.delta == pen.a - pen.d
    assert pen.Delta == pen.a * pen.d + pen.b_sq
    # mu = (tau^2 - delta^2)/4 - Delta = -b^2
    assert pen.mu == (pen.tau**2 - pen.delta**2) / 4 - pen.Delta
    assert pen.mu == -pen.b_sq


# -- spectral polynomial ------------------------------------------------------


def _symbolic(pen):
    """P(u, lam) of a pencil on the background diag(E, -E), as a LaurentPoly in u and lam."""
    u, lam = _names("u", "lam")
    return spectral_value(pen.E1, pen.tau, pen.delta, pen.Delta, u, lam)


def test_spectral_poly_canonical_oracle():
    # [DERIVED] canonical (2,0,2), E=1:
    # P = u^6 - 2 lam u^3 - u^2 + 2 lam^2
    P = _symbolic(pencil_from_tdd(2, 0, 2))
    assert P == LaurentPoly({(("u", 6),): 1, (("lam", 1), ("u", 3)): -2, (("u", 2),): -1,
                             (("lam", 2),): 2})


def test_spectral_poly_zco_oracle():
    # [DERIVED] ZCO: P = u^6 - E^2 u^2 - 2E lam u
    P = _symbolic(zco_pencil(3))
    assert P == LaurentPoly({(("u", 6),): 1, (("u", 2),): -9, (("lam", 1), ("u", 1)): -6})


@given(pencils())
@settings(max_examples=40, deadline=None)
def test_spectral_poly_equals_u2_det(pen):
    # P(u, lam) = u^2 det A(u; lam) at numeric sample points
    rng = random.Random(1)
    for _ in range(3):
        u = complex(rng.uniform(0.4, 1.6), rng.uniform(-0.5, 0.5))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(pen.b_sq) ** 0.5
        det = pencil_matrix(pen, u, lam, b=b).det()
        direct = spectral_value(*_floats(pen), u, lam)
        assert abs(direct - u * u * det) <= 1e-8 * max(1.0, abs(direct))


# -- adjugate and resolvent ---------------------------------------------------


@given(pencils(), rationals)
@settings(max_examples=30, deadline=None)
def test_adjugate_times_pencil_is_P_over_u2(pen, b):
    # adj(A) A = det(A) I = (P/u^2) I, columnwise over the Laurent ring
    pen = dataclasses.replace(pen, b_sq=b * b)
    target = _symbolic(pen) * LaurentPoly.term(1, u=-2)
    # the entries of A, and the cofactor columns phi1 = (a22, -a21), phi2 = (-a12, a11)
    u2, k = LaurentPoly.term(1, u=2), LaurentPoly.term(1, u=-1, lam=1)
    a11 = u2 - pen.E1 - pen.a * k
    a12 = -b * k
    a21 = b * k
    a22 = u2 - pen.E2 - pen.d * k
    phi1, phi2 = (a22, -a21), (-a12, a11)
    # column identities: A . phi_k = det A . e_k
    assert a11 * phi1[0] + a12 * phi1[1] == target
    assert a21 * phi1[0] + a22 * phi1[1] == LaurentPoly()
    assert a11 * phi2[0] + a12 * phi2[1] == LaurentPoly()
    assert a21 * phi2[0] + a22 * phi2[1] == target


@given(pencils())
@settings(max_examples=30, deadline=None)
def test_resolvent_closed_forms_match_inverse(pen):
    # pencils() draws the background diag(E, -E) that the closed forms need
    rng = random.Random(7)
    for _ in range(4):
        u = complex(rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.6))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(pen.b_sq) ** 0.5
        m = pencil_matrix(pen, u, lam, b=b)
        det = m.det()
        if abs(det) < 1e-6:
            continue
        tr_direct = m.trace() / det  # tr A^-1 = tr adj A / det A, and tr adj A = tr A
        det_direct = 1 / det
        _, tr, det_r = resolvent_floats(*_floats(pen), u, lam, 1e-12)
        assert abs(tr - tr_direct) <= 1e-7 * max(1.0, abs(tr_direct))
        assert abs(det_r - det_direct) <= 1e-7 * max(1.0, abs(det_direct))


def test_resolvent_on_shell_raises():
    pen = zco_pencil(1)
    # ZCO basepoint lies on the spectral curve
    u = 1 / 2**0.5
    lam = (u**5 - u) / 2
    with pytest.raises(OnShellError):
        resolvent_floats(*_floats(pen), u, lam, 1e-12)


def _floats(pen):
    """(E, tau, delta, Delta) of a pencil on the background diag(E, -E), as floats."""
    assert pen.E2 == -pen.E1
    return tuple(float(v) for v in (pen.E1, pen.tau, pen.delta, pen.Delta))


def _names(*names):
    return [LaurentPoly.term(1, **{name: 1}) for name in names]


def _coefficient(f, name, e):
    """The coefficient of name**e in f, as a LaurentPoly in the other names."""
    return LaurentPoly({tuple((v, k) for v, k in m if v != name): c
                        for m, c in f.terms.items() if dict(m).get(name, 0) == e})


def test_spectral_poly_is_u2_det_identically():
    # generic in (E, a, d, b): on the background diag(E, -E) the closed form the
    # matcher evaluates is P = u^2 det A(u; lam), and generic in (E1, E2, a, d, b),
    # u^2 tr adj A = u^2 tr A = u(2u^3 - tau lam) - (E1 + E2) u^2; with E2 = -E1
    # these give tr R = tr adj A / det A = u(2u^3 - tau lam)/P and det R = 1/det A = u^2/P
    E, E1, E2, a, d, b, u, lam = _names("E", "E1", "E2", "a", "d", "b", "u", "lam")
    pen = pencil_mod.Pencil2(E1=E, E2=-E, a=a, d=d, b_sq=b * b)
    k = lam / u
    A = Matrix2(u * u - E - k * a, -k * b, k * b, u * u + E - k * d)
    assert spectral_value(E, pen.tau, pen.delta, pen.Delta, u, lam) == u**2 * A.det()
    A = Matrix2(u * u - E1 - k * a, -k * b, k * b, u * u - E2 - k * d)
    assert u**2 * A.trace() == u * (2 * u**3 - pen.tau * lam) - (E1 + E2) * u**2


def test_spectral_value_is_spectral_poly_identically():
    # the same closed form over symbolic (E, tau, delta, Delta, u, lam), with the
    # coupling of pencil_from_tdd: a, d = (tau +- delta)/2 and b^2 = Delta - ad
    E, tau, delta, Delta, u, lam = _names("E", "tau", "delta", "Delta", "u", "lam")
    a, d, k = (tau + delta) / 2, (tau - delta) / 2, lam / u
    det = (u * u - E - k * a) * (u * u + E - k * d) + k * k * (Delta - a * d)  # det A
    assert spectral_value(E, tau, delta, Delta, u, lam) == u**2 * det


def test_tau_zero_spectral_curve_has_genus_zero_on_two_loci_only():
    # on tau = 0 with E = 1, a = t, d = -t: P = Delta lam^2 - 2 t lam u + u^6 - u^2, and
    # its lam-discriminant 4u^2 (t^2 + Delta - Delta u^4) is a square in u (genus 0)
    # only for Delta = 0 (the ZCO, up to lam -> t lam) or Delta = -t^2 (reducible)
    t, Delta, u, lam = _names("t", "Delta", "u", "lam")
    P = spectral_value(1, 0, 2 * t, Delta, u, lam)
    assert P == Delta * lam**2 - 2 * t * lam * u + u**6 - u**2
    c2, c1, c0 = (_coefficient(P, "lam", e) for e in (2, 1, 0))
    assert c1 * c1 - 4 * c2 * c0 == 4 * u**2 * (t * t + Delta - Delta * u**4)
    zco = zco_pencil()
    assert spectral_value(1, 0, 2 * t, 0, u, lam) == u * (u**5 - u - 2 * t * lam)
    assert (spectral_value(1, 0, 2 * t, 0, u, lam)
            == spectral_value(zco.E1, zco.tau, zco.delta, zco.Delta, u, t * lam))
    assert (spectral_value(1, 0, 2 * t, -t * t, u, lam)
            == -(t * lam - u**3 + u) * (t * lam + u**3 + u))


# -- eta-Gram -----------------------------------------------------------------


def test_eta_gram_zco_oracle():
    # [DERIVED] ZCO eta-Gram is diag(E^2, -E^2), lambda-independent
    for E in (1, 2, 5):
        g = eta_gram(zco_pencil(E), 1)
        assert g.entries == (
            ({0: Fraction(E * E)}, {}),
            ({}, {0: Fraction(-E * E)}),
        )
        assert lambda_evenness_check(g)
        assert pontryagin_index(g) == 1


@given(pencils())
@settings(max_examples=50, deadline=None)
def test_eta_gram_diagonal_even_index(pen):
    g = eta_gram(pen, 1)
    # off-diagonal residues vanish identically at N = 2
    assert g.entries[0][1] == {} and g.entries[1][0] == {}
    assert lambda_evenness_check(g)
    if pen.E1 != 0:
        # G(0) = (E^2, -E^2): exactly one negative entry
        assert pontryagin_index(g) == 1


def test_eta_gram_closed_form_is_an_identity():
    # generic in (E1, E2, a, d, b, c): the u^-1 coefficient of c phi_i(-u)^T J phi_j(u)/u,
    # with the columns phi1 = (f1, -b lam/u), phi2 = (b lam/u, f2) of adj A(u; lam),
    # is G = c diag(E2^2, -E1^2): no lam, no coupling, no off-diagonal term
    E1, E2, a, d, b, c, u, lam = _names("E1", "E2", "a", "d", "b", "c", "u", "lam")

    def columns(v):  # phi1, phi2 at u = v
        k = lam / v
        f1, f2 = v * v - E2 - d * k, v * v - E1 - a * k
        return (f1, -b * k), (b * k, f2)

    def residue(x, y):  # Res_{u=0} c x(-u)^T J y(u) / u
        return _coefficient(c * (x[0] * y[0] - x[1] * y[1]) / u, "u", -1)

    G = [[residue(x, y) for y in columns(u)] for x in columns(-u)]
    assert G == [[c * E2**2, 0], [0, -c * E1**2]]
    # eta_gram returns exactly these values
    rng = random.Random(3)
    for _ in range(20):
        e1, e2, cv = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        pen = pencil_mod.Pencil2(E1=e1, E2=e2, a=Fraction(rng.randint(-9, 9)),
                                 d=Fraction(rng.randint(-9, 9)), b_sq=Fraction(rng.randint(-9, 9)))
        values = [[cv * e2**2, 0], [0, -cv * e1**2]]  # G at E1 = e1, E2 = e2, c = cv
        for row, gram_row in zip(values, eta_gram(pen, cv).entries):
            for value, entry in zip(row, gram_row):
                assert entry == ({0: value} if value != 0 else {})


def test_eta_gram_scale_linearity():
    pen = pencil_from_tdd(2, 0, 2)
    g1 = eta_gram(pen, 1)
    g3 = eta_gram(pen, 3)
    for i in (0, 1):
        for k, v in g1.entries[i][i].items():
            assert g3.entries[i][i][k] == 3 * v


def test_pontryagin_degenerate_background():
    g = eta_gram(pencil_from_tdd(2, 0, 2, E=0), 1)
    with pytest.raises(DegenerateGramError):
        pontryagin_index(g)


# -- monomial Gram ------------------------------------------------------------


@pytest.mark.parametrize("eps", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_monomial_gram8_rank_and_spectrum(eps):
    # the closed-form rank and spectrum, proven from the matrix itself: its
    # only nonzero entries are -2 eps_i at (i, 4 + i) and (4 + i, i), and
    # numpy finds the rank and the reduced block's eigenvalues independently
    import numpy as np

    G, rank, eigs = monomial_gram8(*eps)
    nonzero = {(r, c): v for r, row in enumerate(G) for c, v in enumerate(row) if v}
    assert nonzero == {**{(i, 4 + i): -2 * eps[i] for i in (0, 1)},
                       **{(4 + i, i): -2 * eps[i] for i in (0, 1)}}
    arr = np.array(G, dtype=float)
    assert arr.shape == (8, 8)
    assert rank == np.linalg.matrix_rank(arr) == 4
    reduced = arr[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
    assert eigs == np.round(np.linalg.eigvalsh(reduced)).astype(int).tolist() == [-2, -2, 2, 2]


def test_monomial_gram8_bad_eps():
    with pytest.raises(ValueError):
        monomial_gram8(2, 1)


# -- j-map --------------------------------------------------------------------


def test_j_formula_witnesses():
    # [DERIVED] canonical point (2,0,2) sits on the j = 1728 fiber
    assert j_formula(2, 0, 2) == 1728
    # [DERIVED] irrational-tau witness through tau^2
    assert j_formula_tausq(Fraction(45, 11), 1, 1) == 1728


def test_j_formula_tausq_matches_j_formula():
    for tau, delta, Delta in [(2, 1, Fraction(1, 2)), (3, -1, 1), (-2, 2, 3)]:
        assert j_formula(tau, delta, Delta) == j_formula_tausq(
            Fraction(tau) ** 2, delta, Delta
        )


def test_j_numerator_factors_through_x0_2():
    # tau^2 delta^2 + 12 Delta mu = x y - 4 Delta mu, identically in (a, d, b^2) and so
    # in (tau, delta, Delta), with x = tau^2 - 4 Delta and y = delta^2 + 4 Delta
    a, d, b_sq = _names("a", "d", "b_sq")
    pen = pencil_mod.Pencil2(E1=1, E2=-1, a=a, d=d, b_sq=b_sq)
    tau, delta, Delta, mu = pen.tau, pen.delta, pen.Delta, pen.mu
    assert mu == (tau**2 - delta**2) / 4 - Delta
    x, y = tau**2 - 4 * Delta, delta**2 + 4 * Delta
    assert tau**2 * delta**2 + 12 * Delta * mu == x * y - 4 * Delta * mu


def test_j_formula_singular_locus_raises():
    # mu = 0 (b = 0) degenerates the formula
    with pytest.raises(SingularLocusError):
        j_formula(2, 0, 1)  # Delta = ad -> b_sq = 0 -> mu = 0
    # tau^2 = 4 Delta collapses the master-quadratic leading coefficient
    with pytest.raises(SingularLocusError):
        j_formula(2, 1, 1)


def test_j1728_locus_certificate():
    # Q(tau^2, delta, Delta) = -2 tau^2 delta^2 - 9 tau^2 Delta
    #                          + 9 delta^2 Delta + 36 Delta^2
    # the irrational-tau witness lies on the Q component; the canonical
    # point (2,0,2) sits on the delta = 0 component instead, so Q != 0 there
    assert j1728_locus_Q(Fraction(45, 11), 1, 1) == 0
    assert j1728_locus_Q(4, 0, 2) != 0
    assert j1728_locus_Q(4, 1, 1) != 0


def test_j_zero_locus_exact_root():
    # [DERIVED] at tau^2 = 81, delta = -1: 12 Delta^2 - 240 Delta - 81 = 0,
    # Delta lives in Q(sqrt 427) and j vanishes there
    dplus, dminus = j_zero_locus_Delta(81, -1)
    for D in (dplus, dminus):
        assert 12 * D * D - 240 * D - 81 == 0
    # the positive root feeds back through the QuadExt-capable j-formula
    j = j_formula_tausq(Fraction(81), Fraction(-1), dplus)
    assert j == 0
