"""Property and oracle tests for the exact-arithmetic kernel."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerpencil.exactmath import (
    DegenerateQuadraticError,
    LaurentPoly,
    Matrix2,
    QuadExt,
    _exact_sqrt,
    _square_split,
    cubic_rational_roots,
    group_pseudoinverse2,
    quad_roots,
)

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
radicands = st.sampled_from([0, 2, 3, 5, 7, 13, 48, 104, 712])


@st.composite
def quadexts(draw, d=None):
    if d is None:
        d = draw(radicands)
    return QuadExt(draw(rationals), draw(rationals), d)


# -- QuadExt ------------------------------------------------------------------


def test_quadext_normalises_perfect_square_radicand():
    z = QuadExt(1, 2, 9)  # 1 + 2 sqrt(9) = 7
    assert z.y == 0 and z.x == 7


def test_quadext_oracle_golden_ratio():
    # [DERIVED] phi = (1+sqrt 5)/2 satisfies phi^2 = phi + 1
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1


@given(quadexts(), quadexts(d=5), quadexts(d=5))
@settings(max_examples=80, deadline=None)
def test_quadext_ring_laws_same_field(a, b, c):
    assert (b + c) * b == b * b + c * b
    assert b * (c + a.x) == b * c + b * a.x  # rational scalar distributes
    assert b + c == c + b
    assert (b * c) * b == b * (c * b)


@given(quadexts())
@settings(max_examples=80, deadline=None)
def test_quadext_inverse_roundtrip(z):
    if z == 0:
        return
    assert z / z == 1
    assert (1 / z) * z == 1


@given(quadexts())
@settings(max_examples=80, deadline=None)
def test_quadext_conj_norm_float_consistency(z):
    # z times its conjugate x - y sqrt(d) is the rational norm x^2 - d y^2
    assert z * QuadExt(z.x, -z.y, z.d) == QuadExt(z.x * z.x - z.d * z.y * z.y)
    assert math.isclose(
        complex(z).real,
        float(z.x) + float(z.y) * math.sqrt(z.d),
        abs_tol=1e-9,
    )


@given(quadexts())
@settings(max_examples=50, deadline=None)
def test_quadext_sign_matches_float(z):
    s = z.sign()
    f = float(z.x) + float(z.y) * math.sqrt(z.d)
    if abs(f) > 1e-9:
        assert s == (1 if f > 0 else -1)


@given(quadexts(d=13), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_quadext_pow_matches_repeated_product(z, n):
    expect = QuadExt(1)
    for _ in range(n):
        expect = expect * z
    assert z**n == expect


# -- integer representation against a Fraction reference ----------------------


# The reference works on pairs (x, y) of Fractions standing for x + y sqrt(d).


def _ref_mul(a, b, d):
    return a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_norm(a, d):
    return a[0] * a[0] - d * a[1] * a[1]


def _ref_div(a, b, d):
    n = _ref_norm(b, d)
    x, y = _ref_mul(a, (b[0], -b[1]), d)
    return x / n, y / n


def _ref_sign(a, d):
    x, y = a
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    n = _ref_norm(a, d)  # opposite signs: the larger of x^2 and d y^2 wins
    return sx if n > 0 else sy


def _assert_invariant(z):
    assert z._Z > 0 and math.gcd(z._X, z._Y, z._Z) == 1
    assert (z._k == 0) == (z._Y == 0)


@given(radicands.flatmap(lambda d: st.tuples(quadexts(d=d), quadexts(d=d))),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_quadext_matches_fraction_reference(pair, n):
    a, b = pair
    d = a.d if a.y else b.d  # the common radicand
    ra, rb = (a.x, a.y), (b.x, b.y)
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = _ref_mul(power, ra, d)
    expect = [
        (a + b, (ra[0] + rb[0], ra[1] + rb[1])),
        (a - b, (ra[0] - rb[0], ra[1] - rb[1])),
        (a * b, _ref_mul(ra, rb, d)),
        (a**n, power),
        (-a, (-ra[0], -ra[1])),
    ]
    if b != 0:
        expect.append((a / b, _ref_div(ra, rb, d)))
    for z, (x, y) in expect:
        _assert_invariant(z)
        assert (z.x, z.y, z.d) == (x, y, d if y else 0), (z, x, y)
    if d >= 0:
        assert a.sign() == _ref_sign(ra, d)


@given(rationals)
@settings(max_examples=60, deadline=None)
def test_rational_quadext_hashes_like_fraction(q):
    z = QuadExt(q)
    _assert_invariant(z)
    assert hash(z) == hash(q) and z == q and {z: 1}[q] == 1
    assert hash(QuadExt(1, 2, 9)) == hash(7)  # 1 + 2 sqrt(9)


@pytest.mark.parametrize("p", [10_000_019, 1_000_000_007])
def test_canonical_match_exact_at_large_p(p):
    from eulerpencil.matching import canonical_match_exact

    bound = math.isqrt(4 * p)
    for a_p in (-bound, -1, 0, 7, bound):
        for branch in ("plus", "minus"):
            tr, det, P = canonical_match_exact(a_p, p, branch)
            assert tr == a_p and det == p, (a_p, p, branch)
            assert tr.y == 0 and det.y == 0 and P.y != 0


def test_quadext_mixed_radicands_rejected():
    from eulerpencil.exactmath import MixedRadicandError

    with pytest.raises(MixedRadicandError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


# -- canonical radicand -------------------------------------------------------


def _naive_square_split(n):
    """Reference: strip square factors i*i for every i up to sqrt(n)."""
    s, k, i = 1, n, 2
    while i * i <= k:
        while k % (i * i) == 0:
            k //= i * i
            s *= i
        i += 1
    return s, k


def _is_canonical(z):
    if z.y == 0:
        return z.d == 0
    n = abs(z.d.numerator)
    return z.d.denominator == 1 and z.d not in (0, 1) and _naive_square_split(n) == (1, n)


def test_square_split_matches_naive_reference():
    for n in range(1, 20001):
        assert _square_split(n) == _naive_square_split(n), n


@pytest.mark.parametrize(
    "n",
    [
        10007**2,  # q^2 left over after the cube-root loop
        12 * 10007**2,
        1009**3,
        100003 * 100019,  # q*q' with both primes above n^(1/3)
        1000000007,  # a large prime
        4 * 99989 * 99990,  # Delta_p for a_p = 0, p = 99989
        4 * 99991 * 99992 - 37**2,  # Delta_p for a_p = 37, p = 99991
    ],
)
def test_square_split_hard_cofactors(n):
    s, k = _square_split(n)
    assert s * s * k == n
    assert (s, k) == _naive_square_split(n)


def _factorised_square_split(n):
    """Reference: factorise n by trial division, then split each exponent by parity."""
    s = k = 1
    m, i = n, 2
    while i * i <= m:
        e = 0
        while m % i == 0:
            m //= i
            e += 1
        s *= i ** (e // 2)
        k *= i ** (e % 2)
        i += 1
    return s, k * m


@given(st.one_of(
    st.integers(min_value=1, max_value=10**10),
    st.builds(lambda s, k: s * s * k, st.integers(1, 10**4), st.integers(1, 10**6)),
))
@example(7**5)  # an odd power of the first prime on the wheel
@example(2**5 * 3**4 * 5**3 * 7**2 * 11)  # every wheel seed prime
@example(4 * 99991 * 99992 - 37**2)
@settings(max_examples=200, deadline=None)
def test_square_split_matches_a_factorisation_oracle(n):
    assert _square_split(n) == _factorised_square_split(n)


@given(
    rationals,
    rationals,
    st.integers(min_value=-50, max_value=50).filter(bool),
    st.fractions(min_value=-500, max_value=500, max_denominator=12),
)
@example(Fraction(0), Fraction(1), 2, Fraction(-1, 4))
@settings(max_examples=100, deadline=None)
def test_quadext_square_factor_moves_into_y(x, y, s, d):
    assume(_exact_sqrt(d) is None)
    a = QuadExt(x, y * abs(s), d)
    b = QuadExt(x, y, d * s * s)
    assert a == b
    assert (a.x, a.y, a.d) == (b.x, b.y, b.d)
    assert hash(a) == hash(b)
    assert _is_canonical(a)


@given(radicands.flatmap(lambda d: st.tuples(quadexts(d=d), quadexts(d=d))))
@settings(max_examples=80, deadline=None)
def test_quadext_ring_results_stay_canonical(pair):
    a, b = pair
    results = [a + b, a - b, a * b, -a, a**3]
    if b != 0:
        results.append(a / b)
    for z in results:
        assert _is_canonical(z), z


# -- quad_roots ---------------------------------------------------------------


@given(rationals, rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_quad_roots_satisfy_quadratic(A, B, C):
    if A == 0:
        with pytest.raises(DegenerateQuadraticError):
            quad_roots(A, B, C)
        return
    for root in quad_roots(A, B, C):
        assert A * root * root + B * root + C == 0


def test_quad_roots_canonical_p5_oracle():
    # [DERIVED] canonical basepoint at p=5, a_p=-4: 25 w^2 + 20 w - 22 = 0,
    # w_plus = (a_p + sqrt(4p(p+1) - a_p^2))/(2p) = -2/5 + sqrt(104)/10
    plus, _ = quad_roots(25, 20, -22)
    assert plus == QuadExt(Fraction(-2, 5), Fraction(1, 10), 104)


# -- cubic_rational_roots -------------------------------------------------------


@given(rationals.filter(bool), rationals, rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_cubic_rational_roots_of_a_root_times_a_quadratic(k, r, b, c):
    # k (x - r)(x^2 + b x + c): r and the quadratic's rational roots, once each
    cubic = (k, k * (b - r), k * (c - r * b), -k * r * c)
    expect = {r}
    root = _exact_sqrt(b * b - 4 * c)
    if root is not None:
        expect |= {(-b + root) / 2, (-b - root) / 2}
    assert cubic_rational_roots(*cubic) == sorted(expect)


def test_cubic_rational_roots_oracles():
    assert cubic_rational_roots(2, -3, -3, 2) == [-1, Fraction(1, 2), 2]
    assert cubic_rational_roots(1, 0, -3, 2) == [-2, 1]  # (x - 1)^2 (x + 2)
    assert cubic_rational_roots(1, 0, 0, -2) == []
    assert cubic_rational_roots(Fraction(1, 3), 0, 0, 0) == [0]
    # a root beyond double precision, next to integers that are not roots
    r = Fraction(2**60 + 1, 3)
    assert cubic_rational_roots(1, -r, 1, -r) == [r]  # (x - r)(x^2 + 1)
    assert cubic_rational_roots(1, -r, 1, -r + Fraction(1, 2**70)) == []
    with pytest.raises(ValueError, match="not a cubic"):
        cubic_rational_roots(0, 1, 2, 3)


# -- LaurentPoly ---------------------------------------------------------------


def _monomial(**exps) -> tuple:
    """The monomial key of prod name**exponent: names sorted, zero exponents dropped."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


@st.composite
def laurents(draw):
    # "t" sorts between "lam" and "u", so products merge names on both sides of it
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        key = _monomial(
            u=draw(st.integers(min_value=-3, max_value=4)),
            lam=draw(st.integers(min_value=0, max_value=3)),
            t=draw(st.integers(min_value=-1, max_value=2)),
        )
        terms[key] = draw(rationals)
    return LaurentPoly(terms)


U = LaurentPoly.term(1, u=1)
LAM = LaurentPoly.term(1, lam=1)


@given(laurents(), laurents(), laurents())
@settings(max_examples=60, deadline=None)
def test_laurent_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + LaurentPoly() == f
    assert f * LaurentPoly.term(1) == f


@given(laurents(), laurents(), st.sampled_from(["u", "lam", "t", "b"]))
@settings(max_examples=60, deadline=None)
def test_laurent_names_align_across_variable_sets(f, g, name):
    # g times a name none of its terms holds, built key by key, is the product
    h = LaurentPoly({tuple(sorted(m + (("b", 1),))): c for m, c in g.terms.items()})
    assert h == g * LaurentPoly.term(1, b=1)
    assert f * h == h * f and f + h == h + f
    t = LaurentPoly.term(1, **{name: 1})
    assert (f * t) / t == f


def test_laurent_products_store_one_key_per_monomial():
    # the key of a product does not depend on the order of its factors
    ab = LaurentPoly.term(1, a=1) * LaurentPoly.term(1, b=1)
    ba = LaurentPoly.term(1, b=1) * LaurentPoly.term(1, a=1)
    assert ab.terms == ba.terms == {(("a", 1), ("b", 1)): 1}
    assert repr(ab) == repr(ba)
    assert list((ab + ba).terms) == [(("a", 1), ("b", 1))]


@given(laurents(), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_laurent_pow_matches_repeated_product(f, n):
    expect = LaurentPoly.term(1)
    for _ in range(n):
        expect = expect * f
    calls = []
    mul = LaurentPoly.__mul__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert f**n == expect
    # one product per set bit and one squaring per bit below the top one
    assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") if n else 0)


def test_laurent_divides_by_single_terms_only():
    m = LaurentPoly.term(Fraction(3, 2), u=-2, lam=1)
    assert m**-2 * m**2 == 1 and (U + 1) / m * m == U + 1
    with pytest.raises(ValueError, match="not a unit"):
        1 / (U + 1)
    with pytest.raises(ZeroDivisionError):
        U / LaurentPoly()


def _laurent_add(*fs):
    """Term-by-term sum of monomial-keyed dicts, as a dict without zeros."""
    out = {}
    for f in fs:
        for key, c in f.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def _laurent_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            e1, e2 = dict(m1), dict(m2)
            key = _monomial(**{v: e1.get(v, 0) + e2.get(v, 0) for v in e1.keys() | e2.keys()})
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def _stored(f: LaurentPoly) -> dict:
    """f's terms, after checking each coefficient (a nonzero Fraction) and each
    monomial (names strictly increasing, no zero exponent)."""
    assert all(type(c) is Fraction and c != 0 for c in f.terms.values()), f
    for m in f.terms:
        names = [v for v, _ in m]
        assert names == sorted(set(names)) and all(e for _, e in m), f
    return f.terms


@given(laurents(), laurents(), rationals.filter(bool))
@example(2 * U + LAM, -2 * U - LAM, Fraction(1))
@settings(max_examples=80, deadline=None)
def test_laurent_results_match_a_term_by_term_reference(f, g, x):
    # no result may keep a zero coefficient or a zero exponent
    f_, g_ = f.terms, g.terms
    assert _stored(f + g) == _laurent_add(f_, g_)
    assert _stored(f - g) == _laurent_add(f_, {k: -c for k, c in g_.items()})
    assert _stored(f + -f) == {}
    assert _stored(f * g) == _laurent_mul(f_, g_)
    if len(g_) == 1:  # g is a unit
        ((m, c),) = g_.items()
        assert _stored(f / g) == _laurent_mul(f_, {tuple((v, -e) for v, e in m): 1 / c})
    assert _stored(x * f) == _laurent_mul(f_, {(): x})


def test_laurent_rejects_inexact_coefficients():
    for value in (1.5, 1j):
        with pytest.raises(TypeError):
            3 * U**2 + value
        with pytest.raises(TypeError):
            U * value
    with pytest.raises(TypeError):
        LaurentPoly({(): 0.5})


# -- Matrix2 ------------------------------------------------------------------


def test_group_pseudoinverse_trace_law():
    # rank-1 matrix a b^T: group inverse trace is 1/tr
    m = Matrix2(Fraction(-1, 8), Fraction(3, 8), Fraction(-3, 8), Fraction(9, 8))
    gi = group_pseudoinverse2(m)
    assert abs(gi.trace() - 1.0) <= 1e-12
    # Moore-Penrose differs for this non-normal matrix
    mp = np.linalg.pinv(np.array([[m.e11, m.e12], [m.e21, m.e22]], dtype=complex))
    assert abs(np.trace(mp) - 0.64) <= 1e-12


def test_group_pseudoinverse_rejects_full_rank():
    with pytest.raises(ValueError):
        group_pseudoinverse2(Matrix2(1, 0, 0, 1))
