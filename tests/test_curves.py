"""Oracle and invariant tests for Weierstrass curves and point counting."""

import json
import math
import os
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerpencil import curves
from eulerpencil.cli import main
from eulerpencil.curves import (
    BadReductionError,
    SingularCurveError,
    WeierstrassCurve,
    ap_count,
    ap_sweep,
    catalogue_entry,
    cm_discriminant,
    cm_splits,
    cornacchia_candidates,
    curve_invariants,
    good_primes,
    hasse_check,
    is_good_prime,
    is_prime,
    legendre_j,
    load_catalogue,
    primes_upto,
    quartic_to_weierstrass,
    two_squares,
)


# -- primes -------------------------------------------------------------------


def test_primes_upto_oracle():
    # [TRIVIAL] pi(100) = 25, first primes
    ps = primes_upto(100)
    assert len(ps) == 25
    assert ps[:5] == [2, 3, 5, 7, 11]


def test_is_prime_against_sieve_and_pseudoprimes():
    assert [n for n in range(-5, 10**6 + 1) if is_prime(n)] == primes_upto(10**6)
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5, 7, and one
    # to the first 12 prime bases that only the 13th base (41) exposes
    for n in (561, 1105, 3215031751, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**12 + 39) and is_prime(2**61 - 1)
    # above the Miller-Rabin bound a witness still proves a number composite
    assert not is_prime(47 * curves._MILLER_RABIN_BOUND)


def test_is_prime_above_the_bound_proves_only_compositeness():
    # two primes near 10^12 and 10^13: no small factor, product above the bound
    assert not is_prime((10**12 + 39) * (10**13 + 37))
    # a probable prime just above the bound is not decided, in microseconds
    with pytest.raises(ValueError, match=f"only below {curves._MILLER_RABIN_BOUND}$"):
        is_prime(3_317_044_064_679_887_385_962_177)


# -- invariants ---------------------------------------------------------------


def test_invariants_j1728_family():
    # [DERIVED] y^2 = x^3 + ax has j = 1728 for every a != 0
    for a in (1, -1, 8, -6):
        assert curve_invariants(WeierstrassCurve.short(a, 0)).j == 1728


def test_invariants_j0():
    # [DERIVED] y^2 = x^3 + b has j = 0
    assert curve_invariants(WeierstrassCurve.short(0, 7)).j == 0


def test_invariants_48a1_oracle():
    # [DERIVED] y^2 = x^3 + x^2 - 4x - 4 has j = 35152/9 (non-integral: non-CM)
    curve = WeierstrassCurve.from_model([0, 1, 0, -4, -4])
    inv = curve_invariants(curve)
    assert inv.j == Fraction(35152, 9)


def test_invariants_27a3_oracle():
    # [DERIVED] y^2 + y = x^3 has j = 0 and discriminant -27
    curve = WeierstrassCurve.from_model([0, 0, 1, 0, 0])
    inv = curve_invariants(curve)
    assert inv.j == 0 and inv.disc == -27


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        curve_invariants(WeierstrassCurve.short(0, 0))


# -- point counting -----------------------------------------------------------


def test_ap_oracle_32a2():
    # [DERIVED] y^2 = x^3 - x: inert zeros and split CM values
    curve = WeierstrassCurve.short(-1, 0)
    assert ap_count(curve, 5) == -2
    assert ap_count(curve, 13) == 6
    for p in (3, 7, 11, 19, 23):
        assert ap_count(curve, p) == 0


def test_ap_oracle_389a1_style_counts():
    # [DERIVED] y^2 + y = x^3 (27a3): a_13 = 5, a_7 = -1
    curve = WeierstrassCurve.from_model([0, 0, 1, 0, 0])
    assert ap_count(curve, 13) == 5
    assert ap_count(curve, 7) == -1


def test_ap_p2_exhaustive():
    # [DERIVED] y^2 + y = x^3 over F_2: affine points (0,0),(0,1),(1,*)? ->
    # x=0: y^2+y=0 two roots; x=1: y^2+y=1 none -> N = 2+1 = 3, a_2 = 0
    curve = WeierstrassCurve.from_model([0, 0, 1, 0, 0])
    assert ap_count(curve, 2) == 0


def test_ap_bad_prime_guard():
    curve = WeierstrassCurve.short(-1, 0)  # disc 64: p=2 is bad
    with pytest.raises(BadReductionError, match=r"^p=2 is a bad prime for \[0,0,0,-1,0\]$"):
        ap_count(curve, 2)
    ap_count(curve, 2, force=True)  # forced count is allowed


def test_split_prime_classical_rule():
    # [DERIVED] CM by Z[i]: p = a^2+b^2, a odd, a+b = 1 mod 4 => a_p = 2a
    curve = WeierstrassCurve.short(-1, 0)
    rules = {5: -2, 13: 6, 17: 2, 29: -10, 149: 14, 173: -26}
    for p, expect in rules.items():
        assert ap_count(curve, p) == expect


@given(st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))
@settings(max_examples=25, deadline=None)
def test_hasse_bound_random_curves(a4, a6):
    if 4 * a4**3 + 27 * a6**2 == 0:
        return
    curve = WeierstrassCurve.short(a4, a6)
    for p in good_primes(curve, 60):
        assert hasse_check(ap_count(curve, p), p)


def test_good_primes_excludes_discriminant():
    curve = WeierstrassCurve.short(-1, 0)  # disc = 64
    assert 2 not in good_primes(curve, 50)
    assert not is_good_prime(curve, 2)
    assert is_good_prime(curve, 3)


def test_ap_command_rows_match_single_counts(capsys):
    # the ap subcommand's rows are ap_sweep's, with the bad primes forced in
    curve = WeierstrassCurve.short(8, 0)
    for extra in ((), ("--include-bad",)):
        assert main(["ap", "--model", "0,0,0,8,0", "--max-p", "50", *extra,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        good = [row["p"] for row in rows if row["class"] == "good"]
        assert good == good_primes(curve, 50)
        assert [row["p"] for row in rows] == (primes_upto(50) if extra else good)
        for row in rows:
            assert row["a_p"] == ap_count(curve, row["p"], force=row["class"] == "bad")


# -- Shanks-Mestre against the Legendre oracle ---------------------------------


def _criterion_4_curves():
    """The seeded random short curves of acceptance criterion 4."""
    rng = random.Random(20260823)
    out = []
    while len(out) < 50:
        A, B = rng.randint(-20, 20), rng.randint(-20, 20)
        if 4 * A**3 + 27 * B**2 != 0:
            out.append(WeierstrassCurve.short(A, B))
    return out


def test_ap_legendre_matches_numpy_oracle(legendre_oracle):
    # the library's pure-Python count at every good p <= 1000, on every
    # catalogue model and the criterion-4 curves
    models = [e.curve for e in load_catalogue() if e.model is not None]
    for curve in models + _criterion_4_curves():
        for p in good_primes(curve, 1000):
            assert curves._ap_legendre(curve, p) == legendre_oracle(curve, p), (curve, p)


def test_shanks_mestre_matches_legendre_on_catalogue(legendre_oracle):
    # every catalogue model, every good p <= 10^4, on the path ap_count takes;
    # and Shanks-Mestre itself from Mestre's bound p > 229 up to 1000, where
    # the CM models take the CM path
    for entry in load_catalogue():
        if entry.model is None:
            continue
        curve = entry.curve
        for p in good_primes(curve, 10_000):
            expect = legendre_oracle(curve, p)
            assert ap_count(curve, p) == expect, (entry.label, p)
            if 229 < p <= 1000:
                assert curves._ap_shanks_mestre(curve, p) == expect, (entry.label, p)


def test_shanks_mestre_matches_legendre_on_criterion_4_curves(legendre_oracle):
    # the seeded random short curves of acceptance criterion 4, p in (229, 3000]
    primes = [p for p in primes_upto(3000) if p > 229]
    for curve in _criterion_4_curves():
        for p in primes:
            if is_good_prime(curve, p):
                expect = legendre_oracle(curve, p)
                assert curves._ap_shanks_mestre(curve, p) == expect, (curve, p)


_PRIMES_1E5 = [p for p in primes_upto(100_000) if p > 3]


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from(_PRIMES_1E5),
)
@settings(max_examples=30, deadline=None)
def test_ap_count_agrees_with_legendre_random_curves(legendre_oracle, a4, a6, p):
    assume(4 * a4**3 + 27 * a6**2 != 0)
    curve = WeierstrassCurve.short(a4, a6)
    assume(is_good_prime(curve, p))
    a_p = ap_count(curve, p)
    assert a_p == legendre_oracle(curve, p)
    assert hasse_check(a_p, p)


def test_ap_count_paths_by_prime(monkeypatch):
    # y^2 = x^3 - 3x + 1011 has a node mod 1009: 1011 = 2 and x^3 - 3x + 2 = (x-1)^2 (x+2)
    curve = WeierstrassCurve.short(-3, 1011)
    assert not is_good_prime(curve, 1009)
    legendre = curves._ap_legendre(curve, 1009)

    def refuse(*args):
        raise AssertionError("wrong counting path")

    monkeypatch.setattr(curves, "_ap_shanks_mestre", refuse)
    assert ap_count(curve, 1009, force=True) == legendre
    assert curves._SHANKS_MESTRE_MIN_P >= 227 and is_good_prime(curve, 227)
    assert ap_count(curve, 227) == curves._ap_legendre(curve, 227)
    monkeypatch.undo()
    above = [curves._ap_legendre(curve, p) for p in (233, 1019)]
    monkeypatch.setattr(curves, "_ap_legendre", refuse)
    assert curves._SHANKS_MESTRE_MIN_P < 233 and is_good_prime(curve, 233)
    assert [ap_count(curve, p) for p in (233, 1019)] == above


@pytest.mark.parametrize("p", [227, 997, 1009, 1019])
def test_ap_count_rejects_model_not_integral_at_good_prime(p):
    # y^2 = (x + u)^3 + (x + u) + 1 with u = 1/p is y^2 = x^3 + x + 1 moved by
    # x -> x + u: same c4, c6 and discriminant, so p is good, but the model
    # does not reduce mod p, on either side of the counting cutoff (227 below
    # it).  The same move on y^2 = x^3 - x (CM by Z[i]) reaches the CM path
    # above the cutoff, at split (997, 1009) and inert (1019) primes.
    u = Fraction(1, p)
    for model in ([0, 3 * u, 0, 3 * u * u + 1, u**3 + u + 1],
                  [0, 3 * u, 0, 3 * u * u - 1, u**3 - u]):
        curve = WeierstrassCurve.from_model(model)
        assert is_good_prime(curve, p)
        with pytest.raises(BadReductionError, match="not p-integral"):
            ap_count(curve, p)


# -- the CM path ----------------------------------------------------------------


def _curve_with_j(j: int) -> WeierstrassCurve:
    """A short model with the given j: y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2."""
    if j == 0:
        return WeierstrassCurve.short(0, 1)
    if j == 1728:
        return WeierstrassCurve.short(1, 0)
    return WeierstrassCurve.short(3 * j * (1728 - j), 2 * j * (1728 - j) ** 2)


def test_cm_path_matches_shanks_mestre_on_cm_catalogue():
    # every prime in (229, 3e4] of the catalogue's CM models, inert and split
    for label in ("256b2", "32a2", "2304b1", "27a3"):
        curve = catalogue_entry(label).curve
        D = cm_discriminant(curve)
        for p in good_primes(curve, 30_000):
            if p > curves._SHANKS_MESTRE_MIN_P:
                expect = curves._ap_shanks_mestre(curve, p)
                assert curves._ap_cm(curve, p, D, cm_splits(D, p)) == expect, (label, p)


@pytest.mark.parametrize("j, D", sorted(curves.CM_DISCRIMINANTS.items()))
def test_cm_path_matches_shanks_mestre_for_every_cm_discriminant(j, D):
    # the general {+-t} candidates of the eleven D without extra units, and
    # the orders of conductor 2 and 3 (D = -12, -16, -27, -28)
    curve = _curve_with_j(j)
    assert cm_discriminant(curve) == D
    for p in good_primes(curve, 6000):
        if p > curves._SHANKS_MESTRE_MIN_P:
            expect = curves._ap_shanks_mestre(curve, p)
            assert curves._ap_cm(curve, p, D, cm_splits(D, p)) == expect, (D, p)


_PRIMES_1E6 = [p for p in primes_upto(10**6) if p > curves._SHANKS_MESTRE_MIN_P]


@given(st.integers(min_value=1, max_value=10**6), st.booleans(), st.booleans(),
       st.sampled_from(_PRIMES_1E6))
@settings(max_examples=60, deadline=None)
def test_cm_path_on_twists_matches_shanks_mestre(c, negate, j_zero, p):
    # the quartic twists y^2 = x^3 + A x (D = -4) and the sextic twists
    # y^2 = x^3 + B (D = -3), where a residue symbol picks the unit
    c = -c if negate else c
    curve = WeierstrassCurve.short(0, c) if j_zero else WeierstrassCurve.short(c, 0)
    assume(is_good_prime(curve, p))
    D = -3 if j_zero else -4
    assert cm_discriminant(curve) == D
    a_p = ap_count(curve, p)
    assert a_p == curves._ap_cm(curve, p, D, cm_splits(D, p))
    assert a_p == curves._ap_shanks_mestre(curve, p)


def test_ap_count_paths_by_curve(monkeypatch):
    # above the cutoff a CM curve is counted by the CM path and any other
    # curve by Shanks-Mestre, in ap_count and ap_sweep alike
    def refuse(*args):
        raise AssertionError("wrong counting path")

    cm, plain = catalogue_entry("27a3").curve, catalogue_entry("48a1").curve
    monkeypatch.setattr(curves, "_ap_shanks_mestre", refuse)
    ap_count(cm, 1021)
    list(ap_sweep(cm, 1200))
    # the other eleven D: the narrowing loop gets Cornacchia's two candidates
    # p + 1 -+ t, not the Hasse interval (a model with j = -3375, D = -7)
    cm7 = WeierstrassCurve.from_model([1, -1, 0, -2, -1])
    assert cm_discriminant(cm7) == -7 and cm_splits(-7, 233)
    expect = curves._ap_legendre(cm7, 233)
    counts = []
    hits = curves._progression_hits

    def two_candidates(Q, R, count, a, p):
        counts.append(count)
        return hits(Q, R, count, a, p)

    monkeypatch.setattr(curves, "_progression_hits", two_candidates)
    assert ap_count(cm7, 233) == expect
    list(ap_sweep(cm7, 1200))
    assert counts and max(counts) <= 2
    # j = 0 and j = 1728: a residue symbol picks the unit, with no point
    # arithmetic at split (1021 = 1 mod 12) or inert primes
    monkeypatch.setattr(curves, "_ec_mul", refuse)
    for label in ("27a3", "256b2"):
        curve = catalogue_entry(label).curve
        assert cm_splits(cm_discriminant(curve), 1021)
        ap_count(curve, 1021)
        list(ap_sweep(curve, 1200))
    monkeypatch.undo()
    monkeypatch.setattr(curves, "_ap_cm", refuse)
    ap_count(plain, 1021)
    list(ap_sweep(plain, 1200))


def test_ap_sweep_rows_agree_with_ap_count():
    for label in ("256b2", "27a3", "48a1"):
        curve = catalogue_entry(label).curve
        D = cm_discriminant(curve)
        rows = list(ap_sweep(curve, 3000))
        assert [p for p, _, _ in rows] == good_primes(curve, 3000)
        for p, a_p, split in rows:
            assert a_p == ap_count(curve, p)
            assert split == (None if D is None else cm_splits(D, p))


#: Models with j = 1728 and j = 0 beyond the short ones: y^2 = x^3 - x and
#: y^2 = x^3 + 1, 2 moved by x -> x + r, y -> y + s x + t (a1, a3 != 0), with
#: rational r, s, t whose denominators divide the discriminant.
_MOVED_CM_MODELS = [
    [2, 2, 2, 0, -1],
    [1, Fraction(-1, 4), 1, Fraction(-3, 2), Fraction(-1, 4)],
    [0, 0, 0, Fraction(5, 2), 0],
    [2, 2, 2, 1, 1],
    [Fraction(2, 3), Fraction(8, 9), 1, 0, Fraction(193, 108)],
    [0, 0, 0, 0, Fraction(5, 9)],
]


@pytest.mark.parametrize("model", _MOVED_CM_MODELS, ids=str)
def test_residue_symbol_traces_match_legendre(legendre_oracle, model):
    # every good p <= 10^4; above the cutoff the split primes take the
    # quartic (j = 1728) or sextic (j = 0) residue symbol
    curve = WeierstrassCurve.from_model(model)
    D = cm_discriminant(curve)
    assert D in (-4, -3)
    for p in good_primes(curve, 10_000):
        expect = legendre_oracle(curve, p)
        assert ap_count(curve, p) == expect, p
        if p > curves._SHANKS_MESTRE_MIN_P:
            assert curves._ap_cm(curve, p, D, cm_splits(D, p)) == expect, p


@pytest.mark.parametrize("label", ["256b2", "27a3", "48a1"])
def test_quadratic_twist_multiplies_traces_by_the_character(label):
    # a_p(E^d) = (d/p) a_p(E), E^d = y^2 = x^3 + d^2 A x + d^3 B, at every
    # good p <= 10^4 of E^d
    curve = catalogue_entry(label).curve
    _, A, B = curve._short_model
    traces = {p: a_p for p, a_p, _ in ap_sweep(curve, 10_000)}
    for d in (-1, 2, -3, 5):
        rows = list(ap_sweep(WeierstrassCurve.short(d * d * A, d**3 * B), 10_000))
        assert len(rows) > 1000
        for p, a_p, _ in rows:
            chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            assert a_p == chi * traces[p], (d, p)


@pytest.mark.parametrize("model, order", [
    ([0, 1, 0, -4, -4], 4),  # 48a1: (-2, 0), (-1, 0), (2, 0)
    ([0, 0, 0, 8, 0], 2),  # 256b2: (0, 0)
    ([0, 0, 1, 0, 0], 1),  # 27a3
    ([0, 0, 0, -1, 0], 4),  # y^2 = x^3 - x
    ([0, 1, 0, Fraction(-2, 3), Fraction(-8, 27)], 4),  # y^2 = x^3 - x at x -> x + 1/3
    ([1, 0, 1, Fraction(1, 2), Fraction(3, 4)], 1),
])
def test_two_torsion_order(model, order):
    assert WeierstrassCurve.from_model(model)._two_torsion_order == order


def test_two_torsion_order_with_roots_beyond_double_precision():
    # x^3 + A x + B with the roots r, -1, -(r - 1), r = 2^53 + 1: no float
    # holds r; and (x - r)(x^2 + r x + r^2 + 1), one rational root
    r = 2**53 + 1
    e = (r, -1, 1 - r)
    A, B = e[0] * e[1] + e[0] * e[2] + e[1] * e[2], -e[0] * e[1] * e[2]
    assert WeierstrassCurve.short(A, B)._two_torsion_order == 4
    assert WeierstrassCurve.short(1, -r * (r * r + 1))._two_torsion_order == 2
    assert WeierstrassCurve.short(1, -r * (r * r + 1) + 1)._two_torsion_order == 1


def test_two_torsion_order_divides_every_group_order():
    # the Shanks-Mestre step: |E(Q)[2]| divides #E(F_p) = p + 1 - a_p at
    # every good odd p
    for entry in load_catalogue():
        if entry.model is None:
            continue
        curve = entry.curve
        n = curve._two_torsion_order
        for p, a_p, _ in ap_sweep(curve, 30_000):
            if p > 2:
                assert (p + 1 - a_p) % n == 0, (entry.label, p)


# -- CM discriminants -----------------------------------------------------------


def test_cm_discriminant_agrees_with_catalogue():
    assert len(curves.CM_DISCRIMINANTS) == 13
    for entry in load_catalogue():
        if entry.j is not None and entry.j.denominator == 1:
            assert curves.CM_DISCRIMINANTS.get(int(entry.j)) == entry.cm_discriminant
        if entry.model is not None:
            assert cm_discriminant(entry.curve) == entry.cm_discriminant


def test_cm_splits_uses_the_field_discriminant():
    # D = -4: p mod 4; D = -3: p mod 3, p = 2 inert
    assert [cm_splits(-4, p) for p in (3, 5, 7, 13)] == [False, True, False, True]
    assert [cm_splits(-3, p) for p in (2, 5, 7, 13)] == [False, False, True, True]
    # 2 splits in Q(sqrt -7) although it divides the order discriminant -28
    assert cm_splits(-28, 2) and cm_splits(-7, 2)
    assert not cm_splits(-12, 2)


# -- cornacchia ---------------------------------------------------------------


def test_cornacchia_oracle_13():
    # [DERIVED] 13 = 2^2 + 3^2: Hasse decomposition traces {+-4, +-6}
    assert cornacchia_candidates(13) == {4, -4, 6, -6}


def test_cornacchia_inert_rejected():
    # [DERIVED] p = 3 mod 4 is not a sum of two squares
    from eulerpencil.curves import InertPrimeError

    with pytest.raises(InertPrimeError):
        cornacchia_candidates(11)


@given(st.sampled_from([5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]))
@settings(max_examples=11, deadline=None)
def test_cornacchia_candidates_square_decompose(p):
    cands = cornacchia_candidates(p)
    assert cands, f"split prime {p} must decompose"
    for t in cands:
        other = p - (t // 2) ** 2
        r = int(other**0.5)
        assert max(r - 1, 0) ** 2 <= other
        assert any(s * s == other for s in (r - 1, r, r + 1))


def test_two_squares_against_naive_search_and_cornacchia():
    # every prime p = 1 mod 4 up to 10^4
    split = [p for p in primes_upto(10**4) if p % 4 == 1]
    assert len(split) == 609
    for p in split:
        a, b = two_squares(p)
        naive = [(x, y) for x in range(1, math.isqrt(p) + 1, 2)
                 for y in range(0, math.isqrt(p) + 1, 2) if x * x + y * y == p]
        assert len(naive) == 1, p
        x, y = naive[0]
        assert (abs(a), b) == (x, y) and (a + b) % 4 == 1, p
        assert cornacchia_candidates(p) == {2 * x, -2 * x, 2 * y, -2 * y}, p


def test_two_squares_errors():
    with pytest.raises(curves.InertPrimeError):
        two_squares(11)
    with pytest.raises(ArithmeticError):
        two_squares(21)  # 21 = 1 mod 4, but 3 | 21 to an odd power


# -- quartic reduction and Legendre j ----------------------------------------


def test_quartic_to_weierstrass_oracle():
    # [DERIVED] z^2 = t^4 + t^2 + 1 reduces to Y^2 = X^3 - 351X - 1890,
    # j = 35152/9 (the 48a1 class)
    A, B, j = quartic_to_weierstrass(1, 0, 1, 0, 1)
    assert (A, B) == (-351, -1890)
    assert j == Fraction(35152, 9)


def test_quartic_degenerate_rejected():
    from eulerpencil.curves import DegenerateQuarticError

    with pytest.raises(DegenerateQuarticError):
        quartic_to_weierstrass(0, 0, 1, 0, 1)


def test_legendre_j_symmetry_and_oracles():
    # [DERIVED] j(lambda) is invariant under the S3 cross-ratio action
    lam = Fraction(2, 7)
    orbit = [lam, 1 - lam, 1 / lam, 1 / (1 - lam), (lam - 1) / lam, lam / (lam - 1)]
    js = {legendre_j(mu) for mu in orbit}
    assert len(js) == 1
    # [DERIVED] lambda = -1 (harmonic) -> 1728; lambda = 2 -> 1728
    assert legendre_j(-1) == 1728
    assert legendre_j(2) == 1728
    # [DERIVED] lambda = (1 +- i sqrt 3)/2 would give 0; rational probe:
    assert legendre_j(Fraction(1, 2)) == 1728


# -- catalogue ----------------------------------------------------------------


def test_catalogue_contains_expected_labels():
    labels = {e.label for e in load_catalogue()}
    assert {"256b2", "32a2", "27a3", "48a1", "389a1"} <= labels


def test_catalogue_entry_models_reproduce_j():
    for entry in load_catalogue():
        if entry.model is not None:
            assert curve_invariants(entry.curve).j == entry.j


def test_catalogue_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cat.json"
    path.write_text(
        '[{"label": "t1", "model": [0, 0, 0, -1, 0], "j": "1728"}]'
    )
    monkeypatch.setenv(curves.ENV_CATALOGUE, str(path))
    entry = catalogue_entry("t1")
    assert entry.j == 1728


def test_catalogue_rejects_a_cm_discriminant_that_j_contradicts(tmp_path):
    rows = json.loads(resources.files("eulerpencil.data").joinpath("catalogue.json").read_text())
    assert [e.cm_discriminant for e in load_catalogue()] == [
        row.get("cm_discriminant") for row in rows]
    row = next(row for row in rows if row["label"] == "49a1")
    row["cm_discriminant"] = -8
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(ValueError, match="49a1: stored cm_discriminant -8 != -7"):
        load_catalogue(str(path))
    assert main(["catalogue", "--catalogue", str(path)]) == 2


def test_catalogue_pencils_of_criteria_5_and_6_golden():
    # the frozen pencils that acceptance criteria 5 and 6 read from here
    assert catalogue_entry("27a3").pencil_params == (-9, -1, Fraction(407, 20))
    assert catalogue_entry("389a1").pencil_params == (
        Fraction(-31, 20), Fraction(-29, 4), Fraction(-491, 50))


def test_catalogue_unknown_label():
    with pytest.raises(KeyError):
        catalogue_entry("99zz9")
