"""Prime-sweep statistics tests over the CM curve 256b2."""

import math
from decimal import Decimal, localcontext

import pytest

from eulerpencil.continuum import arcsine_cdf
from eulerpencil.curves import catalogue_entry, primes_upto
from eulerpencil.stats import (
    EPSILON_BOUND_C,
    accumulation_means,
    bulk_count,
    bulk_target,
    delta_p_series,
    ks_distance,
    sato_tate_report,
)


@pytest.fixture(scope="module")
def series_1e4():
    curve = catalogue_entry("256b2").curve
    return curve, delta_p_series(curve, 10_000)


# -- delta_p series -----------------------------------------------------------


def test_series_rows_and_classes(series_1e4):
    _, series = series_1e4
    assert series.X == 10_000
    # every odd prime up to X is good for 256b2 and classified mod 4
    assert len(series.rows) == len(primes_upto(10_000)) - 1
    for r in series.rows:
        assert r.cls == ("inert" if r.p % 4 == 3 else "split")
        # inert primes carry a_p = 0 exactly
        if r.cls == "inert":
            assert r.a_p == 0
        # fluctuation bound (also enforced internally)
        gap = abs(r.delta - r.a_p / (2.0 * math.sqrt(r.p)))
        assert gap <= EPSILON_BOUND_C / math.sqrt(r.p)
        # w_plus is the square of the principal u
        assert abs(r.u * r.u - r.w_plus) <= 1e-12


def test_series_d3_classes_from_cm_discriminant(legendre_oracle):
    # [DERIVED] 27a3 has CM by Z[zeta_3]: p inert iff p = 2 mod 3, and every
    # inert good prime (p = 2 included) has a point-counted a_p = 0
    curve = catalogue_entry("27a3").curve
    series = delta_p_series(curve, 10_000)
    assert len(series.rows) == len(primes_upto(10_000)) - 1  # only p = 3 is bad
    assert series.rows[0].p == 2 and series.rows[0].cls == "inert"
    for r in series.rows:
        assert r.cls == ("inert" if r.p % 3 == 2 else "split")
        assert (r.a_p == 0) == (r.cls == "inert")
        if r.cls == "inert":
            assert legendre_oracle(curve, r.p) == 0


def test_series_non_cm_keeps_mod_4_classes():
    series = delta_p_series(catalogue_entry("48a1").curve, 1000)
    for r in series.rows:
        assert r.cls == ("inert" if r.p % 4 == 3 else "split")


@pytest.mark.parametrize("label", ["256b2", "48a1"])
def test_w_plus_is_correctly_rounded(label):
    # every row against a 60-digit decimal reference of (a_p + sqrt(Delta_p))/(2p)
    series = delta_p_series(catalogue_entry(label).curve, 30_000)
    assert len(series.rows) > 3000
    with localcontext() as ctx:
        ctx.prec = 60
        for r in series.rows:
            disc = 4 * r.p * (r.p + 1) - r.a_p * r.a_p
            reference = (r.a_p + Decimal(disc).sqrt()) / (2 * r.p)
            assert r.w_plus == float(reference), r.p


def test_series_rejects_tiny_X(series_1e4):
    curve, _ = series_1e4
    with pytest.raises(ValueError):
        delta_p_series(curve, 5)


# -- KS distance --------------------------------------------------------------


def test_ks_distance_sanity():
    # uniform grid against the uniform CDF is within 1/n
    n = 100
    xs = [(i + 0.5) / n for i in range(n)]
    assert ks_distance(xs, lambda t: max(0.0, min(1.0, t))) <= 1.0 / n + 1e-12
    # a point mass far from the arcsine bulk is maximally distant
    assert ks_distance([-0.999], arcsine_cdf) > 0.9
    with pytest.raises(ValueError):
        ks_distance([], arcsine_cdf)


# -- Sato-Tate report ---------------------------------------------------------


def test_sato_tate_report_oracle(series_1e4):
    # [DERIVED] at X = 10^4: inert fraction 0.5041, split KS 0.0282
    _, series = series_1e4
    rep = sato_tate_report(series)
    assert abs(rep.inert_fraction - 0.5) <= 0.02
    assert rep.split_ks_distance <= 0.05
    assert rep.cm_warning is None
    assert sum(c for _, _, c in rep.histogram) == len(series.rows)
    for lo, hi, _ in rep.histogram:
        assert abs((hi - lo) - 0.1) <= 1e-9


def test_sato_tate_non_cm_warning(series_1e4):
    _, series = series_1e4
    rep = sato_tate_report(series, cm_by_zi=False)
    assert rep.cm_warning is not None


# -- bulk scaling -------------------------------------------------------------


def test_bulk_count_tracks_target(series_1e4):
    _, series = series_1e4
    for eps in (0.25, 0.5, 0.75):
        _, ratio = bulk_count(series, eps)
        assert abs(ratio - bulk_target(eps)) <= 0.03
    with pytest.raises(ValueError):
        bulk_count(series, 1.5)


def test_bulk_target_limits():
    assert bulk_target(1e-9) == pytest.approx(0.5)
    assert bulk_target(1.0) == pytest.approx(1.0)


# -- accumulation means -------------------------------------------------------


def test_accumulation_means_decreasing_dev(series_1e4):
    curve, series = series_1e4
    pts = accumulation_means(curve, [100, 1000, 10_000], series=series)
    devs = [pt.dev for pt in pts]
    assert devs[0] > devs[1] > devs[2]
    # [DERIVED] dev(10^3) = 2.1e-3, dev(10^4) = 2.9e-4
    assert devs[1] <= 5e-3
    assert devs[2] <= 5e-4


def test_accumulation_means_requires_ascending(series_1e4):
    curve, series = series_1e4
    with pytest.raises(ValueError):
        accumulation_means(curve, [1000, 100], series=series)
