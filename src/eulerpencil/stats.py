"""Prime-sweep statistics of the canonical basepoint observable.

delta_p = (u_p - 1) * 2 sqrt(p) tracks a_p / (2 sqrt p); over a CM-by-Z[i]
curve the split-prime values equidistribute on the arcsine measure while the
inert half collapses at 0.  Also: bulk-scaling counts and the log-weighted
universal accumulation means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .continuum import arcsine_cdf
# ap_count is not called here; its binding in this module stays for
# bench/tracing.py, whose self-test traces it as stats.ap_count
from .curves import WeierstrassCurve, ap_count, ap_sweep, primes_upto  # noqa: F401

EPSILON_BOUND_C = 1.5  # |delta_p - a_p/(2 sqrt p)| <= C / sqrt(p)


class PrimeRow(NamedTuple):
    p: int
    a_p: int
    w_plus: float
    u: float
    lam: float
    delta: float
    cls: str  # "inert" | "split" | "bad"


@dataclass(frozen=True)
class PrimeSeries:
    label: str
    X: int
    rows: tuple[PrimeRow, ...]

    def split_rows(self) -> list[PrimeRow]:
        return [r for r in self.rows if r.cls == "split"]

    def inert_rows(self) -> list[PrimeRow]:
        return [r for r in self.rows if r.cls == "inert"]


def delta_p_series(curve: WeierstrassCurve, X: int) -> PrimeSeries:
    """Canonical-basepoint observables for every good prime <= X.

    w_plus is the correctly rounded float of the canonical basepoint
    w^+ = (a_p + sqrt(Delta_p))/(2p), Delta_p = 4p(p+1) - a_p^2, computed in
    integers (``matching.canonical_basepoint`` is its exact form); u, lambda
    and delta follow from it in floats.

    Verifies the fluctuation bound |delta_p - a_p/(2 sqrt p)| <= 1.5/sqrt(p)
    row by row.  On a CM curve (j in ``curves.CM_DISCRIMINANTS``) a row is
    "split" when p splits in the CM field and "inert" otherwise, so inert
    rows carry a_p = 0.  A non-CM curve has no such classes; its rows keep
    the Z[i] convention: "inert" for p = 3 mod 4, "split" for p = 1 mod 4 and
    "bad" for p = 2.
    """
    if X < 10:
        raise ValueError("X must be >= 10")
    rows = []
    for p, a_p, split in ap_sweep(curve, X):
        # 2^64 (a_p + sqrt(Delta_p)) rounded down, and one more bit that is
        # set when the root is inexact: every rounding tie of the quotient is
        # then an integer multiple of 1/(p 2^65), so the one int/int division
        # rounds w^+ itself correctly
        scaled = (4 * p * (p + 1) - a_p * a_p) << 128
        root = math.isqrt(scaled)
        w = (((a_p << 64) + root) * 2 + (root * root != scaled)) / (p << 66)
        u = math.sqrt(w)
        lam = u**3 - a_p * u / (2 * p)
        delta = (u - 1.0) * 2.0 * math.sqrt(p)
        gap = abs(delta - a_p / (2.0 * math.sqrt(p)))
        if gap > EPSILON_BOUND_C / math.sqrt(p):
            raise ArithmeticError(
                f"fluctuation bound violated at p={p}: gap={gap:.3e}"
            )
        if split is not None:
            cls = "split" if split else "inert"
        else:
            cls = "inert" if p % 4 == 3 else ("split" if p % 4 == 1 else "bad")
        rows.append(PrimeRow(p, a_p, w, u, lam, delta, cls))
    return PrimeSeries(label=str(curve), X=X, rows=tuple(rows))


class SatoTateReport(NamedTuple):
    inert_fraction: float
    split_ks_distance: float
    histogram: list[tuple[float, float, int]]  # (lo, hi, count)
    cm_warning: str | None


def ks_distance(samples: Sequence[float], cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup distance to a reference CDF."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, abs((i + 1) / n - f), abs(i / n - f))
    return d


def sato_tate_report(series: PrimeSeries, cm_by_zi: bool = True) -> SatoTateReport:
    """Inert fraction, split KS distance to the arcsine CDF, 0.1-width histogram.

    Pass cm_by_zi=False for a curve without CM: the report then carries a
    warning that the arcsine claim does not apply.
    """
    good = [r for r in series.rows if r.cls != "bad"]
    inert_fraction = len(series.inert_rows()) / len(good)
    split_deltas = [r.delta for r in series.split_rows()]
    ks = ks_distance(split_deltas, arcsine_cdf)
    deltas = [r.delta for r in good]
    lo = math.floor(min(deltas) * 10) / 10
    hi = math.ceil(max(deltas) * 10) / 10
    nbins = max(int(round((hi - lo) / 0.1)), 1)
    counts = [0] * nbins
    for d in deltas:
        k = min(int((d - lo) / 0.1), nbins - 1)
        counts[k] += 1
    histogram = [(lo + 0.1 * k, lo + 0.1 * (k + 1), counts[k]) for k in range(nbins)]
    warning = None if cm_by_zi else "non-CM curve: arcsine measure claim does not apply"
    return SatoTateReport(inert_fraction, ks, histogram, warning)


def bulk_count(series: PrimeSeries, eps: float) -> tuple[int, float]:
    """(N_delta, ratio): N_delta = #{p <= X : |delta_p| < eps}, ratio = N/pi(X).

    Compared against 1/2 + arcsin(eps)/pi (inert half plus arcsine bulk).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_delta = sum(1 for r in series.rows if abs(r.delta) < eps)
    pi_x = len(primes_upto(series.X))
    return n_delta, n_delta / pi_x


def bulk_target(eps: float) -> float:
    return 0.5 + math.asin(eps) / math.pi


class AccumulationPoint(NamedTuple):
    X: int
    u_bar: float
    lam_bar: float
    dev: float


def accumulation_means(
    curve: WeierstrassCurve, X_list: Sequence[int], series: PrimeSeries | None = None
) -> list[AccumulationPoint]:
    """Log-weighted means: u_bar(X) = sum log p * u_p / sum log p, same for lambda.

    dev = |u_bar - 1| + |lam_bar - 1|.  X_list must be ascending.
    """
    if list(X_list) != sorted(X_list):
        raise ValueError("X_list must be ascending")
    if series is None:
        series = delta_p_series(curve, max(X_list))
    out = []
    for X in X_list:
        rows = [r for r in series.rows if r.p <= X]
        weight = sum(math.log(r.p) for r in rows)
        u_bar = sum(math.log(r.p) * r.u for r in rows) / weight
        lam_bar = sum(math.log(r.p) * r.lam for r in rows) / weight
        out.append(AccumulationPoint(X, u_bar, lam_bar, abs(u_bar - 1) + abs(lam_bar - 1)))
    return out
