"""Elliptic curves over Q: invariants, point counting, quartic reduction.

The Frobenius trace ``ap_count`` is the ground truth for every matching and
statistical test.  It takes one of three paths, chosen from p and the
curve's j:

- Legendre: p <= ``_SHANKS_MESTRE_MIN_P`` = 229 (Mestre's bound) and forced
  counts at bad primes, the O(p) Legendre-symbol sweep in pure Python
  (exhaustive enumeration at p = 2).  The tests hold the two fast paths to
  a Legendre count.
- CM: larger good primes of a curve whose j is in ``CM_DISCRIMINANTS`` (the
  13 rational CM j-invariants).  a_p = 0 at an inert prime; at a split prime
  Cornacchia gives a_p up to a unit.  For j = 1728 and j = 0 a quartic or
  sextic residue symbol (one ``pow``) picks the unit; for the other eleven
  discriminants ``_narrow_order`` picks a_p from +-t, in O(log^2 p) operations.
- Shanks-Mestre: larger good primes of every other curve.  The same loop,
  ``_narrow_order``, narrows the group orders divisible by |E(Q)[2]| in the
  Hasse interval with points of E and of its twist, by baby-step giant-step:
  O((p / |E(Q)[2]|)^{1/4}) group operations per prime.

``ap_sweep`` runs the same paths over the sieved good primes up to X.  A
curated catalogue of curve/pencil data ships as package data.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .exactmath import Rational, _as_fraction, cubic_rational_roots


class SingularCurveError(ValueError):
    """Raised for Weierstrass data with vanishing discriminant."""


class BadReductionError(ValueError):
    """Raised when counting at a bad prime without force=True."""


class InertPrimeError(ValueError):
    """Raised by two_squares and cornacchia_candidates for p != 1 mod 4."""


class DegenerateQuarticError(ValueError):
    """Raised for quartics whose Jacobian is singular."""


# ---------------------------------------------------------------------------
# primes


def primes_upto(n: int) -> list[int]:
    """Ascending primes <= n (simple sieve)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


#: The first 13 primes.  As Miller-Rabin bases they decide primality exactly
#: below ``_MILLER_RABIN_BOUND`` (Sorenson-Webster, "Strong pseudoprimes to
#: twelve prime bases", Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin, O(log^3 n), below 3.3e24.

    At or above ``_MILLER_RABIN_BOUND`` a witness among the bases still proves
    n composite (False), but passing every base proves nothing there, so such
    an n raises ValueError instead of returning an unproven True.
    """
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality of {n} is not decided: it passes Miller-Rabin on the first"
            f" 13 prime bases, which proves primality only below {_MILLER_RABIN_BOUND}"
        )
    return True


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q."""

    a1: Rational
    a2: Rational
    a3: Rational
    a4: Rational
    a6: Rational
    label: Optional[str] = None

    @classmethod
    def from_model(cls, model: Iterable, label: Optional[str] = None) -> "WeierstrassCurve":
        a1, a2, a3, a4, a6 = (_as_fraction(Fraction(str(c))) for c in model)
        return cls(a1, a2, a3, a4, a6, label)

    @classmethod
    def short(cls, a4, a6, label: Optional[str] = None) -> "WeierstrassCurve":
        return cls.from_model([0, 0, 0, a4, a6], label)

    def __str__(self):
        return self.label or f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"

    # Per-curve data that point counting reads at every prime, computed once
    # and kept on the instance (cached_property writes to its __dict__, which
    # the frozen dataclass allows).

    @cached_property
    def _invariants(self) -> "CurveInvariants":
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        disc = (c4**3 - c6**2) / 1728
        if disc == 0:
            raise SingularCurveError(f"curve {self} is singular (disc = 0)")
        return CurveInvariants(b2, b4, b6, b8, c4, c6, disc, c4**3 / disc)

    @cached_property
    def _short_model(self) -> tuple[int, Fraction, Fraction]:
        """(den, A, B): y^2 = x^3 + A x + B with A = -27 c4, B = -54 c6.

        den is the lcm of the model's denominators, so the model reduces mod
        p exactly when p does not divide den.
        """
        inv = self._invariants
        den = math.lcm(*(c.denominator for c in (self.a1, self.a2, self.a3, self.a4, self.a6)))
        return den, -27 * inv.c4, -54 * inv.c6

    @cached_property
    def _two_torsion_order(self) -> int:
        """|E(Q)[2]|: 1 plus the number of rational roots of x^3 + A x + B.

        The roots are found and confirmed exactly (``cubic_rational_roots``).
        Reduction is injective on E(Q)[2] at every good odd prime, so this
        divides #E(F_p) there.
        """
        _, A, B = self._short_model
        return 1 + len(cubic_rational_roots(1, 0, A, B))


class CurveInvariants(NamedTuple):
    b2: Rational
    b4: Rational
    b6: Rational
    b8: Rational
    c4: Rational
    c6: Rational
    disc: Rational
    j: Rational


def curve_invariants(curve: WeierstrassCurve) -> CurveInvariants:
    """Standard Weierstrass invariants (b2, b4, b6, b8, c4, c6, disc, j)."""
    return curve._invariants


def _coeff_mod(c: Fraction, p: int) -> int:
    if c.denominator % p == 0:
        raise BadReductionError(f"coefficient {c} not p-integral at p={p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def _short_model_mod(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(A mod p, B mod p) of the short model; BadReductionError if the model
    itself does not reduce mod p, as in the Legendre sweep."""
    den, A, B = curve._short_model
    if den % p == 0:
        for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6):
            _coeff_mod(c, p)  # raises, naming the coefficient
    return _coeff_mod(A, p), _coeff_mod(B, p)


def is_good_prime(curve: WeierstrassCurve, p: int) -> bool:
    disc = curve_invariants(curve).disc
    if disc.denominator % p == 0:
        return False
    return disc.numerator % p != 0


def ap_count(curve: WeierstrassCurve, p: int, force: bool = False) -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p), by one of three paths.

    - Legendre: p <= ``_SHANKS_MESTRE_MIN_P`` = 229, and every call with
      force=True (bad reduction), go through the O(p) Legendre-symbol sweep
      ``_ap_legendre``.
    - CM: good primes above the cutoff on a curve with CM (its j is in
      ``CM_DISCRIMINANTS``) go through ``_ap_cm``: a_p = 0 at an inert
      prime; at a split one Cornacchia, then one residue symbol (``pow``)
      for j = 1728 and j = 0, or ``_narrow_order`` on the two group orders
      p + 1 -+ t for the other eleven discriminants, O(log^2 p) operations.
    - Shanks-Mestre: good primes above the cutoff on every other curve go
      through ``_narrow_order`` (Cohen, GTM 138, 7.4.2) over the group
      orders divisible by |E(Q)[2]|, O((p / |E(Q)[2]|)^{1/4}) curve
      operations per prime: about 60 at p ~ 3e4 when E(Q)[2] is trivial.

    Bad primes are rejected unless force=True.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not is_good_prime(curve, p) and not force:
        raise BadReductionError(f"p={p} is a bad prime for {curve}")
    if force:
        return _ap_legendre(curve, p)
    D = cm_discriminant(curve)
    return _ap_good(curve, p, D, None if D is None else cm_splits(D, p))


def ap_sweep(curve: WeierstrassCurve, X: int) -> Iterator[tuple[int, int, Optional[bool]]]:
    """(p, a_p, split) for each good prime p <= X, ascending.

    a_p is what ``ap_count`` returns; the primes come from the sieve, so no
    primality test runs per prime.  split is ``cm_splits(D, p)`` on a curve
    with CM by the order of discriminant D and None on a curve without CM.
    """
    D = cm_discriminant(curve)
    for p in good_primes(curve, X):
        split = None if D is None else cm_splits(D, p)
        yield p, _ap_good(curve, p, D, split), split


def _ap_good(curve: WeierstrassCurve, p: int, D: Optional[int], split: Optional[bool]) -> int:
    """a_p at a good prime p, on the path ``ap_count`` documents."""
    if p <= _SHANKS_MESTRE_MIN_P:
        return _ap_legendre(curve, p)
    if D is None:
        return _ap_shanks_mestre(curve, p)
    return _ap_cm(curve, p, D, split)


def _ap_legendre(curve: WeierstrassCurve, p: int) -> int:
    """a_p by direct point counting at any prime, good or bad.

    Odd p: complete the square, g(x) = 4(x^3+a2 x^2+a4 x+a6) + (a1 x+a3)^2,
    and a_p = -sum_x chi_p(g(x)) with chi_p the Legendre symbol, read from a
    table of the squares mod p.  g runs over x = 0..p-1 by finite
    differences (its third difference is the constant 24).  p = 2:
    exhaustive enumeration.
    """
    a1, a2, a3, a4, a6 = (_coeff_mod(c, p) for c in
                          (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    if p == 2:
        count = 1  # point at infinity
        for x in range(2):
            for y in range(2):
                lhs = (y * y + a1 * x * y + a3 * y) % 2
                rhs = (x * x * x + a2 * x * x + a4 * x + a6) % 2
                if lhs == rhs:
                    count += 1
        return p + 1 - count
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    # g(x) = 4 x^3 + c2 x^2 + c1 x + c0
    c2, c1, c0 = (4 * a2 + a1 * a1) % p, (4 * a4 + 2 * a1 * a3) % p, (4 * a6 + a3 * a3) % p
    d2 = accumulate(repeat(24), initial=24 + 2 * c2)  # second differences
    g = accumulate(accumulate(d2, initial=4 + c2 + c1), initial=c0)
    return -sum(map(chi.__getitem__, map(operator.mod, islice(g, p), repeat(p))))


# Shanks-Mestre.  Mestre's theorem: for p > 229, E or its quadratic twist E'
# has a point whose order has exactly one multiple in the Hasse interval, so
# intersecting the group orders that points of E and E' allow always ends at
# a single #E.  Points are affine (x, y) tuples over F_p, None is the point at
# infinity, and ``a`` is the x-coefficient of the short model they lie on.

#: Good primes above this are counted by Shanks-Mestre (or the CM path), the
#: rest by the Legendre sweep.  Must be >= 229 (Mestre's bound), and sits on
#: it because the fast paths already win there: per prime on a 2-CPU x86-64
#: VM (CPython 3.11), the pure-Python Legendre sweep takes ~26 us at p ~ 230
#: and ~115 us at p ~ 1000, Shanks-Mestre ~13 and ~25 us, the CM path 4-14 us.
_SHANKS_MESTRE_MIN_P = 229


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p (b is implied by the points)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    """k P for k >= 0 by left-to-right double-and-add.

    The running point is kept in Jacobian coordinates, (x, y) = (X/Z^2,
    Y/Z^3) with Z = 0 for O, so the one modular inversion is the final one.
    """
    if k == 0 or P is None:
        return None
    px, py = P
    X, Y, Z = px, py, 1
    for bit in bin(k)[3:]:
        if Z:  # doubling; Z = 2YZ vanishes exactly when 2R = O
            YY = Y * Y % p
            S = 4 * X * YY % p
            ZZ = Z * Z % p
            M = (3 * X * X + a * ZZ * ZZ) % p
            X2 = (M * M - 2 * S) % p
            X, Y, Z = X2, (M * (S - X2) - 8 * YY * YY) % p, 2 * Y * Z % p
        if bit == "1":  # adding P
            if not Z:
                X, Y, Z = px, py, 1
                continue
            ZZ = Z * Z % p
            H = (px * ZZ - X) % p
            r = (py * ZZ * Z - Y) % p
            if not H:  # R = P or R = -P
                R = _ec_add(P, P, a, p) if not r else None
                X, Y, Z = (0, 1, 0) if R is None else (*R, 1)
                continue
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X2 = (r * r - HHH - 2 * V) % p
            X, Y, Z = X2, (r * (V - X2) - Y * HHH) % p, Z * H % p
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 * zi % p


def _progression_hits(Q, R, count: int, a: int, p: int) -> list[int]:
    """Ascending t in [0, count) with Q + t R = O, by baby-step giant-step.

    Baby steps store x(jR) for 1 <= j <= m; giant steps G_i = Q + i(2m+1)R
    then meet +-jR exactly when t = i(2m+1) -+ j is a solution.  If R has
    order n <= 2m (seen as O, a 2-torsion point or a repeated x among the
    baby steps), t is found in [0, n) directly.  The solutions always form
    an arithmetic progression with difference ord(R).
    """
    m = max(1, math.isqrt(count // 2))
    baby: dict[int, tuple[int, int]] = {}
    jR = None
    for j in range(1, m + 1):
        jR = _ec_add(jR, R, a, p)
        if jR is None:
            n = j
        elif jR[1] == 0:
            n = 2 * j
        elif jR[0] in baby:
            i, y = baby[jR[0]]
            n = j - i if y == jR[1] else j + i
        else:
            baby[jR[0]] = (j, jR[1])
            continue
        G = Q
        for t in range(min(n, count)):
            if G is None:
                return list(range(t, count, n))
            G = _ec_add(G, R, a, p)
        return []
    giant = 2 * m + 1
    # the stride (2m+1) R, only when a second giant step follows
    sR = _ec_add(jR, _ec_add(jR, R, a, p), a, p) if count + m > giant else None
    hits = []
    G = Q
    for base in range(0, count + m, giant):
        if base:
            G = _ec_add(G, sR, a, p)
        if G is None:
            hits.append(base)
        else:
            hit = baby.get(G[0])
            if hit is not None:
                hits.append(base - hit[0] if G[1] == hit[1] else base + hit[0])
    return [t for t in hits if 0 <= t < count]


def _twist_points(A: int, B: int, p: int) -> Iterator[tuple[tuple[int, int], int, bool]]:
    """(P, a, on_twist) for x = 1, ..., p - 1 with f = x^3 + A x + B != 0 mod p.

    P = (x f, f^2) is on y^2 = X^3 + a X + B f^3, a = A f^2: on y^2 = x^3 + A x + B
    if f is a square mod p, else on its twist.  x = 0 is skipped: on j = 0
    curves (A = 0) it always gives a point of order 3.
    """
    half = (p - 1) // 2
    for x in range(1, p):
        f = ((x * x + A) * x + B) % p
        if f == 0:
            continue
        ff = f * f % p
        yield (x * f % p, ff), A * ff % p, pow(f, half, p) != 1


def _ap_shanks_mestre(curve: WeierstrassCurve, p: int) -> int:
    """a_p at a good prime p > 229 (p > 3) by Shanks-Mestre.

    The candidates for #E start as the multiples of n = |E(Q)[2]| in the
    Hasse interval, since n divides #E(F_p): about 2 sqrt(p) / n of them,
    which ``_narrow_order`` narrows with baby and giant steps of
    ~2 (p / n^2)^{1/4} group operations each (~60 in all at p ~ 3e4 for
    n = 1, ~30 for n = 4), next to the two scalar multiplications per
    point.  About 85 us per prime at p ~ 3e4 on 48a1 (n = 4) on a 2-CPU
    x86-64 VM (CPython 3.11).
    """
    A, B = _short_model_mod(curve, p)
    r = math.isqrt(4 * p)
    step = curve._two_torsion_order
    start = -(-(p + 1 - r) // step) * step
    return _narrow_order(curve, p, A, B, start, step, (p + 1 + r - start) // step + 1)


def _narrow_order(curve: WeierstrassCurve, p: int, A: int, B: int,
                  start: int, step: int, count: int) -> int:
    """a_p of y^2 = x^3 + A x + B at p > 229, given #E = start + t step, 0 <= t < count.

    Each point P of ``_twist_points`` keeps the candidates it allows, found
    by ``_progression_hits``: [#E] P = O on E, or [2p + 2 - #E] P = O on
    the twist.  They stay a progression, and Mestre's theorem bounds the
    points drawn until one is left: two scalar multiplications per point,
    plus the baby and giant steps.  Falls back to the Legendre sweep if x
    reaches p.
    """
    for P, a, on_twist in _twist_points(A, B, p):
        R = _ec_mul(step, P, a, p)
        if on_twist:
            Q = _ec_mul(2 * p + 2 - start, P, a, p)
            R = None if R is None else (R[0], -R[1] % p)
        else:
            Q = _ec_mul(start, P, a, p)
        hits = _progression_hits(Q, R, count, a, p)
        if not hits:
            raise ArithmeticError(f"no group order of {curve} at p={p} fits point {P}")
        start += hits[0] * step
        if len(hits) == 1:
            return p + 1 - start
        step *= hits[1] - hits[0]
        count = len(hits)
    return _ap_legendre(curve, p)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a quadratic residue a mod an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s, q odd
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _cornacchia(D: int, p: int) -> tuple[int, int]:
    """(t, s), both >= 0, with 4p = t^2 + |D| s^2 (Cohen, GTM 138, Alg. 1.5.3).

    D < 0 is a discriminant (0 or 1 mod 4) and p an odd prime, p not
    dividing D, with (D/p) = 1.  Raises ArithmeticError when the equation has
    no solution, which for the 13 class-number-one D means p does not split.
    """
    b = _sqrt_mod(D, p)
    if (b - D) % 2:
        b = p - b
    a, limit = 2 * p, math.isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    c, rest = divmod(4 * p - b * b, -D)
    s = math.isqrt(c)
    if rest or s * s != c:
        raise ArithmeticError(f"4p = t^2 + {-D} s^2 has no solution at p={p}")
    return b, s


def _ap_cm(curve: WeierstrassCurve, p: int, D: int, split: bool) -> int:
    """a_p at a good prime p > 229 of a curve with CM by the order of discriminant D.

    split is ``cm_splits(D, p)``.  An inert prime gives a_p = 0.  At a split
    prime Frobenius is (a_p + s sqrt D)/2 in the CM order, so Cornacchia's
    4p = t^2 + |D| s^2 fixes a_p up to a unit.

    - D = -4 and D = -3: the unit is a quartic or sextic residue symbol of
      the short model's A or B (``_ap_j1728``, ``_ap_j0``), one ``pow``.
      Cost per split prime: Cornacchia's Tonelli-Shanks and Euclid, about
      O(log^2 p), and no point arithmetic; 10-21 us for p from 10^3 to
      10^6 on a 2-CPU x86-64 VM (CPython 3.11).
    - The other eleven D: a_p = +-t, so #E is one of the two-term
      progression p + 1 - t, p + 1 + t, which ``_narrow_order`` narrows as
      it does Shanks-Mestre's: two scalar multiplications of O(log p) group
      operations per point, and no baby- or giant-step addition.
    """
    A, B = _short_model_mod(curve, p)
    if not split:
        return 0
    t, s = _cornacchia(D, p)
    if D == -4:
        return _ap_j1728(A, p, *_primary_gaussian(t, s))
    if D == -3:
        return _ap_j0(B, p, *_primary_eisenstein(t, s))
    return _narrow_order(curve, p, A, B, p + 1 - t, 2 * t, 2)


# The two CM curves with extra units (Ireland & Rosen, "A Classical
# Introduction to Modern Number Theory", GTM 84, ch. 18, sections 3-4).  p
# splits as p = pi pi-bar with pi primary, and the embedding of the CM order
# into F_p that sends pi to 0 sends i (or omega) to -a/b, b != 0 mod p.  The
# residue symbol chi = (c/pi)_k is the k-th root of unity that c^((p-1)/k)
# maps to, and a_p = Tr(chi-bar pi) up to sign.


def _primary_gaussian(t: int, s: int) -> tuple[int, int]:
    """(a, b), b > 0, with pi = a + b i primary (a odd, b even, a + b = 1 mod 4).

    (t, s) is Cornacchia's 4p = t^2 + 4 s^2, so p = (t/2)^2 + s^2 = N(pi).
    """
    a, b = (t // 2, s) if s % 2 == 0 else (s, t // 2)
    return (a if (a + b) % 4 == 1 else -a), b


def _primary_eisenstein(t: int, s: int) -> tuple[int, int]:
    """(a, b) with pi = a + b omega primary (a = 2, b = 0 mod 3), omega^2 + omega + 1 = 0.

    (t, s) is Cornacchia's 4p = t^2 + 3 s^2 = (2a - b)^2 + 3 b^2 = 4 N(pi);
    of the six associates of (t + s)/2 + s omega exactly one is primary.
    """
    a, b = (t + s) // 2, s
    while b % 3:
        a, b = -b, a - b  # times omega
    return (a, b) if a % 3 == 2 else (-a, -b)


def _ap_j1728(A: int, p: int, a: int, b: int) -> int:
    """a_p of y^2 = x^3 + A x at a prime p = 1 mod 4, pi = a + b i primary.

    chi = (-A/pi)_4 and a_p = 2 Re(chi-bar pi): 2a, -2a, 2b or -2b for
    chi = 1, -1, i, -i.
    """
    chi = pow(-A, (p - 1) // 4, p)
    if chi == 1:
        return 2 * a
    if chi == p - 1:
        return -2 * a
    return 2 * b if (chi * b + a) % p == 0 else -2 * b


def _ap_j0(B: int, p: int, a: int, b: int) -> int:
    """a_p of y^2 = x^3 + B at a prime p = 1 mod 3, pi = a + b omega primary.

    chi = (4B/pi)_6 and a_p = -Tr(chi-bar pi), with Tr(x + y omega) = 2x - y.
    The unit c + d omega maps to (c b - d a)/b, so chi * b picks it.
    """
    chi = pow(4 * B, (p - 1) // 6, p)
    if chi == 1:
        return b - 2 * a
    if chi == p - 1:
        return 2 * a - b
    chi_b = chi * b % p
    if chi_b == -a % p:  # chi = omega
        return a - 2 * b
    if chi_b == a % p:  # chi = -omega
        return 2 * b - a
    return a + b if chi_b == (a - b) % p else -a - b  # chi = omega^2 or -omega^2


def good_primes(curve: WeierstrassCurve, X: int) -> list[int]:
    """Ascending good primes p <= X."""
    return [p for p in primes_upto(X) if is_good_prime(curve, p)]


def hasse_check(a_p: int, p: int) -> bool:
    """Hasse bound a_p^2 <= 4p."""
    return a_p * a_p <= 4 * p


def two_squares(p: int) -> tuple[int, int]:
    """p = a^2 + b^2 with a odd, b even and a + b = 1 mod 4, for a prime p = 1 mod 4.

    This (a, b) is unique: the CM-by-Z[i] rule gives a_p(y^2 = x^3 - x) = 2a.
    It comes from the CM path's Cornacchia with D = -4.  Raises
    InertPrimeError unless p = 1 mod 4 and ArithmeticError when p is not
    prime.
    """
    if p % 4 != 1:
        raise InertPrimeError(f"p={p} is not 1 mod 4")
    if not is_prime(p):
        raise ArithmeticError(f"p={p} is not prime")
    return _primary_gaussian(*_cornacchia(-4, p))


def cornacchia_candidates(p: int) -> set[int]:
    """Candidate traces {+-2a, +-2b} with a^2+b^2=p, a odd, b even."""
    a, b = two_squares(p)
    return {2 * a, -2 * a, 2 * b, -2 * b}


#: The 13 rational j-invariants with complex multiplication, each mapped to
#: the discriminant D of its CM order (the 13 imaginary quadratic orders of
#: class number one).
CM_DISCRIMINANTS: dict[int, int] = {
    0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12,
    287496: -16, -884736: -19, -12288000: -27, 16581375: -28,
    -884736000: -43, -147197952000: -67, -262537412640768000: -163,
}


def cm_discriminant(curve: WeierstrassCurve) -> Optional[int]:
    """Discriminant of the curve's CM order, read from j; None without CM."""
    return CM_DISCRIMINANTS.get(curve_invariants(curve).j)


def cm_splits(D: int, p: int) -> bool:
    """Whether the Kronecker symbol (d_K/p) is +1: p splits in the CM field.

    d_K is the field discriminant of the order discriminant D = f^2 d_K, so
    the answer also holds at primes dividing the conductor f (p = 2 splits
    for D = -28).  At a good prime of a CM curve, p splits exactly when E is
    ordinary, so a non-split good prime has a_p = 0 once p > 3.
    """
    for f in (2, 3):
        while D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
            D //= f * f
    if p == 2:
        return D % 8 == 1
    return pow(D % p, (p - 1) // 2, p) == 1


# ---------------------------------------------------------------------------
# quartic reduction and the Legendre cross-ratio


def quartic_to_weierstrass(a, b, c, d, e) -> tuple[Rational, Rational, Rational]:
    """Jacobian of the plane quartic a X^4 + b X^3 + c X^2 + d X + e.

    Coefficients are plain (unweighted).  Returns (A, B, j) with the
    Jacobian in the form Y^2 = X^3 + A X + B, A = -27 I, B = -27 J.
    """
    big_i, big_j = quartic_invariants(a, b, c, d, e)
    A, B = -27 * big_i, -27 * big_j
    try:
        j = curve_invariants(WeierstrassCurve.short(A, B)).j
    except SingularCurveError as exc:
        raise DegenerateQuarticError(f"quartic has singular Jacobian: {exc}") from exc
    return A, B, j


def quartic_invariants(a, b, c, d, e) -> tuple[Rational, Rational]:
    """The I, J invariants of the plain-coefficient quartic."""
    a, b, c, d, e = (_as_fraction(v) for v in (a, b, c, d, e))
    big_i = 12 * a * e - 3 * b * d + c * c
    big_j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return big_i, big_j


def legendre_j(lam_cr):
    """j from the Legendre cross-ratio: 256 (l^2-l+1)^3 / (l^2 (l-1)^2)."""
    if lam_cr == 0 or lam_cr == 1:
        raise ZeroDivisionError("Legendre cross-ratio at a pole (0 or 1)")
    if isinstance(lam_cr, (int, Fraction)):
        lam_cr = _as_fraction(lam_cr)
    num = 256 * (lam_cr * lam_cr - lam_cr + 1) ** 3
    den = lam_cr * lam_cr * (lam_cr - 1) ** 2
    return num / den


# ---------------------------------------------------------------------------
# catalogue


@dataclass(frozen=True)
class CatalogueEntry:
    label: str
    model: Optional[tuple[int, int, int, int, int]] = None
    j: Optional[Rational] = None
    cm_discriminant: Optional[int] = None
    pencil_params: Optional[tuple[Rational, Rational, Rational]] = None
    source: str = ""

    @property
    def curve(self) -> Optional[WeierstrassCurve]:
        if self.model is None:
            return None
        return WeierstrassCurve.from_model(self.model, self.label)


ENV_CATALOGUE = "EULER_PENCIL_CATALOGUE"


def _parse_rational(s) -> Rational:
    return Fraction(str(s))


def load_catalogue(path: Optional[str] = None) -> list[CatalogueEntry]:
    """Load the curve/pencil catalogue (seed file, env override, or path).

    A row's cm_discriminant defaults to, and must equal, CM_DISCRIMINANTS[j].
    """
    if path is None:
        path = os.environ.get(ENV_CATALOGUE)
    if path is None:
        raw = resources.files("eulerpencil.data").joinpath("catalogue.json").read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    entries = []
    for row in json.loads(raw):
        model = tuple(int(c) for c in row["model"]) if row.get("model") else None
        j = _parse_rational(row["j"]) if row.get("j") is not None else None
        pencil = (
            tuple(_parse_rational(c) for c in row["pencil_params"])
            if row.get("pencil_params")
            else None
        )
        D = CM_DISCRIMINANTS.get(j)
        if row.get("cm_discriminant", D) != D:
            raise ValueError(f"catalogue entry {row['label']}: stored cm_discriminant"
                             f" {row['cm_discriminant']} != {D}, the CM discriminant of j = {j}")
        entry = CatalogueEntry(
            label=row["label"],
            model=model,
            j=j,
            cm_discriminant=D,
            pencil_params=pencil,
            source=row.get("source", ""),
        )
        if entry.model is not None and entry.j is not None:
            computed = curve_invariants(entry.curve).j
            if computed != entry.j:
                raise ValueError(
                    f"catalogue entry {entry.label}: stored j {entry.j} != computed {computed}"
                )
        entries.append(entry)
    return entries


def catalogue_entry(label: str, path: Optional[str] = None) -> CatalogueEntry:
    for entry in load_catalogue(path):
        if entry.label == label:
            return entry
    raise KeyError(f"no catalogue entry with label {label!r}")
