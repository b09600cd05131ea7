"""Exact and floating scalar arithmetic for the pencil algebra.

Provides the exact verification tier (rationals, quadratic extensions
x + y*sqrt(d), Laurent polynomials in named variables) and small
generic 2x2 matrix operations.  All values are immutable after
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

#: The exact rational scalar type.  ``fractions.Fraction`` already satisfies
#: every invariant required here (lowest terms, positive denominator,
#: canonical zero), so it is used directly.
Rational = Fraction

Scalar = Union[int, Fraction]


class DegenerateQuadraticError(ValueError):
    """Raised when the leading coefficient of a quadratic vanishes."""


class MixedRadicandError(ValueError):
    """Raised when QuadExt arithmetic would mix two distinct radicands."""


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


#: Steps between the integers prime to 30, from 7: 11, 13, 17, 19, 23, 29, 31, 37, ...
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def _square_split(n: int) -> tuple[int, int]:
    """Split an integer n >= 1 as n = s*s*k with k squarefree; return (s, k).

    Trial division runs only while i**3 <= the remaining cofactor m.  After
    it, m has no prime factor below i and m < i**3, so m is 1, a prime q, a
    product q*q' of two distinct primes, or a square q*q; one isqrt decides.
    The divisors tried are 2, 3, 5 and then only the integers prime to 30
    (a wheel), 8 in every 30 where every odd i would be 15: O(n^(1/3))
    steps, about 0.27 n^(1/3) of them.
    """
    s = k = 1
    m = n
    i = 2
    for gap in itertools.chain((1, 2, 2), itertools.cycle(_WHEEL_GAPS)):
        if i * i * i > m:
            break
        if m % i == 0:
            e = 0
            while m % i == 0:
                m //= i
                e += 1
            s *= i ** (e // 2)
            k *= i ** (e & 1)
        i += gap
    r = math.isqrt(m)
    if r * r == m:
        return s * r, k
    return s, k * m


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """Return sqrt(q) as a Fraction if q is a perfect rational square."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QuadExt:
    """An element x + y*sqrt(d) of a quadratic extension of the rationals.

    The radicand ``d`` is fixed per value; arithmetic between elements with
    distinct (non-trivial) radicands raises :class:`MixedRadicandError`
    rather than silently degrading to floats.  If ``d`` is a perfect
    rational square the value is normalised to ``y = 0`` (and ``d = 0``).

    Representation: four integers, the value being (X + Y*sqrt(k)) / Z.
    ``.x = X/Z``, ``.y = Y/Z`` and ``.d = k`` are read-only ``Fraction``
    views of them.

    Invariant: Z > 0 and gcd(X, Y, Z) = 1; ``k == 0`` exactly when
    ``Y == 0``, and otherwise ``k`` is the squarefree integer part of the
    radicand given (never 0 or 1), the rational square factor taken out of
    it being moved into ``Y``.  Equal values therefore have equal fields, and
    a rational value hashes like the equal ``Fraction``.

    Cost: construction takes O(n^(1/3)) trial divisions in
    n = |num(d) * den(d)|.  Ring results (``+``, ``-``, ``*``, ``/``,
    ``**``) inherit an operand's canonical radicand and do not canonicalise
    again: ``+`` and ``-`` take five integer products, ``*`` six and ``/``
    eleven, and each ends with one ``math.gcd(X, Y, Z)``; ``**n`` takes
    O(log n) products and ``sign`` at most three.
    """

    __slots__ = ("_X", "_Y", "_k", "_Z")

    def __init__(self, x: Scalar, y: Scalar = 0, d: Scalar = 0):
        x, y, d = _as_fraction(x), _as_fraction(y), _as_fraction(d)
        k = 0
        if y != 0:
            root = _exact_sqrt(d)
            if root is not None:
                x, y = x + y * root, Fraction(0)
            else:
                # canonicalise: d -> its squarefree integer part, so equal
                # values compare equal regardless of how they were built
                s, k = _square_split(abs(d.numerator) * d.denominator)
                y = y * s / d.denominator
                if d < 0:
                    k = -k
        # x and y are in lowest terms, so over Z = lcm of their denominators
        # gcd(X, Y, Z) = 1 already
        Z = math.lcm(x.denominator, y.denominator)
        self._X = x.numerator * (Z // x.denominator)
        self._Y = y.numerator * (Z // y.denominator)
        self._k = k
        self._Z = Z

    @classmethod
    def _from_ints(cls, X: int, Y: int, k: int, Z: int) -> "QuadExt":
        """(X + Y*sqrt(k)) / Z over a radicand k that is already canonical.

        Ring results reuse an operand's radicand, so they skip the
        canonicalisation in ``__init__``; only the common factor of
        X, Y and Z (and the sign of Z != 0) is taken out.
        """
        g = math.gcd(X, Y, Z)
        if Z < 0:
            g = -g
        if g != 1:
            X, Y, Z = X // g, Y // g, Z // g
        self = object.__new__(cls)
        self._X, self._Y, self._k, self._Z = X, Y, k if Y else 0, Z
        return self

    @property
    def x(self) -> Fraction:
        return Fraction(self._X, self._Z)

    @property
    def y(self) -> Fraction:
        return Fraction(self._Y, self._Z)

    @property
    def d(self) -> Fraction:
        return Fraction(self._k)

    # -- coercion ---------------------------------------------------------

    @classmethod
    def _coerce(cls, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return cls._from_ints(other.numerator, 0, 0, other.denominator)
        return None

    def _join(self, other: "QuadExt") -> int:
        """Common radicand of self and other, or raise."""
        if not self._Y:
            return other._k
        if not other._Y or self._k == other._k:
            return self._k
        raise MixedRadicandError(f"cannot combine sqrt({self._k}) with sqrt({other._k})")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self._join(other)
        Z1, Z2 = self._Z, other._Z
        return QuadExt._from_ints(
            self._X * Z2 + other._X * Z1, self._Y * Z2 + other._Y * Z1, k, Z1 * Z2
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._from_ints(-self._X, -self._Y, self._k, self._Z)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self._join(other)
        X1, Y1, X2, Y2 = self._X, self._Y, other._X, other._Y
        return QuadExt._from_ints(
            X1 * X2 + k * Y1 * Y2, X1 * Y2 + Y1 * X2, k, self._Z * other._Z
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        X1, Y1, X2, Y2, Z2 = self._X, self._Y, other._X, other._Y, other._Z
        # a / b = a * conj(b) * Z2 / n with n = Z2^2 norm(b), all in integers
        n = X2 * X2 - other._k * Y2 * Y2
        if n == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        k = self._join(other)
        return QuadExt._from_ints(
            (X1 * X2 - k * Y1 * Y2) * Z2, (Y1 * X2 - X1 * Y2) * Z2, k, self._Z * n
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt._from_ints(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self._Y and self._X * other.denominator == other.numerator * self._Z
        if isinstance(other, QuadExt):
            return (
                self._X == other._X
                and self._Y == other._Y
                and self._k == other._k
                and self._Z == other._Z
            )
        return NotImplemented

    def __hash__(self):
        if not self._Y:
            return hash(Fraction(self._X, self._Z))
        return hash((self._X, self._Y, self._k, self._Z))

    # -- field structure --------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value x + y*sqrt(d); requires d >= 0."""
        if self._k < 0:
            raise ValueError("sign undefined for complex QuadExt (d < 0)")
        X, Y = self._X, self._Y  # Z > 0 does not change the sign
        if Y == 0:
            return (X > 0) - (X < 0)
        if X == 0:
            return 1 if Y > 0 else -1
        if X > 0 and Y > 0:
            return 1
        if X < 0 and Y < 0:
            return -1
        # Opposite signs: compare X^2 against k*Y^2.
        dominant_x = X * X > self._k * Y * Y
        if dominant_x:
            return 1 if X > 0 else -1
        return 1 if Y > 0 else -1

    def __complex__(self) -> complex:
        # X / Z is the correctly rounded float of the Fraction x, as float(x) is
        x, y = self._X / self._Z, self._Y / self._Z
        if self._k >= 0:
            return complex(x + y * math.sqrt(self._k))
        return complex(x, y * math.sqrt(-self._k))

    def __repr__(self):
        if not self._Y:
            return f"QuadExt({self.x})"
        return f"QuadExt({self.x} + {self.y}*sqrt({self.d}))"


def quad_roots(A: Scalar, B: Scalar, C: Scalar) -> tuple[QuadExt, QuadExt]:
    """Exact roots of A*Y^2 + B*Y + C = 0, '+' branch first.

    Both roots share the radicand d = B^2 - 4AC.
    """
    A, B, C = _as_fraction(A), _as_fraction(B), _as_fraction(C)
    if A == 0:
        raise DegenerateQuadraticError("leading coefficient is zero; use the linear path")
    disc = B * B - 4 * A * C
    half = Fraction(1, 2) / A
    plus = QuadExt(-B * half, half, disc)
    minus = QuadExt(-B * half, -half, disc)
    return plus, minus


def cubic_rational_roots(c3: Scalar, c2: Scalar, c1: Scalar, c0: Scalar) -> list[Fraction]:
    """The distinct rational roots, ascending, of c3 x^3 + c2 x^2 + c1 x + c0.

    Exact, in integers only.  Clearing denominators to n3 x^3 + ... + n0 and
    putting y = n3 x gives the monic g(y) = y^3 + n2 y^2 + n1 n3 y + n0 n3^2,
    whose rational roots are integers (rational root theorem) of absolute
    value below Cauchy's bound.  g is strictly monotone on the integers
    between consecutive floors and ceilings of its critical points, so a
    bisection on each such run finds its one root, if any, with O(log |root
    bound|) evaluations of g.
    """
    coeffs = [_as_fraction(c) for c in (c3, c2, c1, c0)]
    if coeffs[0] == 0:
        raise ValueError("leading coefficient is zero: not a cubic")
    den = math.lcm(*(q.denominator for q in coeffs))
    n3, n2, n1, n0 = (int(c * den) for c in coeffs)
    b, c, d = n2, n1 * n3, n0 * n3 * n3
    bound = 1 + max(abs(b), abs(c), abs(d))
    runs = [(-bound, bound, True)]
    disc = b * b - 3 * c  # g' = 3 y^2 + 2 b y + c vanishes at (-b -+ sqrt(disc))/3
    if disc > 0:
        r = math.isqrt(disc)
        r += r * r != disc  # ceil(sqrt(disc))
        lo, hi = (-b - r) // 3, -((b - r) // 3)  # floor and ceil of the two roots of g'
        runs = [(-bound, lo, True), (lo + 1, hi - 1, False), (hi, bound, True)]
    roots = []
    for lo, hi, rising in runs:
        while lo <= hi:
            mid = (lo + hi) // 2
            v = ((mid + b) * mid + c) * mid + d
            if v == 0:
                roots.append(Fraction(mid, n3))
                break
            if (v < 0) == rising:
                lo = mid + 1
            else:
                hi = mid - 1
    return sorted(roots)


def _monomial_mul(m1: tuple, m2: tuple) -> tuple:
    """The product of two monomials: exponents added by name, zeros dropped."""
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((name, e) for name, e in exps.items() if e))


class LaurentPoly:
    """Sparse Laurent polynomial over the rationals in named variables.

    ``terms`` maps monomials to nonzero Fractions.  A monomial is a tuple of
    (name, exponent) pairs sorted by name, with no zero exponent; the
    constant monomial is ().  Exponents may be negative, so single terms are
    units and ``/`` divides by them only.  Treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: q for m, c in (terms or {}).items() if (q := _as_fraction(c))}

    @classmethod
    def term(cls, coeff, **exponents: int) -> "LaurentPoly":
        """coeff * prod name**exponent."""
        return cls({tuple(sorted((v, e) for v, e in exponents.items() if e)): coeff})

    def _coerce(self, other) -> "LaurentPoly":
        """A LaurentPoly as is, a rational as a constant; TypeError for anything else."""
        return other if isinstance(other, LaurentPoly) else LaurentPoly({(): other})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        theirs = self._coerce(other).terms.items()
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in theirs:
                m = _monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a single term, a unit of the Laurent ring."""
        other = self._coerce(other)
        if len(other.terms) != 1:  # the units are the single terms
            raise (ValueError if other.terms else ZeroDivisionError)(f"{other} is not a unit")
        ((m, c),) = other.terms.items()
        return self * LaurentPoly({tuple((v, -e) for v, e in m): 1 / c})

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** -n
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self.terms == self._coerce(other).terms

    def __repr__(self):
        return f"LaurentPoly({self.terms})"


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix over any scalar ring supporting +, -, *."""

    e11: object
    e12: object
    e21: object
    e22: object

    def trace(self):
        return self.e11 + self.e22

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def scale(self, factor) -> "Matrix2":
        return Matrix2(
            self.e11 * factor, self.e12 * factor, self.e21 * factor, self.e22 * factor
        )


def group_pseudoinverse2(m: Matrix2) -> Matrix2:
    """Group (spectral) inverse of a rank-1 2x2 matrix: m / tr(m)^2.

    For a rank-1 matrix with nonzero eigenvalue mu = tr(m), this inverts the
    spectral projection (eigenvalue mu -> 1/mu, kernel preserved), so its
    trace is 1/mu.  This differs from the Moore-Penrose inverse whenever m is
    not normal.  The rank-1 test det(m) == 0 is exact, so pass exact entries.
    """
    tr = m.trace()
    if m.det() != 0:
        raise ValueError(f"matrix is not rank-1: det = {m.det()}")
    if tr == 0:
        raise ZeroDivisionError("nilpotent rank-1 matrix has no group inverse")
    return m.scale(1 / (tr * tr))
