"""Shared test oracles."""

import numpy as np
import pytest


def _numpy_legendre_ap(curve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) by a vectorised Legendre-symbol count.

    Written apart from ``curves._ap_legendre`` (numpy arrays in place of its
    table and finite differences), so that the library's count and the fast
    paths are checked against a second implementation.  The model must be
    p-integral.
    """
    a1, a2, a3, a4, a6 = (c.numerator * pow(c.denominator, -1, p) % p
                          for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    if p == 2:
        on_curve = sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                       for x in (0, 1) for y in (0, 1))
        return 2 - on_curve
    x = np.arange(p, dtype=np.int64)
    cubic = ((x * x % p + a2 * x + a4) % p * x + a6) % p
    g = (4 * cubic + ((a1 * x + a3) % p) ** 2) % p
    is_square = np.zeros(p, dtype=bool)
    is_square[x * x % p] = True
    chi = np.where(g == 0, 0, np.where(is_square[g], 1, -1))
    return -int(chi.sum())


@pytest.fixture(scope="session")
def legendre_oracle():
    """The numpy Legendre count ``(curve, p) -> a_p``, p prime, model p-integral."""
    return _numpy_legendre_ap
