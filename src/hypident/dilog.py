"""Rogers dilogarithm, classical dilogarithm, and the lasso combination.

The classical dilogarithm is Li2(z) = sum_{n>=1} z^n / n^2 for |z| <= 1,
continued to all real z <= 1.  The Rogers normalization

    L(z) = Li2(z) + (1/2) log|z| log(1 - z)

is monotone increasing on (-inf, 1] with the special values L(0) = 0,
L(1/2) = pi^2/12, L(1) = pi^2/6 and L(-1) = -pi^2/12, and it satisfies

    Euler       L(x) + L(1 - x)     = pi^2/6          for 0 <= x <= 1
    inversion   L(-x) + L(-1/x)     = -pi^2/6         for x > 0
    Landen      L(-x/(1 - x))       = -L(x)           for 0 <= x <= 1
    pentagon    L(x) + L(y) + L((1-x)/(1-xy)) + L((1-y)/(1-xy))
                                    = L(xy) + pi^2/3  for x, y in (0, 1)

as well as L(z) -> -pi^2/6 as z -> -inf.

Every evaluation below reduces to the power series on |z| <= 1/2 through
exactly one of those equations:

    (1/2, 1)    Euler,     argument 1 - z      in (0, 1/2)
    [-1, -1/2)  Landen,    argument z/(z - 1)  in (1/3, 1/2]
    (-inf, -1)  inversion, argument 1/z        in (-1, 0)

so each branch sums a series with ratio at most 1/2.

The Euler and Landen branches sum that series directly; only inversion
recurses, once, into the series or the Landen branch.

Near z = 1/2 the difference of two values cancels.  `rogers_odd_series`
gives it as one odd series in s (Zagier, "The Dilogarithm Function", 2007,
for the reflections behind it):

    D(s) = L((1+s)/2) - L((1-s)/2) = sum_{n>=0} a_n s^{2n+1},
    a_n  = (2 log 2 - sum_{k=1}^{n} 1/(k(2k-1))) / (2n+1),

where the numerators are the tails of 2 log 2 = sum_{k>=1} 1/(k(2k-1)),
so 1.3862944 = a_0 > a_1 > ... > 0.  It is summed for 0 <= s <= e^{-1},
where sixteen terms leave a truncation error below half an ulp; 2 D(e^{-b})
is the cusped bracket's 2L((1+e^{-b})/2) - 2L((1-e^{-b})/2), accurate
relative to its size e^{-b} for every b >= 1.

The lasso combination

    La(x, y) = L(y) + L((1-y)/(1-xy)) - L((1-x)/(1-xy))

is defined on the square 0 <= x, y <= 1 away from the corner xy = 1.
"""

import math
from math import exp, fsum, inf, log, log1p, pi

from .errors import DomainError, SingularInputError

__all__ = ["li2", "rogers", "rogers_odd_series", "ODD_SERIES_MAX", "lasso", "PI2_6"]

PI2_6 = pi * pi / 6.0

# Series terms decay at ratio <= 1/2, so the cap is never reached.
_SERIES_EPS = 1e-17
_SERIES_CAP = 200
_SQUARES = tuple(float(n * n) for n in range(1, _SERIES_CAP + 1))

# D(s) is summed for s <= e^{-1}.  Since a_n decreases, the tail after the
# first N terms is at most a_N s^{2N+1} / (1 - s^2), and D(s) >= a_0 s, so
# its relative size is at most (a_N / a_0) e^{-2N} / (1 - e^{-2}): 9.8e-18
# for N = 16, below 2^-54, half an ulp of every double.
ODD_SERIES_MAX = exp(-1.0)
_ODD_TERMS = 16
# a_n, highest first for Horner's rule in s^2
_ODD_COEFFS = tuple(
    fsum([2.0 * log(2.0), *(-1.0 / (k * (2 * k - 1)) for k in range(1, n + 1))]) / (2 * n + 1)
    for n in reversed(range(_ODD_TERMS))
)


def _li2_series(z):
    """Power series for Li2, valid for |z| <= 1/2."""
    total = 0.0
    power = z
    eps = _SERIES_EPS
    for square in _SQUARES:
        term = power / square
        total += term
        if -eps < term < eps:
            break
        power *= z
    return total


def _check_arg(z):
    if not math.isfinite(z):
        raise DomainError(f"dilogarithm argument must be finite, got {z!r}")
    if z > 1.0:
        raise DomainError(f"dilogarithm argument must be <= 1, got {z!r}")


def li2(z: float) -> float:
    """Classical dilogarithm Li2(z) for real z <= 1."""
    _check_arg(z)
    if -0.5 <= z <= 0.5:
        return _li2_series(z)  # not via rogers: its log term would cancel at small z
    if z == 1.0:
        return PI2_6
    return rogers(z) - 0.5 * log(abs(z)) * log1p(-z)


def rogers(z: float) -> float:
    """Rogers dilogarithm L(z) for real z <= 1."""
    if not -inf < z <= 1.0:  # also NaN
        _check_arg(z)
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return PI2_6
    if z > 0.5:
        w = 1.0 - z  # Euler: w in (0, 1/2)
        return PI2_6 - (_li2_series(w) + 0.5 * log(w) * log1p(-w))
    if z >= -0.5:
        return _li2_series(z) + 0.5 * log(abs(z)) * log1p(-z)
    if z >= -1.0:
        w = z / (z - 1.0)  # Landen: w in (1/3, 1/2]
        return -(_li2_series(w) + 0.5 * log(w) * log1p(-w))
    return -PI2_6 - rogers(1.0 / z)


def rogers_odd_series(s: float) -> float:
    """D(s) = L((1+s)/2) - L((1-s)/2) for 0 <= s <= e^{-1}, as one odd series."""
    if not 0.0 <= s <= ODD_SERIES_MAX:  # also NaN
        raise DomainError(f"odd series argument must lie in [0, e^-1], got {s!r}")
    s2 = s * s
    acc = 0.0
    for a in _ODD_COEFFS:
        acc = acc * s2 + a
    return acc * s


def lasso(x: float, y: float) -> float:
    """Lasso combination La(x, y) on the square 0 <= x, y <= 1, xy != 1."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"lasso arguments must be finite, got ({x!r}, {y!r})")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"lasso arguments must lie in [0, 1], got ({x!r}, {y!r})")
    denom = 1.0 - x * y
    if denom <= 0.0:
        raise SingularInputError(f"lasso is singular at xy = 1, got ({x!r}, {y!r})")
    return rogers(y) + rogers((1.0 - y) / denom) - rogers((1.0 - x) / denom)
