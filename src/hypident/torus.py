"""Trace coordinates for hyperbolic one-holed and once-punctured tori.

A hyperbolic structure on the one-holed torus is recorded by the traces
(x, y, z) of a generating pair and their product.  The commutator trace

    tr[A, B] = x^2 + y^2 + z^2 - xyz - 2 = kappa - 2

is negative for these structures, and with the convention
tr[A, B] = -2 cosh(k/2) the boundary length k satisfies

    cosh(k/2) = (2 - kappa) / 2,

so kappa <= 0 with kappa = 0 exactly at the cusp (where the commutator
trace is -2).  kappa is evaluated exactly in integers from the stored
coordinates and rounded once, so the stored value is the correctly rounded
combination of them; a kappa beyond the float range is refused.

Fenchel-Nielsen data (b, t, k) - length of a chosen simple closed geodesic,
twist along it, boundary length - is realized by explicit unit-determinant
2x2 matrices:

    A   = [[e^{b/2}, 0], [0, e^{-b/2}]]                (axis: imaginary axis)
    B_t = [[p e^{t/2}, q e^{-t/2}], [q e^{t/2}, p e^{-t/2}]],  q = sqrt(p^2-1)

with p > 1 fixed by the commutator condition:

    p^2 = (cosh b + cosh(k/2)) / (2 sinh^2(b/2)).

The resulting traces are x = 2 cosh(b/2), y = 2p cosh(t/2),
z = 2p cosh((t+b)/2); kappa is independent of t, t = 0 minimizes y over the
twist orbit, and t -> t + b realizes the Markov move (y, z) -> (z, xz - y).

Triples entered directly with x, y, z > 2 and kappa <= 0 are accepted as
points of the relative character variety without a discreteness
certificate.
"""

import math
from collections import deque
from itertools import repeat
from math import acosh, cosh, exp, inf, sinh, sqrt, ulp
from operator import mul
from typing import NamedTuple

from .errors import DomainError, NoRealStructureError, NonHyperbolicError

__all__ = [
    "TraceTriple",
    "FenchelNielsen",
    "trace_triple",
    "boundary_length",
    "from_traces",
    "from_fenchel_nielsen",
    "fenchel_nielsen_matrices",
    "length_from_trace",
    "lengths_from_traces",
    "mat_mul",
    "mat_inv",
    "mat_trace",
]


def _kappa(x, y, z):
    """Correctly rounded x^2 + y^2 + z^2 - xyz."""
    (a, d), (b, e), (c, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    num = (a * e * f) ** 2 + (b * d * f) ** 2 + (c * d * e) ** 2 - a * b * c * d * e * f
    try:
        return num / (d * e * f) ** 2  # int / int rounds correctly
    except OverflowError:
        if num > 0:
            raise NonHyperbolicError(
                f"x^2+y^2+z^2-xyz overflows to +inf at x={x!r}, y={y!r}, z={z!r}:"
                " no hyperbolic or cusped boundary"
            ) from None
        raise DomainError(
            f"x^2+y^2+z^2-xyz overflows to -inf at x={x!r}, y={y!r}, z={z!r}:"
            " boundary length beyond the float range"
        ) from None


def _kappa_slop(x, y, z):
    # rounding allowance for coordinates that were themselves computed:
    # 32 ulps of the summands, scaled first (2^-47) so that it stays finite
    s = 2.0**-47
    return s * x * x + s * y * y + s * z * z + abs(s * x * y * z)


class TraceTriple(NamedTuple):
    """Point (x, y, z) of the relative character variety, boundary length k.

    Constructors that solved for a requested k (`from_traces`,
    `from_fenchel_nielsen`, `curves.reduce_to_minimal`) store it exactly,
    through `_replace`, instead of recovering it from kappa, which is
    ill-conditioned near the cusp.
    """

    x: float
    y: float
    z: float
    kappa: float
    k: float


class FenchelNielsen(NamedTuple("FenchelNielsen", [("b", float), ("t", float), ("k", float)])):
    """Length, twist and boundary length (b, t, k) of a marked torus."""

    __slots__ = ()

    def __new__(cls, b: float, t: float, k: float):
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"geodesic length b must be positive, got {b!r}")
        if not math.isfinite(t):
            raise DomainError(f"twist t must be finite, got {t!r}")
        if not (math.isfinite(k) and k >= 0.0):
            raise DomainError(f"boundary length k must be >= 0, got {k!r}")
        return super().__new__(cls, b, t, k)


def trace_triple(x: float, y: float, z: float) -> TraceTriple:
    """Validate traces and attach kappa and the boundary length."""
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(v) or v <= 2.0:
            raise NonHyperbolicError(f"trace {name} must exceed 2, got {v!r}")
    kappa = _kappa(x, y, z)
    if kappa > 0.0:
        if kappa > _kappa_slop(x, y, z):
            raise NonHyperbolicError(
                f"x^2+y^2+z^2-xyz = {kappa!r} > 0: no hyperbolic or cusped boundary"
            )
        kappa = 0.0  # within roundoff of the cusp
    k = 2.0 * acosh(1.0 - 0.5 * kappa)
    return TraceTriple(x, y, z, kappa, k)


def boundary_length(x: float, y: float, z: float) -> float:
    """Boundary length of the triple (x, y, z)."""
    return trace_triple(x, y, z).k


def from_traces(x: float, y: float, k: float) -> TraceTriple:
    """Solve for the third trace at boundary length k; smaller root.

    The two roots of the quadratic are exchanged by a Markov move (a Dehn
    twist), so either describes the same surface; the smaller one is chosen
    for determinism.
    """
    for name, v in (("x", x), ("y", y)):
        if not math.isfinite(v) or v <= 2.0:
            raise NonHyperbolicError(f"trace {name} must exceed 2, got {v!r}")
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"boundary length k must be >= 0, got {k!r}")
    try:  # cosh(k/2) and (xy)^2 raise OverflowError
        rest = x * x + y * y - 2.0 + 2.0 * cosh(0.5 * k)
        disc = (x * y) ** 2 - 4.0 * rest
        if not math.isfinite(disc):  # a product overflows to inf without OverflowError
            raise OverflowError
    except OverflowError:
        raise DomainError(
            f"overflow at x={x!r}, y={y!r}, k={k!r}: beyond the float range"
        ) from None
    if disc < 0.0:
        raise NoRealStructureError(
            f"no real structure: discriminant {disc!r} < 0 for x={x!r}, y={y!r}, k={k!r}"
        )
    z = 2.0 * rest / (x * y + sqrt(disc))  # stable form of (xy - sqrt(disc))/2
    if z <= 2.0:  # the exact root exceeds (x^2 + y^2)/(xy) >= 2
        raise NonHyperbolicError(
            f"third trace {z!r} <= 2: the exact trace exceeds 2 by less than float resolution"
        )
    return trace_triple(x, y, z)._replace(k=k)


def _crossing_scale(b, k):
    # p > 1 in the matrix recipe; p^2 - 1 = (cosh(k/2) + 1) / (2 sinh^2(b/2));
    # ZeroDivisionError once sinh(b/2) rounds to 0, inf once it is below ~5.6e-309
    return sqrt((cosh(b) + cosh(0.5 * k)) / 2.0) / sinh(0.5 * b)


def _beyond_float_range(fn):
    return DomainError(
        f"cosh overflows at b={fn.b!r}, t={fn.t!r}, k={fn.k!r}: traces beyond the float range"
    )


def from_fenchel_nielsen(fn: FenchelNielsen) -> TraceTriple:
    """Trace triple of the marked structure (b, t, k)."""
    try:
        p = _crossing_scale(fn.b, fn.k)
        x = 2.0 * cosh(0.5 * fn.b)
        y = 2.0 * p * cosh(0.5 * fn.t)
        z = 2.0 * p * cosh(0.5 * (fn.t + fn.b))
        if math.isinf(max(y, z)):  # p = inf, or a product overflows without OverflowError
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise _beyond_float_range(fn) from None
    if x == 2.0:  # x - 2 = 4 sinh^2(b/4) is below half the float spacing at 2
        raise DomainError(
            f"geodesic length b={fn.b!r} is below the float resolution of its trace:"
            f" 2 cosh(b/2) rounds to 2.0, whose float spacing is {ulp(2.0)!r}"
            " (b must be at least about 3e-08)"
        )
    return trace_triple(x, y, z)._replace(k=fn.k)


def fenchel_nielsen_matrices(fn: FenchelNielsen):
    """Explicit unit-determinant matrices (A, B) realizing (b, t, k)."""
    try:
        p = _crossing_scale(fn.b, fn.k)
        q = sqrt(0.5 * (cosh(0.5 * fn.k) + 1.0)) / sinh(0.5 * fn.b)  # no p^2 - 1 of a rounded p
        et = exp(0.5 * fn.t)
        a = ((exp(0.5 * fn.b), 0.0), (0.0, exp(-0.5 * fn.b)))
        b = ((p * et, q / et), (q * et, p / et))
        if math.isinf(max(b[0] + b[1])):  # as in `from_fenchel_nielsen`
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise _beyond_float_range(fn) from None
    return a, b


def length_from_trace(tr: float) -> float:
    """Geodesic length of a hyperbolic element from its trace."""
    # one chained test refuses NaN, inf and tr <= 2: it runs once per geodesic
    if not 2.0 < tr < inf:
        raise NonHyperbolicError(f"trace must exceed 2 for a hyperbolic element, got {tr!r}")
    return 2.0 * acosh(0.5 * tr)


def lengths_from_traces(traces):
    """The lengths of the trace column `traces`, lazily, in order.

    The same floats as `map(length_from_trace, traces)`, bit for bit, with
    no Python frame per trace: the column is checked once, up front, and a
    NaN, infinite or <= 2 trace in it raises the error that
    `length_from_trace` raises for the first such trace.
    """
    # one pass of each in C: min finds a trace <= 2, and a finite sum holds no
    # NaN and no inf; only a column that fails (or whose sum overflows) is
    # walked again by the scalar form, which raises at its first bad trace
    if traces and not (2.0 < min(traces) and sum(traces) < inf):
        deque(map(length_from_trace, traces), maxlen=0)
    return map(mul, repeat(2.0), map(acosh, map(mul, repeat(0.5), traces)))


# 2x2 matrix helpers for the explicit recipes (rows of pairs)


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv(a):
    # unit determinant assumed
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def mat_trace(a):
    return a[0][0] + a[1][1]
