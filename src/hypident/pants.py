"""Hyperbolic trigonometry of three-holed spheres (pairs of pants).

A pair of pants with geodesic boundary lengths (a1, a2, a3) is glued from
two congruent right-angled hexagons with alternating sides
(a1/2, m3, a2/2, m1, a3/2, m2), where m_i is the seam: the simple
orthogeodesic joining boundaries j and k ({i, j, k} = {1, 2, 3}).  The
self-perpendicular d_i runs from boundary i back to itself, separating j
and k; d_i/2 is the altitude of the hexagon between a_i/2 and m_i.  With
C = cosh(a/2), S = sinh(a/2) and e = coth(a/2) - 1 = 2/expm1(a), the
hexagon relation and the pentagon relation of the hexagon's two halves
(Buser, Geometry and Spectra of Compact Riemann Surfaces, ch. 2) read

    sinh^2(m_i/2) = (C_i / (S_j S_k) + e_j + e_k + e_j e_k) / 2,
    sinh^2(d_i/2) = (C_j^2 + C_k^2 + 2 C_1 C_2 C_3) / S_i^2.

Every summand is positive and each length is 2 asinh of the `hypot` of
their roots, so it is accurate relative to its size however short, and
never 0.  The textbook numerator C_i + cosh((a_j - a_k)/2) of the seam
takes the cosh of a rounded difference, which costs ulp(a_j)/2 for long
a_j, a_k; e_j + e_k + e_j e_k is coth(a_j/2) coth(a_k/2) - 1 without the
cancellation.  The roots sqrt(C/2), sqrt(S) and sqrt(e/2) =
sqrt(e^{-a/2}/2) / sqrt(S) are taken per boundary, so no product of two
long boundaries' trigonometry overflows or underflows.  Each relation
orders its two ends first, so permuting the boundary lengths permutes
the seams and self-perpendiculars bit for bit.

Cutting a four-holed sphere with boundaries of length c along an interior
simple closed geodesic of length a gives two pants (c, c, a); cutting a
one-holed torus with boundary length k along one of length b gives the
pants (k, b, b).  Both are the isosceles pants (pair, pair, single): its
seam m from a pair boundary to the single one, self-perpendicular p of
the single boundary and seam q between the pair boundaries are the two
relations at those labels.

Degenerate boundary lengths (below 1e-12) are rejected rather than extended
by limits; cusps enter the library only through the dedicated cusped term
functions in `identities`.  Trigonometry that overflows the float range
(a length past ~1420, or a sinh(d_i/2) past ~1.8e308) is refused with
`DomainError` as well, rather than returned as inf.
"""

import math
from math import asinh, cosh, exp, expm1, hypot, sinh, sqrt
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "MIN_LENGTH",
    "PantsGeometry",
    "Orthogeodesics",
    "pants_geometry",
    "foursphere_ortho",
    "torus_ortho",
    "guard_threshold",
]

MIN_LENGTH = 1e-12


def _check_length(name, value):
    if not math.isfinite(value) or value < MIN_LENGTH:
        raise DomainError(f"{name} must be a positive length >= {MIN_LENGTH}, got {value!r}")


def _out_of_range(a1, a2, a3):
    return DomainError(
        f"the orthogeodesics of the pants ({a1!r}, {a2!r}, {a3!r}) overflow the float range"
    )


class PantsGeometry(NamedTuple):
    """Boundary lengths of a pants with all six simple orthogeodesic lengths.

    m_i joins the two boundaries other than i; d_i runs from boundary i back
    to itself, separating the other two.
    """

    a1: float
    a2: float
    a3: float
    m1: float
    m2: float
    m3: float
    d1: float
    d2: float
    d3: float


class Orthogeodesics(NamedTuple):
    """Orthogeodesic lengths (m, p, q) of a specialized pants; see callers."""

    m: float
    p: float
    q: float


def _boundary(a):
    # sqrt(C/2), sqrt(S), sqrt(e/2), C and S of the boundary a (module docstring)
    c, s = cosh(0.5 * a), sinh(0.5 * a)
    rs = sqrt(s)
    return sqrt(0.5 * c), rs, sqrt(0.5 * exp(-0.5 * a)) / rs, c, s


def _seam(i, j, k):
    # the seam relation: length of the seam joining j and k, for `_boundary` tuples
    if j > k:
        j, k = k, j
    return 2.0 * asinh(hypot(i[0] / (j[1] * k[1]), j[2], k[2], j[2] * k[2], j[2] * k[2]))


def _perp(i, j, k):
    # the self-perpendicular relation: length of the self-perpendicular of i
    if j > k:
        j, k = k, j
    return 2.0 * asinh(hypot(j[3] / i[4], k[3] / i[4], 4.0 * (i[0] / i[4]) * (j[0] * k[0])))


def pants_geometry(a1: float, a2: float, a3: float) -> PantsGeometry:
    """All six simple orthogeodesic lengths of the pants (a1, a2, a3)."""
    _check_length("a1", a1)
    _check_length("a2", a2)
    _check_length("a3", a3)
    try:
        t1, t2, t3 = _boundary(a1), _boundary(a2), _boundary(a3)
    except OverflowError:
        raise _out_of_range(a1, a2, a3) from None
    g = PantsGeometry(
        a1, a2, a3, _seam(t1, t2, t3), _seam(t2, t3, t1), _seam(t3, t1, t2),
        _perp(t1, t2, t3), _perp(t2, t3, t1), _perp(t3, t1, t2),
    )
    if not math.isfinite(sum(g[3:])):  # an overflowing product is inf, not an OverflowError
        raise _out_of_range(a1, a2, a3)
    return g


def _isosceles_ortho(pair, single, pants):
    # (m, p, q) of the pants (pair, pair, single), named `pants` in a refusal
    try:
        tp, ts = _boundary(pair), _boundary(single)
    except OverflowError:
        raise _out_of_range(*pants) from None
    m, p, q = _seam(tp, tp, ts), _perp(ts, tp, tp), _seam(ts, tp, tp)
    if not math.isfinite(m + p + q):  # as in `pants_geometry`
        raise _out_of_range(*pants)
    return Orthogeodesics(m, p, q)


def foursphere_ortho(c: float, a: float) -> Orthogeodesics:
    """Orthogeodesics of the pants (c, c, a) cut from a four-holed sphere.

    Returns (m, p, q): m joins a length-c boundary to the length-a boundary,
    p is the self-perpendicular of the length-a boundary, q joins the two
    length-c boundaries.
    """
    _check_length("c", c)
    _check_length("a", a)
    return _isosceles_ortho(c, a, (c, c, a))


def torus_ortho(k: float, b: float) -> Orthogeodesics:
    """Orthogeodesics of the pants (k, b, b) cut from a one-holed torus.

    Returns (m, p, q): m joins the length-k boundary to a length-b boundary,
    p is the self-perpendicular of the length-k boundary, q joins the two
    length-b boundaries.  Under the correspondence with `foursphere_ortho`
    at c = k/2, a = 2b the roles of p and q swap.
    """
    _check_length("k", k)
    _check_length("b", b)
    return _isosceles_ortho(b, k, (k, b, b))


def guard_threshold(half_param: float) -> float:
    """Unique t with sinh(t) sinh(half_param) = 1.

    Lower bound for seam lengths: pass c/2 for the four-holed sphere, k/4
    for the one-holed torus.
    """
    _check_length("half_param", half_param)
    return asinh(2.0 * exp(-half_param) / -expm1(-2.0 * half_param))  # 1/sinh, past its overflow
