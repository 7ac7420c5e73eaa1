"""Hyperbolic trigonometry of three-holed spheres (pairs of pants).

A pair of pants with geodesic boundary lengths (a1, a2, a3) is glued from
two congruent right-angled hexagons with alternating sides
(a1/2, m3, a2/2, m1, a3/2, m2), where m_i is the seam: the simple
orthogeodesic joining boundaries j and k ({i, j, k} = {1, 2, 3}).  The
hexagon relation gives

    cosh(m_i) = (cosh(a_i/2) + cosh(a_j/2) cosh(a_k/2))
                / (sinh(a_j/2) sinh(a_k/2)).

Each boundary also carries a self-perpendicular d_i: the simple
orthogeodesic from boundary i back to itself separating boundaries j and k.
Its half crosses the seam m_i at a right angle, so d_i/2 is the altitude of
the hexagon between the sides a_i/2 and m_i.  Splitting the hexagon along
that altitude into two right-angled pentagons and applying the pentagon
relation cosh(side) = sinh(far side) sinh(other far side) yields
cosh(d_i/2) = sinh(m_k) sinh(a_j/2), which expands to the symmetric form

    cosh^2(d_i/2) = N / sinh^2(a_i/2),
    N = u^2 + v^2 + w^2 + 2 u v w - 1,   (u, v, w) = cosh(a_*/2).

N is invariant under relabeling, so permuting the boundary lengths permutes
the seams and self-perpendiculars bit-for-bit.

Two specializations are provided with their own closed forms.  For a
four-holed sphere with all boundaries of length c, cutting along an
interior simple closed geodesic of length a gives two copies of the pants
(c, c, a); the self-perpendicular of the interior boundary satisfies

    tanh^2(p/2) = (cosh c + 1) / (cosh c + cosh(a/2)).

For a one-holed torus with boundary length k, cutting along an interior
simple closed geodesic of length b gives the pants (k, b, b); the seam
between the two length-b boundaries satisfies

    tanh^2(q/2) = (cosh(k/2) + 1) / (cosh(k/2) + cosh b).

p and q shrink like e^{-a/4} and e^{-b/2}: both are taken from asinh of
sinh(p/2) and sinh(q/2), since acosh of a ratio near 1 cancels.

Degenerate boundary lengths (below 1e-12) are rejected rather than extended
by limits; cusps enter the library only through the dedicated cusped term
functions in `identities`.
"""

import math
from math import acosh, asinh, cosh, sinh, sqrt
from typing import NamedTuple

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PantsGeometry:
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


def _seam(ai, aj, ak):
    # hexagon relation; ai is the boundary the seam avoids
    return acosh(
        (cosh(0.5 * ai) + cosh(0.5 * aj) * cosh(0.5 * ak))
        / (sinh(0.5 * aj) * sinh(0.5 * ak))
    )


def pants_geometry(a1: float, a2: float, a3: float) -> PantsGeometry:
    """All six simple orthogeodesic lengths of the pants (a1, a2, a3)."""
    _check_length("a1", a1)
    _check_length("a2", a2)
    _check_length("a3", a3)
    m1 = _seam(a1, a2, a3)
    m2 = _seam(a2, a3, a1)
    m3 = _seam(a3, a1, a2)
    u, v, w = cosh(0.5 * a1), cosh(0.5 * a2), cosh(0.5 * a3)
    root = sqrt(u * u + v * v + w * w + 2.0 * u * v * w - 1.0)
    d1 = 2.0 * acosh(root / sinh(0.5 * a1))
    d2 = 2.0 * acosh(root / sinh(0.5 * a2))
    d3 = 2.0 * acosh(root / sinh(0.5 * a3))
    return PantsGeometry(a1, a2, a3, m1, m2, m3, d1, d2, d3)


def foursphere_ortho(c: float, a: float) -> Orthogeodesics:
    """Orthogeodesics of the pants (c, c, a) cut from a four-holed sphere.

    Returns (m, p, q): m joins a length-c boundary to the length-a boundary,
    p is the self-perpendicular of the length-a boundary, q joins the two
    length-c boundaries.  p comes straight from its closed form, so this
    routine is an independent check on the pentagon-derived d_i above.
    """
    _check_length("c", c)
    _check_length("a", a)
    ch_c2, ch_a2 = cosh(0.5 * c), cosh(0.5 * a)
    m = acosh(ch_c2 * (1.0 + ch_a2) / (sinh(0.5 * c) * sinh(0.5 * a)))
    # tanh^2(p/2) = (cosh c + 1)/(cosh c + cosh(a/2)), rearranged as
    # sinh(p/2) = cosh(c/2)/sinh(a/4): nothing cancels
    p = 2.0 * asinh(ch_c2 / sinh(0.25 * a))
    q = acosh((ch_a2 + ch_c2 * ch_c2) / (sinh(0.5 * c) ** 2))
    return Orthogeodesics(m, p, q)


def torus_ortho(k: float, b: float) -> Orthogeodesics:
    """Orthogeodesics of the pants (k, b, b) cut from a one-holed torus.

    Returns (m, p, q): m joins the length-k boundary to a length-b boundary,
    p is the self-perpendicular of the length-k boundary, q joins the two
    length-b boundaries.  Under the correspondence with `foursphere_ortho`
    at c = k/2, a = 2b the roles of p and q swap.
    """
    _check_length("k", k)
    _check_length("b", b)
    ch_k2, ch_b2 = cosh(0.5 * k), cosh(0.5 * b)
    m = acosh(ch_b2 * (1.0 + ch_k2) / (sinh(0.5 * k) * sinh(0.5 * b)))
    # cosh^2(p/2) = (cosh(k/2) + 1)(cosh(k/2) + cosh b) / sinh^2(k/2)
    p = 2.0 * acosh(sqrt((ch_k2 + 1.0) * (ch_k2 + cosh(b))) / sinh(0.5 * k))
    # tanh^2(q/2) = (cosh(k/2) + 1)/(cosh(k/2) + cosh b), rearranged as for
    # the four-holed sphere: sinh(q/2) = cosh(k/4)/sinh(b/2)
    q = 2.0 * asinh(cosh(0.25 * k) / sinh(0.5 * b))
    return Orthogeodesics(m, p, q)


def guard_threshold(half_param: float) -> float:
    """Unique t with sinh(t) sinh(half_param) = 1.

    Lower bound for seam lengths: pass c/2 for the four-holed sphere, k/4
    for the one-holed torus.
    """
    _check_length("half_param", half_param)
    return asinh(1.0 / sinh(half_param))
