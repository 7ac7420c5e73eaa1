"""Enumeration of simple closed geodesics on a one-holed torus.

Free homotopy classes of essential simple closed curves are indexed by
primitive slopes p/q; in homology the (p, q)-curve is p[B] + q[A] for a
generating pair (A, B).  Slopes form the vertex set of the Farey
tessellation, whose dual is a trivalent tree of triangles: each triangle
keeps two slopes of its parent and adds their mediant.  Traces follow the
same tree through the Markov move

    (x, y, z)  ->  replace one coordinate by (product of the others) - it,

which preserves kappa = x^2 + y^2 + z^2 - xyz, because replacing z by
xy - z exchanges tr(AB) and tr(AB^{-1}).

`enumerate_geodesics` walks this tree breadth-first from the minimal
triangle.  A queue entry (a, b, ta, tb, t) is a triangle that keeps slope
vectors a and b, with traces ta and tb, and adds their mediant v = a + b,
with trace t.  Popping it emits v and queues the children
(a, v, ta, t, ta t - tb) and (v, b, t, tb, t tb - ta).  After the roots
0/1 and 1/0, the root edge is crossed both ways, by ((0,1), (1,0), x, y, z)
and ((0,1), (-1,0), x, y, xy - z); every vector formed has q >= 1, and
every primitive class appears exactly once.  A child is pruned before it
is queued when its trace exceeds the cutoff and is >= both retained
traces; the monotone growth of traces away from the minimal triangle
justifies this, and the pruning-soundness tests enforce it.  A NaN trace
(inf - inf on a huge unreduced root) fails that test, so its child is
kept and ends in a typed refusal instead of silently losing a subtree.

Slope arithmetic is exact (Python integers); traces are binary64.

`brute_force_trace` is the independent oracle: it builds the standard
primitive word of a slope by the Euclidean mediant construction (Farey
parents), multiplies the explicit Fenchel-Nielsen matrices, and reports
|trace|.  It shares no code with the Markov recursion.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from math import cosh, gcd
from operator import attrgetter

from .errors import DomainError, ResourceLimitError
from .torus import (
    FenchelNielsen,
    TraceTriple,
    fenchel_nielsen_matrices,
    length_from_trace,
    mat_inv,
    mat_mul,
    mat_trace,
    trace_triple,
)

__all__ = [
    "Slope",
    "GeodesicRecord",
    "markov_child",
    "reduce_to_minimal",
    "enumerate_geodesics",
    "brute_force_trace",
    "DEFAULT_MAX_RECORDS",
]

DEFAULT_MAX_RECORDS = 10_000_000


@dataclass(frozen=True)
class Slope:
    """Primitive slope p/q in canonical form: q >= 1, or (1, 0) for infinity.

    Slopes compare in rational order, with 1/0 last.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise DomainError(f"slope ({self.p}, {self.q}) is not in canonical form")
        if gcd(abs(self.p), self.q) != 1:
            raise DomainError(f"slope ({self.p}, {self.q}) is not primitive")

    def __lt__(self, other):
        # q >= 0 on both sides, so cross-multiplying keeps the order
        return self.p * other.q < other.p * self.q

    def __str__(self):
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class GeodesicRecord:
    """One simple closed geodesic: slope, trace, and hyperbolic length."""

    slope: Slope
    trace: float
    length: float


def markov_child(x: float, y: float, z: float, position: int):
    """Replace the coordinate at 1-based `position` by the Markov move."""
    if position == 1:
        return (y * z - x, y, z)
    if position == 2:
        return (x, x * z - y, z)
    if position == 3:
        return (x, y, x * y - z)
    raise DomainError(f"position must be 1, 2 or 3, got {position!r}")


def reduce_to_minimal(triple: TraceTriple) -> TraceTriple:
    """Descend the Markov tree until no move decreases the largest trace.

    Each accepted move strictly decreases the largest coordinate, which is
    bounded below by 2, and the tree has no infinite descending paths, so
    this terminates.
    """
    coords = [triple.x, triple.y, triple.z]
    while True:
        i = max(range(3), key=lambda j: coords[j])
        j, l = (j for j in range(3) if j != i)
        candidate = coords[j] * coords[l] - coords[i]
        if candidate < coords[i]:
            coords[i] = candidate
        else:
            # the reduced marking describes the same surface: keep its k
            return replace(trace_triple(*coords), k=triple.k)


def enumerate_geodesics(
    triple: TraceTriple,
    length_cutoff: float,
    *,
    reduce: bool = True,
    max_records: int = DEFAULT_MAX_RECORDS,
):
    """All simple closed geodesics of length <= `length_cutoff`, each once.

    Records are sorted by (length, slope) ascending, slopes in rational
    order.  Slopes are assigned in the marking of the tree root: the root
    edge joins 0/1 and 1/0, with traces x and y, and its two triangles add
    1/1 (trace z) and -1/1 (trace xy - z).  By default the root is
    `reduce_to_minimal(triple)`; pass ``reduce=False`` to keep the marking
    of `triple` itself.

    Distinct slopes of equal length stay distinct records, so spectrum
    multiplicity is automatic.

    Each popped entry (a, b, ta, tb, t) emits its mediant a + b when t is
    within the cutoff, and each child is pruned before it is queued (see
    the module docstring).  A NaN trace is kept and ends in
    `NonHyperbolicError`, or in `ResourceLimitError` past `max_records`.
    """
    if not (math.isfinite(length_cutoff) and length_cutoff > 0.0):
        raise DomainError(f"length cutoff must be positive, got {length_cutoff!r}")
    root = reduce_to_minimal(triple) if reduce else triple
    x0, y0, z0 = root.x, root.y, root.z
    trace_cutoff = 2.0 * cosh(0.5 * length_cutoff)

    emitted = {Slope(p, q): t for p, q, t in ((0, 1, x0), (1, 0, y0)) if not t > trace_cutoff}
    queue = deque((((0, 1), (1, 0), x0, y0, z0), ((0, 1), (-1, 0), x0, y0, x0 * y0 - z0)))
    while queue:
        a, b, ta, tb, t = queue.popleft()
        v = (a[0] + b[0], a[1] + b[1])
        # `not t > cutoff` keeps a NaN trace for the record pass to refuse
        if not t > trace_cutoff:
            slope = Slope(*v)
            assert slope not in emitted, f"slope {slope} enumerated twice"
            emitted[slope] = t
        # checked on every pop, so the two root emits count too
        if len(emitted) > max_records:
            raise ResourceLimitError(
                f"enumeration exceeded {max_records} records below cutoff {length_cutoff}"
            )
        for child in ((a, v, ta, t, ta * t - tb), (v, b, t, tb, t * tb - ta)):
            _, _, ca, cb, c = child
            # a NaN compares false here, so its subtree is kept, not lost
            if c > trace_cutoff and c >= ca and c >= cb:
                continue
            queue.append(child)

    records = [
        GeodesicRecord(slope, trace, length_from_trace(trace))
        for slope, trace in emitted.items()
    ]
    records.sort(key=attrgetter("length", "slope"))
    return records


_ORACLE_SCALE = 50


def _farey_parents(p, q):
    """Parents (u, v) with u + v = (p, q) and |u x v| = 1, both in quadrant I."""
    if p == 0 or q == 0:
        raise ValueError(f"({p}, {q}) has no Farey parents")
    # left parent: p1*q - q1*p = -1 with 0 <= p1 < p
    p1 = (-pow(q, -1, p)) % p if p > 1 else 0
    q1 = (p1 * q + 1) // p
    return (p1, q1), (p - p1, q - q1)


def brute_force_trace(fn: FenchelNielsen, slope: Slope) -> float:
    """|trace| of the primitive word of `slope` in the explicit matrices.

    Oracle-scale only: requires |p|, q <= 50.
    """
    if abs(slope.p) > _ORACLE_SCALE or slope.q > _ORACLE_SCALE:
        raise DomainError(f"oracle limited to |p|, q <= {_ORACLE_SCALE}, got {slope}")
    gen_a, gen_b = fenchel_nielsen_matrices(fn)
    if slope.p < 0:
        gen_b = mat_inv(gen_b)

    cache = {}

    def word(p, q):
        if (p, q) == (0, 1):
            return gen_a
        if (p, q) == (1, 0):
            return gen_b
        got = cache.get((p, q))
        if got is None:
            (p1, q1), (p2, q2) = _farey_parents(p, q)
            got = mat_mul(word(p1, q1), word(p2, q2))
            cache[(p, q)] = got
        return got

    return abs(mat_trace(word(abs(slope.p), slope.q)))
