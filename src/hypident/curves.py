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
triangle.  Ordered triples (v1, v2, v3) of slope vectors with v3 = v1 + v2
spawn two children

    (v1, v3, v1 + v3)  with traces (x, z, xz - y)
    (v3, v2, v3 + v2)  with traces (z, y, zy - x)

and two seed triangles, sharing the root edge {(0,1), (1,0)}, cover the
whole tree: ((0,1), (1,0), (1,1)) and ((0,1), (-1,0), (-1,1)).  Every
primitive class appears exactly once.  Descent through an edge stops when
the new trace is >= both retained traces and its geodesic is already longer
than the cutoff; this prune rule is justified by the monotone growth of
traces away from the minimal triangle and is enforced by the
pruning-soundness tests rather than by proof.

Slope arithmetic is exact (Python integers); traces are binary64.

`brute_force_trace` is the independent oracle: it builds the standard
primitive word of a slope by the Euclidean mediant construction (Farey
parents), multiplies the explicit Fenchel-Nielsen matrices, and reports
|trace|.  It shares no code with the Markov recursion.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import cosh, gcd

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
    """Primitive slope p/q in canonical form: q >= 1, or (1, 0) for infinity."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise DomainError(f"slope ({self.p}, {self.q}) is not in canonical form")
        if gcd(abs(self.p), self.q) != 1:
            raise DomainError(f"slope ({self.p}, {self.q}) is not primitive")

    @staticmethod
    def canonical(p: int, q: int) -> "Slope":
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return Slope(p, q)

    def sort_key(self):
        # finite slopes in rational order, then the infinite slope
        if self.q == 0:
            return (1, Fraction(0))
        return (0, Fraction(self.p, self.q))

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


def _mediant(u, v):
    return (u[0] + v[0], u[1] + v[1])


def enumerate_geodesics(
    triple: TraceTriple,
    length_cutoff: float,
    *,
    reduce: bool = True,
    max_records: int = DEFAULT_MAX_RECORDS,
):
    """All simple closed geodesics of length <= `length_cutoff`, each once.

    Records are sorted by (length, slope) ascending.  Slopes are assigned in
    the marking of the tree root: the root triangle carries 0/1, 1/0, 1/1,
    and each child triangle's new slope is the Farey mediant of the two it
    retains.  By default the root is `reduce_to_minimal(triple)`; pass
    ``reduce=False`` to keep the marking of `triple` itself.

    Distinct slopes of equal length stay distinct records, so spectrum
    multiplicity is automatic.
    """
    if not (math.isfinite(length_cutoff) and length_cutoff > 0.0):
        raise DomainError(f"length cutoff must be positive, got {length_cutoff!r}")
    root = reduce_to_minimal(triple) if reduce else triple
    x0, y0, z0 = root.x, root.y, root.z
    trace_cutoff = 2.0 * cosh(0.5 * length_cutoff)

    emitted = {}

    def emit(vector, trace):
        if trace > trace_cutoff:
            return
        key = Slope.canonical(*vector)
        assert key not in emitted, f"slope {key} enumerated twice"
        emitted[key] = trace
        if len(emitted) > max_records:
            raise ResourceLimitError(
                f"enumeration exceeded {max_records} records below cutoff {length_cutoff}"
            )

    seed_a = (((0, 1), (1, 0), (1, 1)), (x0, y0, z0))
    seed_b = (((0, 1), (-1, 0), (-1, 1)), (x0, y0, x0 * y0 - z0))
    for vector, trace in zip(seed_a[0], seed_a[1]):
        emit(vector, trace)
    emit(seed_b[0][2], seed_b[1][2])

    queue = deque((seed_a, seed_b))
    while queue:
        (v1, v2, v3), (t1, t2, t3) = queue.popleft()
        for kept_a, kept_b, ta, tb, t_removed in (
            (v1, v3, t1, t3, t2),
            (v3, v2, t3, t2, t1),
        ):
            child_trace = ta * tb - t_removed
            too_long = child_trace > trace_cutoff
            if too_long and child_trace >= ta and child_trace >= tb:
                continue
            child_vector = _mediant(kept_a, kept_b)
            if not too_long:
                emit(child_vector, child_trace)
            queue.append(((kept_a, kept_b, child_vector), (ta, tb, child_trace)))

    records = [
        GeodesicRecord(slope, trace, length_from_trace(trace))
        for slope, trace in emitted.items()
    ]
    records.sort(key=lambda r: (r.length, r.slope.sort_key()))
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
