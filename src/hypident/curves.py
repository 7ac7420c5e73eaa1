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

`enumerate_geodesics` walks this tree from the minimal triangle.  A queue
entry (a, b, ta, tb, t) is a triangle that keeps slope vectors a and b,
with traces ta and tb, and adds their mediant v = a + b, with trace t.
Its children are (a, v, ta, t, ta t - tb), which keeps a, and
(v, b, t, tb, t tb - ta), which keeps b.  Repeating the second is a Dehn
twist about b: the slopes a + n b, with traces y_{n+1} = tb y_n - y_{n-1}
(Bowditch's recurrence).  After each pop the walk follows that twist run
inline, emitting every mediant on it, and queues only the children that
keep a.  Once a run rises (t >= ta, t >= tb > 2) past a pruned child, every
later child is pruned too and every later trace up to the break is
emitted: the walk finishes such a run in a tight loop, one multiply, one
subtraction and one append a step, with no child test (`_walk` gives the
float argument).  On a thin surface nearly every record comes from that
loop.  Every node is visited once, with the float expressions of a
breadth-first walk, so only the order of emission depends on the walk;
the sorted records do not.  After the roots 0/1 and 1/0, the root edge
is crossed both ways, by ((0,1), (1,0), x, y, z) and
((0,1), (-1,0), x, y, xy - z); every vector formed has q >= 1, and every
primitive class appears exactly once.  A child is pruned when its trace
exceeds the cutoff and is >= both retained traces; the monotone growth
of traces away from the minimal triangle justifies this, and the
pruning-soundness tests enforce it.  A kept child (queued, or followed
in the twist run) whose trace is <= 2 cannot belong to a hyperbolic
surface: it is refused with `NonHyperbolicError` where it is formed,
rather than walked on to the record cap.  Every walk starts at
`reduce_to_minimal(triple)`, whose traces `trace_triple` has checked to
be finite and > 2 (a product that overflows to inf is pruned).  A NaN
trace (inf - inf), met only where a test patches the reduction out,
fails both tests, so its subtree is kept and ends in a typed refusal
instead of being silently lost.

The walk is a generator.  It yields the traces, one float per record, in
emission order and in *chunks*: new lists of at most 4,096 traces, so a
reader that sums as it goes holds one chunk, not the spectrum.  A chunk
is cut wherever the count reaches a multiple of the chunk size, inside a
twist run or its tight loop too, and the walk goes on with the same floats.
The slopes go as *stretches* into a list that the caller passes in.  A
stretch (p, q, bp, bq, n) stands for the n slopes (p, q) + i (bp, bq),
i < n, whose traces are the next n traces; each root is a stretch of
length 1 with step (0, 0).  Queue entries and twist runs hold a and b as
integers, and the emissions of a run, which are contiguous (`_walk` gives
the argument), extend one stretch with step b.  No slope is built in the
walk: the vectors of a child are formed only when it is queued or refused.  After the last
chunk, an integer key checks that no slope was emitted twice:
(p, q) -> q m + p, with m - 1 twice the largest |p0| + (n - 1)|bp| of a
stretch, is one to one, and the keys of a stretch are one `range`.  A
stretch no longer than the number of stretches puts its keys in a set; a
longer one, a thin twist run, stays a `range`, met with the set by `in`
and with each other long one as two arithmetic progressions.
The walk has two readers.  `trace_chunks` gives the chunks as they come,
and `identities.evaluate` sums each one as it arrives.
`enumerate_geodesics` joins them, expands the stretches into `Slope`
tuples, builds the records in bulk, and sorts them by (trace, slope), and
so by length.  Both cap the walk at `DEFAULT_MAX_RECORDS`, read when they
are called; only `trace_chunks` takes another cap, as `max_records`.
The walk forms no length: `enumerate_geodesics` and `evaluate` form them
with `torus.lengths_from_traces`, which refuses a NaN or <= 2 trace; from
a validated root, such a trace cannot get through the walk.

Slope arithmetic is exact (Python integers); traces are binary64.

`brute_force_trace` is the independent oracle: it builds the standard
primitive word of a slope by the Euclidean mediant construction (Farey
parents), multiplies the explicit Fenchel-Nielsen matrices, and reports
|trace|.  It shares no code with the Markov recursion.
"""

import gc
from collections import deque
from functools import cache, partial
from itertools import chain, count, islice, repeat
from math import cosh, gcd
from operator import attrgetter
from typing import NamedTuple

from .errors import DomainError, NonHyperbolicError, ResourceLimitError
from .torus import (
    FenchelNielsen,
    TraceTriple,
    fenchel_nielsen_matrices,
    lengths_from_traces,
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
    "trace_chunks",
    "brute_force_trace",
    "DEFAULT_MAX_RECORDS",
]

DEFAULT_MAX_RECORDS = 10_000_000

# the walk yields its traces in lists of at most this many.  On the thin-cusp
# sum, chunks of 256 cost 6-15% more time, sizes from 4,096 to 65,536 are level
# within the noise (5%), and the memory held grows with the size
_CHUNK = 4096

# the trace cutoff 2cosh(L/2) is finite up to L ~ 1419.57 and overflows beyond
_MAX_CUTOFF = 1419.0


class Slope(NamedTuple("Slope", [("p", int), ("q", int)])):
    """Primitive slope p/q in canonical form: q >= 1, or (1, 0) for infinity.

    Slopes compare in rational order, with 1/0 last.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if q < 0 or (q == 0 and p != 1):
            raise DomainError(f"slope ({p}, {q}) is not in canonical form")
        if gcd(abs(p), q) != 1:
            raise DomainError(f"slope ({p}, {q}) is not primitive")
        return super().__new__(cls, p, q)

    # rational, not tuple, order: q >= 0 on both sides, so cross-multiplying keeps it
    def __lt__(self, other):
        return self.p * other.q < other.p * self.q

    def __gt__(self, other):
        return self.p * other.q > other.p * self.q

    def __le__(self, other):
        return self.p * other.q <= other.p * self.q

    def __ge__(self, other):
        return self.p * other.q >= other.p * self.q

    def __str__(self):
        return f"{self.p}/{self.q}"


class GeodesicRecord(NamedTuple):
    """One simple closed geodesic: slope, trace, and hyperbolic length."""

    slope: Slope
    trace: float
    length: float


# records and slopes from a tuple, without the Python-level __new__ (and its check)
_make_record = partial(tuple.__new__, GeodesicRecord)
_make_slope = partial(tuple.__new__, Slope)


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
    coords = (triple.x, triple.y, triple.z)
    while True:
        i = max(range(3), key=coords.__getitem__)
        child = markov_child(*coords, i + 1)
        if child[i] < coords[i]:
            coords = child
        else:
            # the reduced marking describes the same surface: keep its k
            return trace_triple(*coords)._replace(k=triple.k)


def _record_limit(max_records, length_cutoff):
    return ResourceLimitError(
        f"enumeration exceeded {max_records} records below cutoff {length_cutoff}"
    )


def _non_hyperbolic_child(p, q, trace):
    return NonHyperbolicError(
        f"trace of slope {p}/{q} must exceed 2, got {trace!r}: not a hyperbolic structure"
    )


def _progressions_meet(r, s):
    """Whether the ranges r and s, both of positive step, share a value."""
    g = gcd(r.step, s.step)
    i, rest = divmod(s.start - r.start, g)
    # r[i] is on the progression of s for i = (s.start - r.start)/g (r.step/g)^-1 mod s.step/g
    x = r.start + i * pow(r.step // g, -1, s.step // g) % (s.step // g) * r.step
    x = max(x, s.start + (x - s.start) % (r.step // g * s.step))  # least common value >= both
    return not rest and x in r and x in s


def _assert_distinct(stretches, total):
    """Assert that the `total` slopes of `stretches` are distinct."""
    # (p, q) -> q m + p is one to one for q >= 0 and |p| < m/2; along a
    # stretch |p| <= |p0| + (n - 1)|bp|, and the keys form a range
    m = 1 + 2 * max((abs(p) + (n - 1) * abs(bp) for p, _, bp, _, n in stretches), default=0)
    seen, runs = set(), []
    for p, q, bp, bq, n in stretches:
        key = q * m + p
        if n == 1:
            seen.add(key)
        else:  # a stretch without a step repeats one slope
            step = bq * m + bp
            keys = range(key, key + n * step, step) if step else (key,)
            if len(keys) <= len(stretches):
                seen.update(keys)
            else:
                runs.append(keys if step > 0 else keys[::-1])
    assert len(seen) + sum(map(len, runs)) == total and not any(
        any(map(run.__contains__, seen)) or any(_progressions_meet(run, r) for r in runs[:i])
        for i, run in enumerate(runs)
    ), "a slope was enumerated twice"


def _walk(triple, length_cutoff, max_records, stretches):
    """Yield the traces within the cutoff in emission order, chunk by chunk.

    A generator: each chunk is a new list of at most `_CHUNK` traces, and
    the stretches go into the caller's list `stretches` as they close.  The
    walk starts at `reduce_to_minimal(triple)`, looked up when the first
    chunk is asked for.  Stretch i covers the next n_i traces; the
    stretches hold as many slopes as there are traces, all distinct, which
    `_assert_distinct` checks, in O(1) state for each long stretch, after
    the last chunk.  A kept child trace <= 2 is refused here; a NaN trace
    is yielded as it is, for `lengths_from_traces` to refuse.

    A twist run's emissions are contiguous, so one stretch, opened at the
    first, holds them.  Every kept tb is > 2 or inf, so fl(tb t) >= 2 t (a
    NaN makes every later trace NaN, each emitted): once a step does not
    fall (t+ >= t), no later step falls, since t++ = fl(fl(tb t+) - t) >=
    fl(2 t+ - t) >= t+.  The run is a valley, and its steps within the
    cutoff are consecutive, so a stretch from the first, as long as the
    count of the run's emissions, holds their slopes.

    Before each emission the walk tests the chunk against `bound`, the
    lesser of the chunk size and the room left under the record cap; one
    body, `cut`, then refuses the emission at the cap or yields and
    replaces the full chunk.  So the cap raises at the first emission past
    it, whatever the chunk size, and a cut changes no float of the walk.

    The rising-run loop.  Take a step of a twist run, with traces ta, t and
    the kept tb, whose child that keeps a, c' = fl(fl(ta t) - tb), is pruned
    (c' > cutoff, c' >= ta, c' >= t), and where ta <= t and tb <= t, tb > 2.
    Rounding is monotone, so:

    * the next trace rises: fl(tb t) >= fl(2 t) = 2 t, so
      t+ = fl(fl(tb t) - ta) >= fl(2 t - ta) >= t, since 2 t - ta >= t
      (where 2 t overflows, t+ = inf - ta = inf);
    * the next child is pruned: t t+ >= ta t gives fl(fl(t t+) - tb) >= c',
      so it is > cutoff and >= t; and t > 2 with t+ >= tb gives
      fl(fl(t t+) - tb) >= fl(2 t+ - tb) >= t+.

    The step (t, t+) meets the same conditions, so every later child that
    keeps a is pruned and every later trace is >= the one before it and >=
    tb: the break test `c > cutoff and c >= t and c >= tb` reduces to
    c > cutoff, and the run emits each trace up to the break, with no gap,
    and refuses none (each is > 2).  From such a step the walk forms
    c = t tb - ta, emits it and shifts, the same floats in the same order,
    and counts the room left in the chunk instead of its length.  When the
    room is spent while c is due, the loop cuts the chunk itself, or the
    cap refuses c.  A NaN fails the entry test; with ta = t = inf it passes,
    c = inf tb - inf is NaN, and the loop emits NaN to the cap.  In exact
    arithmetic c' >= t alone gives t (t - 1) >= tb, and the test tb <= t is
    not needed; it keeps the float argument free of a margin, and a reduced
    walk, where in exact arithmetic each mediant's trace is the largest of
    its triangle, meets it.
    """
    if not length_cutoff > 0.0:
        raise DomainError(f"length cutoff must be positive, got {length_cutoff!r}")
    if length_cutoff > _MAX_CUTOFF:
        raise DomainError(
            f"length cutoff must be <= {_MAX_CUTOFF} for a finite trace cutoff,"
            f" got {length_cutoff!r}"
        )
    root = reduce_to_minimal(triple)
    x0, y0, z0 = root.x, root.y, root.z
    trace_cutoff = 2.0 * cosh(0.5 * length_cutoff)
    if max_records < 0:  # a negative cap is exceeded by no record at all
        raise _record_limit(max_records, length_cutoff)

    # the chunk takes `bound` more traces: then it is full, or at the record cap
    chunk, done, bound = [], 0, min(_CHUNK, max_records)
    emit = chunk.append

    def cut():  # refuse the next trace at the cap, or yield the full chunk and start another
        nonlocal chunk, done, bound, emit
        if done + len(chunk) >= max_records:
            raise _record_limit(max_records, length_cutoff)
        done += len(chunk)
        yield chunk
        chunk = []
        emit, bound = chunk.append, min(_CHUNK, max_records - done)

    for p, q, t in ((0, 1, x0), (1, 0, y0)):
        if not t > trace_cutoff:
            if len(chunk) >= bound:
                yield from cut()
            stretches.append((p, q, 0, 0, 1))
            emit(t)
    # (ap, aq, bp, bq, ta, tb, t): the triangle that keeps a and b and adds a + b
    queue = deque(((0, 1, 1, 0, x0, y0, z0), (0, 1, -1, 0, x0, y0, x0 * y0 - z0)))
    while queue:
        ap, aq, bp, bq, ta, tb, t = queue.popleft()
        # the twist run that keeps b: step n adds a + n b, trace t, to the kept
        # u = a + (n - 1) b, trace ta; the open stretch, from step `start`, holds
        # the done + len(chunk) - mark traces emitted since the pop (a cut keeps the sum)
        n, start, mark = 1, 0, done + len(chunk)
        while True:
            # `not t > cutoff` keeps a NaN trace (see the module docstring)
            if not t > trace_cutoff:
                if len(chunk) >= bound:
                    yield from cut()
                emit(t)
                if not start:  # the first emission of the run
                    start = n
            # a NaN compares false in both prune tests, so its subtree is kept, not lost
            c = ta * t - tb
            if not (c > trace_cutoff and c >= ta and c >= t):
                up, uq = ap + (n - 1) * bp, aq + (n - 1) * bq
                if c <= 2.0:
                    raise _non_hyperbolic_child(2 * up + bp, 2 * uq + bq, c)
                queue.append((up, uq, up + bp, uq + bq, ta, t, c))
            elif ta <= t >= tb > 2.0:
                # the run rises from here: every later child that keeps a is
                # pruned, and every later trace up to the break is emitted
                c = t * tb - ta
                while not c > trace_cutoff:
                    if len(chunk) >= bound:
                        yield from cut()
                    for _ in repeat(None, bound - len(chunk)):
                        emit(c)
                        ta, t = t, c
                        c = t * tb - ta
                        if c > trace_cutoff:
                            break
                break
            c = t * tb - ta
            if c > trace_cutoff and c >= t and c >= tb:
                break
            n += 1
            if c <= 2.0:
                raise _non_hyperbolic_child(ap + n * bp, aq + n * bq, c)
            ta, t = t, c
        if start:
            stretches.append((ap + start * bp, aq + start * bq, bp, bq, done + len(chunk) - mark))

    done += len(chunk)
    if chunk:
        yield chunk
    _assert_distinct(stretches, done)


def trace_chunks(triple: TraceTriple, length_cutoff: float, *, max_records: int | None = None):
    """The traces of `enumerate_geodesics(triple, length_cutoff)`, chunk by chunk.

    A generator of new lists of at most 4,096 traces each, in the order the
    walk emits them, not sorted; joined, they hold each trace of the
    spectrum once.  The walk runs as the chunks are asked for, and raises
    each refusal of `enumerate_geodesics` where it meets it: the cutoff and
    the reduction before the first chunk, the record cap and a child trace
    <= 2 at their emission, and a slope enumerated twice after the last
    chunk.  The cap is `max_records`, or if it is None `DEFAULT_MAX_RECORDS`
    as it stands at this call.  No slope, length or record is built, and
    the collector runs as the caller left it.
    """
    if max_records is None:
        max_records = DEFAULT_MAX_RECORDS
    return _walk(triple, length_cutoff, max_records, [])


def enumerate_geodesics(triple: TraceTriple, length_cutoff: float):
    """All simple closed geodesics of length <= `length_cutoff`, each once.

    Records are sorted by (trace, slope) ascending, slopes in rational
    order, and so by length; distinct slopes of equal length stay distinct
    records.  They join the chunks of the walk that `trace_chunks` gives,
    with the slopes of its list of stretches.  Slopes are assigned in the
    marking of the tree root, `reduce_to_minimal(triple)`: the root edge
    joins 0/1 and 1/0, with traces x and y, and its two triangles add 1/1
    (trace z) and -1/1 (trace xy - z).  The module docstring describes the
    walk.

    The reduction refuses a triple that `trace_triple` refuses, a cutoff
    outside (0, 1419] raises `DomainError`, more than `DEFAULT_MAX_RECORDS`
    records (read at call time) `ResourceLimitError`, and a kept child
    trace <= 2 `NonHyperbolicError`, where the walk forms it.

    The cyclic garbage collector is paused only from the slope expansion
    through the sort, where the tracked tuples are made, and so also where
    the lengths are formed; the caller's state is restored on return and on
    every raise.
    """
    stretches = []
    chunks = _walk(triple, length_cutoff, DEFAULT_MAX_RECORDS, stretches)
    traces = list(chain.from_iterable(chunks))
    # unpaused, the 215,174 slopes and records of FN(24.8, 0, 0) at cutoff 25.5
    # trigger ~920 collections, near half the call; the walk's tuples trigger none
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = (islice(zip(count(p, bp), count(q, bq)), n) for p, q, bp, bq, n in stretches)
        # the walk forms only canonical, primitive vectors: skip the check
        slopes = map(_make_slope, chain.from_iterable(runs))
        records = list(map(_make_record, zip(slopes, traces, lengths_from_traces(traces))))
        del stretches, traces  # the records hold every slope and float
        records.sort(key=attrgetter("trace", "slope"))
    finally:
        if was_enabled:
            gc.enable()
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

    @cache
    def word(p, q):
        if (p, q) == (0, 1):
            return gen_a
        if (p, q) == (1, 0):
            return gen_b
        (p1, q1), (p2, q2) = _farey_parents(p, q)
        return mat_mul(word(p1, q1), word(p2, q2))

    return abs(mat_trace(word(abs(slope.p), slope.q)))
