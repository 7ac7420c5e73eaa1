import gc
import random
from collections import Counter, deque
from fractions import Fraction
from functools import partial
from itertools import chain
from math import acosh, cosh, exp, gcd, inf, isnan, log, nan, sinh, sqrt, ulp

import mpmath
import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    IdentityKind,
    NonHyperbolicError,
    ResourceLimitError,
    Slope,
    TraceTriple,
    brute_force_trace,
    enumerate_geodesics,
    evaluate,
    from_fenchel_nielsen,
    length_from_trace,
    markov_child,
    reduce_to_minimal,
    trace_chunks,
    trace_triple,
)
from hypident import curves, identities
from helpers import exact_markoff_traces, reference_walk, sorted_traces

# FN(8, 0, 0) with y one ulp lower: at cutoff 20, 11 adjacent pairs of equal
# length have unequal traces, and in 7 of them rational and trace order disagree
PINNED = trace_triple(54.61646567203297, 2.0013423008033646, 54.653121534907235)

# the chunk sizes a chunked walk is checked at: cuts after every trace, every
# other one, at odd places, and at the library's own size
CHUNK_SIZES = (1, 2, 7, curves._CHUNK)


def _refusal(call):
    # the type and message of what `call` raises
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_markov_child_examples():
    assert markov_child(3.0, 3.0, 3.0, 3) == (3.0, 3.0, 6.0)
    assert markov_child(3.0, 3.0, 6.0, 2) == (3.0, 15.0, 6.0)
    assert markov_child(3.0, 3.0, 4.0, 3) == (3.0, 3.0, 5.0)


def test_markov_child_preserves_kappa():
    triple = trace_triple(3.0, 3.0, 4.0)
    for position in (1, 2, 3):
        child = trace_triple(*markov_child(triple.x, triple.y, triple.z, position))
        assert abs(child.kappa - triple.kappa) <= 1e-9 * max(1.0, abs(triple.kappa))


def test_markov_child_rejects_bad_position():
    with pytest.raises(DomainError):
        markov_child(3.0, 3.0, 3.0, 0)


def test_reduce_examples():
    assert reduce_to_minimal(trace_triple(3.0, 3.0, 6.0)) == trace_triple(3.0, 3.0, 3.0)
    assert reduce_to_minimal(trace_triple(3.0, 15.0, 6.0)) == trace_triple(3.0, 3.0, 3.0)
    assert reduce_to_minimal(trace_triple(3.0, 3.0, 3.0)) == trace_triple(3.0, 3.0, 3.0)


def test_enumerate_modular_torus_small_cutoff():
    records = enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 4.0)
    assert len(records) == 6
    assert [r.trace for r in records] == [3.0, 3.0, 3.0, 6.0, 6.0, 6.0]
    short = 2.0 * acosh(1.5)
    long = 2.0 * acosh(3.0)
    for r in records[:3]:
        assert abs(r.length - short) <= 1e-14
    for r in records[3:]:
        assert abs(r.length - long) <= 1e-14
    slopes = {(r.slope.p, r.slope.q) for r in records}
    assert slopes == {(0, 1), (1, 0), (1, 1), (-1, 1), (1, 2), (2, 1)}


def test_enumerate_below_systole_is_empty():
    assert enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 1.5) == []


def test_enumerate_root_invariance():
    lengths_a = [r.length for r in enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 14.0)]
    lengths_b = [r.length for r in enumerate_geodesics(trace_triple(3.0, 3.0, 6.0), 14.0)]
    assert len(lengths_a) == len(lengths_b)
    assert all(abs(u - v) <= 1e-10 for u, v in zip(lengths_a, lengths_b))


def test_enumerate_sorted_and_distinct():
    # records sorted by (trace, slope), and so by length; `sorted_traces`
    # gives their trace column, in the same order
    for triple, cutoff in [
        (trace_triple(3.0, 3.0, 4.0), 14.0),
        (from_fenchel_nielsen(FenchelNielsen(8.0, 0.0, 0.0)), 20.0),
        (trace_triple(3.0, 3.0, 3.0), 45.0),
        (from_fenchel_nielsen(FenchelNielsen(1.2, 0.4, 1.5)), 30.0),
        (PINNED, 20.0),
    ]:
        records = enumerate_geodesics(triple, cutoff)
        assert len({(r.slope.p, r.slope.q) for r in records}) == len(records)
        for u, v in zip(records, records[1:]):
            assert u.trace < v.trace or (u.trace == v.trace and u.slope < v.slope)
            assert u.length <= v.length
        for r in records:
            assert abs(r.length - 2.0 * acosh(0.5 * r.trace)) <= 1e-14
        traces = sorted_traces(triple, cutoff)
        assert traces == [r.trace for r in records]
        assert list(map(length_from_trace, traces)) == [r.length for r in records]


def test_slope_completeness_matches_totients():
    # every primitive class with max(|p|, q) <= N appears once the cutoff
    # passes the longest such geodesic
    records = enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 30.0)
    # the walk skips the slope checks; every slope it emits must pass them
    for r in records:
        assert type(r.slope) is Slope and r.slope == Slope(r.slope.p, r.slope.q)
    got = {(r.slope.p, r.slope.q) for r in records}
    for n in (3, 5):
        want = {(1, 0)}
        for q in range(1, n + 1):
            for p in range(-n, n + 1):
                if gcd(abs(p), q) == 1:
                    want.add((p, q))
        subset = {s for s in got if max(abs(s[0]), s[1]) <= n}
        assert subset == want
    # Farey fractions in [0, 1] with denominator <= 5 number 11
    farey5 = [s for s in got if s[1] >= 1 and 0 <= s[0] <= s[1] and s[1] <= 5]
    assert len(farey5) == 11


def test_kappa_conserved_along_tree():
    # replay the tree through markov_child to depth 8 and watch kappa;
    # deviation is measured relative to the triple's own magnitude, since
    # the combination x^2+y^2+z^2-xyz is ill-conditioned once traces grow
    triple = trace_triple(2.9, 3.3, 4.9)
    base = triple.kappa
    frontier = [(triple.x, triple.y, triple.z)]
    worst = 0.0
    for _ in range(8):
        new_frontier = []
        for x, y, z in frontier:
            for position in (1, 2, 3):
                child = markov_child(x, y, z, position)
                scale = max(1.0, sum(v * v for v in child), abs(child[0] * child[1] * child[2]))
                kappa = trace_triple(*child).kappa
                worst = max(worst, abs(kappa - base) / scale)
                new_frontier.append(child)
        frontier = new_frontier[:20]
    assert worst <= 1e-9


def test_pruning_soundness():
    for coords in [(3.0, 3.0, 3.0), (2.9, 3.3, 4.9)]:
        triple = trace_triple(*coords)
        tight = enumerate_geodesics(triple, 12.0)
        loose = [r for r in enumerate_geodesics(triple, 17.0) if r.length <= 12.0]
        assert tight == loose


def test_enumerate_deterministic():
    triple = trace_triple(2.9, 3.3, 4.9)
    first = enumerate_geodesics(triple, 15.0)
    second = enumerate_geodesics(triple, 15.0)
    assert first == second
    assert repr(first) == repr(second)


def test_equal_lengths_of_unequal_traces_come_in_trace_order():
    records = enumerate_geodesics(PINNED, 20.0)
    assert len(records) == 456
    pairs = [
        (u, v)
        for u, v in zip(records, records[1:])
        if u.length == v.length and u.trace != v.trace
    ]
    assert len(pairs) == 11 and all(u.trace < v.trace for u, v in pairs)
    against = [(u.slope, v.slope) for u, v in pairs if u.slope > v.slope]
    assert len(against) == 7
    assert against[0] == (Slope(1, 1), Slope(-1, 1))


def test_enumerate_resource_cap(monkeypatch):
    # the cap is read at call time
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 10)
    with pytest.raises(ResourceLimitError, match="exceeded 10 records"):
        enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 25.0)


def test_resource_cap_counts_twist_run_emissions(monkeypatch):
    # on a thin point nearly every record is emitted inside a twist run, so
    # the cap must be checked there, not only once per queue entry
    triple = from_fenchel_nielsen(FenchelNielsen(8.0, 0.0, 0.0))
    count = len(enumerate_geodesics(triple, 20.0))
    assert count > 400
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", count)
    assert len(enumerate_geodesics(triple, 20.0)) == count
    assert len(sorted_traces(triple, 20.0, max_records=count)) == count
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", count - 1)
    refused = _refusal(lambda: enumerate_geodesics(triple, 20.0))
    assert refused[0] is ResourceLimitError
    assert _refusal(lambda: sorted_traces(triple, 20.0, max_records=count - 1)) == refused


def test_resource_cap_counts_root_emissions(monkeypatch):
    # the roots 0/1 and 1/0 are the only records here: the walk emits none,
    # and a cut between them does not reset the count
    triple = trace_triple(3.0, 3.0, 4.5)
    for size in CHUNK_SIZES:
        monkeypatch.setattr(curves, "_CHUNK", size)
        assert len(sorted_traces(triple, 2.0 * acosh(2.0), max_records=2)) == 2
        for cap in (1, 0, -1):
            with pytest.raises(ResourceLimitError, match=f"exceeded {cap} records"):
                sorted_traces(triple, 2.0 * acosh(2.0), max_records=cap)
    # below the shortest geodesic no trace is emitted: only a negative cap is exceeded
    assert sorted_traces(triple, 0.1, max_records=0) == []
    with pytest.raises(ResourceLimitError, match="exceeded -1 records below cutoff 0.1$"):
        sorted_traces(triple, 0.1, max_records=-1)


@pytest.mark.parametrize(
    "b, t, k, cutoff",
    [(0.02, 0.0, 1.0, 25.0), (0.05, 0.013, 0.0, 25.0), (1.2, 0.4, 1.5, 30.0)],
)
def test_twist_family_matches_closed_form(b, t, k, cutoff, unreduced):
    # in the Fenchel-Nielsen marking, the curve crossing A once and twisted
    # q times about it has slope (+-1, q) and trace 2 s cosh((t +- q b)/2),
    # the closed form of the recurrence y_{n+1} = x y_n - y_{n-1}
    s = sqrt((cosh(b) + cosh(0.5 * k)) / (2.0 * sinh(0.5 * b) ** 2))
    records = enumerate_geodesics(from_fenchel_nielsen(FenchelNielsen(b, t, k)), cutoff)
    family = [r for r in records if abs(r.slope.p) == 1]
    assert len(family) >= 40
    for r in family:
        closed = 2.0 * s * cosh(0.5 * (t + r.slope.p * r.slope.q * b))
        assert abs(r.trace - closed) <= 1e-10 * closed, r.slope


def _rectangular_count(b, cutoff):
    # FN(b, 0, 0) below the cutoff: the short curve, of length l = 2 acosh(coth(b/2)),
    # and the family A B^n of lengths 2 acosh(cosh(b/2) cosh(n l / 2)) for |n| <= N,
    # so 2 floor(N) + 2 records; the next family starts near 2b, past the cutoff
    with mpmath.workdps(50):
        half = mpmath.mpf(b) / 2
        ell = 2 * mpmath.acosh(mpmath.coth(half))
        n = 2 * mpmath.acosh(mpmath.cosh(mpmath.mpf(cutoff) / 2) / mpmath.cosh(half)) / ell
        return 2 * int(mpmath.floor(n)) + 2


# ROADMAP item 18: the short curve's trace 2 + e holds e only to 2.2e-16, so
# its twist run steps too finely and emits 6 and 50 records past the cutoff
_TOO_FINE = pytest.mark.xfail(strict=True, reason="twist run about the short curve (item 18)")


@pytest.mark.parametrize(
    "b, cutoff",
    [
        (19.0, 19.7),
        (19.0, 20.0),
        (24.8, 25.5),
        pytest.param(27.5, 28.2, marks=_TOO_FINE, id="FN(27.5,0,0)"),
        pytest.param(29.0, 29.7, marks=_TOO_FINE, id="FN(29,0,0)"),
    ],
)
def test_rectangular_torus_count_is_the_closed_form(b, cutoff):
    # 11,840, 14,496 and 215,174 records; the walk gives 830,022 for 830,016
    # and 1,757,194 for 1,757,144
    triple = from_fenchel_nielsen(FenchelNielsen(b, 0.0, 0.0))
    assert sum(map(len, trace_chunks(triple, cutoff))) == _rectangular_count(b, cutoff)


@pytest.mark.parametrize(
    "triple, cutoff, reduce",
    [
        (trace_triple(3.0, 3.0, 3.0), 25.0, True),
        (from_fenchel_nielsen(FenchelNielsen(8.0, 0.0, 0.0)), 20.0, True),
        (from_fenchel_nielsen(FenchelNielsen(1.2, 0.4, 1.5)), 30.0, True),
        # unreduced, each with a twist run whose first steps lie past the
        # cutoff and a later one within it: that run's stretch opens late
        (from_fenchel_nielsen(
            FenchelNielsen(15.679354444143703, -0.9572845999289541, 0.001961333874452323)
        ), 12.0, False),
        (from_fenchel_nielsen(
            FenchelNielsen(19.945105989489377, 21.05562294421658, 0.005273220096893411)
        ), 12.0, False),
    ],
)
def test_walk_matches_a_plain_breadth_first_walk(triple, cutoff, reduce, request):
    root = reduce_to_minimal(triple) if reduce else triple
    expected = Counter((slope, t.hex()) for slope, t in reference_walk(root, cutoff))
    if not reduce:
        request.getfixturevalue("unreduced")
    records = enumerate_geodesics(triple, cutoff)
    assert Counter(((r.slope.p, r.slope.q), r.trace.hex()) for r in records) == expected


def _chunked_walk(triple, cutoff, max_records):
    # the chunks that `_walk` yields, and the stretches it fills
    stretches = []
    return list(curves._walk(triple, cutoff, max_records, stretches)), stretches


def _walked(stretches, traces):
    # (slope, trace bits) of every emission of `_walk`, its stretches expanded
    slopes = ((p + i * bp, q + i * bq) for p, q, bp, bq, n in stretches for i in range(n))
    return Counter(zip(slopes, map(float.hex, traces)))


def _log_uniform(rng, low, high):
    return exp(rng.uniform(log(low), log(high)))


# family -> (draw (b, t, k, cutoff) from a seeded rng, whether the walk is reduced)
_WALK_FAMILIES = {
    # in the Fenchel-Nielsen marking a twist of up to 3b moves the least trace
    # of a root run a step or more in: the run falls, then rises
    "falls-then-rises": (
        lambda rng: (b := rng.uniform(1.0, 6.0), 3.0 * b * rng.uniform(-1.0, 1.0),
                     rng.choice((0.0, rng.uniform(0.1, 3.0))), 14.0),
        False,
    ),
    # thin cusps near FN(12, 0, 0): a few runs, hundreds of steps each, rising from entry
    "rising-at-entry": (
        lambda rng: (rng.uniform(10.0, 14.0), 0.0, 0.0, rng.uniform(13.0, 16.0)),
        True,
    ),
    "large-twists": (
        lambda rng: (b := _log_uniform(rng, 0.05, 30.0), 3.0 * b * rng.uniform(-1.0, 1.0),
                     rng.choice((0.0, _log_uniform(rng, 1e-3, 10.0))), 12.0),
        True,
    ),
    "k-to-0": (
        lambda rng: (b := rng.uniform(0.3, 8.0), b * rng.uniform(-1.0, 1.0),
                     _log_uniform(rng, 1e-12, 1e-6), 14.0),
        True,
    ),
}


@pytest.mark.parametrize("family", list(_WALK_FAMILIES))
def test_walk_is_the_reference_walk_bit_for_bit(family, monkeypatch):
    # the rising-run loop of `_walk` skips the child tests that the plain
    # breadth-first walk makes: at seeded points of each family, both emit the
    # same slopes with the same trace bits, as many times.  Cut into chunks of
    # any size, even inside a rising run, the walk fills the same stretches
    # and emits the same floats in the same order, in full chunks but the last
    draw, reduce = _WALK_FAMILIES[family]
    if not reduce:
        monkeypatch.setattr(curves, "reduce_to_minimal", lambda triple: triple)
    rng = random.Random(f"walk-{family}")
    compared, falling, steps = 0, 0, 0
    for _ in range(60):
        b, t, k, cutoff = draw(rng)
        try:
            triple = from_fenchel_nielsen(FenchelNielsen(b, t, k))
            _chunked_walk(triple, cutoff, 200_000)
        except DomainError:
            continue  # a refused point, or a wrong surface (NonHyperbolicError is one)
        root = curves.reduce_to_minimal(triple)
        expected = Counter((slope, trace.hex()) for slope, trace in reference_walk(root, cutoff))
        walks = []
        for size in CHUNK_SIZES:
            monkeypatch.setattr(curves, "_CHUNK", size)
            chunks, stretches = _chunked_walk(triple, cutoff, 200_000)
            assert all(chunks) and all(len(chunk) == size for chunk in chunks[:-1])
            traces = list(chain.from_iterable(chunks))
            assert _walked(stretches, traces) == expected, (b, t, k, cutoff, size)
            walks.append((stretches, list(map(float.hex, traces))))
        assert walks.count(walks[0]) == len(walks), (b, t, k, cutoff)
        x, y, z = root.x, root.y, root.z
        falling += min(z, x * y - z) < x  # a root run whose second trace is below its first
        steps = max(steps, max((n for *_, n in stretches), default=0))
        compared += 1
    assert compared >= 50
    if family == "falls-then-rises":
        assert falling >= 20
    if family == "rising-at-entry":
        assert steps >= 100


def test_record_cap_inside_a_rising_run_refuses_at_the_same_count():
    # FN(12, 0, 0) at cutoff 14: 670 records in 4 stretches, nearly all emitted
    # by the rising-run loop, which counts its room instead of the list
    triple = from_fenchel_nielsen(FenchelNielsen(12.0, 0.0, 0.0))
    total = len(sorted_traces(triple, 14.0))
    assert total == 670 and max(n for *_, n in _chunked_walk(triple, 14.0, total)[1]) >= 300
    assert len(sorted_traces(triple, 14.0, max_records=total)) == total
    for cap in (total - 1, total // 2, 3):
        with pytest.raises(ResourceLimitError) as refused:
            sorted_traces(triple, 14.0, max_records=cap)
        assert str(refused.value) == f"enumeration exceeded {cap} records below cutoff 14.0"


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_record_cap_at_a_chunk_cut_refuses_at_the_same_count(size, monkeypatch):
    # FN(19, 0, 0) at cutoff 20: the two roots, then two rising runs of 7,247.
    # A cap at a multiple of the chunk size, or one either side of it, inside
    # a run: the walk yields a prefix of its emissions, never past the cap,
    # then refuses the next one, and `sorted_traces` and `evaluate` refuse
    # with the same message
    monkeypatch.setattr(curves, "_CHUNK", size)
    triple = from_fenchel_nielsen(FenchelNielsen(19.0, 0.0, 0.0))
    chunks, stretches = _chunked_walk(triple, 20.0, 14_496)
    emitted = list(chain.from_iterable(chunks))
    assert len(emitted) == 14_496 and [n for *_, n in stretches] == [1, 1, 7_247, 7_247]
    for at in (3_000, 8_900, 14_495):
        middle = -(-at // size) * size  # the first multiple of the size from `at` on
        for cap in (middle - 1, middle, middle + 1):
            if cap >= 14_496:
                continue
            # the last trace under the cap and the refused one are in one run
            assert 2 <= cap - 1 and cap < 7_249 or 7_249 <= cap - 1 and cap < 14_496
            message = f"enumeration exceeded {cap} records below cutoff 20.0"
            yielded = []
            with pytest.raises(ResourceLimitError, match=f"^{message}$"):
                for chunk in curves._walk(triple, 20.0, cap, []):
                    yielded += chunk
            assert yielded == emitted[: len(yielded)] and cap - size <= len(yielded) < cap
            refused = (ResourceLimitError, message)
            assert _refusal(lambda: sorted_traces(triple, 20.0, max_records=cap)) == refused
            assert _refusal(
                lambda: evaluate(IdentityKind.MCSHANE, triple, 20.0, max_records=cap)
            ) == refused
    assert sorted_traces(triple, 20.0, max_records=14_496) == sorted(emitted)
    assert evaluate(IdentityKind.MCSHANE, triple, 20.0, max_records=14_496).term_count == 14_496


def test_a_slope_walked_twice_is_refused_after_the_last_chunk(monkeypatch):
    # both root triangles queued twice: every slope past the roots is walked
    # twice, in overlapping stretches, and the duplicate check after the last
    # chunk refuses the walk however it is cut, from `evaluate` as well
    monkeypatch.setattr(curves, "deque", lambda entries: deque([*entries, *entries]))
    modular = trace_triple(3.0, 3.0, 3.0)
    for size in CHUNK_SIZES:
        monkeypatch.setattr(curves, "_CHUNK", size)
        for call in (
            lambda: sorted_traces(modular, 10.0),
            lambda: enumerate_geodesics(modular, 10.0),
            lambda: evaluate(IdentityKind.THM12, modular, 10.0),
        ):
            with pytest.raises(AssertionError, match="a slope was enumerated twice"):
                call()


def test_overlapping_stretches_trip_the_duplicate_check():
    # (p, q, bp, bq, n) is the slopes (p, q) + i (bp, bq), i < n.  A stretch
    # longer than the number of stretches is a long run: a range of keys,
    # met with the set of the others' keys by `in` and with each other long
    # run as two arithmetic progressions
    for disjoint in (
        [(0, 1, 0, 0, 1), (1, 0, 0, 0, 1), (1, 1, 1, 0, 3), (-1, 1, -1, 0, 2)],
        [(1, 1, 1, 0, 5), (6, 1, 1, 0, 4)],  # one line, one after the other
        [(1, 1, 2, 0, 5), (2, 1, 2, 0, 4)],  # one line, interleaved: odd and even p
        [(0, 1, 1, 1, 5), (3, 1, 0, 1, 3)],  # the lines cross at 3/4, past 3/3
        [(0, 1, -1, 0, 5), (-3, 2, 0, 1, 5)],  # a falling key run beside -3/q, q >= 2
    ):
        curves._assert_distinct(disjoint, sum(stretch[4] for stretch in disjoint))
    for repeated in (
        [(0, 1, 1, 1, 3), (2, 3, 1, 1, 2)],  # 2/3 twice
        [(1, 2, -1, 1, 3), (-1, 4, -1, 1, 1)],  # -1/4 twice
        [(1, 1, 0, 0, 2)],  # no step: 1/1 twice
        [(0, 1, 0, 0, 1), (3, 1, 0, 0, 1), (1, 1, 1, 0, 5)],  # a long run meets 3/1
        [(0, 1, 1, 1, 5), (3, 1, 0, 1, 5)],  # two steps cross at 3/4
        [(1, 1, 1, 0, 5), (4, 1, 1, 0, 4)],  # one line: 4/1 and 5/1 twice
        [(1, 1, 1, 0, 5), (-3, 1, 2, 0, 5)],  # one line, two steps: 1/1, 3/1, 5/1 twice
        [(0, 1, -1, 0, 5), (-3, 1, 0, 1, 5)],  # a falling key run: -3/1 twice
    ):
        count = sum(stretch[4] for stretch in repeated)
        with pytest.raises(AssertionError, match="a slope was enumerated twice"):
            curves._assert_distinct(repeated, count)


def test_duplicate_check_agrees_with_a_set_of_slopes():
    # seeded random stretch lists with q >= 0, a good share with two or more
    # long runs: the check trips exactly when the slopes are not distinct
    rng = random.Random(22)
    tally = Counter()
    for _ in range(20_000):
        stretches = [
            (rng.randint(-8, 8), rng.randint(0, 8), rng.randint(-3, 3), rng.randint(0, 3),
             rng.choice((1, 1, 2, 3, rng.randint(4, 40))))
            for _ in range(rng.randint(1, 6))
        ]
        slopes = [(p + i * bp, q + i * bq) for p, q, bp, bq, n in stretches for i in range(n)]
        distinct = len(set(slopes)) == len(slopes)
        try:
            curves._assert_distinct(stretches, len(slopes))
        except AssertionError:
            assert not distinct, stretches
        else:
            assert distinct, stretches
        tally[distinct, sum(n > len(stretches) for *_, n in stretches) >= 2] += 1
    assert len(tally) == 4 and min(tally.values()) >= 1000, tally


def test_trace_chunks_builds_no_slope(monkeypatch):
    triple = from_fenchel_nielsen(FenchelNielsen(8.0, 0.0, 0.0))
    expected = list(trace_chunks(triple, 20.0))

    def refuse(*args):
        raise AssertionError("a slope was built")

    monkeypatch.setattr(curves, "_make_slope", refuse)
    monkeypatch.setattr(curves, "Slope", refuse)
    assert list(trace_chunks(triple, 20.0)) == expected
    with pytest.raises(AssertionError, match="a slope was built"):
        enumerate_geodesics(triple, 20.0)


def test_enumerate_refuses_a_child_trace_at_most_2(unreduced, monkeypatch):
    # unreduced wrong-kappa roots whose walks form a negative child trace: it
    # is refused where it is formed, before the walk runs on to the record cap
    huge = trace_triple(13685.580536680813, 274139491.392735, 3751758067708.733)
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 20_000)
    with pytest.raises(NonHyperbolicError, match="slope -1/2 must exceed 2, got -92.66"):
        enumerate_geodesics(huge, 14.0)
    twisted = from_fenchel_nielsen(
        FenchelNielsen(17.673630425906918, -43.28413822646521, 0.19816199865804)
    )
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 200_000)
    with pytest.raises(NonHyperbolicError, match="got -30.17"):
        enumerate_geodesics(twisted, 1.1076)
    # a step of a twist run, not a queued child, forms the bad trace
    run_step = TraceTriple(4.217408995868223, 2.0804290307027227, 2.359975183840471, 0.0, 0.0)
    with pytest.raises(
        NonHyperbolicError,
        match=r"^trace of slope 2/1 must exceed 2, got 0\.692351888331487: not a hyperbolic",
    ):
        enumerate_geodesics(run_step, 6.0)
    # a run that rises at entry about an unvalidated trace below 2 (1/0's 1.5):
    # its next step is refused where it is formed, not emitted by a rising-run loop
    below_two = TraceTriple(3.0, 1.5, 3.0, 0.0, 0.0)
    with pytest.raises(NonHyperbolicError, match=r"^trace of slope 2/1 must exceed 2, got 1\.5:"):
        enumerate_geodesics(below_two, 2.0)


def test_enumerate_keeps_nan_children(request, monkeypatch):
    # an unvalidated root with infinite traces: the reduction refuses it
    # before any walk.  Walked unreduced, inf * 3 - inf gives NaN children
    # before any trace <= 2.  The prune test and the child refusal both let
    # NaN through, so the walk keeps those subtrees (NaN throughout) and
    # hits the record cap instead of returning a spectrum with holes
    root = TraceTriple(inf, inf, 3.0, nan, 0.0)
    with pytest.raises(NonHyperbolicError, match="^trace x must exceed 2, got inf$"):
        enumerate_geodesics(root, 4.0)
    request.getfixturevalue("unreduced")
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 1_000)
    with pytest.raises(ResourceLimitError):
        enumerate_geodesics(root, 4.0)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_a_nan_run_in_the_rising_loop_runs_to_the_cap(size, unreduced, monkeypatch):
    # walked unreduced from (inf, 3, inf), the root 1/0 emits 3.0; the first
    # queue entry has ta = t = inf and tb = 3, so its child that keeps a is
    # pruned, and it enters the rising-run loop with c = inf * 3 - inf = NaN.
    # The loop emits NaN in full chunks, cut where they fill, up to the cap,
    # which refuses the next one; `evaluate` refuses the first chunk that
    # holds a NaN, or the cap if no chunk comes before it
    monkeypatch.setattr(curves, "_CHUNK", size)
    root = TraceTriple(inf, 3.0, inf, nan, 0.0)
    yielded = []
    message = "^enumeration exceeded 1000 records below cutoff 4.0$"
    with pytest.raises(ResourceLimitError, match=message):
        for chunk in curves._walk(root, 4.0, 1_000, []):
            assert len(chunk) == size
            yielded += chunk
    if size < 1_000:
        assert 1_000 - size <= len(yielded) < 1_000
        assert yielded[0] == 3.0 and all(map(isnan, yielded[1:]))
        refused = NonHyperbolicError, "got nan"
    else:
        assert yielded == []
        refused = ResourceLimitError, message
    with pytest.raises(refused[0], match=refused[1]):
        evaluate(IdentityKind.MCSHANE, root, 4.0, max_records=1_000)


def test_record_pass_refuses_a_bad_trace(unreduced):
    # an unvalidated root whose walk ends with the trace 2 of slope 1/0 as
    # its only record: the refusal is the one of `length_from_trace`
    root = TraceTriple(10.0, 2.0, 10.0, 4.0, 0.0)
    with pytest.raises(NonHyperbolicError, match="hyperbolic element, got 2.0$"):
        enumerate_geodesics(root, 4.0)


def test_collector_is_paused_through_the_record_pass(monkeypatch, unreduced):
    # `enumerate_geodesics` turns traces into lengths inside its pause, and a
    # raise there restores the collector; `evaluate` turns the traces of
    # `trace_chunks` into lengths with the collector as the caller left it.
    # Both read the column form.  (3, 3, 3) is its own reduction
    seen = []
    lengths_from_traces = curves.lengths_from_traces

    def column_spy(traces):
        for length in lengths_from_traces(traces):
            seen.append(gc.isenabled())
            yield length

    monkeypatch.setattr(curves, "lengths_from_traces", column_spy)
    monkeypatch.setattr(identities, "lengths_from_traces", column_spy)
    count = len(enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 10.0))
    evaluate(IdentityKind.MCSHANE, trace_triple(3.0, 3.0, 3.0), 10.0)
    assert count > 0 and seen == [False] * count + [True] * count

    def refuse(traces):
        raise ArithmeticError("refused inside the pause")

    monkeypatch.setattr(curves, "lengths_from_traces", refuse)
    with pytest.raises(ArithmeticError, match="inside the pause"):
        enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 10.0)
    assert gc.isenabled()
    # the column form refuses a bad trace of an unvalidated root, alike for both
    monkeypatch.setattr(curves, "lengths_from_traces", lengths_from_traces)
    monkeypatch.setattr(identities, "lengths_from_traces", lengths_from_traces)
    root = TraceTriple(10.0, 2.0, 10.0, 4.0, 0.0)
    refused = _refusal(lambda: enumerate_geodesics(root, 4.0))
    assert refused[0] is NonHyperbolicError
    assert _refusal(lambda: evaluate(IdentityKind.MCSHANE, root, 4.0)) == refused


def test_collector_is_restored_after_the_record_cap(monkeypatch):
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 5)
    for spectrum in (enumerate_geodesics, partial(sorted_traces, max_records=5)):
        assert gc.isenabled()
        with pytest.raises(ResourceLimitError):
            spectrum(trace_triple(3.0, 3.0, 3.0), 25.0)
        assert gc.isenabled()


def test_collector_disabled_by_the_caller_stays_disabled():
    gc.disable()
    try:
        assert len(enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 10.0)) > 0
        assert not gc.isenabled()
        assert len(sorted_traces(trace_triple(3.0, 3.0, 3.0), 10.0)) > 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_enumerate_rejects_bad_cutoff():
    # 2cosh(L/2) overflows at 1500 and is inf at 1420.5, which prunes nothing;
    # an infinite cutoff is too long, not negative
    for cutoff, message in (
        (0.0, "must be positive, got 0.0"),
        (nan, "must be positive, got nan"),
        (-inf, "must be positive, got -inf"),
        (1500.0, "for a finite trace cutoff, got 1500.0"),
        (1420.5, "for a finite trace cutoff, got 1420.5"),
        (inf, "for a finite trace cutoff, got inf"),
    ):
        refused = _refusal(lambda: enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), cutoff))
        assert refused[0] is DomainError and refused[1].endswith(message)
        assert _refusal(lambda: sorted_traces(trace_triple(3.0, 3.0, 3.0), cutoff)) == refused


def test_slope_canonical_and_order():
    for p, q in ((1, -2), (-1, 0), (0, -1)):
        with pytest.raises(DomainError):
            Slope(p, q)
    assert Slope(0, 1) < Slope(1, 2) < Slope(1, 0)
    assert Slope(-1, 1) < Slope(0, 1)
    assert not Slope(1, 0) < Slope(1, 0)


def _rational_key(slope):
    # independent oracle for the slope order: exact rationals, 1/0 last
    return (1, Fraction(0)) if slope.q == 0 else (0, Fraction(slope.p, slope.q))


def test_slope_order_matches_fractions():
    rng = random.Random(7)
    slopes = [Slope(1, 0), Slope(0, 1)]
    while len(slopes) < 300:
        p, q = rng.randint(-60, 60), rng.randint(1, 60)
        if gcd(abs(p), q) == 1:
            slopes.append(Slope(p, q))
    for u in slopes:
        assert not Slope(1, 0) < u
        for v in rng.sample(slopes, 30) + [Slope(1, 0), u]:
            ku, kv = _rational_key(u), _rational_key(v)
            assert (u < v, u > v, u <= v, u >= v) == (ku < kv, ku > kv, ku <= kv, ku >= kv)


@pytest.mark.parametrize(
    "triple, cutoff",
    [
        (trace_triple(3.0, 3.0, 3.0), 14.0),  # 44 equal-length neighbours
        (from_fenchel_nielsen(FenchelNielsen(1.2, 0.0, 1.5)), 16.0),  # 34
    ],
)
def test_enumerate_equal_lengths_in_rational_order(triple, cutoff):
    # equal lengths come in trace order, and equal traces in rational order
    records = enumerate_geodesics(triple, cutoff)
    ties = [(u, v) for u, v in zip(records, records[1:]) if u.length == v.length]
    assert len(ties) >= 30
    for u, v in ties:
        assert (u.trace, _rational_key(u.slope)) < (v.trace, _rational_key(v.slope))


def test_slope_rejects_non_primitive():
    with pytest.raises(DomainError):
        Slope(2, 4)
    with pytest.raises(DomainError):
        Slope(0, 3)
    with pytest.raises(DomainError):
        Slope(1, -1)


def test_brute_force_generators():
    fn = FenchelNielsen(1.3, 0.0, 1.1)
    triple = from_fenchel_nielsen(fn)
    assert abs(brute_force_trace(fn, Slope(0, 1)) - triple.x) <= 1e-12 * triple.x
    assert abs(brute_force_trace(fn, Slope(1, 0)) - triple.y) <= 1e-12 * triple.y
    assert abs(brute_force_trace(fn, Slope(1, 1)) - triple.z) <= 1e-9 * triple.z


def test_brute_force_oracle_agreement():
    rng = random.Random(20)
    for _ in range(4):
        fn = FenchelNielsen(rng.uniform(0.6, 2.8), 0.0, rng.uniform(0.2, 4.0))
        records = enumerate_geodesics(from_fenchel_nielsen(fn), 18.0)
        checked = 0
        for record in records:
            if record.slope.q <= 8 and abs(record.slope.p) <= 50:
                oracle = brute_force_trace(fn, record.slope)
                assert abs(oracle - record.trace) <= 1e-9 * record.trace
                checked += 1
        assert checked >= 20


def test_brute_force_oracle_with_twist_unreduced(unreduced):
    # nonzero twist: keep the tree rooted at the marked triple so slope
    # labels stay in the Fenchel-Nielsen marking
    fn = FenchelNielsen(1.7, 0.9, 2.3)
    records = enumerate_geodesics(from_fenchel_nielsen(fn), 18.0)
    checked = 0
    for record in records:
        if record.slope.q <= 8 and abs(record.slope.p) <= 50:
            oracle = brute_force_trace(fn, record.slope)
            assert abs(oracle - record.trace) <= 1e-9 * record.trace
            checked += 1
    assert checked >= 20


def test_brute_force_scale_limit():
    fn = FenchelNielsen(1.3, 0.0, 1.1)
    with pytest.raises(DomainError):
        brute_force_trace(fn, Slope(51, 1))


def test_walk_at_scale_matches_the_exact_integer_walk():
    # integer roots have integer traces, so an exact walk in Python ints is an
    # oracle for the float walk at scale: the same count at every cutoff, and the
    # sorted float traces within a stated distance of the exact ones, in units of
    # the float spacing at each exact trace (measured 33.4 and 5.6 at the largest
    # cutoffs: the rounding of the recurrence t tb - ta, step after step)
    for traces, cutoffs, ulps in (
        ((3, 3, 3), {60.0: 984, 200.0: 10_854, 705.0: 134_742}, 34),
        ((3, 3, 4), {30.0: 208, 200.0: 9_140}, 6),
    ):
        triple = trace_triple(*map(float, traces))
        assert reduce_to_minimal(triple)[:3] == traces  # the float walk's root
        for cutoff, count in cutoffs.items():
            exact = sorted(exact_markoff_traces(traces, cutoff))
            walked = sorted_traces(triple, cutoff)
            assert len(exact) == len(walked) == count, (traces, cutoff)
            # every float trace here is an integer: int() is exact
            worst = max(abs(int(t) - e) / ulp(float(e)) for t, e in zip(walked, exact))
            assert worst <= ulps, (traces, cutoff, worst)
