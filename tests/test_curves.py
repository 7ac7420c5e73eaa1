import random
from fractions import Fraction
from math import acosh, gcd

import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    ResourceLimitError,
    Slope,
    brute_force_trace,
    enumerate_geodesics,
    from_fenchel_nielsen,
    markov_child,
    reduce_to_minimal,
    trace_triple,
)


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
    records = enumerate_geodesics(trace_triple(3.0, 3.0, 4.0), 14.0)
    assert len({(r.slope.p, r.slope.q) for r in records}) == len(records)
    for u, v in zip(records, records[1:]):
        assert u.length < v.length or (u.length == v.length and u.slope < v.slope)
    for r in records:
        assert abs(r.length - 2.0 * acosh(0.5 * r.trace)) <= 1e-14


def test_slope_completeness_matches_totients():
    # every primitive class with max(|p|, q) <= N appears once the cutoff
    # passes the longest such geodesic
    records = enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 30.0)
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


def test_enumerate_resource_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 25.0, max_records=10)


def test_enumerate_keeps_nan_children():
    # below this huge unreduced root the traces overflow and inf - inf gives
    # NaN; the prune test lets NaN through, so the walk keeps those subtrees
    # and hits the record cap instead of returning a spectrum with holes
    triple = trace_triple(13685.580536680813, 274139491.392735, 3751758067708.733)
    with pytest.raises(ResourceLimitError):
        enumerate_geodesics(triple, 14.0, reduce=False, max_records=20_000)


def test_enumerate_rejects_bad_cutoff():
    with pytest.raises(DomainError):
        enumerate_geodesics(trace_triple(3.0, 3.0, 3.0), 0.0)


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
        for v in rng.sample(slopes, 30) + [Slope(1, 0)]:
            assert (u < v) == (_rational_key(u) < _rational_key(v))


@pytest.mark.parametrize(
    "triple, cutoff",
    [
        (trace_triple(3.0, 3.0, 3.0), 14.0),  # 44 equal-length neighbours
        (from_fenchel_nielsen(FenchelNielsen(1.2, 0.0, 1.5)), 16.0),  # 34
    ],
)
def test_enumerate_equal_lengths_in_rational_order(triple, cutoff):
    records = enumerate_geodesics(triple, cutoff)
    ties = [(u, v) for u, v in zip(records, records[1:]) if u.length == v.length]
    assert len(ties) >= 30
    for u, v in ties:
        assert _rational_key(u.slope) < _rational_key(v.slope)


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


def test_brute_force_oracle_with_twist_unreduced():
    # nonzero twist: keep the tree rooted at the marked triple so slope
    # labels stay in the Fenchel-Nielsen marking
    fn = FenchelNielsen(1.7, 0.9, 2.3)
    records = enumerate_geodesics(from_fenchel_nielsen(fn), 18.0, reduce=False)
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
