import gc
import itertools
import random
import re
import subprocess
import sys
from collections import Counter
from math import (
    acosh, cosh, exp, expm1, fsum, inf, isfinite, log, log1p, nan, nextafter, pi, tanh, ulp,
)

from pathlib import Path

import mpmath
import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    GeodesicRecord,
    IdentityKind,
    NonHyperbolicError,
    ResourceLimitError,
    TraceTriple,
    curves,
    enumerate_geodesics,
    evaluate,
    foursphere_ortho,
    from_fenchel_nielsen,
    from_traces,
    identities,
    identity_term,
    iter_terms,
    lasso,
    length_from_trace,
    lengths_from_traces,
    markov_child,
    pants_sum_term,
    pants_sum_term_via_complement,
    quasi_pants_term,
    rogers,
    rogers_odd_series,
    tail_estimate,
    term_cusped,
    term_foursphere_cusped,
    term_foursphere_ortho,
    term_foursphere_simple,
    term_mcshane,
    term_one_holed,
    term_ortho_torus,
    term_trace_squared,
    torus_contribution_partial,
    torus_ortho,
    trace_chunks,
    trace_triple,
)
from helpers import rogers_mp, rogers_oracle, sorted_traces

PI2_2 = pi * pi / 2.0
PI2_6 = pi * pi / 6.0

MODULAR = trace_triple(3.0, 3.0, 3.0)

# cusped bracket at b = 2 acosh(3/2), 40-digit dilogarithm evaluation
CUSPED_AT_MODULAR_SYSTOLE = 1.1506828915753256


def test_one_holed_long_geodesic_limit():
    assert term_one_holed(1.0, 800.0) == 0.0
    assert abs(term_one_holed(1.0, 80.0)) < 1e-30
    # the 60-digit value, which the three-dilogarithm form, cancelling, rounds to 0.0
    assert abs(term_one_holed(1.0, 80.0) - 3.144137416490715e-33) <= 4e-15 * 3.144137416490715e-33


def _one_holed_bracket_mp(k, b):
    # L(A) + 2 L(B) - 2 L(C) at the float (k, b), x = e^{-k/2}, s = e^{-b}:
    # B - C = s cancels, so carry b / ln 10 more digits than the 50 kept
    with mpmath.workdps(50 + int(b / 2.3)):
        k, b = mpmath.mpf(k), mpmath.mpf(b)
        x, s = mpmath.exp(-k / 2), mpmath.exp(-b)
        first = (mpmath.cosh(k / 2) + 1) / (mpmath.cosh(k / 2) + mpmath.cosh(b))
        pair = rogers_mp((1 + x * s) / (1 + x)) - rogers_mp((1 - s) / (1 + x))
        return rogers_mp(first) + 2 * pair


def test_one_holed_past_the_switch_is_accurate_relative_to_its_size():
    # from b = 17 + k/2 on, the pair is 2 e^{-b} L'(m): both the holed and the
    # four-holed-sphere simple bracket are within 4e-15 of mpmath, up to b = 699.9
    rng = random.Random(29)
    for i in range(150):
        k = exp(rng.uniform(log(1e-9), log(30.0)))
        switch = 17.0 + 0.5 * k
        if i < 10:
            b = (switch, 699.9)[i % 2]
        else:  # dense near the switch, and out to 699.9
            b = min(switch + exp(rng.uniform(log(1e-6), log(699.9 - switch))), 699.9)
        exact = _one_holed_bracket_mp(k, b)
        for got in (term_one_holed(k, b), term_foursphere_simple(0.5 * k, 2.0 * b)):
            assert abs(got - exact) <= 4e-15 * exact, (k, b)


def test_one_holed_below_the_switch_is_the_three_dilogarithm_bracket():
    # below b = 17 + k/2 the bracket is rogers(A) + 2 rogers(B) - 2 rogers(C), bit for
    # bit, with every argument formed from x = e^{-k/2} and s = e^{-b}.  The first,
    # (cosh(k/2)+1)/(cosh(k/2)+cosh b) = s(1+x)^2/((x+s)(1+xs)), is no farther from
    # 50-digit mpmath than the ratio of five exps scaled by e^{-max(k/2, b)}
    rng = random.Random(31)
    worst = {"xs": 0.0, "scaled": 0.0}
    for _ in range(300):
        k = exp(rng.uniform(log(1e-9), log(30.0)))
        below = nextafter(17.0 + 0.5 * k, 0.0)
        drawn = (rng.uniform(0.01, below), exp(rng.uniform(log(1e-6), log(below))))
        for b in (below, *(min(d, below) for d in drawn)):
            x, s = exp(-0.5 * k), exp(-b)
            first = min(s * (1.0 + x) ** 2 / ((x + s) * (1.0 + x * s)), 1.0)
            second, third = (1.0 + x * s) / (1.0 + x), -expm1(-b) / (1.0 + x)
            bracket = rogers(first) + 2.0 * rogers(second) - 2.0 * rogers(third)
            assert term_one_holed(k, b) == bracket, (k, b)
            m = max(0.5 * k, b)
            up, down = exp(0.5 * k - m), exp(-0.5 * k - m)
            scaled = min((up + 2.0 * exp(-m) + down) / (up + down + exp(b - m) + exp(-b - m)), 1.0)
            with mpmath.workdps(50):
                half_k = mpmath.mpf(k) / 2
                exact = (mpmath.cosh(half_k) + 1) / (mpmath.cosh(half_k) + mpmath.cosh(b))
                for form, got in (("xs", first), ("scaled", scaled)):
                    worst[form] = max(worst[form], float(abs(got - exact) / exact))
    assert worst["xs"] <= worst["scaled"], worst


def test_one_holed_tends_to_the_cusped_term_past_the_switch():
    # ROADMAP item 14 (iii) for the simple bracket: as k -> 0 it tends to the
    # cusped one.  In mpmath the relative gap is 0.056 k^2 at b = 17 and 0.062 k^2
    # at b = 600, under 1e-7 k for k <= 1e-6; 2e-15 covers the two forms' rounding
    rng = random.Random(37)
    for i in range(2000):
        k = exp(rng.uniform(log(1e-12), log(1e-6)))
        switch = 17.0 + 0.5 * k
        b = rng.uniform(switch, 699.9) if i % 2 else min(switch + rng.expovariate(0.2), 699.9)
        cusped = term_cusped(b)
        assert abs(term_one_holed(k, b) - cusped) <= (2e-15 + 1e-7 * k) * cusped, (k, b)


def test_one_holed_short_geodesic_limit():
    assert abs(term_one_holed(2.0, 1e-9) - PI2_2) <= 1e-7


def test_one_holed_cusp_limit_matches_cusped_term():
    for b in (0.7, 1.5, 3.0):
        assert abs(term_one_holed(1e-6, b) - term_cusped(b)) <= 1e-5


def test_one_holed_rejects_nonpositive():
    # k = 0 is the cusped torus; a negative or non-finite k, and b <= 0, are refused
    for k in (-1.0, nan, inf):
        with pytest.raises(DomainError):
            term_one_holed(k, 1.0)
    with pytest.raises(DomainError):
        term_one_holed(1.0, -1.0)
    with pytest.raises(DomainError):
        term_one_holed(0.0, 0.0)


def test_the_cusp_is_the_k_zero_case():
    # from b = 1 on, the holed bracket at k = 0 is the cusped float form
    # rogers(4s/(1+s)^2) + 2 D(s), s = e^{-b}, bit for bit, past b = 17 too; and
    # where e^{-k/2} rounds to 1 it is the bracket at k = 0
    rng = random.Random(41)
    for _ in range(2000):
        b = rng.uniform(1.0, 699.9)
        s = exp(-b)
        cusped = rogers(4.0 * s / ((1.0 + s) * (1.0 + s))) + 2.0 * rogers_odd_series(s)
        assert term_one_holed(0.0, b) == cusped == term_cusped(b), b
    for k in (1e-300, 1e-17):
        for b in (1e-6, 0.5, 1.0, 5.0, 17.0, 40.0, 699.9):
            assert term_one_holed(k, b) == term_one_holed(0.0, b), (k, b)


def test_cusped_limits():
    assert term_cusped(800.0) == 0.0
    assert abs(term_cusped(80.0)) < 1e-30
    assert abs(term_cusped(1e-9) - PI2_2) <= 1e-7


def test_cusped_frozen_value():
    b = 2.0 * acosh(1.5)
    assert abs(1.0 / cosh(0.5 * b) ** 2 - 4.0 / 9.0) <= 1e-15
    assert abs(term_cusped(b) - CUSPED_AT_MODULAR_SYSTOLE) <= 1e-13
    # recompute through the independent high-precision dilogarithm
    oracle = (
        rogers_oracle(4.0 / 9.0)
        + 2.0 * rogers_oracle(0.5 * (1.0 + exp(-b)))
        - 2.0 * rogers_oracle(0.5 * (1.0 - exp(-b)))
    )
    assert abs(term_cusped(b) - oracle) <= 1e-13


def test_trace_squared_matches_cusped():
    for trace in (3.0, 4.5, 7.0, 15.0, 100.0):
        b = 2.0 * acosh(0.5 * trace)
        assert abs(term_trace_squared(trace * trace) - term_cusped(b)) <= 1e-12


def _cusped_bracket_mp(sech2, e_b):
    return rogers_mp(sech2) + 2 * rogers_mp((1 + e_b) / 2) - 2 * rogers_mp((1 - e_b) / 2)


def test_cusped_terms_are_accurate_relative_to_their_size():
    # the bracket is of size b e^{-b} and the mpmath form cancels down to it:
    # carry b / ln 10 more digits than the 30 kept
    rng = random.Random(17)
    near_the_switch = [0.999, 1.001, 1.9, 2.0]  # three rogers calls below b = 1, one above
    short = [exp(rng.uniform(log(1e-6), log(1.0))) for _ in range(60)]
    for b in near_the_switch + short + [exp(rng.uniform(log(0.01), log(700.0))) for _ in range(120)]:
        trace_squared = 4.0 * cosh(0.5 * b) ** 2
        with mpmath.workdps(30 + int(b / 2.3)):
            mb = mpmath.mpf(b)
            exact = _cusped_bracket_mp(mpmath.sech(mb / 2) ** 2, mpmath.exp(-mb))
            assert abs(term_cusped(b) - exact) <= 1e-15 * exact, b
            # the trace form at the float tr^2 itself: u = tanh(b/2), e^{-b} = (1-u)/(1+u)
            t2 = mpmath.mpf(trace_squared)
            u = mpmath.sqrt(1 - 4 / t2)
            exact = _cusped_bracket_mp(4 / t2, (1 - u) / (1 + u))
            assert abs(term_trace_squared(trace_squared) - exact) <= 1e-15 * exact, b


def test_cusped_terms_take_one_rogers_call_from_b_one(monkeypatch):
    # and the holed bracket one call from b = 17 + k/2 on, three below; at k = 0,
    # one from b = 1 on, the odd series coming before the long-b form
    calls = []
    monkeypatch.setattr(identities, "rogers", lambda z: calls.append(z) or rogers(z))
    for b, expected in ((0.5, 3), (0.99, 3), (1.01, 1), (2.0, 1), (17.5, 1), (40.0, 1)):
        for term in (lambda: term_cusped(b), lambda: term_one_holed(0.0, b),
                     lambda: term_trace_squared(4.0 * cosh(0.5 * b) ** 2)):
            calls.clear()
            term()
            assert len(calls) == expected, b
    for k in (1e-9, 1.0, 20.0):
        switch = 17.0 + 0.5 * k
        for b, expected in ((0.5, 3), (2.0, 3), (nextafter(switch, 0.0), 3), (switch, 1),
                            (switch + 20.0, 1)):
            calls.clear()
            term_one_holed(k, b)
            assert len(calls) == expected, (k, b)


def test_brackets_near_zero_length_are_not_refused():
    # the first dilogarithm argument is 1 to rounding there, and its float
    # form can round above 1; L(1) = pi^2/6 is then the right value.  Both
    # brackets fall short of pi^2/2 by O(b log(1/b)), under 24 b here
    rng = random.Random(19)
    for _ in range(2000):
        b = exp(rng.uniform(log(1e-9), log(1e-6)))
        k = exp(rng.uniform(log(1e-6), log(30.0)))
        assert abs(term_cusped(b) - PI2_2) <= 30.0 * b, b
        assert abs(term_one_holed(k, b) - PI2_2) <= 30.0 * b, (k, b)


def test_trace_squared_limits():
    assert abs(term_trace_squared(1e12)) <= 1e-9
    assert abs(term_trace_squared(4.0 + 1e-11) - PI2_2) <= 1e-4


def test_trace_squared_rejects_small():
    with pytest.raises(DomainError):
        term_trace_squared(4.0)
    with pytest.raises(DomainError):
        term_trace_squared(-1.0)


def test_ortho_torus_matches_one_holed():
    for k in (0.2, 1.0, 2.0, 4.0):
        for b in (0.5, 1.0, 2.0, 5.0, 10.0):
            ortho = torus_ortho(k, b)
            assert abs(term_ortho_torus(k, ortho.m, ortho.q) - term_one_holed(k, b)) <= 1e-9


def test_ortho_complement_arguments_are_the_one_holed_arguments():
    # with x = e^{-k/2}, y = tanh^2(m/2) and d = 1 - xy, the orthogeodesic
    # bracket is L(tanh^2(q/2)) + 2 L((1-x)/d) - 2 L((1-y)/d): its second
    # and third arguments are those of term_one_holed, formed from 1 - x and
    # 1 - y = sech^2(m/2).  sech^2(m/2) has condition number m tanh(m/2)
    # in m, so a rounded seam m costs up to ~m/2 ulps of it (m ~ 20 near
    # the cusp)
    for k in (1e-8, 0.01, 0.2, 1.0, 2.0, 4.0, 8.0):
        for b in (0.05, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            m = torus_ortho(k, b).m
            cx, cy = -expm1(-0.5 * k), 1.0 / cosh(0.5 * m) ** 2
            d = cx + exp(-0.5 * k) * cy
            second = (1.0 + exp(-0.5 * k - b)) / (1.0 + exp(-0.5 * k))
            third = -expm1(-b) / (1.0 + exp(-0.5 * k))
            assert abs(cx / d - second) <= (4.0 + m) * ulp(second)
            assert abs(cy / d - third) <= (4.0 + m) * ulp(third)


def test_ortho_brackets_match_one_holed_on_log_uniform_points():
    # near the cusp and for long b, e^{-k/2} and tanh^2(m/2) both round to
    # about 1; the complements keep these points evaluable and accurate
    rng = random.Random(31)
    worst = 0.0
    for _ in range(50_000):
        k = exp(rng.uniform(log(1e-9), log(10.0)))
        b = exp(rng.uniform(log(0.01), log(33.0)))
        record = GeodesicRecord(None, 2.0 * cosh(0.5 * b), b)
        reference = identity_term(IdentityKind.THM11, k, record)
        for kind in (IdentityKind.THM31, IdentityKind.FOUR):
            worst = max(worst, abs(identity_term(kind, k, record) - reference))
    assert worst <= 1e-14


def test_identity_term_dispatches_to_each_kernel():
    # the record is read by its trace, so its length is the trace's, bit for bit
    k, trace = 1.5, 2.0 * cosh(1.0)
    record = GeodesicRecord(None, trace, length_from_trace(trace))
    b = record.length
    ortho, four = torus_ortho(k, b), foursphere_ortho(0.5 * k, 2.0 * b)
    direct = {
        IdentityKind.THM11: term_one_holed(k, b),
        IdentityKind.THM12: term_cusped(b),
        IdentityKind.THM15: term_trace_squared(record.trace * record.trace),
        IdentityKind.THM31: term_ortho_torus(k, ortho.m, ortho.q),
        IdentityKind.FOUR: term_foursphere_ortho(0.5 * k, four.m, four.p),
        IdentityKind.FOUR_SIMPLE: term_foursphere_simple(0.5 * k, 2.0 * b),
        IdentityKind.FOUR_CUSPED: term_foursphere_cusped(2.0 * b),
        IdentityKind.MCSHANE: term_mcshane(b),
    }
    assert set(direct) == set(IdentityKind)
    for kind, term in direct.items():
        point_k = 0.0 if kind in CUSPED_KINDS else k
        assert identity_term(kind, point_k, record) == term, kind


def test_every_kind_takes_the_limit_past_length_700():
    # from b = 700 on every bracket is below 1e-300 and is 0.0; thm15 would square
    # a trace near 1e308 there, and thm31 and four would build pants whose cosh overflows
    cusped = {IdentityKind.THM12, IdentityKind.THM15, IdentityKind.FOUR_CUSPED,
              IdentityKind.MCSHANE}
    for b in (700.0, 700.5, 709.9, 1419.0):
        record = GeodesicRecord(None, 2.0 * cosh(0.5 * b), b)
        for kind in IdentityKind:
            k = 0.0 if kind in cusped else 1.0
            assert identity_term(kind, k, record) == 0.0, (kind, b)


def _column_across_700():
    # a sorted column from length 1e-5 across 700 to 1419, with the traces next
    # to the one whose length first rounds to >= 700, and so 700.0 itself
    rng = random.Random(29)
    traces = [2.0 * cosh(0.5 * exp(rng.uniform(log(1e-5), log(1419.0)))) for _ in range(5_000)]
    edge = 2.0 * cosh(350.0)
    for _ in range(8):
        edge = nextafter(edge, 0.0 if length_from_trace(edge) >= 700.0 else inf)
    traces += [edge] + [edge := nextafter(edge, inf) for _ in range(16)]
    traces.sort()
    lengths = list(map(length_from_trace, traces))
    assert min(lengths) < 700.0 <= max(lengths) and 700.0 in lengths
    return traces, lengths


def test_column_terms_are_the_scalar_forms_term_by_term():
    # every kind's terms of one sorted column across 700 have the bits of its
    # scalar form, term by term.  From 700 on a term is the limit 0.0: the
    # scalar forms of thm15, thm31 and four take no limit of their own (the
    # trace squared, or the cut pants, overflows), and the others take it at
    # the same length, 700.0 included
    traces, lengths = _column_across_700()
    k = 1.5  # the boundary kinds' k; the cusped kinds get k = 0, as `check_point_kind` has it

    def ortho(b):
        m, _, q = torus_ortho(k, b)
        return term_ortho_torus(k, m, q)

    def four(b):
        m, p, _ = foursphere_ortho(0.5 * k, 2.0 * b)
        return term_foursphere_ortho(0.5 * k, m, p)

    scalar = {
        IdentityKind.THM11: lambda t, b: term_one_holed(k, b),
        IdentityKind.THM12: lambda t, b: term_cusped(b),
        IdentityKind.THM15: lambda t, b: term_trace_squared(t * t) if b < 700.0 else 0.0,
        IdentityKind.THM31: lambda t, b: ortho(b) if b < 700.0 else 0.0,
        IdentityKind.FOUR: lambda t, b: four(b) if b < 700.0 else 0.0,
        IdentityKind.FOUR_SIMPLE: lambda t, b: term_foursphere_simple(0.5 * k, 2.0 * b),
        IdentityKind.FOUR_CUSPED: lambda t, b: term_foursphere_cusped(2.0 * b),
        IdentityKind.MCSHANE: lambda t, b: term_mcshane(b),
    }
    assert set(scalar) == set(IdentityKind)
    for kind, form in scalar.items():
        kernel = identities._IDENTITIES[kind][0]
        terms = identities._terms(kernel, 0.0 if kind in CUSPED_KINDS else k, traces)
        assert [term.hex() for term in terms] == [
            form(t, b).hex() for t, b in zip(traces, lengths)
        ], kind


def test_no_kernel_reads_a_length_from_700_on(monkeypatch):
    # every kind's kernel, spied: each trace it is handed, and each length it
    # reads, is below length 700.  FN(300, 0.5, 300) at cutoff 705 has 2,114
    # records, 30 of them from length 700 on, and the modular torus 134,742,
    # 1,920 of them; `evaluate`, `iter_terms` and `identity_term` hand the
    # kernels the rest only, and the sums are those of the unspied kernels
    read = []

    def below_700(b):
        assert b < 700.0, b
        read.append(b)
        return b

    def spied(kernel):
        def spy(k, traces, lengths):
            assert all(length_from_trace(t) < 700.0 for t in traces), traces[-1]
            return kernel(k, traces, map(below_700, lengths))

        return spy

    point = from_fenchel_nielsen(FenchelNielsen(300.0, 0.5, 300.0))
    boundary = [kind for kind in IdentityKind if kind not in CUSPED_KINDS]
    expected = {kind: evaluate(kind, point, 705.0) for kind in boundary}
    expected[IdentityKind.MCSHANE] = evaluate(IdentityKind.MCSHANE, MODULAR, 705.0)
    for kind, (kernel, *row) in list(identities._IDENTITIES.items()):
        monkeypatch.setitem(identities._IDENTITIES, kind, (spied(kernel), *row))
    for kind, report in expected.items():
        triple = MODULAR if kind is IdentityKind.MCSHANE else point
        read.clear()
        assert evaluate(kind, triple, 705.0) == report, kind
        assert len(read) == report.term_count - (1_920 if triple is MODULAR else 30), kind
        if triple is point:
            *_, (_, _, partial) = iter_terms(kind, triple, 705.0)
            assert partial.hex() == report.partial_sum.hex(), kind
    traces, lengths = _column_across_700()
    for kind in IdentityKind:
        k = 0.0 if kind in CUSPED_KINDS else 1.5
        for t, b in zip(traces, lengths):
            term = identity_term(kind, k, GeodesicRecord(None, t, b))
            assert b < 700.0 or term == 0.0, (kind, b)


def test_pants_level_terms_take_the_limit_past_length_700():
    # from b = 700 on, as the table kernels do, after the positivity checks: the cut
    # pants would give L(sech^2(p/2)) an overflowing cosh^2, or cosh itself overflow
    for b in (700.0, 700.5, 707.5, 709.5, 1419.0, 1e10):
        assert quasi_pants_term(0.5, b) == 0.0, b
        record = GeodesicRecord(None, inf, b)
        assert torus_contribution_partial(0.5, [record]) == 4.0 * pi * pi, b
    for b in (0.0, inf, nan):
        with pytest.raises(DomainError):
            quasi_pants_term(0.5, b)


def test_pants_level_terms_raise_no_bare_overflow():
    # a short boundary lengthens the perpendiculars: sech^2 of one past
    # 700 takes its limit 0 instead of overflowing in cosh^2
    lengths = (1e-12, 1e-6, 0.01, 0.5, 10.0, 300.0, 690.0, 700.0, 705.0, 1e10)
    pairs = list(itertools.product(lengths, repeat=2))
    calls = [(quasi_pants_term, (k, b)) for k, b in pairs]
    calls += [(torus_contribution_partial, (k, [GeodesicRecord(None, inf, b)])) for k, b in pairs]
    calls += [(pants_sum_term, triple) for triple in itertools.product(lengths[:8], repeat=3)]
    calls += [(pants_sum_term_via_complement, (1e-12, 1e-12, 700.0))]
    for call, args in calls:
        try:
            value = call(*args)
        except DomainError:
            continue
        assert isfinite(value), (call.__name__, args)


def test_identity_term_refuses_unknown_kind():
    record = GeodesicRecord(None, 2.0 * cosh(1.0), 2.0)
    for kind in ("thm11", None, ["thm11"]):
        with pytest.raises(DomainError, match="unknown identity kind"):
            identity_term(kind, 1.5, record)


def test_identity_term_checks_k_as_evaluate_does():
    # a cusped kind needs k = 0 and a boundary kind k > 0, with `evaluate`'s messages
    record = GeodesicRecord(None, 2.0 * cosh(1.0), 2.0)
    refusals = {
        (IdentityKind.THM12, HOLED): "identity thm12 needs a cusped point, got k=1.5",
        (IdentityKind.THM11, MODULAR): "identity thm11 needs boundary length k > 0, got k=0.0",
    }
    for (kind, point), message in refusals.items():
        for call in (lambda: evaluate(kind, point, 10.0),
                     lambda: identity_term(kind, point.k, record)):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                call()
    for kind in IdentityKind:
        if kind not in CUSPED_KINDS:
            with pytest.raises(DomainError, match="needs boundary length k > 0, got k=-1.0"):
                identity_term(kind, -1.0, record)


def test_identity_term_reads_a_record_by_its_trace():
    # a record whose length disagrees with its trace gives the term of its
    # trace, as `evaluate` reads the walk, and no untyped error
    consistent = GeodesicRecord(None, 3.0, length_from_trace(3.0))
    for kind, k in ((IdentityKind.MCSHANE, 0.0), (IdentityKind.FOUR, 1.5),
                    (IdentityKind.THM15, 0.0)):
        term = identity_term(kind, k, GeodesicRecord(None, 3.0, 1419.0))
        assert term.hex() == identity_term(kind, k, consistent).hex(), kind
        assert term > 0.0, kind


def _counting(monkeypatch):
    # the number of `rogers` and `lasso` calls the identities make, by name
    calls = {"rogers": 0, "lasso": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(identities, "rogers", counted("rogers", rogers))
    monkeypatch.setattr(identities, "lasso", counted("lasso", lasso))
    return calls


def test_ortho_bracket_spends_three_dilogarithms(monkeypatch):
    # the lasso's L(y) cancels the bracket's 2 L(y): three Rogers calls below the
    # switch; past it (b >= 17 + k/2) the pair is 2 g L'(mid) and one call is left
    calls = _counting(monkeypatch)
    for b, spent in ((2.0, 3), (20.0, 1)):
        record = GeodesicRecord(None, 2.0 * cosh(0.5 * b), b)
        for kind in (IdentityKind.THM31, IdentityKind.FOUR):
            identity_term(kind, 1.5, record)
            assert calls == {"rogers": spent, "lasso": 0}, (b, kind)
            calls.update(rogers=0)
    quasi_pants_term(1.5, 2.0)  # the bracket, L(sech^2(p/2)) and La(e^{-b}, y)
    assert calls == {"rogers": 4, "lasso": 1}


def _ortho_three_calls(k, m, q):
    # the orthogeodesic bracket as three Rogers calls, every float formed as
    # `term_ortho_torus` forms it below the switch
    cx, cy = -expm1(-0.5 * k), 1.0 / cosh(0.5 * m) ** 2
    d = cx + exp(-0.5 * k) * cy
    return rogers(tanh(0.5 * q) ** 2) + 2.0 * rogers(cx / d) - 2.0 * rogers(cy / d)


def _ortho_first_order(k, m, q):
    # the same bracket with its pair 2 L(cx/d) - 2 L(cy/d) as 2 g L'(mid),
    # g = (cx - cy)/d and 1 - mid = (cx - cy + 2 x cy)/(2d), x = e^{-k/2}
    x = exp(-0.5 * k)
    cx, cy = -expm1(-0.5 * k), 1.0 / cosh(0.5 * m) ** 2
    d = cx + x * cy
    g, om = (cx - cy) / d, (cx - cy + 2.0 * x * cy) / (2.0 * d)
    return rogers(tanh(0.5 * q) ** 2) - g * (log(om) / (1.0 - om) + log1p(-om) / om)


def _ortho_bracket_mp(k, m, q):
    # L(tanh^2(q/2)) + 2 L(cx/d) - 2 L(cy/d) at the float (k, m, q), 60 digits
    with mpmath.workdps(60):
        k, m, q = mpmath.mpf(k), mpmath.mpf(m), mpmath.mpf(q)
        x = mpmath.exp(-k / 2)
        cx, cy = 1 - x, mpmath.sech(m / 2) ** 2
        d = cx + x * cy
        return rogers_mp(mpmath.tanh(q / 2) ** 2) + 2 * (rogers_mp(cx / d) - rogers_mp(cy / d))


def test_ortho_kinds_below_the_switch_are_the_three_call_bracket():
    # below b = 17 + k/2 every thm31 and four term is the three-call bracket of
    # its seams, bit for bit, through the table kernels as through the scalar form
    rng = random.Random(36)
    for _ in range(500):
        k = exp(rng.uniform(log(1e-6), log(30.0)))
        trace = 2.0 * cosh(0.5 * exp(rng.uniform(log(1e-3), log(16.9 + 0.5 * k))))
        b = length_from_trace(trace)  # the length the kernels read from the trace
        torus, four = torus_ortho(k, b), foursphere_ortho(0.5 * k, 2.0 * b)
        for kind, (m, q) in ((IdentityKind.THM31, (torus.m, torus.q)),
                             (IdentityKind.FOUR, (four.m, four.p))):
            bracket = _ortho_three_calls(k, m, q)
            assert term_ortho_torus(k, m, q).hex() == bracket.hex(), (k, b)
            term = identity_term(kind, k, GeodesicRecord(None, trace, b))
            assert term.hex() == bracket.hex(), (k, b, kind)


def test_ortho_pair_past_the_switch_is_no_less_accurate(monkeypatch):
    # from the switch to b = 60, at the seams of `torus_ortho`, the first-order
    # pair is no farther from 60-digit mpmath at the same float (k, m, q) than the
    # three-call form on the same draws: both errors are set by the rounding of
    # cx - cy = sech^2 of a rounded seam against 1 - e^{-k/2}, ~4e-15
    rng = random.Random(36)
    draws = []
    for _ in range(300):
        k = exp(rng.uniform(log(1e-3), log(25.0)))
        m, _, q = torus_ortho(k, rng.uniform(17.0 + 0.5 * k, 60.0))
        draws.append((k, m, q))
    calls = _counting(monkeypatch)
    got = [term_ortho_torus(*draw) for draw in draws]
    # nearly all take the one-call form: only seam rounding at the switch moves a draw back
    assert calls["rogers"] <= 300 + 2 * 3, calls
    worst = {"first order": 0.0, "three calls": 0.0}
    for draw, value in zip(draws, got):
        exact = _ortho_bracket_mp(*draw)
        for form, term in (("first order", value), ("three calls", _ortho_three_calls(*draw))):
            worst[form] = max(worst[form], float(abs(term - exact)))
    assert worst["first order"] <= worst["three calls"] <= 5e-15, worst


def test_ortho_pair_is_continuous_at_the_switch(monkeypatch):
    # at the switch g = e^{-k/2} e^{-17} the term takes one Rogers call just below
    # it and three just above it, and at each point the other form agrees within
    # 1e-15.  The seam m is aimed at g (1 -+ d): d = 2^-30 where the float seam
    # lands on its side, doubled until it does (the float grid of g there is
    # ~3e-9 e^{k/2} relative, coarser than 2^-30)
    calls = _counting(monkeypatch)

    def spent(k, m):
        calls.update(rogers=0)
        term_ortho_torus(k, m, 0.3)
        return calls["rogers"]

    def seam(k, ratio):  # m with (cx - cy)/(cx + x cy) = e^{-k/2} e^{-17} ratio
        with mpmath.workdps(50):
            x = mpmath.exp(-mpmath.mpf(k) / 2)
            g = x * mpmath.exp(-17) * ratio
            return float(2 * mpmath.acosh(1 / mpmath.sqrt((1 - x) * (1 - g) / (1 + x * g))))

    rng = random.Random(36)
    for _ in range(40):
        k = exp(rng.uniform(log(1e-3), log(25.0)))
        for sign, rogers_calls in ((-1, 1), (1, 3)):
            d = 2.0**-30
            while spent(k, m := seam(k, 1 + sign * d)) != rogers_calls:
                d *= 2.0
            assert d <= 2.0**-8, (k, d)
            term = term_ortho_torus(k, m, 0.3)
            for form in (_ortho_first_order, _ortho_three_calls):
                assert abs(term - form(k, m, 0.3)) <= 1e-15, (k, m, form.__name__)


def test_ortho_kinds_evaluate_long_spectra():
    # from cutoff ~38 on the short seam q (p for the four-holed sphere) used
    # to round to 0, and every thm31 and four evaluation was refused.  Past
    # b ~ 37 the seam m no longer changes with b and sech^2(m/2) meets
    # 1 - e^{-k/2} to within rounding, so the seam guard needs its slack, and
    # each term keeps a fixed bias of up to a few 1e-16: over the ~2,600
    # records below cutoff 100 the sums drift from thm11 by up to ~1.4e-12.
    # At k = 1.5 sech^2(m/2) rounds onto 1 - e^{-k/2} and the drift is small
    for k in (0.5, 1.0, 1.5, 3.0):
        triple = from_fenchel_nielsen(FenchelNielsen(1.2, 0.4, k))
        for cutoff in (45.0, 100.0):
            reference = evaluate(IdentityKind.THM11, triple, cutoff).partial_sum
            for kind in (IdentityKind.THM31, IdentityKind.FOUR):
                gap = abs(evaluate(kind, triple, cutoff).partial_sum - reference)
                assert gap <= (1e-13 if k == 1.5 else 3e-12)


def test_ortho_torus_guard():
    message = "guard e^(-k/2) < tanh^2(m/2) violated (k=0.01, m=0.1)"
    with pytest.raises(DomainError, match=re.escape(message)):
        term_ortho_torus(0.01, 0.1, 1.0)
    # 1 - e^(-k/2) and sech^2(m/2) both round to 0, so the bracket's
    # denominator is 0: refused by the guard, not a ZeroDivisionError
    message = "guard e^(-k/2) < tanh^2(m/2) violated (k=5e-324, m=800)"
    with pytest.raises(DomainError, match=re.escape(message)):
        term_ortho_torus(5e-324, 800, 1)


def test_ortho_torus_lasso_boundary_limit():
    # huge seam: tanh^2(m/2) -> 1 and the lasso term vanishes; past
    # m ~ 710, cosh(m/2)^2 is beyond the float range
    k, q = 2.0, 1.3
    for m in (500.0, 800.0):
        value = term_ortho_torus(k, m, q)
        assert abs(value - (rogers(tanh(0.5 * q) ** 2) + 2.0 * PI2_6)) <= 1e-12


def test_ortho_torus_short_seam_kills_first_term():
    k = 2.0
    ortho = torus_ortho(k, 5.0)
    with_q = term_ortho_torus(k, ortho.m, 1e-8)
    y = tanh(0.5 * ortho.m) ** 2
    without_first = 2.0 * rogers(y) - 2.0 * lasso(exp(-0.5 * k), y)
    assert abs(with_q - without_first) <= 1e-12


def test_foursphere_ortho_vs_simple_grid():
    for c in (0.1, 0.5, 1.0, 2.0, 5.0):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0):
            ortho = foursphere_ortho(c, a)
            lhs = term_foursphere_ortho(c, ortho.m, ortho.p)
            rhs = term_foursphere_simple(c, a)
            assert abs(lhs - rhs) <= 1e-9


def test_foursphere_ortho_guard():
    with pytest.raises(DomainError):
        term_foursphere_ortho(0.005, 0.1, 1.0)


def test_foursphere_bracket_equality_is_not_argumentwise():
    # the printed orthogeodesic bracket L(tanh^2(p/2)) + 2 L(y) - 2 La(x, y),
    # y = tanh^2(m/2), shares its FIRST argument with the simple form, but
    # its second, y, differs from the simple form's second argument; the
    # arguments agree only once the lasso's own L(y) cancels the 2 L(y)
    # (see test_ortho_complement_arguments_are_the_one_holed_arguments)
    c, a = 0.9, 2.6
    ortho = foursphere_ortho(c, a)
    first_ortho = tanh(0.5 * ortho.p) ** 2
    first_simple = (cosh(c) + 1.0) / (cosh(c) + cosh(0.5 * a))
    assert abs(first_ortho - first_simple) <= 1e-14
    second_ortho = tanh(0.5 * ortho.m) ** 2
    second_simple = (1.0 + exp(-c - 0.5 * a)) / (1.0 + exp(-c))
    assert abs(second_ortho - second_simple) > 1e-3  # genuinely different arguments
    assert abs(
        term_foursphere_ortho(c, ortho.m, ortho.p) - term_foursphere_simple(c, a)
    ) <= 1e-12


def test_foursphere_cusp_limit():
    for a in (1.0, 2.0, 6.0):
        assert abs(term_foursphere_simple(1e-6, a) - term_foursphere_cusped(a)) <= 1e-5


def test_foursphere_cusped_is_cusped_torus_term():
    for b in (0.4, 1.0, 2.5, 8.0):
        assert abs(term_foursphere_cusped(2.0 * b) - term_cusped(b)) <= 1e-12


def test_mcshane_term():
    assert abs(term_mcshane(1e-12) - 0.5) <= 1e-12
    assert term_mcshane(800.0) == 0.0
    assert abs(term_mcshane(1.0) - 1.0 / (1.0 + exp(1.0))) == 0.0


def test_mcshane_refuses_what_the_other_kernels_refuse():
    for b in (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0):
        with pytest.raises(DomainError, match="b must be a positive length"):
            term_mcshane(b)
        with pytest.raises(DomainError, match="b must be a positive length"):
            term_cusped(b)
    assert term_mcshane(700.0) == 0.0
    assert term_mcshane(1e300) == 0.0


def test_pants_sum_term_symmetric():
    lengths = (0.8, 1.7, 2.9)
    base = pants_sum_term(*lengths)
    for perm in itertools.permutations(lengths):
        assert abs(pants_sum_term(*perm) - base) <= 1e-12


def test_pants_sum_term_two_forms_agree():
    rng = random.Random(13)
    for _ in range(25):
        lengths = [rng.uniform(0.2, 6.0) for _ in range(3)]
        a = pants_sum_term(*lengths)
        b = pants_sum_term_via_complement(*lengths)
        assert abs(a - b) <= 1e-9


def test_quasi_pants_sum_matches_partial_form():
    # a quasi-pants term plus its complement term is 8 thm31 brackets, so over
    # any truncation direct - partial = 8 sum(thm31) - 4 pi^2 = -8 defect(thm31)
    for fn, cutoff in (
        (FenchelNielsen(1.2, 0.4, 1.5), 8.0),
        (FenchelNielsen(1.2, 0.4, 1.5), 20.0),
        (FenchelNielsen(2.0, 0.7, 0.5), 15.0),
        (FenchelNielsen(0.8, 0.1, 3.0), 12.0),
    ):
        triple = from_fenchel_nielsen(fn)
        records = enumerate_geodesics(triple, cutoff)
        direct = fsum(quasi_pants_term(triple.k, r.length) for r in records)
        partial = torus_contribution_partial(triple.k, records)
        defect = evaluate(IdentityKind.THM31, triple, cutoff).defect
        assert abs(direct - partial + 8.0 * defect) <= 1e-13, (fn, cutoff)


def test_quasi_pants_guards(monkeypatch):
    # the seams of `torus_ortho` satisfy the guards in exact arithmetic, but at
    # large k the gap tanh^2(m/2) - e^(-b), ~e^(b - k/2) relative to e^(-b),
    # can fall below float resolution: at these points it is 4.4e-28, 1.6e-28
    # and 5.9e-29 (mpmath, 80 digits), 1.6e-18 relative, and both forms refuse
    # them with that cause
    for k, b in ((126.0, 22.0), (128.0, 23.0), (130.0, 24.0)):
        m = torus_ortho(k, b).m
        message = (
            f"guard e^(-b) < tanh^2(m/2) violated (b={b!r}, m={m!r}):"
            " at this k the seam gap is below float resolution"
        )
        with pytest.raises(DomainError, match=re.escape(message)):
            quasi_pants_term(k, b)
        with pytest.raises(DomainError, match=re.escape(message)):
            torus_contribution_partial(k, [GeodesicRecord(None, 2.0 * cosh(0.5 * b), b)])
    # injected short seams violate the guards.  The b guard is checked
    # first, so it names the first point, which breaks the k guard as well
    monkeypatch.setattr(identities, "torus_ortho", lambda k, b: (0.05, 1.0, 1.0))
    message = "guard e^(-b) < tanh^2(m/2) violated (b=3.0, m=0.05)"
    with pytest.raises(DomainError, match=re.escape(message)):
        quasi_pants_term(2.0, 3.0)
    monkeypatch.setattr(identities, "torus_ortho", lambda k, b: (1.0, 1.0, 1.0))
    message = "guard e^(-k/2) < tanh^2(m/2) violated (k=0.001, m=1.0)"
    with pytest.raises(DomainError, match=re.escape(message)):
        quasi_pants_term(0.001, 3.0)


def test_evaluate_cusped_identity_converges():
    report = evaluate(IdentityKind.THM12, MODULAR, 25.0)
    assert report.target == PI2_2
    assert abs(report.defect) <= 1e-6
    assert report.term_count == 174


@pytest.mark.parametrize("kind", [IdentityKind.THM12, IdentityKind.THM15, IdentityKind.FOUR_CUSPED])
def test_modular_cusped_defect_reaches_roundoff_at_cutoff_45(kind):
    # the truncation at cutoff 45 is ~6e-17; the brackets of long geodesics no
    # longer cancel, so the defect is a few ulps of pi^2/2 (was ~1.5e-13)
    assert abs(evaluate(kind, MODULAR, 45.0).defect) <= 4e-15


def test_evaluate_mcshane_converges():
    report = evaluate(IdentityKind.MCSHANE, MODULAR, 25.0)
    assert report.target == 0.5
    assert abs(report.defect) <= 1e-6


def test_evaluate_trace_squared_equals_cusped_sum():
    a = evaluate(IdentityKind.THM15, MODULAR, 22.0)
    b = evaluate(IdentityKind.THM12, MODULAR, 22.0)
    assert abs(a.partial_sum - b.partial_sum) <= 1e-11


def test_evaluate_foursphere_cusped_equals_cusped_sum():
    a = evaluate(IdentityKind.FOUR_CUSPED, MODULAR, 22.0)
    b = evaluate(IdentityKind.THM12, MODULAR, 22.0)
    assert abs(a.partial_sum - b.partial_sum) <= 1e-11


def test_evaluate_termwise_equivalences_boundary():
    fn = FenchelNielsen(1.1, 0.35, 1.7)
    triple = from_fenchel_nielsen(fn)
    records = enumerate_geodesics(triple, 18.0)
    k = triple.k
    for record in records:
        base = identity_term(IdentityKind.THM11, k, record)
        assert abs(identity_term(IdentityKind.THM31, k, record) - base) <= 1e-9
        assert abs(identity_term(IdentityKind.FOUR_SIMPLE, k, record) - base) <= 1e-9
        assert abs(identity_term(IdentityKind.FOUR, k, record) - base) <= 1e-9


def test_evaluate_boundary_identities_converge():
    fn = FenchelNielsen(1.3, 0.5, 2.2)
    triple = from_fenchel_nielsen(fn)
    for kind in (IdentityKind.THM11, IdentityKind.THM31, IdentityKind.FOUR,
                 IdentityKind.FOUR_SIMPLE):
        report = evaluate(kind, triple, 25.0)
        assert abs(report.defect) <= 1e-4, kind


def test_evaluate_cusp_limit():
    near_cusp = from_traces(3.0, 3.0, 1e-6)
    a = evaluate(IdentityKind.THM11, near_cusp, 20.0)
    b = evaluate(IdentityKind.THM12, MODULAR, 20.0)
    assert abs(a.partial_sum - b.partial_sum) <= 1e-4


def test_evaluate_defect_monotone_in_cutoff():
    fn = FenchelNielsen(1.0, 0.3, 1.4)
    boundary_triple = from_fenchel_nielsen(fn)
    for kind, point in (
        (IdentityKind.THM12, MODULAR),
        (IdentityKind.MCSHANE, MODULAR),
        (IdentityKind.THM11, boundary_triple),
    ):
        cutoffs = [10.0, 12.0, 14.0, 16.0, 18.0]
        defects = [abs(evaluate(kind, point, cut).defect) for cut in cutoffs]
        for earlier, later in zip(defects, defects[1:]):
            assert later <= earlier + 1e-12


def test_evaluate_marking_invariance():
    child = trace_triple(*markov_child(MODULAR.x, MODULAR.y, MODULAR.z, 3))
    a = evaluate(IdentityKind.THM12, MODULAR, 18.0)
    b = evaluate(IdentityKind.THM12, child, 18.0)
    assert a.term_count == b.term_count
    assert abs(a.partial_sum - b.partial_sum) <= 1e-10

    fn_triple = from_fenchel_nielsen(FenchelNielsen(1.2, 0.0, 1.0))
    child = trace_triple(*markov_child(fn_triple.x, fn_triple.y, fn_triple.z, 2))
    a = evaluate(IdentityKind.THM11, fn_triple, 18.0)
    b = evaluate(IdentityKind.THM11, child, 18.0)
    assert a.term_count == b.term_count
    assert abs(a.partial_sum - b.partial_sum) <= 1e-10


HOLED = from_fenchel_nielsen(FenchelNielsen(1.2, 0.4, 1.5))
CUSPED_KINDS = (IdentityKind.THM12, IdentityKind.THM15, IdentityKind.FOUR_CUSPED,
                IdentityKind.MCSHANE)


def _point_for(kind):
    return MODULAR if kind in CUSPED_KINDS else HOLED


def test_evaluate_kind_point_mismatch():
    # every cusped kind at a holed point, every other kind at the cusp
    for kind in IdentityKind:
        if kind in CUSPED_KINDS:
            point, message = from_traces(3.0, 3.0, 1.0), "needs a cusped point"
        else:
            point, message = MODULAR, "needs boundary length k > 0"
        with pytest.raises(DomainError, match=message):
            evaluate(kind, point, 10.0)


def test_evaluate_report_bookkeeping():
    report = evaluate(IdentityKind.THM12, MODULAR, 16.0)
    assert report.defect == report.target - report.partial_sum
    assert report.cutoff == 16.0
    assert report.kind is IdentityKind.THM12
    assert report.parameters["k"] == 0.0
    assert report.tail_estimate == tail_estimate(0.0, 16.0)
    assert report.tail_estimate > 0.0
    # cosh(k/2) overflows: a typed refusal, not an OverflowError
    with pytest.raises(DomainError, match=re.escape("tail estimate overflows at k=1500")):
        tail_estimate(1500, 10)
    # k outside [0, inf) or a cutoff outside (0, inf): no negative or NaN scale
    for k, cutoff in ((0.5, -30.0), (0.5, nan), (nan, 10.0), (-1.0, 10.0)):
        with pytest.raises(DomainError, match="tail estimate needs finite k >= 0, cutoff > 0"):
            tail_estimate(k, cutoff)
    payload = report.to_dict()
    assert payload["kind"] == "thm12"
    assert payload["term_count"] == report.term_count


def test_evaluate_four_report_carries_c():
    # every report names the point; only the four-holed-sphere kinds add c = k/2
    four_kinds = (IdentityKind.FOUR, IdentityKind.FOUR_SIMPLE, IdentityKind.FOUR_CUSPED)
    for kind in IdentityKind:
        triple = _point_for(kind)
        parameters = evaluate(kind, triple, 12.0).parameters
        four = kind in four_kinds
        assert list(parameters) == ["x", "y", "z", "kappa", "k"] + ["c"] * four, kind
        assert parameters["k"] == triple.k
        if four:
            assert parameters["c"] == 0.5 * triple.k


def test_unknown_kind_is_refused_before_enumeration(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the spectrum was enumerated")

    monkeypatch.setattr(identities, "enumerate_geodesics", unreachable)
    monkeypatch.setattr(identities, "trace_chunks", unreachable)
    # the cusp, a holed point, and a cutoff below its shortest geodesic
    for triple, cutoff in ((MODULAR, 25.0), (HOLED, 25.0), (HOLED, 0.1)):
        for kind in ("thm11", None, ["thm11"]):
            with pytest.raises(DomainError, match="unknown identity kind"):
                next(iter_terms(kind, triple, cutoff))
            with pytest.raises(DomainError, match="unknown identity kind"):
                evaluate(kind, triple, cutoff)


def test_evaluate_builds_no_record(monkeypatch):
    # evaluate sums over the chunks of `trace_chunks`: no record is built
    want = {kind: evaluate(kind, _point_for(kind), 14.0) for kind in IdentityKind}

    def unreachable(*args, **kwargs):
        raise AssertionError("a record was built")

    monkeypatch.setattr(identities, "enumerate_geodesics", unreachable)
    monkeypatch.setattr(curves, "_make_record", unreachable)
    for kind, report in want.items():
        assert evaluate(kind, _point_for(kind), 14.0) == report


def test_sum_is_independent_of_order():
    # the sum is the exact sum of the terms, rounded once: no feed order moves a bit
    report = evaluate(IdentityKind.THM12, MODULAR, 22.0)
    terms = [term_cusped(r.length) for r in enumerate_geodesics(MODULAR, 22.0)]
    rng = random.Random(17)
    for _ in range(5):
        rng.shuffle(terms)
        assert fsum(terms).hex() == report.partial_sum.hex()


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_iter_terms_partials_are_compensated_prefix_sums(kind):
    triple = _point_for(kind)
    terms = []
    for record, term, partial in iter_terms(kind, triple, 14.0):
        assert term == identity_term(kind, triple.k, record)
        terms.append(term)
        assert partial.hex() == fsum(terms).hex()
    assert len(terms) > 10


# a thin cusped point: 456 records at cutoff 20, in long twist runs, with 227
# adjacent pairs of equal length
THIN = from_fenchel_nielsen(FenchelNielsen(8.0, 0.0, 0.0))
# THIN with y one ulp lower: 11 adjacent pairs of equal length and unequal trace
PINNED = trace_triple(54.61646567203297, 2.0013423008033646, 54.653121534907235)


# the chunk sizes `evaluate` is checked at: cuts after every trace, every other
# one, at odd places, and at the library's own size
CHUNK_SIZES = (1, 2, 7, curves._CHUNK)


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_iter_terms_agrees_with_evaluate(kind, monkeypatch):
    # `evaluate` sums the walk chunk by chunk: however it is cut, its count and
    # sum are those of `iter_terms` over the sorted records.  FN(19, 0, 0) at
    # cutoff 20 has 14,496 records, past one chunk of the library's size
    points = [(_point_for(kind), 14.0)] + [
        (THIN, 20.0), (PINNED, 20.0), (from_fenchel_nielsen(FenchelNielsen(19.0, 0.0, 0.0)), 20.0)
    ] * (kind in CUSPED_KINDS)
    for triple, cutoff in points:
        yielded = list(iter_terms(kind, triple, cutoff))
        lengths = [record.length for record, _, _ in yielded]
        assert lengths == sorted(lengths)
        for size in CHUNK_SIZES:
            monkeypatch.setattr(curves, "_CHUNK", size)
            report = evaluate(kind, triple, cutoff)
            assert len(yielded) == report.term_count, size
            assert yielded[-1][2].hex() == report.partial_sum.hex(), size
    # the last cusped point spans more than one chunk of the library's size
    assert kind not in CUSPED_KINDS or len(yielded) == 14_496 > CHUNK_SIZES[-1]


def test_mcshane_sum_crosses_length_700_chunk_by_chunk(monkeypatch):
    # the modular torus at cutoff 705: 134,742 records, 1,920 of them from
    # length 700 on, spread over the chunks.  Each chunk is sorted, and
    # `_terms` cuts it at 700 on its own, many of them inside; every term has
    # the bits of `term_mcshane`, and the count and sum are the ones of one
    # sorted column
    lengths = [record.length for record in enumerate_geodesics(MODULAR, 705.0)]
    assert sum(length >= 700.0 for length in lengths) == 1_920
    expected = Counter(term_mcshane(b).hex() for b in lengths)
    cut = identities._terms

    def spy(kernel, k, traces):
        nonlocal crossing
        crossing += length_from_trace(traces[0]) < 700.0 <= length_from_trace(traces[-1])
        terms.extend(cut(kernel, k, traces))
        return iter(terms[len(terms) - len(traces):])

    monkeypatch.setattr(identities, "_terms", spy)
    for size in CHUNK_SIZES[1:]:  # a chunk of one trace cannot cross
        monkeypatch.setattr(curves, "_CHUNK", size)
        terms, crossing = [], 0
        report = evaluate(IdentityKind.MCSHANE, MODULAR, 705.0)
        assert report.term_count == 134_742
        assert report.partial_sum.hex() == "0x1.fffffffffffffp-2"
        assert Counter(map(float.hex, terms)) == expected, size
        assert crossing > 10, (size, crossing)


def test_thm12_sum_across_length_700_is_pinned():
    # the modular torus at cutoff 705, where 1,920 brackets take the limit 0.0
    report = evaluate(IdentityKind.THM12, MODULAR, 705.0)
    assert report.term_count == 134_742
    assert report.partial_sum.hex() == "0x1.3bd3cc9be45ddp+2"


def test_thin_cusp_mcshane_sum_is_pinned():
    # the thin-cusp benchmark point: 215,174 records, summed bit for bit
    report = evaluate(IdentityKind.MCSHANE, from_fenchel_nielsen(FenchelNielsen(24.8, 0, 0)), 25.5)
    assert report.term_count == 215174
    assert report.partial_sum.hex() == "0x1.ffffafb651a8bp-2"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_a_million_thin_cusp_records_fit_in_bounded_memory():
    # `evaluate` sums the walk chunk by chunk, so it holds one chunk of traces
    # at a time: in a fresh process, neither the 830,022 records of
    # FN(27.5, 0, 0) nor the 1,757,194 of FN(29, 0, 0) lifts the peak RSS 4 MB
    # past its value after import.  With one list of the spectrum's traces,
    # the peak rose by 35 and 74 MB
    src = Path(__file__).resolve().parent.parent / "src"
    code = "\n".join((
        f"import resource, sys; sys.path.insert(0, {str(src)!r})",
        "from hypident import FenchelNielsen, IdentityKind, evaluate, from_fenchel_nielsen",
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "after_import = peak()",
        "for b, cutoff in ((27.5, 28.2), (29.0, 29.7)):",
        "    triple = from_fenchel_nielsen(FenchelNielsen(b, 0.0, 0.0))",
        "    report = evaluate(IdentityKind.MCSHANE, triple, cutoff)",
        "    print(report.term_count, report.partial_sum.hex(), peak() - after_import)",
    ))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stderr) == (0, "")
    runs = [line.split() for line in result.stdout.splitlines()]
    assert [(int(count), hexed) for count, hexed, _ in runs] == [
        (830_022, "0x1.ffffeb2fdfb7ap-2"), (1_757_194, "0x1.fffff62b7f7f7p-2")
    ]
    grown = [int(kib) / 1024 for *_, kib in runs]
    assert max(grown) < 4.0, grown


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_evaluate_restores_the_collector_state(enabled, unreduced):
    # MODULAR is its own reduction; the unvalidated root's only record has trace 2
    bad_root = TraceTriple(10.0, 2.0, 10.0, 4.0, 0.0)
    calls = [
        (None, "", lambda: evaluate(IdentityKind.THM12, MODULAR, 10.0)),
        (DomainError, "needs boundary length", lambda: evaluate(IdentityKind.THM11, MODULAR, 10.0)),
        (ResourceLimitError, "exceeded 5 records",
         lambda: evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=5)),
        (NonHyperbolicError, "hyperbolic element, got 2.0$",
         lambda: evaluate(IdentityKind.MCSHANE, bad_root, 4.0)),
    ]
    if not enabled:
        gc.disable()
    try:
        for raised, message, call in calls:
            if raised is None:
                call()
            else:
                with pytest.raises(raised, match=message):
                    call()
            assert gc.isenabled() is enabled, raised
    finally:
        gc.enable()


def test_columns_and_evaluate_never_pause_the_collector(monkeypatch):
    # only untracked floats outlive the walk: nothing on this path may
    # disable the collector, and both give the same traces and sum
    traces = sorted_traces(THIN, 20.0)
    report = evaluate(IdentityKind.MCSHANE, THIN, 20.0)

    def refuse():
        raise AssertionError("the collector was paused")

    monkeypatch.setattr(gc, "disable", refuse)
    assert sorted_traces(THIN, 20.0) == traces
    assert evaluate(IdentityKind.MCSHANE, THIN, 20.0).partial_sum.hex() == report.partial_sum.hex()
    with pytest.raises(AssertionError, match="collector was paused"):
        enumerate_geodesics(THIN, 20.0)


def test_iter_terms_holds_no_pause_across_a_yield():
    terms = iter_terms(IdentityKind.THM12, MODULAR, 10.0)
    next(terms)
    assert gc.isenabled()
    next(terms)
    assert gc.isenabled()


def test_iter_terms_rejects_cusped_kind_at_holed_point():
    for kind in CUSPED_KINDS:
        with pytest.raises(DomainError):
            next(iter_terms(kind, HOLED, 10.0))


def test_iter_terms_and_evaluate_refuse_alike_at_the_record_cap(monkeypatch):
    # `iter_terms` walks under the cap `curves.DEFAULT_MAX_RECORDS`, read at call
    # time, and so do `evaluate` and `trace_chunks` when no `max_records` is passed
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 10)
    with pytest.raises(ResourceLimitError, match="^enumeration exceeded 10 records") as by_iter:
        next(iter_terms(IdentityKind.THM12, MODULAR, 25.0))
    for call in (
        lambda: evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=10),
        lambda: evaluate(IdentityKind.THM12, MODULAR, 25.0),
        lambda: list(trace_chunks(MODULAR, 25.0)),
    ):
        with pytest.raises(ResourceLimitError) as by_other:
            call()
        assert str(by_other.value) == str(by_iter.value)
    monkeypatch.setattr(curves, "DEFAULT_MAX_RECORDS", 174)
    assert len(list(iter_terms(IdentityKind.THM12, MODULAR, 25.0))) == 174
    assert evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=174).term_count == 174
    assert evaluate(IdentityKind.THM12, MODULAR, 25.0).term_count == 174
    assert sum(map(len, trace_chunks(MODULAR, 25.0))) == 174


def test_evaluate_refuses_what_the_walk_meets_first(monkeypatch):
    # chunks of 7 on the modular torus: a term refused in the first chunk
    # comes before the record cap that a later chunk would meet, and a cap
    # met while the walk fills the first chunk comes before any of its terms
    monkeypatch.setattr(curves, "_CHUNK", 7)
    row = identities._IDENTITIES[IdentityKind.THM12][1:]

    def refusing(k, traces, lengths):
        raise DomainError(f"a term of a chunk of {len(traces)} refused")

    monkeypatch.setitem(identities._IDENTITIES, IdentityKind.THM12, (refusing, *row))
    with pytest.raises(DomainError, match="^a term of a chunk of 7 refused$"):
        evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=10)
    with pytest.raises(ResourceLimitError, match="^enumeration exceeded 5 records"):
        evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=5)
