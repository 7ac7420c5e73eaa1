import itertools
import random
import re
from math import acosh, cosh, exp, expm1, log, pi, tanh, ulp

import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    GeodesicRecord,
    IdentityKind,
    ResourceLimitError,
    compensated_sum,
    enumerate_geodesics,
    evaluate,
    foursphere_ortho,
    from_fenchel_nielsen,
    from_traces,
    identities,
    identity_term,
    iter_terms,
    lasso,
    markov_child,
    pants_sum_term,
    pants_sum_term_via_complement,
    quasi_pants_term,
    rogers,
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
    trace_triple,
)
from helpers import rogers_oracle

PI2_2 = pi * pi / 2.0
PI2_6 = pi * pi / 6.0

MODULAR = trace_triple(3.0, 3.0, 3.0)

# cusped bracket at b = 2 acosh(3/2), 40-digit dilogarithm evaluation
CUSPED_AT_MODULAR_SYSTOLE = 1.1506828915753256


def test_one_holed_long_geodesic_limit():
    assert term_one_holed(1.0, 800.0) == 0.0
    assert abs(term_one_holed(1.0, 80.0)) < 1e-30


def test_one_holed_short_geodesic_limit():
    assert abs(term_one_holed(2.0, 1e-9) - PI2_2) <= 1e-7


def test_one_holed_cusp_limit_matches_cusped_term():
    for b in (0.7, 1.5, 3.0):
        assert abs(term_one_holed(1e-6, b) - term_cusped(b)) <= 1e-5


def test_one_holed_rejects_nonpositive():
    with pytest.raises(DomainError):
        term_one_holed(0.0, 1.0)
    with pytest.raises(DomainError):
        term_one_holed(1.0, -1.0)


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


def test_ortho_bracket_spends_three_dilogarithms(monkeypatch):
    # the lasso's L(y) cancels the bracket's 2 L(y): three Rogers calls
    calls = {"rogers": 0, "lasso": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(identities, "rogers", counted("rogers", rogers))
    monkeypatch.setattr(identities, "lasso", counted("lasso", lasso))
    record = GeodesicRecord(None, 2.0 * cosh(1.0), 2.0)
    for kind in (IdentityKind.THM31, IdentityKind.FOUR):
        identity_term(kind, 1.5, record)
        assert calls == {"rogers": 3, "lasso": 0}
        calls.update(rogers=0)
    quasi_pants_term(1.5, 2.0)  # the bracket, L(sech^2(p/2)) and La(e^{-b}, y)
    assert calls == {"rogers": 4, "lasso": 1}


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
    fn = FenchelNielsen(1.2, 0.4, 1.5)
    triple = from_fenchel_nielsen(fn)
    records = enumerate_geodesics(triple, 20.0)
    direct = compensated_sum(quasi_pants_term(triple.k, r.length) for r in records)
    partial = torus_contribution_partial(triple.k, records)
    assert abs(direct - partial) <= 1e-4


def test_quasi_pants_guards():
    # geometric data always satisfies the guards; a hand-fed short seam
    # violates them and must be rejected.  The b guard is checked first, so
    # it names the first point, which breaks the k guard as well
    message = "guard e^(-b) < tanh^2(m/2) violated (b=3.0, m=0.05)"
    with pytest.raises(DomainError, match=re.escape(message)):
        quasi_pants_term(2.0, 3.0, ortho=(0.05, 1.0, 1.0))
    message = "guard e^(-k/2) < tanh^2(m/2) violated (k=0.001, m=1.0)"
    with pytest.raises(DomainError, match=re.escape(message)):
        quasi_pants_term(0.001, 3.0, ortho=(1.0, 1.0, 1.0))


def test_evaluate_cusped_identity_converges():
    report = evaluate(IdentityKind.THM12, MODULAR, 25.0)
    assert report.target == PI2_2
    assert abs(report.defect) <= 1e-6
    assert report.term_count == 174


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


def test_evaluate_kind_point_mismatch():
    with pytest.raises(DomainError):
        evaluate(IdentityKind.THM11, MODULAR, 10.0)  # needs k > 0
    holed = from_traces(3.0, 3.0, 1.0)
    for kind in (IdentityKind.THM12, IdentityKind.THM15, IdentityKind.MCSHANE,
                 IdentityKind.FOUR_CUSPED):
        with pytest.raises(DomainError):
            evaluate(kind, holed, 10.0)


def test_evaluate_report_bookkeeping():
    report = evaluate(IdentityKind.THM12, MODULAR, 16.0)
    assert report.defect == report.target - report.partial_sum
    assert report.cutoff == 16.0
    assert report.kind is IdentityKind.THM12
    assert report.parameters["k"] == 0.0
    assert report.tail_estimate == tail_estimate(0.0, 16.0)
    assert report.tail_estimate > 0.0
    payload = report.to_dict()
    assert payload["kind"] == "thm12"
    assert payload["term_count"] == report.term_count


def test_evaluate_four_report_carries_c():
    fn_triple = from_fenchel_nielsen(FenchelNielsen(1.2, 0.0, 1.0))
    report = evaluate(IdentityKind.FOUR, fn_triple, 12.0)
    assert abs(report.parameters["c"] - 0.5 * fn_triple.k) <= 1e-15


def test_compensated_sum_rescues_cancellation():
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([]) == 0.0


def test_sum_order_independence_below_tolerance():
    records = enumerate_geodesics(MODULAR, 22.0)
    terms = [term_cusped(r.length) for r in records]
    sorted_sum = compensated_sum(terms)
    rng = random.Random(17)
    for _ in range(5):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert abs(compensated_sum(shuffled) - sorted_sum) <= 1e-14


HOLED = from_fenchel_nielsen(FenchelNielsen(1.2, 0.4, 1.5))
CUSPED_KINDS = (IdentityKind.THM12, IdentityKind.THM15, IdentityKind.FOUR_CUSPED,
                IdentityKind.MCSHANE)


def _point_for(kind):
    return MODULAR if kind in CUSPED_KINDS else HOLED


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_iter_terms_partials_are_compensated_prefix_sums(kind):
    triple = _point_for(kind)
    terms = []
    for record, term, partial in iter_terms(kind, triple, 14.0):
        assert term == identity_term(kind, triple.k, record)
        terms.append(term)
        assert partial == compensated_sum(terms)
    assert len(terms) > 10


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda kind: kind.value)
def test_iter_terms_agrees_with_evaluate(kind):
    triple = _point_for(kind)
    yielded = list(iter_terms(kind, triple, 14.0))
    report = evaluate(kind, triple, 14.0)
    assert len(yielded) == report.term_count
    assert yielded[-1][2] == report.partial_sum
    lengths = [record.length for record, _, _ in yielded]
    assert lengths == sorted(lengths)


def test_iter_terms_rejects_cusped_kind_at_holed_point():
    for kind in CUSPED_KINDS:
        with pytest.raises(DomainError):
            next(iter_terms(kind, HOLED, 10.0))


def test_iter_terms_passes_max_records_to_enumeration():
    with pytest.raises(ResourceLimitError):
        next(iter_terms(IdentityKind.THM12, MODULAR, 25.0, max_records=10))
    with pytest.raises(ResourceLimitError):
        evaluate(IdentityKind.THM12, MODULAR, 25.0, max_records=10)
    assert len(list(iter_terms(IdentityKind.THM12, MODULAR, 25.0, max_records=174))) == 174
