"""Property tests over log-uniform points, with fixed example generation."""

import re
from math import cosh, exp, fsum, log
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypident import (
    DomainError,
    FenchelNielsen,
    GeodesicRecord,
    IdentityKind,
    evaluate,
    from_fenchel_nielsen,
    identities,
    identity_term,
    iter_terms,
    trace_triple,
)
from hypident.identities import check_point_kind


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    log_k=st.floats(log(1e-9), log(10.0)),
    log_b=st.floats(log(0.01), log(33.0)),
)
def test_orthogeodesic_kinds_match_thm11(log_k, log_b):
    # THM31 and FOUR read their brackets off the orthogeodesics of the cut
    # pants; THM11 off k and b alone.  Both must evaluate, and agree
    k, b = exp(log_k), exp(log_b)
    record = GeodesicRecord(None, 2.0 * cosh(0.5 * b), b)
    reference = identity_term(IdentityKind.THM11, k, record)
    for kind in (IdentityKind.THM31, IdentityKind.FOUR):
        assert abs(identity_term(kind, k, record) - reference) <= 1e-14


# 36 records below length 12, one for each term the strategy below draws
MODULAR = trace_triple(3.0, 3.0, 3.0)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-1e300, 1e300),  # no prefix of 30 overflows
            st.floats(-1e-305, 1e-305),  # subnormals and their neighbours
            st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.0, -0.0]),
        ),
        max_size=30,
    )
)
@example([1e16, 1.0, -1e16])
@example([5e-324, -1.5e-323, 2.2250738585072014e-308, -1e-310])
@example([1e300, -3.5, 1e-300, -1e300, 2.0])
# a Neumaier update returns -4.000000000000001e+100 here; the exact sum rounds to -4e+100
@example(
    [0.10000000000000003, -1.0000000000000002e100, 9007199254740992.0, 3e16, -3.0000000000000002e100]
)
@example([-0.0])
@example([])
def test_iter_terms_running_sum_is_correctly_rounded(values):
    # a kernel whose terms are `values`: each partial of iter_terms is the
    # correctly rounded sum of its prefix, the bits of fsum, signed zeros included
    row = (lambda k, traces, lengths: iter(values), True, 0.5, False)
    with mock.patch.dict(identities._IDENTITIES, {IdentityKind.MCSHANE: row}):
        steps = list(zip(values, iter_terms(IdentityKind.MCSHANE, MODULAR, 12.0)))
    assert len(steps) == len(values)
    for i, (value, (_, term, partial)) in enumerate(steps, 1):
        assert term.hex() == value.hex()
        assert partial.hex() == fsum(values[:i]).hex()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    log_b=st.floats(log(0.3), log(8.0)),
    twist=st.floats(-1.0, 1.0),
    k=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
    cutoff=st.floats(10.0, 14.0),
)
def test_evaluate_is_the_last_iter_terms_partial(log_b, twist, k, cutoff):
    # evaluate sums over the sorted traces, iter_terms the records: the same count
    # and bits, or the same typed refusal (the reduction refuses some twisted roots)
    b = exp(log_b)
    try:
        triple = from_fenchel_nielsen(FenchelNielsen(b, twist * b, k))
    except DomainError:
        assume(False)  # the point itself is refused: no sum to compare
    for kind in IdentityKind:
        try:
            check_point_kind(kind, k)
        except DomainError:
            continue
        try:
            report = evaluate(kind, triple, cutoff)
        except DomainError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                list(iter_terms(kind, triple, cutoff))
            continue
        partials = [partial for _, _, partial in iter_terms(kind, triple, cutoff)]
        assert report.term_count == len(partials)
        assert report.partial_sum.hex() == (partials[-1] if partials else 0.0).hex()
