"""Property tests over log-uniform points, with fixed example generation."""

from math import cosh, exp, log

from hypothesis import given, settings
from hypothesis import strategies as st

from hypident import GeodesicRecord, IdentityKind, identity_term


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
