import random
from fractions import Fraction
from math import acosh, cosh, sqrt

import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    NoRealStructureError,
    NonHyperbolicError,
    boundary_length,
    enumerate_geodesics,
    fenchel_nielsen_matrices,
    from_fenchel_nielsen,
    from_traces,
    length_from_trace,
    trace_triple,
)
from hypident.torus import _kappa, mat_inv, mat_mul, mat_trace


def test_boundary_length_cusp_cases():
    assert boundary_length(3.0, 3.0, 3.0) == 0.0
    assert boundary_length(3.0, 3.0, 6.0) == 0.0


def test_boundary_length_holed_case():
    # kappa = 9 + 9 + 16 - 36 = -2, so cosh(k/2) = 2
    assert abs(boundary_length(3.0, 3.0, 4.0) - 2.0 * acosh(2.0)) <= 1e-14


def test_boundary_length_rejects_bad_triples():
    with pytest.raises(NonHyperbolicError):
        boundary_length(2.05, 2.05, 2.05)  # kappa = 3*2.05^2 - 2.05^3 > 0
    with pytest.raises(NonHyperbolicError):
        boundary_length(2.0, 3.0, 4.0)  # trace not > 2
    with pytest.raises(NonHyperbolicError):
        boundary_length(3.0, 3.0, float("nan"))


def _kappa_oracle(x, y, z):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    return float(x * x + y * y + z * z - x * y * z)


def test_kappa_is_correctly_rounded():
    rng = random.Random(20261018)
    triples = []
    for _ in range(1000):
        # trace excesses log-uniform in [1e-12, 1e150], with xyz below 1e300
        e1, e2 = rng.uniform(-12.0, 150.0), rng.uniform(-12.0, 150.0)
        e3 = rng.uniform(-12.0, min(150.0, 300.0 - max(e1, 0.0) - max(e2, 0.0)))
        traces = [2.0 + 10.0 ** e for e in (e1, e2, e3)]
        rng.shuffle(traces)
        triples.append(tuple(traces))
    for _ in range(1000):
        # near-cusp Fenchel-Nielsen coordinates, kappa a tiny difference of large terms
        fn = FenchelNielsen(10.0 ** rng.uniform(-3.0, 1.5), rng.uniform(-5.0, 5.0),
                            10.0 ** rng.uniform(-12.0, -4.0))
        t = from_fenchel_nielsen(fn)
        triples.append((t.x, t.y, t.z))
    for x, y, z in triples:
        assert _kappa(x, y, z) == _kappa_oracle(x, y, z), (x, y, z)


def test_kappa_beyond_float_range_is_refused():
    with pytest.raises(DomainError) as info:
        trace_triple(1e200, 1e200, 1e200)
    assert not isinstance(info.value, NonHyperbolicError)
    for traces in ((1e160, 3.0, 3.0), (3.0, 3.0, 1e155)):
        with pytest.raises(NonHyperbolicError, match="overflows to \\+inf"):
            trace_triple(*traces)
    # kappa of order -1e307 is still in range and correctly rounded
    assert trace_triple(1e154, 2.5, 6.8e153).kappa == -2.3759999999999993e307


def test_positive_kappa_near_the_float_range_is_not_snapped_to_the_cusp():
    # x^2+y^2+z^2+|xyz| overflows here while kappa (+1.9e307, +3.7e307) is
    # finite; the rounding allowance must stay finite and refuse the triple
    for traces in (
        (1e154, 9e76, 9e76),
        (2.358828686727197e154, 8.738233403792575e131, 2.519488935835061e22),
    ):
        with pytest.raises(NonHyperbolicError, match="> 0: no hyperbolic"):
            trace_triple(*traces)


def test_from_traces_examples():
    assert from_traces(3.0, 3.0, 2.0 * acosh(2.0)).z == pytest.approx(4.0, abs=1e-12)
    assert from_traces(3.0, 3.0, 0.0).z == pytest.approx(3.0, abs=1e-14)
    # (4, 4, 0): smaller root of z^2 - 16 z + 30+... is (16 - sqrt(128))/2
    z = from_traces(4.0, 4.0, 0.0).z
    assert z == pytest.approx((16.0 - sqrt(128.0)) / 2.0, abs=1e-12)
    # oracle: substitute back into the cusp equation
    assert abs(4.0**2 + 4.0**2 + z * z - 4.0 * 4.0 * z) <= 1e-12


def test_from_traces_smaller_root_and_markov_partner():
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        x = rng.uniform(2.1, 50.0)
        y = rng.uniform(2.1, 50.0)
        k = rng.uniform(0.0, 6.0)
        try:
            triple = from_traces(x, y, k)
        except (NoRealStructureError, NonHyperbolicError):
            continue
        checked += 1
        # the large root computed directly; Vieta: the roots sum to xy
        rest = x * x + y * y - 2.0 + 2.0 * cosh(0.5 * k)
        z_large = 0.5 * (x * y + sqrt((x * y) ** 2 - 4.0 * rest))
        assert triple.z <= z_large
        assert abs((x * y - triple.z) - z_large) <= 1e-10 * max(1.0, z_large)
    assert checked > 100


def test_from_traces_roundtrip():
    rng = random.Random(6)
    checked = 0
    for _ in range(400):
        x = rng.uniform(2.1, 50.0)
        y = rng.uniform(2.1, 50.0)
        k = rng.uniform(2.0, 20.0)
        try:
            triple = from_traces(x, y, k)
        except (NoRealStructureError, NonHyperbolicError):
            continue
        checked += 1
        assert abs(boundary_length(triple.x, triple.y, triple.z) - k) <= 1e-12
    assert checked > 300


def test_from_traces_roundtrip_small_k_conditioned():
    # below k ~ 2 the recomputed kappa amplifies the half-ulp rounding of z
    # by |2z - xy| / sinh(k/2); test against that conditioning bound
    rng = random.Random(61)
    from math import sinh, ulp

    for _ in range(300):
        x = rng.uniform(2.1, 50.0)
        y = rng.uniform(2.1, 50.0)
        k = rng.uniform(0.05, 2.0)
        try:
            triple = from_traces(x, y, k)
        except (NoRealStructureError, NonHyperbolicError):
            continue
        amplification = (abs(2.0 * triple.z - x * y) * ulp(triple.z)) / sinh(0.5 * k)
        bound = max(1e-12, 8.0 * amplification)
        assert abs(boundary_length(triple.x, triple.y, triple.z) - k) <= bound


def test_from_traces_negative_discriminant():
    with pytest.raises(NoRealStructureError):
        from_traces(2.1, 2.1, 10.0)


def test_fenchel_nielsen_exact_first_trace():
    fn = FenchelNielsen(1.7, 0.3, 2.0)
    triple = from_fenchel_nielsen(fn)
    assert triple.x == 2.0 * cosh(0.5 * fn.b)


def test_fenchel_nielsen_cusp_relation():
    fn = FenchelNielsen(1.2, 0.45, 0.0)
    triple = from_fenchel_nielsen(fn)
    assert triple.k == 0.0
    # cusp equation x^2 + y^2 + z^2 = xyz up to roundoff of the coordinates
    assert abs(triple.kappa) <= 1e-12


def test_fenchel_nielsen_boundary_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        fn = FenchelNielsen(rng.uniform(0.4, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(0.1, 5.0))
        triple = from_fenchel_nielsen(fn)
        assert triple.k == fn.k
        # and the boundary length recomputed from raw coordinates agrees
        assert abs(boundary_length(triple.x, triple.y, triple.z) - fn.k) <= 1e-10


def test_twist_by_length_is_markov_neighbor():
    fn = FenchelNielsen(1.4, 0.6, 1.1)
    fn_shift = FenchelNielsen(1.4, 0.6 + 1.4, 1.1)
    a = from_fenchel_nielsen(fn)
    b = from_fenchel_nielsen(fn_shift)
    assert b.x == a.x
    assert abs(b.y - a.z) <= 1e-12
    assert abs(b.z - (a.x * a.z - a.y)) <= 1e-11


def test_twist_full_turn_preserves_spectrum():
    fn = FenchelNielsen(1.4, 0.6, 1.1)
    fn_turn = FenchelNielsen(1.4, 0.6 + 1.4, 1.1)
    spec_a = [r.length for r in enumerate_geodesics(from_fenchel_nielsen(fn), 12.0)]
    spec_b = [r.length for r in enumerate_geodesics(from_fenchel_nielsen(fn_turn), 12.0)]
    assert len(spec_a) == len(spec_b)
    assert all(abs(u - v) <= 1e-10 for u, v in zip(spec_a, spec_b))


def test_twist_reflection_preserves_spectrum():
    fn = FenchelNielsen(1.4, 0.6, 1.1)
    fn_neg = FenchelNielsen(1.4, -0.6, 1.1)
    spec_a = [r.length for r in enumerate_geodesics(from_fenchel_nielsen(fn), 12.0)]
    spec_b = [r.length for r in enumerate_geodesics(from_fenchel_nielsen(fn_neg), 12.0)]
    assert len(spec_a) == len(spec_b)
    assert all(abs(u - v) <= 1e-10 for u, v in zip(spec_a, spec_b))


def test_matrix_recipe_traces_and_commutator():
    rng = random.Random(9)
    for _ in range(50):
        fn = FenchelNielsen(rng.uniform(0.4, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 5.0))
        triple = from_fenchel_nielsen(fn)
        a, b = fenchel_nielsen_matrices(fn)
        assert abs(mat_trace(a) - triple.x) <= 1e-12 * triple.x
        assert abs(mat_trace(b) - triple.y) <= 1e-12 * triple.y
        assert abs(mat_trace(mat_mul(a, b)) - triple.z) <= 1e-11 * triple.z
        # Fricke: tr(A) tr(B) = tr(AB) + tr(AB^-1)
        fricke = mat_trace(mat_mul(a, mat_inv(b)))
        assert abs(triple.x * triple.y - triple.z - fricke) <= 1e-9 * max(1.0, triple.x * triple.y)
        # commutator trace = kappa - 2
        comm = mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))
        assert abs(mat_trace(comm) - (triple.kappa - 2.0)) <= 1e-9 * max(1.0, abs(triple.kappa))


def test_length_from_trace():
    assert abs(length_from_trace(3.0) - 1.9248473002384138) <= 1e-12
    assert abs(length_from_trace(2.0 * cosh(5.0)) - 10.0) <= 1e-12
    # length -> 0 as the trace approaches 2 from above
    assert length_from_trace(2.0 + 1e-12) < 3e-6


def test_length_from_trace_rejects_non_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        length_from_trace(2.0)
    with pytest.raises(NonHyperbolicError):
        length_from_trace(-3.0)


def test_fenchel_nielsen_validation():
    with pytest.raises(DomainError):
        FenchelNielsen(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        FenchelNielsen(1.0, 0.0, -0.5)
