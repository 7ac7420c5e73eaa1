import random
from fractions import Fraction
from math import acosh, cosh, exp, inf, isfinite, log, nan, sqrt

import mpmath
import pytest

from hypident import (
    DomainError,
    FenchelNielsen,
    NoRealStructureError,
    NonHyperbolicError,
    Slope,
    boundary_length,
    brute_force_trace,
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


def test_fenchel_nielsen_beyond_float_range_is_refused():
    # cosh overflows in the crossing scale (b, k) or in the y and z traces (t + b);
    # or cosh(t/2) is finite and the product 2p cosh(t/2) overflows to inf; or
    # sinh(b/2) is subnormal (p = inf) or rounds to 0 (a division by zero)
    overflowing_matrices = (
        FenchelNielsen(711.0, 0.0, 0.0),
        FenchelNielsen(1.0, 1500.0, 0.0),
        FenchelNielsen(1.0, 0.0, 1500.0),
        FenchelNielsen(1.0, 1419.5, 0.0),
        FenchelNielsen(1.0, 1419.0, 0.0),
        FenchelNielsen(0.001, 1418.0, 0.0),
        FenchelNielsen(1e-323, 0.0, 1.0),
        FenchelNielsen(5e-324, 0.0, 1.0),
        FenchelNielsen(5e-324, 0.0, 0.0),
    )
    # only the trace z = 2p cosh((t+b)/2) overflows here; the matrices are finite
    for fn in overflowing_matrices + (FenchelNielsen(700.0, 800.0, 0.0),):
        with pytest.raises(DomainError, match="beyond the float range"):
            from_fenchel_nielsen(fn)
    # the matrices refuse the same way where an entry overflows, not with inf entries
    for fn in overflowing_matrices:
        with pytest.raises(DomainError, match="beyond the float range"):
            fenchel_nielsen_matrices(fn)


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


def test_from_traces_refusals_keep_their_messages():
    beyond = ": beyond the float range"
    for x, y, k, error, message in (
        (2.0, 3.0, 0.0, NonHyperbolicError, "trace x must exceed 2, got 2.0"),
        (nan, 3.0, 0.0, NonHyperbolicError, "trace x must exceed 2, got nan"),
        (3.0, 3.0, -1.0, DomainError, "boundary length k must be >= 0, got -1.0"),
        (3.0, 3.0, inf, DomainError, "boundary length k must be >= 0, got inf"),
        (3.0, 3.0, 1500.0, DomainError, "overflow at x=3.0, y=3.0, k=1500.0" + beyond),
        (1e200, 3.0, 1.0, DomainError, "overflow at x=1e[+]200, y=3.0, k=1.0" + beyond),
        # an intermediate reaches inf without OverflowError: 2 cosh(709.5), or
        # (xy)^2 - 4 rest = inf - inf
        (3.0, 3.0, 1419.0, DomainError, "overflow at x=3.0, y=3.0, k=1419.0" + beyond),
        (1e160, 1e160, 1.0, DomainError, "overflow at x=1e[+]160, y=1e[+]160, k=1.0" + beyond),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            from_traces(x, y, k)


def test_from_traces_third_trace_below_float_resolution():
    # the exact third trace is 2 + 4e-18, above 2 as for every x, y > 2
    # and k >= 0; its float rounds to 2.0, so it is refused as unresolvable
    with pytest.raises(
        NonHyperbolicError,
        match=r"^third trace 2\.0 <= 2: the exact trace exceeds 2 by less than float resolution$",
    ):
        from_traces(1e9, 1e9, 0.0)


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


def test_matrix_off_diagonal_against_mpmath():
    # q = sqrt(p^2 - 1) from a rounded p lost all accuracy by b ~ 36 (B read the
    # identity at b = 40); q = sqrt((cosh(k/2) + 1)/2) / sinh(b/2) keeps it
    rng = random.Random(36)
    with mpmath.workdps(30):
        for _ in range(2000):
            b = exp(rng.uniform(log(0.01), log(700.0)))
            k = exp(rng.uniform(log(1e-6), log(60.0)))
            q = fenchel_nielsen_matrices(FenchelNielsen(b, 0.0, k))[1][0][1]
            half_k, half_b = mpmath.mpf(k) / 2, mpmath.mpf(b) / 2
            want = mpmath.sqrt((mpmath.cosh(half_k) + 1) / 2) / mpmath.sinh(half_b)
            assert abs(q - want) <= 1e-15 * want, (b, k)
    # p * p - 1 rounded below 0 here: a bare ValueError from sqrt
    fn = FenchelNielsen(50.27509620696496, 0.0, 8.924357532655669e-09)
    assert isfinite(brute_force_trace(fn, Slope(1, 1)))


def test_length_from_trace():
    assert abs(length_from_trace(3.0) - 1.9248473002384138) <= 1e-12
    assert abs(length_from_trace(2.0 * cosh(5.0)) - 10.0) <= 1e-12
    # length -> 0 as the trace approaches 2 from above
    assert length_from_trace(2.0 + 1e-12) < 3e-6


def test_length_from_trace_rejects_non_hyperbolic():
    for trace in (2.0, -3.0, nan, inf, -inf):
        with pytest.raises(NonHyperbolicError, match=f"hyperbolic element, got {trace!r}$"):
            length_from_trace(trace)


def test_fenchel_nielsen_validation():
    with pytest.raises(DomainError):
        FenchelNielsen(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        FenchelNielsen(1.0, 0.0, -0.5)
    for t in (inf, nan):
        with pytest.raises(DomainError, match=f"^twist t must be finite, got {t!r}$"):
            FenchelNielsen(1.0, t, 0.0)
