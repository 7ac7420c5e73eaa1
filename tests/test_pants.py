import itertools
import math
import random
from math import asinh, cosh, exp, sinh, tanh

import mpmath
import pytest

from hypident import (
    DomainError,
    foursphere_ortho,
    guard_threshold,
    pants_geometry,
    pants_sum_term,
    term_ortho_torus,
    torus_ortho,
)
from helpers import seam_oracle

# seam of the (2,2,2) pants: acosh((cosh 1 + cosh^2 1)/sinh^2 1), 40 digits
SEAM_222 = 1.7049128323580137


def _pants_mp(a1, a2, a3):
    """(m1, m2, m3, d1, d2, d3) from the acosh forms of the hexagon relation.

    cosh m_i = (C_i + C_j C_k) / (S_j S_k) and cosh^2(d_i/2) = (C_1^2 + C_2^2
    + C_3^2 + 2 C_1 C_2 C_3 - 1) / S_i^2, with C, S = cosh, sinh of half a
    boundary: not the library's positive-sum forms.  No length is shorter
    than ~e^{-max(a)/2}, whose cosh - 1 ~ e^{-max(a)} these resolve at the
    working precision, 40 digits past it.
    """
    with mpmath.workdps(40 + int(max(a1, a2, a3) / math.log(10))):
        a = [mpmath.mpf(x) for x in (a1, a2, a3)]
        c = [mpmath.cosh(x / 2) for x in a]
        s = [mpmath.sinh(x / 2) for x in a]
        root = mpmath.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + 2 * c[0] * c[1] * c[2] - 1)
        seams = [
            mpmath.acosh((c[i] + c[j] * c[k]) / (s[j] * s[k]))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
        return seams + [2 * mpmath.acosh(root / s[i]) for i in range(3)]


def _torus_mp(k, b):
    # (m, p, q) of `torus_ortho`: (m2, d1, m1) of the pants (k, b, b)
    g = _pants_mp(k, b, b)
    return g[1], g[3], g[0]


def _foursphere_mp(c, a):
    # (m, p, q) of `foursphere_ortho`: (m1, d3, m3) of the pants (c, c, a)
    g = _pants_mp(c, c, a)
    return g[0], g[5], g[2]


def _relative_error(got, exact):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) / exact - 1))


def test_symmetric_pants():
    g = pants_geometry(2.0, 2.0, 2.0)
    assert g.m1 == g.m2 == g.m3
    assert g.d1 == g.d2 == g.d3


def test_symmetric_pants_seam_closed_form():
    g = pants_geometry(2.0, 2.0, 2.0)
    assert abs(cosh(g.m1) - (cosh(1.0) + cosh(1.0) ** 2) / sinh(1.0) ** 2) <= 1e-14
    assert abs(g.m1 - SEAM_222) <= 1e-14


def test_seam_against_matrix_oracle():
    for lengths in [(2.0, 2.0, 2.0), (1.5, 2.0, 3.0), (0.5, 4.0, 1.0), (7.0, 0.3, 2.0)]:
        g = pants_geometry(*lengths)
        assert abs(g.m1 - seam_oracle(*lengths)) <= 1e-9


def test_unequal_boundaries_break_symmetry():
    c, a = 2.0, 3.0
    g = pants_geometry(c, c, a)
    assert g.m1 == g.m2  # both join a length-c boundary to the length-a one
    assert abs(g.m1 - g.m3) > 0.01


def test_relabeling_equivariance():
    lengths = (1.3, 2.7, 0.9)
    base = pants_geometry(*lengths)
    base_m = {1: base.m1, 2: base.m2, 3: base.m3}
    base_d = {1: base.d1, 2: base.d2, 3: base.d3}
    for perm in itertools.permutations((1, 2, 3)):
        permuted = pants_geometry(*(lengths[i - 1] for i in perm))
        for slot, original in enumerate(perm, start=1):
            assert abs(getattr(permuted, f"m{slot}") - base_m[original]) <= 1e-14
            assert abs(getattr(permuted, f"d{slot}") - base_d[original]) <= 1e-14


def test_pants_rejects_degenerate_lengths():
    with pytest.raises(DomainError):
        pants_geometry(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        pants_geometry(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        pants_geometry(1.0, 1.0, 1e-13)


def test_foursphere_self_perpendicular_closed_form():
    # cosh c = 2, cosh(a/2) = 3.5 gives tanh^2(p/2) = 3/5.5 = 6/11
    from math import acosh

    c = acosh(2.0)
    a = 2.0 * acosh(3.5)
    ortho = foursphere_ortho(c, a)
    assert abs(tanh(0.5 * ortho.p) ** 2 - 6.0 / 11.0) <= 1e-14


def test_foursphere_matches_general_pants():
    # the specialized closed forms against the pentagon-derived general ones
    for c in (0.1, 0.5, 1.0, 2.0, 5.0):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0):
            ortho = foursphere_ortho(c, a)
            g = pants_geometry(c, c, a)
            assert abs(ortho.m - g.m1) <= 1e-10  # seam c <-> a
            assert abs(ortho.q - g.m3) <= 1e-10  # seam c <-> c
            assert abs(ortho.p - g.d3) <= 1e-10  # self-perp of the a boundary
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 1.0, 2.0, 5.0, 10.0):
            ortho = torus_ortho(k, b)
            g = pants_geometry(k, b, b)
            assert abs(ortho.m - g.m2) <= 1e-10  # seam k <-> b
            assert abs(ortho.q - g.m1) <= 1e-10  # seam b <-> b
            assert abs(ortho.p - g.d1) <= 1e-10  # self-perp of the k boundary


def test_foursphere_guard_threshold():
    for c in (0.1, 0.5, 1.0, 2.0, 5.0):
        floor = guard_threshold(0.5 * c)
        for a in (0.01, 0.1, 1.0, 10.0, 50.0):
            assert foursphere_ortho(c, a).m > floor


def test_foursphere_seam_diverges_for_short_interior():
    c = 1.0
    previous = 0.0
    for a in (1e-2, 1e-4, 1e-6, 1e-8):
        m = foursphere_ortho(c, a).m
        assert m > previous
        previous = m
    assert previous > 18.0


def test_torus_seam_closed_form():
    # cosh(k/2) = 2, cosh b = 3.5 gives tanh^2(q/2) = 6/11
    from math import acosh

    k = 2.0 * acosh(2.0)
    b = acosh(3.5)
    ortho = torus_ortho(k, b)
    assert abs(tanh(0.5 * ortho.q) ** 2 - 6.0 / 11.0) <= 1e-14


def test_torus_guard_threshold():
    for k in (0.2, 1.0, 2.0, 4.0, 8.0):
        floor = guard_threshold(0.25 * k)
        for b in (0.05, 0.5, 1.0, 5.0, 20.0):
            assert torus_ortho(k, b).m > floor


def test_short_orthogeodesics_of_long_geodesics_keep_relative_accuracy():
    # q (torus) and p (four-holed sphere) shrink like e^{-b/2}; an acosh of
    # a ratio near 1 read 0 from b ~ 38 on and failed on a ratio rounded
    # below 1 in b ~ 37.9-39
    mpmath.mp.dps = 40
    for k in (1e-6, 0.5, 1.5, 4.0):
        for b in (20.0, 37.9, 38.5, 39.0, 45.0, 100.0, 300.0):
            ck, cb = mpmath.cosh(mpmath.mpf(k) / 2), mpmath.cosh(mpmath.mpf(b))
            exact = (ck + 1) / (ck + cb)  # tanh^2 of half the short length
            q = torus_ortho(k, b).q
            p = foursphere_ortho(0.5 * k, 2.0 * b).p
            for short in (q, p):
                assert short > 0.0
                assert abs(tanh(0.5 * short) ** 2 / exact - 1) <= 1e-14
    # p (torus) and q (four-holed sphere) shrink like e^{-k/4} and e^{-c/2};
    # against their cosh forms, evaluated where nothing cancels
    with mpmath.workdps(80):
        for k in (40.0, 80.0, 120.0):
            for b in (0.5, 2.0, 10.0, 30.0):
                ck = mpmath.cosh(mpmath.mpf(k) / 2)
                cosh_p2 = mpmath.sqrt((ck + 1) * (ck + mpmath.cosh(b))) / mpmath.sinh(k / 2)
                p = torus_ortho(k, b).p
                assert abs(p / (2 * mpmath.acosh(cosh_p2)) - 1) <= 1e-14
        for c in (20.0, 40.0, 60.0):
            for a in (0.5, 2.0, 10.0, 30.0):
                ch, sh = mpmath.cosh(mpmath.mpf(c) / 2), mpmath.sinh(mpmath.mpf(c) / 2)
                cosh_q = (mpmath.cosh(mpmath.mpf(a) / 2) + ch**2) / sh**2
                q = foursphere_ortho(c, a).q
                assert abs(q / mpmath.acosh(cosh_q) - 1) <= 1e-14


def test_torus_ortho_past_the_cosh_of_its_interior_length():
    # cosh(b) overflows at b = 710, but no formula of the cut pants needs it
    k, b = mpmath.mpf(0.5), mpmath.mpf(710.0)
    with mpmath.workdps(80):
        ck, sk = mpmath.cosh(k / 2), mpmath.sinh(k / 2)
        m = mpmath.acosh(mpmath.cosh(b / 2) * (1 + ck) / (sk * mpmath.sinh(b / 2)))
        p = 2 * mpmath.acosh(mpmath.sqrt((ck + 1) * (ck + mpmath.cosh(b))) / sk)
        q = 2 * mpmath.atanh(mpmath.sqrt((ck + 1) / (ck + mpmath.cosh(b))))
    for got, exact in zip(torus_ortho(0.5, 710.0), (m, p, q)):
        assert abs(got / exact - 1) <= 1e-14


def test_seam_ratio_rounded_below_one_is_a_positive_seam():
    # the acosh ratio of m rounded below 1 at these points, which raised a
    # bare ValueError (math domain error) and later read m = 0; the
    # positive-sum seam relation keeps m positive and accurate
    k, b = 112.67272807547687, 38.179942287276994
    assert _relative_error(torus_ortho(k, b).m, _pants_mp(k, b, b)[1]) <= 1e-15
    c, a = 43.41291930487799, 167.4608298209319
    assert _relative_error(foursphere_ortho(c, a).m, _pants_mp(c, c, a)[0]) <= 1e-15
    rng = random.Random(0)
    for _ in range(20_000):
        k, b = rng.uniform(40.0, 130.0), rng.uniform(20.0, 200.0)
        for ortho in (torus_ortho(k, b), foursphere_ortho(k, b)):
            assert ortho.m > 0.0 and ortho.p > 0.0 and ortho.q > 0.0


def test_covering_correspondence():
    # the four-holed sphere at (c, a) = (k/2, 2b) shares orthogeodesics
    # with the cut torus at (k, b), with the p and q roles swapped
    for k in (0.2, 1.0, 2.0, 4.0, 8.0):
        for b in (0.5, 1.0, 2.0, 5.0, 10.0):
            four = foursphere_ortho(0.5 * k, 2.0 * b)
            torus = torus_ortho(k, b)
            assert abs(four.m - torus.m) <= 1e-10
            assert abs(four.p - torus.q) <= 1e-10
            assert abs(four.q - torus.p) <= 1e-10


def test_closed_forms_on_grid():
    cs = [0.1 + 0.35 * i for i in range(15)]
    was = [0.1 + 0.7 * i for i in range(15)]
    for c in cs:
        for a in was:
            ortho = foursphere_ortho(c, a)
            assert abs(
                tanh(0.5 * ortho.p) ** 2 - (cosh(c) + 1.0) / (cosh(c) + cosh(0.5 * a))
            ) <= 1e-10
            assert exp(-c) < tanh(0.5 * ortho.m) ** 2
    for k in cs:
        for b in was:
            ortho = torus_ortho(k, b)
            assert abs(
                tanh(0.5 * ortho.q) ** 2 - (cosh(0.5 * k) + 1.0) / (cosh(0.5 * k) + cosh(b))
            ) <= 1e-10


def test_guard_threshold_fixed_point():
    t = asinh(1.0)
    assert abs(guard_threshold(t) - t) <= 1e-14


def test_guard_threshold_values_and_limit():
    assert abs(guard_threshold(1.0) - asinh(1.0 / sinh(1.0))) <= 1e-15
    assert abs(guard_threshold(1.0) - 0.7719368329053047) <= 1e-14
    assert guard_threshold(40.0) < 1e-15


def test_guard_threshold_past_the_overflow_of_sinh():
    # 1/sinh(h) = 2 e^{-h}/(1 - e^{-2h}): finite where sinh(h) overflows (h > ~710.5)
    with mpmath.workdps(30):
        want = float(mpmath.asinh(1 / mpmath.sinh(720)))
    assert abs(guard_threshold(720.0) - want) <= 1e-10 * want
    assert guard_threshold(800.0) == 0.0  # 2 e^{-800} is below the least subnormal


def test_guard_threshold_rejects_nonpositive():
    with pytest.raises(DomainError):
        guard_threshold(0.0)
    with pytest.raises(DomainError):
        guard_threshold(-1.0)


def test_ortho_rejects_nonpositive():
    with pytest.raises(DomainError):
        foursphere_ortho(0.0, 1.0)
    with pytest.raises(DomainError):
        torus_ortho(1.0, 0.0)


@pytest.mark.parametrize(
    "call, lengths",
    [
        (torus_ortho, (1e-6, 1400.0)),  # p: sinh(p/2) > cosh(700) / sinh(5e-7)
        (torus_ortho, (0.5, 1e10)),  # cosh itself overflows
        (foursphere_ortho, (0.5, 1e10)),
        (foursphere_ortho, (1400.0, 1e-6)),  # p, as for the torus
        (pants_geometry, (0.5, 0.5, 1e10)),
        (pants_geometry, (1e-6, 1400.0, 1400.0)),  # d1, as for the torus
    ],
)
def test_overflowing_trigonometry_is_refused(call, lengths):
    with pytest.raises(DomainError, match="overflow the float range"):
        call(*lengths)


def test_once_overflowing_orthogeodesics_against_mpmath():
    # refused while seams and self-perpendiculars were read from products of
    # cosh: m of (60, 1400) was inf / inf and d of (700, 700, 700) took a
    # product of three cosh(350).  The roots of the positive-sum relations
    # keep every product in range
    for got, exact in (
        (foursphere_ortho(60.0, 1400.0), _foursphere_mp(60.0, 1400.0)),
        (pants_geometry(700.0, 700.0, 700.0)[3:], _pants_mp(700.0, 700.0, 700.0)),
    ):
        for length, oracle in zip(got, exact):
            assert _relative_error(length, oracle) <= 2e-16
    for length, oracle in zip(torus_ortho(60.0, 1400.0), _torus_mp(60.0, 1400.0)):
        assert _relative_error(length, oracle) <= 2e-15
    # q ~ 4 e^{-700}: squared, it would underflow
    assert abs(torus_ortho(0.5, 1400.0).q / 3.974722246730929e-304 - 1) <= 1e-14


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_orthogeodesics_against_mpmath():
    # every length relative to its own size, however short: the acosh forms
    # were off by O(1) (m1 of (0.0676, 41.70, 39.55) by 2.05), and torus m
    # read 0 at large k
    rng = random.Random(19)
    for _ in range(600):
        lengths = tuple(_log_uniform(rng, 1e-6, 700.0) for _ in range(3))
        for got, exact in zip(pants_geometry(*lengths)[3:], _pants_mp(*lengths)):
            assert _relative_error(got, exact) <= 2e-15, lengths
    for _ in range(300):
        k, b = _log_uniform(rng, 1e-6, 130.0), _log_uniform(rng, 1e-3, 700.0)
        for got, exact in (
            (torus_ortho(k, b), _torus_mp(k, b)),
            (foursphere_ortho(k, b), _foursphere_mp(k, b)),
        ):
            for length, oracle in zip(got, exact):
                assert _relative_error(length, oracle) <= 2e-15, (k, b)
    # the acosh of a ratio rounded below 1 raised a bare ValueError here
    lengths = (43.926249774039505, 43.926249774039505, 2.985045741791351)
    for got, exact in zip(pants_geometry(*lengths)[3:], _pants_mp(*lengths)):
        assert _relative_error(got, exact) <= 2e-15
    assert math.isfinite(pants_sum_term(*lengths))


def test_geometric_seams_meet_the_bracket_guard():
    # sech^2(m/2) of a geometric seam stays within the guard's slack of
    # 1 - e^{-k/2}; a seam through cosh((a_j - a_k)/2), with its rounded
    # difference of two long lengths, overshot it at k ~ 1e-9, b ~ 600
    rng = random.Random(0)
    for _ in range(100_000):
        k, b = _log_uniform(rng, 1e-9, 30.0), _log_uniform(rng, 0.01, 700.0)
        torus = torus_ortho(k, b)
        four = foursphere_ortho(0.5 * k, 2.0 * b)
        term_ortho_torus(k, torus.m, torus.q)  # thm31's kernel
        term_ortho_torus(k, four.m, four.p)  # four's kernel


def test_isosceles_seams_are_equal_bit_for_bit():
    # m1 and m2 of (c, c, a) both join a length-c boundary to the length-a
    # one: the seam relation orders its two ends, so they agree exactly
    rng = random.Random(0)
    for _ in range(20_000):
        c, a = _log_uniform(rng, 1e-6, 700.0), _log_uniform(rng, 1e-6, 700.0)
        g = pants_geometry(c, c, a)
        assert g.m1 == g.m2 and g.d1 == g.d2, (c, a)
