import itertools
from math import asinh, cosh, exp, sinh, tanh

import mpmath
import pytest

from hypident import (
    DomainError,
    foursphere_ortho,
    guard_threshold,
    pants_geometry,
    torus_ortho,
)
from helpers import seam_oracle

# seam of the (2,2,2) pants: acosh((cosh 1 + cosh^2 1)/sinh^2 1), 40 digits
SEAM_222 = 1.7049128323580137


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
