import hashlib
import math
import random
from math import log, pi

import mpmath
import pytest

from hypident import DomainError, SingularInputError, dilog, lasso, li2, rogers
from helpers import li2_oracle, li2_series_oracle, rogers_mp, rogers_oracle

PI2_6 = pi * pi / 6.0

# direct series summation at z = 0.5, 40 digits
LI2_HALF = 0.5822405264650125


def test_li2_at_zero():
    assert li2(0.0) == 0.0


def test_li2_at_one():
    assert abs(li2(1.0) - PI2_6) <= 1e-13


def test_li2_at_half_matches_series_oracle():
    assert abs(li2(0.5) - LI2_HALF) <= 1e-15
    assert abs(li2(0.5) - li2_series_oracle(0.5)) <= 1e-15


def test_li2_normalization_at_half():
    # rogers(0.5) = li2(0.5) + (1/2) log(0.5) log(0.5)
    assert abs(rogers(0.5) - (li2(0.5) + 0.5 * log(0.5) ** 2)) <= 1e-15


def test_li2_accuracy_on_unit_interval():
    rng = random.Random(7)
    for _ in range(300):
        z = rng.uniform(-1.0, 1.0)
        assert abs(li2(z) - li2_oracle(z)) <= 1e-13
    for z in (-1.0, -0.999999, 0.999999, 1.0):
        assert abs(li2(z) - li2_oracle(z)) <= 1e-13
    # the direct series stays an independent check where it converges fast
    for z in (-0.6, -0.25, 0.1, 0.45, 0.6):
        assert abs(li2(z) - li2_series_oracle(z)) <= 1e-13


def test_li2_rejects_arguments_above_one():
    with pytest.raises(DomainError):
        li2(1.0000001)
    with pytest.raises(DomainError):
        li2(float("nan"))
    with pytest.raises(DomainError):
        li2(float("inf"))


def test_rogers_special_values():
    assert rogers(0.0) == 0.0
    assert abs(rogers(0.5) - pi * pi / 12.0) <= 1e-13
    assert abs(rogers(1.0) - PI2_6) <= 1e-13
    assert abs(rogers(-1.0) + pi * pi / 12.0) <= 1e-13


def test_rogers_accuracy_against_oracle():
    rng = random.Random(11)
    for _ in range(400):
        z = rng.uniform(-10.0, 1.0)
        assert abs(rogers(z) - rogers_oracle(z)) <= 1e-12, z
    # frozen spot values (40-digit evaluation)
    assert abs(rogers(-10.0) - (-1.4375989320048946)) <= 1e-13
    assert abs(rogers(-0.75) - (-0.7232569836649782)) <= 1e-13
    assert abs(rogers(0.3) - 0.5408429763188319) <= 1e-13


def test_rogers_rejects_bad_arguments():
    with pytest.raises(DomainError):
        rogers(1.5)
    with pytest.raises(DomainError):
        rogers(float("-inf"))


def test_euler_relation():
    rng = random.Random(0)
    for _ in range(1000):
        x = rng.random()
        assert abs(rogers(x) + rogers(1.0 - x) - PI2_6) <= 1e-12


def test_inversion_relation():
    rng = random.Random(1)
    for _ in range(1000):
        x = rng.uniform(1e-8, 100.0)
        assert abs(rogers(-x) + rogers(-1.0 / x) + PI2_6) <= 1e-12


def test_landen_relation():
    rng = random.Random(2)
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0 - 1e-8)
        assert abs(rogers(-x / (1.0 - x)) + rogers(x)) <= 1e-12


def test_pentagon_relation():
    rng = random.Random(3)
    for _ in range(1000):
        x, y = rng.random(), rng.random()
        lhs = (
            rogers(x)
            + rogers(y)
            + rogers((1.0 - x) / (1.0 - x * y))
            + rogers((1.0 - y) / (1.0 - x * y))
        )
        assert abs(lhs - rogers(x * y) - 2.0 * PI2_6) <= 1e-11


def test_rogers_monotone():
    rng = random.Random(4)
    for _ in range(500):
        a = rng.uniform(-50.0, 1.0)
        b = rng.uniform(a, 1.0)
        assert rogers(a) <= rogers(b) + 1e-15


def test_rogers_limit_at_minus_infinity():
    assert abs(rogers(-1e8) + PI2_6) <= 1e-6


def test_lasso_diagonal_collapses_to_rogers():
    for x in (0.1, 0.37, 0.5, 0.93):
        assert abs(lasso(x, x) - rogers(x)) <= 1e-14


def test_lasso_zero_and_one_edges():
    for y in (0.0, 0.2, 0.8, 1.0):
        assert abs(lasso(0.0, y)) <= 1e-13
    for x in (0.1, 0.5, 0.99):
        assert abs(lasso(x, 1.0)) <= 1e-13


def test_lasso_rejects_out_of_square():
    with pytest.raises(DomainError):
        lasso(-0.1, 0.5)
    with pytest.raises(DomainError):
        lasso(0.5, 1.1)
    with pytest.raises(DomainError, match=r"^lasso arguments must be finite, got \(nan, 0\.5\)$"):
        lasso(float("nan"), 0.5)


def test_lasso_singular_corner():
    with pytest.raises(SingularInputError):
        lasso(1.0, 1.0)


# Bits of rogers and li2, recorded before the Euler and Landen branches were
# inlined and the series loop reworked: those changes keep every value.
# Each digest is the sha256 of "<rogers hex> <li2 hex>\n" over 2,000 points
# drawn from the interval that routes through one `rogers` branch.
_PINNED_BRANCHES = {
    "series": (
        lambda rng: rng.uniform(-0.5, 0.5),
        "a2aa802f59315fd7abf47dba3147fae5a5b0576c339a4f7ef994f5df0a4b8ece",
    ),
    "euler": (
        lambda rng: rng.uniform(0.5, 1.0),
        "3d6fc147466bc43c0755eebca3b01a8180f1232fd433dc3d11969aebee0a9115",
    ),
    "landen": (
        lambda rng: rng.uniform(-1.0, -0.5),
        "0bd1160c538c641ebd9eac7952e512a05dcd7c4329f565a739a4ff40fc931f3c",
    ),
    "inversion": (
        lambda rng: -math.exp(rng.uniform(0.0, 20.0)),
        "6f797221d2af17d7c2c62ce85d58b800bc4230889c4dc9ab88eb72bfd8910a6f",
    ),
}

_PINNED_POINTS = {
    0.0: ("0x0.0p+0", "0x0.0p+0"),
    0.5: ("0x1.a51a6625307d2p-1", "0x1.2a1b6e272566fp-1"),
    -0.5: ("-0x1.2d893e2e34f1ap-1", "-0x1.cb2d180732029p-2"),
    1.0: ("0x1.a51a6625307d3p+0", "0x1.a51a6625307d3p+0"),
    -1.0: ("-0x1.a51a6625307d2p-1", "-0x1.a51a6625307d2p-1"),
}


@pytest.mark.parametrize("branch", sorted(_PINNED_BRANCHES))
def test_rogers_and_li2_bits_are_pinned(branch):
    draw, expected = _PINNED_BRANCHES[branch]
    rng = random.Random(f"pin-{branch}")
    digest = hashlib.sha256()
    for _ in range(2000):
        z = draw(rng)
        digest.update(f"{rogers(z).hex()} {li2(z).hex()}\n".encode())
    assert digest.hexdigest() == expected


def test_rogers_and_li2_bits_at_special_points():
    for z, expected in _PINNED_POINTS.items():
        assert (rogers(z).hex(), li2(z).hex()) == expected, z


def test_rogers_refusals_keep_their_messages():
    for z, message in (
        (float("nan"), "must be finite, got nan"),
        (float("inf"), "must be finite, got inf"),
        (float("-inf"), "must be finite, got -inf"),
        (1.5, "must be <= 1, got 1.5"),
    ):
        with pytest.raises(DomainError, match=message):
            rogers(z)


def _odd_difference_mp(s):
    """L((1+s)/2) - L((1-s)/2) in mpmath, at the working precision."""
    s = mpmath.mpf(s)
    return rogers_mp((1 + s) / 2) - rogers_mp((1 - s) / 2)


def _odd_coefficient(n):
    """a_n = (2 log 2 - sum_{k=1}^{n} 1/(k(2k-1))) / (2n+1), in mpmath."""
    partial = mpmath.fsum(mpmath.mpf(1) / (k * (2 * k - 1)) for k in range(1, n + 1))
    return (2 * mpmath.log(2) - partial) / (2 * n + 1)


def test_odd_series_coefficients_match_closed_form():
    coeffs = dilog._ODD_COEFFS[::-1]  # stored highest first, for Horner's rule
    assert len(coeffs) == dilog._ODD_TERMS
    for n, a in enumerate(coeffs):
        assert abs(a - _odd_coefficient(n)) <= 2.5e-16, n
    # the closed form is the Taylor expansion of the difference: odd, with a_n
    with mpmath.workdps(40):
        taylor = mpmath.taylor(_odd_difference_mp, 0, 9)
        for n in range(5):
            assert abs(taylor[2 * n]) <= 1e-25
            assert abs(taylor[2 * n + 1] - _odd_coefficient(n)) <= 1e-25


def test_odd_series_matches_mpmath_relative_to_its_size():
    rng = random.Random(13)
    drawn = [math.exp(rng.uniform(-690.0, -1.0)) for _ in range(80)]
    points = [dilog.ODD_SERIES_MAX, 1e-300, *drawn]
    for s in points:
        # the mpmath difference cancels down to s: carry log10(1/s) more digits
        with mpmath.workdps(40 + int(-math.log10(s))):
            exact = _odd_difference_mp(s)
            assert abs(dilog.rogers_odd_series(s) - exact) <= 4e-16 * exact, s
    assert dilog.rogers_odd_series(0.0) == 0.0


def test_odd_series_refuses_arguments_outside_its_range():
    for s in (-1e-300, math.nextafter(dilog.ODD_SERIES_MAX, 1.0), 0.5, float("nan")):
        with pytest.raises(DomainError, match="odd series argument"):
            dilog.rogers_odd_series(s)
