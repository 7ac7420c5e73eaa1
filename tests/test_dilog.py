import random
from math import log, pi

import pytest

from hypident import DomainError, SingularInputError, lasso, li2, rogers
from helpers import li2_oracle, li2_series_oracle, rogers_oracle

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


def test_lasso_singular_corner():
    with pytest.raises(SingularInputError):
        lasso(1.0, 1.0)
