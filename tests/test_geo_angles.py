"""Unit tests for repro.geo.angles."""

import math

import pytest

from repro.geo.angles import (
    angle_between,
    angle_difference,
    bearing,
    normalize_angle,
    normalize_bearing,
)


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(0.5) == pytest.approx(0.5)

    def test_wraps_positive(self):
        assert normalize_angle(2 * math.pi + 0.3) == pytest.approx(0.3)

    def test_wraps_negative(self):
        assert normalize_angle(-2 * math.pi - 0.3) == pytest.approx(-0.3)

    def test_pi_maps_to_pi(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)


class TestNormalizeBearing:
    def test_in_range_unchanged(self):
        assert normalize_bearing(1.0) == pytest.approx(1.0)

    def test_negative_wraps(self):
        assert normalize_bearing(-0.5) == pytest.approx(2 * math.pi - 0.5)

    def test_full_turn_wraps_to_zero(self):
        assert normalize_bearing(2 * math.pi) == pytest.approx(0.0)


class TestAngleDifference:
    def test_zero_for_equal_angles(self):
        assert angle_difference(1.2, 1.2) == 0.0

    def test_symmetric(self):
        assert angle_difference(0.3, 2.1) == pytest.approx(angle_difference(2.1, 0.3))

    def test_wraps_around(self):
        assert angle_difference(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)

    def test_max_is_pi(self):
        assert angle_difference(0.0, math.pi) == pytest.approx(math.pi)


class TestBearing:
    def test_north(self):
        assert bearing((0, 0), (0, 10)) == pytest.approx(0.0)

    def test_east(self):
        assert bearing((0, 0), (10, 0)) == pytest.approx(math.pi / 2)

    def test_south(self):
        assert bearing((0, 0), (0, -10)) == pytest.approx(math.pi)

    def test_west(self):
        assert bearing((0, 0), (-10, 0)) == pytest.approx(3 * math.pi / 2)


class TestAngleBetween:
    def test_parallel(self):
        assert angle_between((1, 0), (2, 0)) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert angle_between((1, 0), (0, 3)) == pytest.approx(math.pi / 2)

    def test_opposite(self):
        assert angle_between((1, 0), (-1, 0)) == pytest.approx(math.pi)

    def test_zero_vector_returns_zero(self):
        assert angle_between((0, 0), (1, 0)) == 0.0
        assert angle_between((1, 0), (0, 0)) == 0.0
