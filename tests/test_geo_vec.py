"""Unit tests for repro.geo.vec."""

import numpy as np
import pytest

from repro.geo.vec import (
    as_vec,
    distance,
    distance_sq,
)


class TestAsVec:
    def test_accepts_tuple(self):
        v = as_vec((1.0, 2.0))
        assert isinstance(v, np.ndarray)
        assert v.dtype == float
        assert v.tolist() == [1.0, 2.0]

    def test_accepts_list_and_array(self):
        assert as_vec([3, 4]).tolist() == [3.0, 4.0]
        assert as_vec(np.array([3.0, 4.0])).tolist() == [3.0, 4.0]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_vec((1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            as_vec([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vec((float("nan"), 0.0))
        with pytest.raises(ValueError):
            as_vec((float("inf"), 0.0))


class TestDistance:
    def test_pythagorean(self):
        assert distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_squared_matches_distance(self):
        assert distance_sq((1, 1), (4, 5)) == pytest.approx(distance((1, 1), (4, 5)) ** 2)

    def test_zero_distance(self):
        assert distance((2, 3), (2, 3)) == 0.0

    def test_symmetry(self):
        assert distance((1, 2), (5, -3)) == pytest.approx(distance((5, -3), (1, 2)))
