"""Unit tests for repro.traces.trace."""

import numpy as np
import pytest

from repro.traces.trace import Trace, TraceSample


class TestTraceSample:
    def test_coercion(self):
        s = TraceSample(time=3, position=(1.0, 2.0))
        assert s.time == 3.0
        assert isinstance(s.position, np.ndarray)


class TestConstruction:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Trace([], np.zeros((0, 2)))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], np.zeros((3, 2)))

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trace([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Trace([1.0, 0.5], np.zeros((2, 2)))

    def test_requires_one_dimensional_times(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Trace(np.zeros((2, 1)), np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_views_read_only(self, straight_trace):
        with pytest.raises(ValueError):
            straight_trace.times[0] = 5.0
        with pytest.raises(ValueError):
            straight_trace.positions[0, 0] = 5.0


class TestAccessors:
    def test_len_and_getitem(self, straight_trace):
        assert len(straight_trace) == 61
        sample = straight_trace[3]
        assert sample.time == 3.0
        assert sample.position.tolist() == [60.0, 0.0]

    def test_slice_returns_trace(self, straight_trace):
        sub = straight_trace[10:20]
        assert isinstance(sub, Trace)
        assert len(sub) == 10
        assert sub.times[0] == 10.0

    def test_iteration(self, straight_trace):
        samples = list(straight_trace)
        assert len(samples) == len(straight_trace)
        assert samples[0].time == 0.0

    def test_duration(self, straight_trace):
        assert straight_trace.duration == pytest.approx(60.0)

    def test_sampling_interval(self, straight_trace):
        assert straight_trace.sampling_interval == pytest.approx(1.0)

    def test_single_sample_interval(self):
        trace = Trace([0.0], np.array([[0.0, 0.0]]))
        assert trace.sampling_interval == 0.0
        assert trace.path_length() == 0.0
        assert trace.speeds().size == 0


class TestDerived:
    def test_path_length(self, straight_trace):
        assert straight_trace.path_length() == pytest.approx(1200.0)

    def test_speeds_constant(self, straight_trace):
        speeds = straight_trace.speeds()
        assert speeds.shape == (60,)
        np.testing.assert_allclose(speeds, 20.0)

    def test_bounds(self, l_shaped_trace):
        assert l_shaped_trace.bounds() == (0.0, 0.0, 1000.0, 1000.0)


class TestTransformations:
    def test_with_positions(self, straight_trace):
        new_positions = straight_trace.positions + 1.0
        replaced = straight_trace.with_positions(new_positions)
        assert replaced.positions[0].tolist() == [1.0, 1.0]
        assert replaced.times[0] == straight_trace.times[0]
