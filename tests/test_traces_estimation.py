"""Unit tests for repro.traces.estimation."""

import numpy as np
import pytest

from repro.traces.estimation import estimate_trace

from reference.streaming import StateEstimator, estimate_velocity


class TestEstimateTrace:
    """The batched estimator must be bitwise identical to the streaming one."""

    @staticmethod
    def _streaming(times, positions, window):
        estimator = StateEstimator(window=window)
        velocities = np.zeros((len(times), 2))
        speeds = np.zeros(len(times))
        for i in range(len(times)):
            velocities[i], speeds[i] = estimator.update(float(times[i]), positions[i])
        return velocities, speeds

    @pytest.mark.parametrize("window", [2, 3, 4, 8])
    def test_matches_streaming_estimator_bitwise(self, window):
        rng = np.random.default_rng(7)
        n = 200
        times = np.cumsum(rng.uniform(0.5, 2.0, size=n))  # irregular sampling
        positions = np.cumsum(rng.normal(0.0, 5.0, size=(n, 2)), axis=0)
        expected_v, expected_s = self._streaming(times, positions, window)
        got_v, got_s = estimate_trace(times, positions, window)
        assert np.array_equal(expected_v, got_v)
        assert np.array_equal(expected_s, got_s)

    def test_short_traces(self):
        velocities, speeds = estimate_trace(np.array([0.0]), np.zeros((1, 2)), 4)
        assert velocities.tolist() == [[0.0, 0.0]]
        assert speeds.tolist() == [0.0]

    def test_duplicate_timestamps_degenerate_to_zero(self):
        times = np.array([1.0, 1.0, 1.0])
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
        _, speeds = estimate_trace(times, positions, 3)
        expected_v, expected_s = self._streaming(times, positions, 3)
        assert np.array_equal(speeds, expected_s)

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError):
            estimate_trace(np.arange(3.0), np.zeros((3, 2)), 1)


class TestEstimateVelocity:
    def test_constant_velocity_exact(self):
        times = np.arange(5.0)
        positions = np.column_stack((times * 10.0, times * -5.0))
        velocity, speed = estimate_velocity(times, positions)
        np.testing.assert_allclose(velocity, [10.0, -5.0], atol=1e-9)
        assert speed == pytest.approx(np.hypot(10.0, 5.0))

    def test_single_sample_is_zero(self):
        velocity, speed = estimate_velocity(np.array([0.0]), np.array([[1.0, 2.0]]))
        assert speed == 0.0
        assert velocity.tolist() == [0.0, 0.0]

    def test_two_samples_finite_difference(self):
        velocity, speed = estimate_velocity(
            np.array([0.0, 2.0]), np.array([[0.0, 0.0], [10.0, 0.0]])
        )
        np.testing.assert_allclose(velocity, [5.0, 0.0])
        assert speed == pytest.approx(5.0)

    def test_identical_times_return_zero(self):
        velocity, speed = estimate_velocity(
            np.array([1.0, 1.0]), np.array([[0.0, 0.0], [10.0, 0.0]])
        )
        assert speed == 0.0

    def test_noise_averaging(self):
        rng = np.random.default_rng(0)
        times = np.arange(20.0)
        truth = np.column_stack((times * 20.0, np.zeros_like(times)))
        noisy = truth + rng.normal(0.0, 2.0, size=truth.shape)
        _, speed_small = estimate_velocity(times[-2:], noisy[-2:])
        _, speed_large = estimate_velocity(times, noisy)
        assert abs(speed_large - 20.0) < abs(speed_small - 20.0) + 2.0


class TestStateEstimator:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StateEstimator(window=1)

    def test_first_update_zero(self):
        estimator = StateEstimator(window=4)
        velocity, speed = estimator.update(0.0, (0.0, 0.0))
        assert speed == 0.0

    def test_converges_to_constant_velocity(self):
        estimator = StateEstimator(window=4)
        for t in range(10):
            velocity, speed = estimator.update(float(t), (t * 15.0, 0.0))
        np.testing.assert_allclose(velocity, [15.0, 0.0], atol=1e-9)
        assert speed == pytest.approx(15.0)

    def test_window_limits_memory(self):
        estimator = StateEstimator(window=2)
        estimator.update(0.0, (0.0, 0.0))
        estimator.update(1.0, (100.0, 0.0))
        velocity, speed = estimator.update(2.0, (100.0, 0.0))
        # With a window of 2, the old fast movement is forgotten: speed is 0.
        assert speed == pytest.approx(0.0, abs=1e-9)

    def test_n_samples_and_reset(self):
        estimator = StateEstimator(window=4)
        estimator.update(0.0, (0.0, 0.0))
        estimator.update(1.0, (1.0, 0.0))
        assert estimator.n_samples == 2
        estimator.reset()
        assert estimator.n_samples == 0
        _, speed = estimator.update(5.0, (0.0, 0.0))
        assert speed == 0.0

    def test_current_direction(self):
        estimator = StateEstimator(window=3)
        estimator.update(0.0, (0.0, 0.0))
        estimator.update(1.0, (0.0, 10.0))
        direction = estimator.current_direction()
        np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-9)

    def test_current_direction_unknown(self):
        estimator = StateEstimator(window=3)
        assert estimator.current_direction().tolist() == [0.0, 0.0]
