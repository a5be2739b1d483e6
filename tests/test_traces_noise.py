"""Unit tests for repro.traces.noise."""

import numpy as np
import pytest

from repro.traces.noise import GaussMarkovNoise
from repro.traces.trace import Trace


@pytest.fixture()
def long_trace():
    times = np.arange(0.0, 2000.0)
    positions = np.column_stack((times * 10.0, np.zeros_like(times)))
    return Trace(times, positions)


class TestGaussMarkovNoise:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussMarkovNoise(sigma=-1.0)
        with pytest.raises(ValueError):
            GaussMarkovNoise(correlation_time=0.0)

    def test_stationary_sigma(self, long_trace):
        sigma = 2.5
        noisy = GaussMarkovNoise(sigma=sigma, correlation_time=30.0, seed=3).apply(long_trace)
        errors = noisy.positions - long_trace.positions
        assert errors.std() == pytest.approx(sigma, rel=0.25)

    def test_errors_are_correlated_in_time(self, long_trace):
        noisy = GaussMarkovNoise(sigma=3.0, correlation_time=120.0, seed=4).apply(long_trace)
        errors = (noisy.positions - long_trace.positions)[:, 0]
        # Lag-1 autocorrelation must be clearly positive (white noise would be ~0).
        e = errors - errors.mean()
        autocorr = float(np.dot(e[:-1], e[1:]) / np.dot(e, e))
        assert autocorr > 0.8

    def test_zero_sigma_identity(self, long_trace):
        noisy = GaussMarkovNoise(sigma=0.0, seed=5).apply(long_trace)
        np.testing.assert_allclose(noisy.positions, long_trace.positions)

    def test_preserves_times_and_length(self, long_trace):
        noisy = GaussMarkovNoise(sigma=2.0, seed=2).apply(long_trace)
        assert len(noisy) == len(long_trace)
        np.testing.assert_array_equal(noisy.times, long_trace.times)

    def test_error_mean_is_near_zero(self, long_trace):
        noisy = GaussMarkovNoise(sigma=3.0, correlation_time=5.0, seed=1).apply(long_trace)
        errors = noisy.positions - long_trace.positions
        assert abs(errors.mean()) < 0.5

    def test_typical_error_is_sigma(self):
        assert GaussMarkovNoise(sigma=4.2).typical_error == 4.2

    def test_deterministic_with_seed(self, long_trace):
        a = GaussMarkovNoise(sigma=2.0, seed=6).apply(long_trace)
        b = GaussMarkovNoise(sigma=2.0, seed=6).apply(long_trace)
        np.testing.assert_allclose(a.positions, b.positions)
