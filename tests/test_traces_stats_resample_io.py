"""Unit tests for repro.traces.stats, repro.traces.resample and repro.traces.io."""

import numpy as np
import pytest

from repro.traces.io import save_trace_csv
from repro.traces.resample import decimate
from repro.traces.stats import compute_statistics
from repro.traces.trace import Trace


class TestStatistics:
    def test_straight_trace_statistics(self, straight_trace):
        stats = compute_statistics(straight_trace)
        assert stats.length_km == pytest.approx(1.2)
        assert stats.duration_h == pytest.approx(60.0 / 3600.0)
        assert stats.average_speed_kmh == pytest.approx(72.0)
        assert stats.max_speed_kmh == pytest.approx(72.0)
        assert stats.n_samples == 61

    def test_smoothed_max_below_raw_max_for_noisy_trace(self):
        rng = np.random.default_rng(0)
        times = np.arange(0.0, 600.0)
        truth = np.column_stack((times * 10.0, np.zeros_like(times)))
        noisy = truth + rng.normal(0.0, 5.0, truth.shape)
        stats = compute_statistics(Trace(times, noisy))
        assert stats.smoothed_max_speed_kmh < stats.max_speed_kmh

    def test_single_sample_trace(self):
        stats = compute_statistics(Trace([0.0], np.array([[0.0, 0.0]])))
        assert stats.length_km == 0.0
        assert stats.average_speed_kmh == 0.0


class TestResample:

    def test_decimate(self, straight_trace):
        decimated = decimate(straight_trace, 10)
        assert len(decimated) == 7
        assert decimated.times[1] == 10.0

    def test_decimate_invalid(self, straight_trace):
        with pytest.raises(ValueError):
            decimate(straight_trace, 0)


class TestCsvIo:
    def test_roundtrip(self, tmp_path, l_shaped_trace):
        path = tmp_path / "trace.csv"
        save_trace_csv(l_shaped_trace, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "time,x,y"
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert len(loaded) == len(l_shaped_trace)
        np.testing.assert_allclose(loaded[:, 0], l_shaped_trace.times, atol=1e-3)
        np.testing.assert_allclose(loaded[:, 1:], l_shaped_trace.positions, atol=1e-3)
