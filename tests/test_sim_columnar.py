"""The columnar mega-fleet engine: bitwise equivalence and eligibility."""

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import DistanceBasedReporting, TimeBasedReporting
from repro.service.channel import MessageChannel
from repro.service.server import LocationServer
from repro.sim.columnar import (
    LINEAR,
    STATIC,
    ColumnarFleetEngine,
    ColumnarStore,
    estimate_traces,
)
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.workload import QueryWorkload
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace

from reference.tick_loop import TickLoopFleet


# --------------------------------------------------------------------------- #
# batched estimator
# --------------------------------------------------------------------------- #
def _random_lanes(n_lanes, n_samples, seed=0, jitter=True):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 2.0, size=n_samples)) if jitter else (
        np.arange(n_samples, dtype=float)
    )
    positions = np.cumsum(rng.normal(0.0, 5.0, size=(n_lanes, n_samples, 2)), axis=1)
    return times, positions


class TestEstimateTraces:
    @pytest.mark.parametrize("window", [2, 3, 4, 6])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 5, 9, 40])
    def test_bitwise_equal_to_per_lane_estimator(self, window, n_samples):
        times, positions = _random_lanes(7, n_samples, seed=window * 100 + n_samples)
        velocities, speeds = estimate_traces(times, positions, window)
        for k in range(positions.shape[0]):
            v_ref, s_ref = estimate_trace(times, positions[k], window=window)
            assert np.array_equal(velocities[k], v_ref), f"lane {k} velocities"
            assert np.array_equal(speeds[k], s_ref), f"lane {k} speeds"

    def test_chunked_lanes_equal_unchunked(self, monkeypatch):
        import repro.sim.columnar as columnar

        times, positions = _random_lanes(9, 30, seed=5)
        full = estimate_traces(times, positions, 4)
        monkeypatch.setattr(columnar, "_ESTIMATE_CHUNK", 2)
        chunked = estimate_traces(times, positions, 4)
        assert np.array_equal(full[0], chunked[0])
        assert np.array_equal(full[1], chunked[1])

    def test_window_below_two_rejected(self):
        times, positions = _random_lanes(1, 5)
        with pytest.raises(ValueError):
            estimate_traces(times, positions, 1)


# --------------------------------------------------------------------------- #
# engine vs the scalar fleet loop
# --------------------------------------------------------------------------- #
def _scenario_lanes(scenario, mode, accuracies=(50.0, 100.0, 200.0), up=0.0):
    protocol_cls = DistanceBasedReporting if mode == STATIC else LinearPredictionProtocol
    return [
        FleetLane(
            object_id=f"{mode}/{int(accuracy)}/{k}",
            protocol=protocol_cls(accuracy, sensor_uncertainty=up),
            sensor_trace=scenario.sensor_trace,
            truth_trace=scenario.true_trace,
        )
        for k, accuracy in enumerate(accuracies)
    ]


def _assert_fleet_results_identical(a, b):
    rows_a = {oid: r.as_dict() for oid, r in a.results.items()}
    rows_b = {oid: r.as_dict() for oid, r in b.results.items()}
    assert list(rows_a) == list(rows_b)
    assert rows_a == rows_b
    for oid in rows_a:
        assert np.array_equal(
            a.results[oid].metrics.errors, b.results[oid].metrics.errors
        ), f"error samples diverged for {oid}"


_SCENARIO_FIXTURES = [
    "tiny_freeway_scenario",
    "tiny_city_scenario",
    "tiny_interurban_scenario",
    "tiny_walking_scenario",
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("fixture", _SCENARIO_FIXTURES)
    @pytest.mark.parametrize("mode", [STATIC, LINEAR])
    @pytest.mark.parametrize("kernel", ["tick", "event"])
    def test_bitwise_identical_to_fleet(self, request, fixture, mode, kernel):
        scenario = request.getfixturevalue(fixture)
        fleet_cls = TickLoopFleet if kernel == "tick" else FleetSimulation
        scalar = fleet_cls(_scenario_lanes(scenario, mode)).run()
        columnar = ColumnarFleetEngine.from_lanes(_scenario_lanes(scenario, mode)).run()
        _assert_fleet_results_identical(scalar, columnar)

    def test_sensor_uncertainty_column(self, tiny_city_scenario):
        lanes = _scenario_lanes(tiny_city_scenario, LINEAR, up=15.0)
        scalar = FleetSimulation(lanes).run()
        columnar = ColumnarFleetEngine.from_lanes(
            _scenario_lanes(tiny_city_scenario, LINEAR, up=15.0)
        ).run()
        _assert_fleet_results_identical(scalar, columnar)

    @pytest.mark.parametrize("count_initial", [True, False])
    def test_count_initial_update(self, tiny_freeway_scenario, count_initial):
        scalar = FleetSimulation(
            _scenario_lanes(tiny_freeway_scenario, STATIC),
            count_initial_update=count_initial,
        ).run()
        columnar = ColumnarFleetEngine.from_lanes(
            _scenario_lanes(tiny_freeway_scenario, STATIC),
            count_initial_update=count_initial,
        ).run()
        _assert_fleet_results_identical(scalar, columnar)

    def test_channel_stats_match_shared_channel(self, tiny_city_scenario):
        fleet = FleetSimulation(_scenario_lanes(tiny_city_scenario, LINEAR))
        fleet.run()
        engine = ColumnarFleetEngine.from_lanes(
            _scenario_lanes(tiny_city_scenario, LINEAR)
        )
        engine.run()
        assert engine.channel_stats() == fleet.shared_channel.stats

    def test_raw_array_constructor_equals_lane_path(self):
        times, positions = _random_lanes(5, 60, seed=9, jitter=False)
        ids = [f"obj/{k}" for k in range(5)]
        lanes = [
            FleetLane(ids[k], LinearPredictionProtocol(50.0), Trace(times, positions[k]))
            for k in range(5)
        ]
        via_lanes = ColumnarFleetEngine.from_lanes(lanes).run()
        via_arrays = ColumnarFleetEngine(
            times, positions, mode=LINEAR, accuracy=50.0, object_ids=ids
        ).run()
        _assert_fleet_results_identical(via_lanes, via_arrays)


# --------------------------------------------------------------------------- #
# eligibility
# --------------------------------------------------------------------------- #
class TestEligibility:
    def _lanes(self, scenario):
        return _scenario_lanes(scenario, LINEAR)

    def test_eligible_fleet_returns_none(self, tiny_city_scenario):
        assert ColumnarFleetEngine.ineligibility(self._lanes(tiny_city_scenario)) is None

    def test_empty_fleet(self):
        assert "at least one lane" in ColumnarFleetEngine.ineligibility([])

    def test_server_rejected(self, tiny_city_scenario):
        reason = ColumnarFleetEngine.ineligibility(
            self._lanes(tiny_city_scenario), server=LocationServer()
        )
        assert "server" in reason

    def test_workload_rejected(self, tiny_city_scenario):
        reason = ColumnarFleetEngine.ineligibility(
            self._lanes(tiny_city_scenario),
            query_workload=QueryWorkload(seed=1),
        )
        assert "workload" in reason

    def test_unsupported_protocol(self, tiny_city_scenario):
        lanes = self._lanes(tiny_city_scenario)
        lanes[0] = FleetLane(
            "timer", TimeBasedReporting(50.0, interval=10.0), lanes[0].sensor_trace
        )
        assert "TimeBasedReporting" in ColumnarFleetEngine.ineligibility(lanes)

    def test_mixed_protocol_classes(self, tiny_city_scenario):
        lanes = self._lanes(tiny_city_scenario)
        lanes[-1] = FleetLane(
            "mixed", DistanceBasedReporting(50.0), lanes[-1].sensor_trace
        )
        assert "one protocol class" in ColumnarFleetEngine.ineligibility(lanes)

    def test_mixed_estimation_windows(self, tiny_city_scenario):
        lanes = self._lanes(tiny_city_scenario)
        lanes[-1] = FleetLane(
            "window",
            LinearPredictionProtocol(50.0, estimation_window=6),
            lanes[-1].sensor_trace,
        )
        assert "estimation window" in ColumnarFleetEngine.ineligibility(lanes)

    def test_lossy_or_latent_channels_rejected(self, tiny_city_scenario):
        lanes = self._lanes(tiny_city_scenario)
        lanes[0] = FleetLane(
            "lossy",
            LinearPredictionProtocol(50.0),
            lanes[0].sensor_trace,
            channel=MessageChannel(latency=5.0),
        )
        assert "zero-latency" in ColumnarFleetEngine.ineligibility(lanes)
        assert "zero-latency" in ColumnarFleetEngine.ineligibility(
            self._lanes(tiny_city_scenario),
            channel=MessageChannel(loss_probability=0.2, seed=1),
        )

    def test_mixed_sampling_grids(self, tiny_city_scenario):
        lanes = self._lanes(tiny_city_scenario)
        trace = lanes[0].sensor_trace
        shifted = Trace(trace.times + 0.5, trace.positions)
        lanes[0] = FleetLane("shifted", LinearPredictionProtocol(50.0), shifted)
        assert "one sampling grid" in ColumnarFleetEngine.ineligibility(lanes)

    def test_from_lanes_raises_with_reason(self, tiny_city_scenario):
        with pytest.raises(ValueError, match="not columnar-eligible"):
            ColumnarFleetEngine.from_lanes([])


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #
class TestColumnarStore:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ColumnarStore(["a", "a"], accuracy=50.0, sensor_uncertainty=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ColumnarStore([], accuracy=50.0, sensor_uncertainty=0.0)

    def test_nonpositive_accuracy_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            ColumnarStore(["a", "b"], accuracy=[50.0, 0.0], sensor_uncertainty=0.0)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError, match="sensor_uncertainty"):
            ColumnarStore(["a"], accuracy=50.0, sensor_uncertainty=-1.0)

    def test_scalar_broadcast(self):
        store = ColumnarStore(["a", "b", "c"], accuracy=75.0, sensor_uncertainty=2.0)
        assert np.array_equal(store.accuracy, [75.0, 75.0, 75.0])
        assert np.array_equal(store.sensor_uncertainty, [2.0, 2.0, 2.0])

    def test_engine_validates_shapes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ColumnarFleetEngine(np.array([0.0, 0.0]), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            ColumnarFleetEngine(np.array([0.0, 1.0]), np.zeros((1, 3, 2)))
        with pytest.raises(ValueError, match="mode"):
            ColumnarFleetEngine(
                np.array([0.0, 1.0]), np.zeros((1, 2, 2)), mode="warp"
            )
        with pytest.raises(ValueError, match="object_ids"):
            ColumnarFleetEngine(
                np.array([0.0, 1.0]), np.zeros((2, 2, 2)), object_ids=["just-one"]
            )
