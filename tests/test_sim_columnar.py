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
from repro.traces.estimation import estimate_at
from repro.traces.trace import Trace

from reference.streaming import StateEstimator
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
        """Every row equals its lane fed one sighting at a time."""
        times, positions = _random_lanes(7, n_samples, seed=window * 100 + n_samples)
        velocities, speeds = estimate_traces(times, positions, window)
        for k in range(positions.shape[0]):
            estimator = StateEstimator(window=window)
            for i in range(n_samples):
                v_ref, s_ref = estimator.update(float(times[i]), positions[k, i])
                assert np.array_equal(velocities[k, i], v_ref), f"lane {k} velocity {i}"
                assert speeds[k, i] == s_ref, f"lane {k} speed {i}"

    def test_window_below_two_rejected(self):
        times, positions = _random_lanes(1, 5)
        with pytest.raises(ValueError):
            estimate_traces(times, positions, 1)


def _lanes_with_signed_zeros(n_samples, seed, jitter):
    """Random walks plus still and subnormal-step lanes.

    Products of centred times with subnormal deviations round to zeros of
    either sign, so the estimates hold ``-0.0`` as well as ``+0.0``.
    """
    times, walks = _random_lanes(4, n_samples, seed=seed, jitter=jitter)
    tiny = np.nextafter(0.0, 1.0)
    k = np.arange(n_samples, dtype=float)
    creeping = [
        np.stack([-k * tiny, k * tiny], axis=-1),
        np.stack([-(k % 2) * tiny, (k % 3) * tiny], axis=-1),
        np.stack([-k * 1e-320, np.full(n_samples, 12.5)], axis=-1),
    ]
    return times, np.concatenate([walks, np.stack(creeping)])


class TestEstimateAt:
    @pytest.mark.parametrize("jitter", [False, True], ids=["uniform", "jittered"])
    @pytest.mark.parametrize("window", [2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_every_row_bitwise_equal_to_estimate_traces(self, window, jitter):
        """Row i of the sliding estimate, ramp-up rows and signed zeros included."""
        n_samples = 3 * window + 5
        times, positions = _lanes_with_signed_zeros(n_samples, window, jitter)
        velocities, _speeds = estimate_traces(times, positions, window)
        if window > 2:  # a two-sample window rounds these lanes to +0.0 only
            assert np.any((velocities == 0.0) & np.signbit(velocities))
        for i in range(n_samples):
            lo = max(0, i + 1 - window)
            for t, p in (
                (times[lo : i + 1], positions[:, lo : i + 1]),
                (times[: i + 1], positions[:, : i + 1]),
            ):
                row = estimate_at(t, p, window)
                expected = velocities[:, i]
                assert np.array_equal(row, expected), f"row {i}"
                assert np.array_equal(np.signbit(row), np.signbit(expected)), (
                    f"sign of zero in row {i}"
                )

    def test_lane_subset_equals_its_rows(self):
        times, positions = _random_lanes(9, 20, seed=3)
        full = estimate_at(times, positions, 4)
        sent = np.array([1, 4, 8])
        assert np.array_equal(estimate_at(times, positions[sent], 4), full[sent])

    def test_degenerate_inputs_give_zeros(self):
        times, positions = _random_lanes(3, 5, seed=1)
        assert np.array_equal(estimate_at(times[:1], positions[:, :1], 4), np.zeros((3, 2)))
        assert np.array_equal(estimate_at(times[:0], positions[:, :0], 4), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            estimate_at(times, positions, 1)


# --------------------------------------------------------------------------- #
# engine vs the scalar fleet loop
# --------------------------------------------------------------------------- #
def _scenario_lanes(
    scenario, mode, accuracies=(50.0, 100.0, 200.0), up=0.0, window=4
):
    def make(accuracy):
        if mode == STATIC:
            return DistanceBasedReporting(accuracy, sensor_uncertainty=up)
        return LinearPredictionProtocol(
            accuracy, sensor_uncertainty=up, estimation_window=window
        )

    return [
        FleetLane(
            object_id=f"{mode}/{int(accuracy)}/{k}",
            protocol=make(accuracy),
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

    @pytest.mark.parametrize("fixture", _SCENARIO_FIXTURES)
    @pytest.mark.parametrize("window", [2, 3, 8, 9])
    def test_estimation_windows_identical_to_fleet(self, request, fixture, window):
        scenario = request.getfixturevalue(fixture)
        scalar = FleetSimulation(_scenario_lanes(scenario, LINEAR, window=window)).run()
        columnar = ColumnarFleetEngine.from_lanes(
            _scenario_lanes(scenario, LINEAR, window=window)
        ).run()
        _assert_fleet_results_identical(scalar, columnar)

    @pytest.mark.parametrize("fixture", _SCENARIO_FIXTURES)
    @pytest.mark.parametrize("window", [2, 4, 9])
    def test_dense_sends_identical_to_fleet(self, request, fixture, window):
        """up >= us: the up > us lane sends at every sample, the others often."""
        scenario = request.getfixturevalue(fixture)

        def lanes():
            return _scenario_lanes(
                scenario, LINEAR, accuracies=(1.0, 4.0, 5.0), up=4.0, window=window
            )

        scalar = FleetSimulation(lanes()).run()
        columnar = ColumnarFleetEngine.from_lanes(lanes()).run()
        _assert_fleet_results_identical(scalar, columnar)
        every_sample = next(iter(columnar.results.values()))
        assert every_sample.updates == len(scenario.sensor_trace.times)

    def test_sensor_uncertainty_column(self, tiny_city_scenario):
        lanes = _scenario_lanes(tiny_city_scenario, LINEAR, up=15.0)
        scalar = FleetSimulation(lanes).run()
        columnar = ColumnarFleetEngine.from_lanes(
            _scenario_lanes(tiny_city_scenario, LINEAR, up=15.0)
        ).run()
        _assert_fleet_results_identical(scalar, columnar)

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
        with pytest.raises(ValueError, match="non-empty"):
            ColumnarFleetEngine(np.array([]), np.zeros((1, 0, 2)))
        with pytest.raises(ValueError, match="truth"):
            ColumnarFleetEngine(
                np.array([0.0, 1.0]), np.zeros((1, 2, 2)), truth=np.zeros((2, 2, 2))
            )
        with pytest.raises(ValueError, match="estimation_window"):
            ColumnarFleetEngine(
                np.array([0.0, 1.0]), np.zeros((1, 2, 2)), mode=LINEAR, estimation_window=1
            )
        with pytest.raises(ValueError, match="object_ids"):
            ColumnarFleetEngine(
                np.array([0.0, 1.0]), np.zeros((2, 2, 2)), object_ids=["just-one"]
            )
