"""Integration tests: the qualitative claims of the paper on small scenarios.

These tests run the full pipeline (scenario -> noisy trace -> protocol ->
channel -> server -> metrics) and assert the *shape* of the paper's results:
the ordering of the protocols, the direction of the trends and the accuracy
guarantee.  They use reduced-scale scenarios so the whole suite stays fast;
the benchmarks run the same experiments at full scale.
"""

import pytest

from repro.experiments.figures import figure_for_scenario
from repro.mapmatching.offline import match_trace, matching_accuracy
from repro.mapmatching.matcher import MatcherConfig
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.roadmap.history import HistoryMapLearner
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_simulation


def run_protocol(scenario, protocol_id, accuracy):
    protocol = SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(
        scenario
    )
    return run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)


class TestProtocolOrdering:
    """Dead reckoning beats plain reporting; the map beats the line (Figs. 7-9)."""

    @pytest.mark.parametrize("accuracy", [100.0, 250.0])
    def test_freeway_ordering(self, tiny_freeway_scenario, accuracy):
        distance = run_protocol(tiny_freeway_scenario, "distance", accuracy)
        linear = run_protocol(tiny_freeway_scenario, "linear", accuracy)
        mapped = run_protocol(tiny_freeway_scenario, "map", accuracy)
        assert linear.updates < distance.updates
        assert mapped.updates < linear.updates

    def test_interurban_ordering(self, tiny_interurban_scenario):
        distance = run_protocol(tiny_interurban_scenario, "distance", 100.0)
        linear = run_protocol(tiny_interurban_scenario, "linear", 100.0)
        mapped = run_protocol(tiny_interurban_scenario, "map", 100.0)
        assert linear.updates < distance.updates
        assert mapped.updates <= linear.updates

    def test_city_dead_reckoning_beats_reporting(self, tiny_city_scenario):
        distance = run_protocol(tiny_city_scenario, "distance", 100.0)
        linear = run_protocol(tiny_city_scenario, "linear", 100.0)
        mapped = run_protocol(tiny_city_scenario, "map", 100.0)
        assert linear.updates < distance.updates
        # In city traffic the map helps less (frequent intersections); the
        # paper still shows it at or below the linear curve.
        assert mapped.updates <= linear.updates * 1.25

    def test_walking_dead_reckoning_not_worse_at_small_us(self, tiny_walking_scenario):
        distance = run_protocol(tiny_walking_scenario, "distance", 50.0)
        linear = run_protocol(tiny_walking_scenario, "linear", 50.0)
        assert linear.updates <= distance.updates

    def test_known_route_is_the_lower_bound(self, tiny_freeway_scenario):
        mapped = run_protocol(tiny_freeway_scenario, "map", 150.0)
        known = run_protocol(tiny_freeway_scenario, "known_route", 150.0)
        assert known.updates <= mapped.updates


class TestHeadlineReductions:
    def test_freeway_linear_reduction_large(self, tiny_freeway_scenario):
        """The paper quotes up to 83% reduction of linear DR vs distance-based."""
        figure = figure_for_scenario(tiny_freeway_scenario, accuracies=[50.0, 100.0, 200.0])
        assert figure.reduction_vs_baseline("linear") > 60.0

    def test_freeway_map_vs_linear_reduction(self, tiny_freeway_scenario):
        """The paper quotes up to 60% reduction of map-based vs linear DR."""
        figure = figure_for_scenario(tiny_freeway_scenario, accuracies=[50.0, 100.0, 200.0])
        assert figure.reduction_between("map", "linear") > 30.0

    def test_freeway_overall_reduction(self, tiny_freeway_scenario):
        """The paper quotes an overall reduction of up to 91%."""
        figure = figure_for_scenario(tiny_freeway_scenario, accuracies=[50.0, 100.0, 200.0])
        assert figure.reduction_vs_baseline("map") > 75.0


class TestTrends:
    def test_updates_decrease_with_requested_uncertainty(self, tiny_freeway_scenario):
        figure = figure_for_scenario(
            tiny_freeway_scenario, accuracies=[50.0, 150.0, 400.0]
        )
        for series in figure.series.values():
            rates = series.updates_per_hour
            assert rates[0] >= rates[-1]

    def test_freeway_benefits_more_than_city(
        self, tiny_freeway_scenario, tiny_city_scenario
    ):
        """The linear-DR reduction is larger on the freeway than in the city (Sec. 4)."""
        freeway = figure_for_scenario(tiny_freeway_scenario, accuracies=[100.0])
        city = figure_for_scenario(tiny_city_scenario, accuracies=[100.0])
        assert freeway.reduction_vs_baseline("linear") > city.reduction_vs_baseline("linear")


class TestAccuracyGuarantee:
    @pytest.mark.parametrize("protocol_id", ["distance", "linear", "map"])
    def test_server_error_stays_bounded(self, tiny_freeway_scenario, protocol_id):
        accuracy = 150.0
        result = run_protocol(tiny_freeway_scenario, protocol_id, accuracy)
        # Allowance: the sensor error (the source only sees noisy positions)
        # plus the movement within one sampling interval.
        max_speed = tiny_freeway_scenario.true_trace.speeds().max()
        slack = 4 * tiny_freeway_scenario.sensor_sigma + max_speed * 1.0
        assert result.metrics.max_error <= accuracy + slack
        assert result.metrics.violation_fraction < 0.2


class TestMapMatchingQuality:
    def test_online_matching_accuracy_high_on_freeway(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        points = match_trace(
            scenario.sensor_trace, scenario.roadmap,
            MatcherConfig(tolerance=scenario.matching_tolerance),
        )
        accuracy = matching_accuracy(points, scenario.journey.link_ids, scenario.roadmap)
        assert accuracy > 0.9

    def test_protocol_rarely_goes_off_map(self, tiny_city_scenario):
        result = run_protocol(tiny_city_scenario, "map", 100.0)
        assert result.matcher_stats.get("off_map_events", 0) <= 2


class TestHistoryBasedVariant:
    def test_learned_map_supports_map_based_protocol(self, tiny_city_scenario):
        """History-based DR: learn the map from the trace, then run map-based DR on it."""
        scenario = tiny_city_scenario
        learner = HistoryMapLearner(cell_size=40.0)
        learner.add_trace(scenario.true_trace)
        learned_map = learner.build_map()
        protocol = MapBasedProtocol(
            accuracy=100.0,
            roadmap=learned_map,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(matching_tolerance=60.0),
        )
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        # The learned map must actually be usable: the protocol stays on the
        # map most of the time and the accuracy bound still holds.
        distance_result = run_protocol(scenario, "distance", 100.0)
        assert result.updates < distance_result.updates
        max_speed = scenario.true_trace.speeds().max()
        assert result.metrics.max_error <= 100.0 + 4 * scenario.sensor_sigma + max_speed
