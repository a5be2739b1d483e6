"""Unit tests for the speed-limit-aware map prediction (future-work extension)."""

import numpy as np
import pytest

from repro.protocols.base import ObjectState
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.prediction import MapPrediction
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.sim.fleet import run_simulation
from repro.traces.trace import Trace


@pytest.fixture()
def fast_then_slow_map():
    """A straight road whose second half has a much lower speed limit."""
    builder = RoadMapBuilder()
    a = builder.add_intersection((0.0, 0.0)).id
    b = builder.add_intersection((1000.0, 0.0)).id
    c = builder.add_intersection((2000.0, 0.0)).id
    builder.add_two_way_link(a, b, road_class=RoadClass.PRIMARY, speed_limit=30.0)
    builder.add_two_way_link(b, c, road_class=RoadClass.RESIDENTIAL, speed_limit=10.0)
    return builder.build()


def first_link(roadmap, from_x, to_x):
    return next(
        l
        for l in roadmap.links.values()
        if l.geometry.points[0][0] == from_x and l.geometry.points[-1][0] == to_x
    )


class TestSpeedLimitAwarePrediction:
    def test_invalid_factor(self, fast_then_slow_map):
        with pytest.raises(ValueError):
            MapPrediction(fast_then_slow_map, speed_limit_factor=0.0)

    def test_same_as_plain_prediction_below_limit(self, fast_then_slow_map):
        link = first_link(fast_then_slow_map, 0.0, 1000.0)
        state = ObjectState(
            time=0.0, position=link.point_at(0.0), velocity=(20.0, 0.0), speed=20.0,
            link_id=link.id, link_offset=0.0,
        )
        plain = MapPrediction(fast_then_slow_map)
        capped = MapPrediction(fast_then_slow_map, speed_limit_factor=1.0)
        # 20 m/s is below the 30 m/s limit of the first link: identical result.
        np.testing.assert_allclose(plain.predict(state, 30.0), capped.predict(state, 30.0))

    def test_capped_on_slow_link(self, fast_then_slow_map):
        link = first_link(fast_then_slow_map, 0.0, 1000.0)
        state = ObjectState(
            time=0.0, position=link.point_at(0.0), velocity=(25.0, 0.0), speed=25.0,
            link_id=link.id, link_offset=0.0,
        )
        capped = MapPrediction(fast_then_slow_map, speed_limit_factor=1.0)
        # 40 s at 25 m/s reaches the slow link after 1000 m (40 s at 25 m/s
        # covers the first link in 40 s exactly), so with the cap the object
        # does not advance onto the slow link at full speed.
        plain_position = MapPrediction(fast_then_slow_map).predict(state, 80.0)
        capped_position = capped.predict(state, 80.0)
        assert capped_position[0] < plain_position[0]
        # After 40 s on the first link, 40 s remain at 10 m/s -> 400 m into link 2.
        assert capped_position[0] == pytest.approx(1400.0, abs=1.0)

    def test_stationary_state_stays_put(self, fast_then_slow_map):
        link = first_link(fast_then_slow_map, 0.0, 1000.0)
        state = ObjectState(
            time=0.0, position=link.point_at(100.0), velocity=(0.0, 0.0), speed=0.0,
            link_id=link.id, link_offset=100.0,
        )
        capped = MapPrediction(fast_then_slow_map, speed_limit_factor=1.0)
        np.testing.assert_allclose(capped.predict(state, 60.0), link.point_at(100.0))


class TestSpeedLimitAwareProtocol:
    def _drive_trace(self):
        """20 m/s over the fast link, then 8 m/s over the slow one."""
        times = np.arange(0.0, 176.0)
        xs = np.where(times <= 50.0, times * 20.0, 1000.0 + (times - 50.0) * 8.0)
        return Trace(times, np.column_stack((xs, np.zeros_like(xs))))

    def test_accuracy_guarantee_still_holds(self, fast_then_slow_map):
        trace = self._drive_trace()
        protocol = MapBasedProtocol(
            accuracy=80.0, roadmap=fast_then_slow_map, estimation_window=2,
            config=MapBasedConfig(speed_limit_factor=1.0),
        )
        result = run_simulation(protocol, trace)
        assert result.metrics.max_error <= 80.0 + 20.0 + 1e-6

    def test_fewer_or_equal_updates_when_slowdown_is_predictable(self, fast_then_slow_map):
        trace = self._drive_trace()
        plain = MapBasedProtocol(
            accuracy=80.0, roadmap=fast_then_slow_map, estimation_window=2,
        )
        aware = MapBasedProtocol(
            accuracy=80.0, roadmap=fast_then_slow_map, estimation_window=2,
            config=MapBasedConfig(speed_limit_factor=1.0),
        )
        plain_result = run_simulation(plain, trace)
        aware_result = run_simulation(aware, trace)
        # The slowdown at the residential link is predictable from the map, so
        # the speed-limit-aware variant cannot need more updates on this trace.
        assert aware_result.updates <= plain_result.updates
