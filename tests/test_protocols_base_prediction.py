"""Unit tests for repro.protocols.base and repro.protocols.prediction."""

import numpy as np
import pytest

import repro.protocols
from repro.protocols.adaptive import (
    AdaptiveDeadReckoning,
    DisconnectionDetectionDeadReckoning,
    SpeedDeadReckoning,
)
from repro.protocols.base import ObjectState, UpdateMessage, UpdateProtocol, UpdateReason
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.known_route import KnownRouteProtocol
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedProtocol
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.protocols.reporting import (
    DistanceBasedReporting,
    MovementBasedReporting,
    TimeBasedReporting,
)
from repro.protocols.prediction import (
    LinearPrediction,
    MainRoadTurnPolicy,
    MapPrediction,
    ProbabilisticTurnPolicy,
    QuadraticPrediction,
    RoutePrediction,
    SmallestAngleTurnPolicy,
    StaticPrediction,
)
from repro.roadmap.elements import RoadClass
from repro.roadmap.generators import freeway_map
from repro.roadmap.probability import TurnProbabilityTable
from repro.roadmap.routing import RoutePlanner
from repro.mobility.scenarios import corridor_route
from repro.sim.fleet import lane_updates
from repro.traces.estimation import estimate_trace

from reference.maps import nearest_intersection, t_junction_map
from reference.streaming import stream_observe


def make_state(time=0.0, position=(0.0, 0.0), velocity=(10.0, 0.0), **kwargs):
    speed = float(np.hypot(*velocity))
    return ObjectState(time=time, position=position, velocity=velocity, speed=speed, **kwargs)


class TestObjectState:
    def test_coercion(self):
        state = make_state(velocity=(3.0, 4.0))
        assert state.speed == pytest.approx(5.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            ObjectState(time=0.0, position=(0, 0), velocity=(0, 0), speed=-1.0)

    def test_with_link(self):
        state = make_state()
        linked = state.with_link(7, 123.0)
        assert linked.link_id == 7
        assert linked.link_offset == 123.0
        assert state.link_id is None  # original unchanged


class TestUpdateMessage:
    def test_size_without_link(self):
        msg = UpdateMessage(sequence=0, state=make_state(), reason=UpdateReason.INITIAL)
        assert msg.size_bytes == 32

    def test_size_with_link(self):
        msg = UpdateMessage(
            sequence=0, state=make_state(link_id=3, link_offset=5.0), reason=UpdateReason.INITIAL
        )
        assert msg.size_bytes == 36


class TestBasicPredictions:
    def test_static(self):
        state = make_state(position=(5.0, 6.0))
        np.testing.assert_allclose(StaticPrediction().predict(state, 100.0), [5.0, 6.0])

    def test_linear(self):
        state = make_state(time=10.0, position=(0.0, 0.0), velocity=(10.0, -5.0))
        np.testing.assert_allclose(LinearPrediction().predict(state, 14.0), [40.0, -20.0])

    def test_quadratic_without_acceleration_is_linear(self):
        state = make_state(time=0.0, velocity=(10.0, 0.0))
        np.testing.assert_allclose(QuadraticPrediction().predict(state, 2.0), [20.0, 0.0])

    def test_quadratic_with_acceleration(self):
        state = make_state(time=0.0, velocity=(10.0, 0.0), acceleration=(2.0, 0.0))
        np.testing.assert_allclose(QuadraticPrediction().predict(state, 3.0), [39.0, 0.0])

    def test_quadratic_horizon_freezes_acceleration(self):
        state = make_state(time=0.0, velocity=(10.0, 0.0), acceleration=(2.0, 0.0))
        pred = QuadraticPrediction(max_horizon=5.0)
        at_horizon = pred.predict(state, 5.0)
        far_beyond = pred.predict(state, 50.0)
        np.testing.assert_allclose(at_horizon, far_beyond)


class TestTurnPolicies:
    @pytest.fixture()
    def junction(self):
        roadmap = t_junction_map(arm_length_m=500.0)
        center, _ = nearest_intersection(roadmap, (0.0, 0.0))
        west, _ = nearest_intersection(roadmap, (-500.0, 0.0))
        incoming = next(
            l for l in roadmap.outgoing_links(west.id) if l.to_node == center.id
        )
        return roadmap, incoming

    def test_smallest_angle_goes_straight(self, junction):
        roadmap, incoming = junction
        chosen = SmallestAngleTurnPolicy().choose(roadmap, incoming)
        assert chosen is not None
        # Continuing east (straight) rather than turning north.
        assert chosen.geometry.points[-1][0] > 100.0

    def test_smallest_angle_dead_end_returns_none(self, junction):
        roadmap, incoming = junction
        east_link = SmallestAngleTurnPolicy().choose(roadmap, incoming)
        assert SmallestAngleTurnPolicy().choose(roadmap, east_link) is None

    def test_main_road_policy_prefers_higher_class(self):
        # Build a junction where going straight is a residential street but
        # turning right is a primary road.
        from repro.roadmap.builder import RoadMapBuilder

        builder = RoadMapBuilder()
        west = builder.add_intersection((-500.0, 0.0)).id
        center = builder.add_intersection((0.0, 0.0)).id
        east = builder.add_intersection((500.0, 0.0)).id
        south = builder.add_intersection((0.0, -500.0)).id
        builder.add_two_way_link(west, center, road_class=RoadClass.PRIMARY)
        builder.add_two_way_link(center, east, road_class=RoadClass.RESIDENTIAL)
        builder.add_two_way_link(center, south, road_class=RoadClass.PRIMARY)
        roadmap = builder.build()
        incoming = next(
            l for l in roadmap.outgoing_links(west) if l.to_node == center
        )
        straight = SmallestAngleTurnPolicy().choose(roadmap, incoming)
        main = MainRoadTurnPolicy().choose(roadmap, incoming)
        assert straight.to_node == east
        assert main.to_node == south

    def test_probabilistic_policy_follows_counts(self, junction):
        roadmap, incoming = junction
        north_link = next(
            l for l in roadmap.successors(incoming) if l.geometry.points[-1][1] > 100.0
        )
        table = TurnProbabilityTable(roadmap)
        table.record_transition(incoming.id, north_link.id, 10.0)
        chosen = ProbabilisticTurnPolicy(table).choose(roadmap, incoming)
        assert chosen.id == north_link.id

    def test_probabilistic_policy_falls_back_to_geometry(self, junction):
        roadmap, incoming = junction
        table = TurnProbabilityTable(roadmap)  # no observations at all
        chosen = ProbabilisticTurnPolicy(table).choose(roadmap, incoming)
        straight = SmallestAngleTurnPolicy().choose(roadmap, incoming)
        assert chosen.id == straight.id


class TestMapPrediction:
    @pytest.fixture(scope="class")
    def freeway(self):
        roadmap = freeway_map(length_km=20.0, seed=0)
        route = corridor_route(roadmap, RoadClass.MOTORWAY)
        return roadmap, route

    def test_prediction_advances_along_link(self, freeway):
        roadmap, route = freeway
        link = route.links[0]
        state = make_state(velocity=(0.0, 0.0)).with_link(link.id, 0.0)
        state = ObjectState(
            time=0.0, position=link.point_at(0.0), velocity=link.direction_at(0.0) * 25.0,
            speed=25.0, link_id=link.id, link_offset=0.0,
        )
        prediction = MapPrediction(roadmap)
        predicted = prediction.predict(state, 10.0)
        np.testing.assert_allclose(predicted, link.point_at(250.0), atol=1e-6)

    def test_prediction_crosses_intersections(self, freeway):
        roadmap, route = freeway
        link = route.links[0]
        speed = 30.0
        state = ObjectState(
            time=0.0, position=link.point_at(0.0), velocity=link.direction_at(0.0) * speed,
            speed=speed, link_id=link.id, link_offset=0.0,
        )
        prediction = MapPrediction(roadmap)
        horizon = (link.length + 500.0) / speed
        predicted = prediction.predict(state, horizon)
        # The predicted point lies on the route (the smallest-angle policy
        # keeps following the motorway), about 500 m into the second link.
        _, offset, dist = route.project(predicted)
        assert dist < 1.0
        assert offset == pytest.approx(link.length + 500.0, rel=0.01)

    def test_prediction_follows_curves_better_than_linear(self, freeway):
        roadmap, route = freeway
        link = route.links[0]
        speed = 30.0
        state = ObjectState(
            time=0.0, position=link.point_at(0.0), velocity=link.direction_at(0.0) * speed,
            speed=speed, link_id=link.id, link_offset=0.0,
        )
        horizon = link.length / speed  # far enough for the road to curve
        truth = link.point_at(link.length)
        map_error = np.hypot(*(MapPrediction(roadmap).predict(state, horizon) - truth))
        linear_error = np.hypot(*(LinearPrediction().predict(state, horizon) - truth))
        assert map_error < linear_error

    def test_fallback_to_linear_without_link(self, freeway):
        roadmap, _ = freeway
        state = make_state(velocity=(12.0, 0.0))
        predicted = MapPrediction(roadmap).predict(state, 10.0)
        np.testing.assert_allclose(predicted, [120.0, 0.0])

    def test_dead_end_stops_at_link_end(self):
        roadmap = t_junction_map(arm_length_m=400.0)
        center, _ = nearest_intersection(roadmap, (0.0, 0.0))
        east, _ = nearest_intersection(roadmap, (400.0, 0.0))
        to_east = next(l for l in roadmap.outgoing_links(center.id) if l.to_node == east.id)
        state = ObjectState(
            time=0.0, position=to_east.point_at(0.0), velocity=(20.0, 0.0), speed=20.0,
            link_id=to_east.id, link_offset=0.0,
        )
        predicted = MapPrediction(roadmap).predict(state, 1000.0)
        np.testing.assert_allclose(predicted, to_east.point_at(to_east.length), atol=1e-6)


class TestRoutePrediction:
    def test_advances_along_route(self, straight_map):
        planner = RoutePlanner(straight_map)
        start, _ = nearest_intersection(straight_map, (0.0, 0.0))
        end, _ = nearest_intersection(straight_map, (2000.0, 0.0))
        route = planner.shortest_route(start.id, end.id)
        state = make_state(time=0.0, position=(100.0, 4.0), velocity=(15.0, 0.0))
        prediction = RoutePrediction(route)
        predicted = prediction.predict(state, 10.0)
        np.testing.assert_allclose(predicted, [250.0, 0.0], atol=1e-6)

    def test_clamps_at_route_end(self, straight_map):
        planner = RoutePlanner(straight_map)
        start, _ = nearest_intersection(straight_map, (0.0, 0.0))
        end, _ = nearest_intersection(straight_map, (2000.0, 0.0))
        route = planner.shortest_route(start.id, end.id)
        state = make_state(time=0.0, position=(1900.0, 0.0), velocity=(30.0, 0.0))
        predicted = RoutePrediction(route).predict(state, 1000.0)
        np.testing.assert_allclose(predicted, [2000.0, 0.0], atol=1e-6)

    def test_offsetless_states_project_their_own_position(self, straight_map):
        """A state without ``link_offset`` starts from its own projection,
        even when it reuses the id of a state dropped before it."""
        planner = RoutePlanner(straight_map)
        start, _ = nearest_intersection(straight_map, (0.0, 0.0))
        end, _ = nearest_intersection(straight_map, (2000.0, 0.0))
        route = planner.shortest_route(start.id, end.id)
        prediction = RoutePrediction(route)
        for k in range(50):
            position = (20.0 + 37.0 * k, 3.0)
            predicted = prediction.predict(make_state(position=position), 0.0)
            assert predicted.tolist() == route.project(position)[0].tolist(), k

    def test_predict_many_matches_predict(self, straight_map):
        planner = RoutePlanner(straight_map)
        start, _ = nearest_intersection(straight_map, (0.0, 0.0))
        end, _ = nearest_intersection(straight_map, (2000.0, 0.0))
        route = planner.shortest_route(start.id, end.id)
        prediction = RoutePrediction(route)
        times = np.linspace(-5.0, 200.0, 83)
        for state in (
            make_state(position=(300.0, 2.0), velocity=(13.7, 0.0)),
            make_state(time=4.0, position=(10.0, 0.0), link_offset=499.999),
        ):
            expected = np.array([prediction.predict(state, t) for t in times.tolist()])
            assert prediction.predict_many(state, times).tobytes() == expected.tobytes()


def _protocol_factories(roadmap):
    """One constructor per protocol class, taking the estimation window."""
    planner = RoutePlanner(roadmap)
    start, _ = nearest_intersection(roadmap, (0.0, 0.0))
    end, _ = nearest_intersection(roadmap, (2000.0, 0.0))
    route = planner.shortest_route(start.id, end.id)
    table = TurnProbabilityTable(roadmap)
    return {
        DistanceBasedReporting: lambda w: DistanceBasedReporting(100.0, estimation_window=w),
        TimeBasedReporting: lambda w: TimeBasedReporting(100.0, 5.0, estimation_window=w),
        MovementBasedReporting: lambda w: MovementBasedReporting(100.0, estimation_window=w),
        LinearPredictionProtocol: lambda w: LinearPredictionProtocol(
            100.0, estimation_window=w
        ),
        HigherOrderPredictionProtocol: lambda w: HigherOrderPredictionProtocol(
            100.0, estimation_window=w
        ),
        MapBasedProtocol: lambda w: MapBasedProtocol(100.0, roadmap, estimation_window=w),
        ProbabilisticMapBasedProtocol: lambda w: ProbabilisticMapBasedProtocol(
            100.0, roadmap, table, estimation_window=w
        ),
        KnownRouteProtocol: lambda w: KnownRouteProtocol(100.0, route, estimation_window=w),
        SpeedDeadReckoning: lambda w: SpeedDeadReckoning(100.0, estimation_window=w),
        AdaptiveDeadReckoning: lambda w: AdaptiveDeadReckoning(100.0, estimation_window=w),
        DisconnectionDetectionDeadReckoning: lambda w: DisconnectionDetectionDeadReckoning(
            100.0, estimation_window=w
        ),
    }


class TestUpdateProtocolMachinery:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinearPredictionProtocol(accuracy=0.0)
        with pytest.raises(ValueError):
            LinearPredictionProtocol(accuracy=100.0, sensor_uncertainty=-1.0)

    def test_every_protocol_rejects_an_estimation_window_below_two(self, straight_map):
        factories = _protocol_factories(straight_map)
        exported = {
            cls for cls in vars(repro.protocols).values()
            if isinstance(cls, type) and issubclass(cls, UpdateProtocol)
            and cls is not UpdateProtocol
        }
        assert set(factories) == exported
        for cls, build in factories.items():
            assert build(2).estimation_window == 2, cls.__name__
            for window in (1, 0, -3):
                with pytest.raises(ValueError, match="window must be at least 2"):
                    build(window)

    def test_first_observation_triggers_initial_update(self):
        protocol = LinearPredictionProtocol(accuracy=100.0)
        (message,) = stream_observe(protocol, [0.0], [(0.0, 0.0)])
        assert message is not None
        assert message.reason is UpdateReason.INITIAL
        assert protocol.updates_sent == 1

    def test_observe_precomputed_is_one_row_of_the_search(self):
        """One ``observe_precomputed`` call per prepared row sends what
        ``lane_updates`` finds for the whole trace."""
        times = np.arange(40.0)
        positions = np.column_stack((times * 12.0, np.sqrt(times) * 30.0))
        velocities, speeds = estimate_trace(times, positions, 4)
        sent = []
        for protocol in (LinearPredictionProtocol(25.0), LinearPredictionProtocol(25.0)):
            protocol.prepare_trace(times, positions, velocities, speeds)
            sent.append(protocol)
        stepped = [
            (t, sent[0].observe_precomputed(t, positions[i], velocities[i], speeds[i]))
            for i, t in enumerate(times.tolist())
        ]
        stepped = [(t, m) for t, m in stepped if m is not None]
        searched, _fires = lane_updates(sent[1])
        assert [(t, m.reason, m.state.position.tolist()) for t, m in stepped] == [
            (t, m.reason, m.state.position.tolist()) for t, m in searched
        ]
        assert len(searched) > 2

    def test_bytes_accumulate(self):
        protocol = LinearPredictionProtocol(accuracy=10.0)
        stream_observe(protocol, [0.0, 1.0], [(0.0, 0.0), (100.0, 0.0)])
        assert protocol.bytes_sent >= 2 * 32

    def test_reset(self):
        protocol = LinearPredictionProtocol(accuracy=10.0)
        stream_observe(protocol, [0.0], [(0.0, 0.0)])
        protocol.reset()
        assert protocol.updates_sent == 0
        assert protocol.last_reported is None
