"""Unit tests for the location-service substrate (channel, server), the
reference source and polled queue, and the linear-scan query oracle."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.prediction import LinearPrediction, StaticPrediction
from repro.service.channel import MessageChannel
from repro.service.server import LocationServer

from reference.linear_queries import (
    geofence_query,
    nearest_object_query,
    position_query,
    range_query,
)
from reference.streaming import LocationSource, PolledQueue


def make_message(sequence=0, time=0.0, position=(0.0, 0.0), velocity=(10.0, 0.0), link_id=None):
    state = ObjectState(
        time=time, position=position, velocity=velocity,
        speed=float(np.hypot(*velocity)), link_id=link_id,
    )
    return UpdateMessage(sequence=sequence, state=state, reason=UpdateReason.THRESHOLD)


class TestMessageChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MessageChannel(latency=-1.0)
        with pytest.raises(ValueError):
            MessageChannel(loss_probability=1.0)

    def test_instant_delivery(self):
        channel = MessageChannel()
        queue = PolledQueue(channel)
        queue.send("obj", make_message(), time=5.0)
        delivered = queue.deliver_due(5.0)
        assert len(delivered) == 1
        assert delivered[0][0] == "obj"
        assert channel.stats.messages_delivered == 1

    def test_latency_delays_delivery(self):
        queue = PolledQueue(MessageChannel(latency=2.0))
        queue.send("obj", make_message(), time=0.0)
        assert queue.deliver_due(1.0) == []
        assert queue.in_flight == 1
        assert len(queue.deliver_due(2.0)) == 1

    def test_poll_past_the_delivery_instant_records_queue_delay(self):
        channel = MessageChannel(latency=1.5)
        queue = PolledQueue(channel)
        queue.send("obj", make_message(), time=0.0)
        assert len(queue.deliver_due(2.0)) == 1
        assert channel.stats.max_queue_delay == 0.5

    def test_loss(self):
        channel = MessageChannel(loss_probability=0.5, seed=0)
        queue = PolledQueue(channel)
        for i in range(200):
            queue.send("obj", make_message(sequence=i), time=float(i))
        queue.deliver_due(1e9)
        assert channel.stats.messages_lost > 0
        assert channel.stats.messages_delivered + channel.stats.messages_lost == 200
        assert 0.3 < channel.stats.messages_lost / 200 < 0.7

    def test_fresh_channel_counts_nothing(self):
        stats = MessageChannel().stats
        assert (stats.messages_sent, stats.messages_delivered, stats.messages_lost) == (0, 0, 0)
        assert (stats.bytes_sent, stats.bytes_delivered) == (0, 0)
        assert stats.max_queue_delay == 0.0

    def test_byte_accounting(self):
        channel = MessageChannel()
        queue = PolledQueue(channel)
        message = make_message()
        queue.send("obj", message, time=0.0)
        queue.deliver_due(0.0)
        assert channel.stats.bytes_sent == message.size_bytes
        assert channel.stats.bytes_delivered == message.size_bytes


class TestLocationServer:
    def test_register_twice_rejected(self):
        server = LocationServer()
        server.register_object("a")
        with pytest.raises(ValueError):
            server.register_object("a")

    def test_predict_before_update_is_none(self):
        server = LocationServer()
        server.register_object("a", prediction=LinearPrediction())
        assert server.predict_position("a", 10.0) is None

    def test_receive_and_predict(self):
        server = LocationServer()
        server.register_object("a", prediction=LinearPrediction(), accuracy=100.0)
        server.receive_update("a", make_message(time=0.0, velocity=(10.0, 0.0)), time=0.0)
        predicted = server.predict_position("a", 5.0)
        np.testing.assert_allclose(predicted, [50.0, 0.0])
        record = server.tracked_object("a")
        assert record.updates_received == 1
        assert record.last_update_time == 0.0

    def test_static_prediction_default(self):
        server = LocationServer()
        server.register_object("a")
        server.receive_update("a", make_message(position=(7.0, 8.0)), time=0.0)
        np.testing.assert_allclose(server.predict_position("a", 100.0), [7.0, 8.0])

    def test_all_positions_skips_silent_objects(self):
        server = LocationServer()
        server.register_object("a")
        server.register_object("b")
        server.receive_update("a", make_message(position=(1.0, 1.0)), time=0.0)
        positions = server.all_positions(0.0)
        assert set(positions) == {"a"}

    def test_is_registered_and_ids(self):
        server = LocationServer()
        server.register_object("x")
        assert server.is_registered("x")
        assert not server.is_registered("y")
        assert server.object_ids() == ["x"]


class TestLocationSource:
    def test_source_transmits_protocol_updates(self, straight_trace):
        protocol = LinearPredictionProtocol(accuracy=50.0, estimation_window=2)
        channel = MessageChannel()
        source = LocationSource("car-1", protocol, channel)
        times = list(source.sightings(straight_trace.times, straight_trace.positions))
        assert times == straight_trace.times.tolist()
        assert source.updates_sent == protocol.updates_sent
        assert channel.stats.messages_sent == source.updates_sent
        assert len(source.sent_messages) == source.updates_sent

    def test_default_channel_created(self):
        source = LocationSource("car-2", LinearPredictionProtocol(accuracy=100.0))
        list(source.sightings([0.0], [(0.0, 0.0)]))
        assert source.updates_sent == 1
        assert source.channel.stats.messages_sent == 1
        assert source.queue.deliver_due(0.0) == [("car-2", source.sent_messages[0])]


class TestQueries:
    @pytest.fixture()
    def populated_server(self):
        server = LocationServer()
        for name, position in (
            ("taxi-1", (0.0, 0.0)),
            ("taxi-2", (100.0, 0.0)),
            ("taxi-3", (1000.0, 1000.0)),
        ):
            server.register_object(name, prediction=StaticPrediction(), accuracy=50.0)
            server.receive_update(name, make_message(position=position, velocity=(0.0, 0.0)), 0.0)
        server.register_object("silent", prediction=StaticPrediction(), accuracy=50.0)
        return server

    def test_position_query(self, populated_server):
        result = position_query(populated_server, "taxi-2", time=10.0)
        np.testing.assert_allclose(result.position, [100.0, 0.0])
        assert result.accuracy == 50.0
        assert result.last_update_time == 0.0

    def test_position_query_silent_object(self, populated_server):
        result = position_query(populated_server, "silent", time=10.0)
        assert result.position is None

    def test_range_query(self, populated_server):
        inside = range_query(populated_server, BoundingBox(-10.0, -10.0, 150.0, 10.0), time=0.0)
        assert inside == ["taxi-1", "taxi-2"]

    def test_range_query_with_margin(self, populated_server):
        # taxi-2 at x=100 is outside the box [0, 60] but within one accuracy
        # radius (50 m) of it.
        strict = range_query(populated_server, BoundingBox(0.0, -10.0, 60.0, 10.0), time=0.0)
        generous = range_query(
            populated_server, BoundingBox(0.0, -10.0, 60.0, 10.0), time=0.0, margin=1.0
        )
        assert "taxi-2" not in strict
        assert "taxi-2" in generous

    def test_nearest_object_query(self, populated_server):
        nearest = nearest_object_query(populated_server, (90.0, 0.0), time=0.0, k=2)
        assert [name for name, _ in nearest] == ["taxi-2", "taxi-1"]
        assert nearest[0][1] == pytest.approx(10.0)

    def test_nearest_object_query_k_zero(self, populated_server):
        assert nearest_object_query(populated_server, (0.0, 0.0), time=0.0, k=0) == []

    def test_nearest_tie_break_by_object_id(self):
        """Equidistant objects sort by id, independent of registration order."""
        for order in (("z", "m", "a"), ("a", "m", "z"), ("m", "z", "a")):
            server = LocationServer()
            offsets = {"z": (10.0, 0.0), "m": (-10.0, 0.0), "a": (0.0, 10.0)}
            for name in order:
                server.register_object(name, prediction=StaticPrediction())
                server.receive_update(name, make_message(position=offsets[name]), 0.0)
            nearest = nearest_object_query(server, (0.0, 0.0), time=0.0, k=2)
            assert [name for name, _ in nearest] == ["a", "m"]

    def test_geofence_query(self, populated_server):
        hits = geofence_query(populated_server, (0.0, 0.0), 150.0, time=0.0)
        assert [name for name, _ in hits] == ["taxi-1", "taxi-2"]
        assert hits[0][1] == pytest.approx(0.0)
        assert hits[1][1] == pytest.approx(100.0)

    def test_geofence_negative_radius_is_empty(self, populated_server):
        assert geofence_query(populated_server, (0.0, 0.0), -5.0, time=0.0) == []


class TestQueryEdgeCases:
    """Satellite regressions: unknown ids and empty servers are well-defined."""

    def test_position_query_unknown_object(self):
        server = LocationServer()
        result = position_query(server, "ghost", time=0.0)
        assert result.object_id == "ghost"
        assert result.position is None
        assert result.accuracy == float("inf")
        assert result.last_update_time is None

    def test_queries_on_empty_server(self):
        server = LocationServer()
        box = BoundingBox(-100.0, -100.0, 100.0, 100.0)
        assert range_query(server, box, time=0.0) == []
        assert nearest_object_query(server, (0.0, 0.0), time=0.0, k=5) == []
        assert geofence_query(server, (0.0, 0.0), 100.0, time=0.0) == []

    def test_queries_before_any_update(self):
        server = LocationServer()
        server.register_object("quiet", prediction=StaticPrediction(), accuracy=25.0)
        box = BoundingBox(-100.0, -100.0, 100.0, 100.0)
        assert range_query(server, box, time=0.0, margin=1.0) == []
        assert nearest_object_query(server, (0.0, 0.0), time=0.0) == []
        assert geofence_query(server, (0.0, 0.0), 1e6, time=0.0) == []
        result = position_query(server, "quiet", time=0.0)
        assert result.position is None
        assert result.accuracy == 25.0
