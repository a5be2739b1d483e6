"""The live serving tier, plus the channel-delivery correctness fixes.

Covers three areas that ship together:

* **Channel delivery correctness** — tied ``(deliver_at, object_id)``
  entries must not crash the sort (``UpdateMessage`` has no ordering), and
  a channel must be safely reusable across runs and loops, and the
  reference polled queue over ``transmit`` must count and lose messages
  exactly as the fleet's direct ``transmit`` calls do.
* **Facade margin queries on all-infinite-accuracy fleets** — pinned
  bit-identical to the linear reference scans.
* **The live server itself** — wire protocol round trips, latency
  accounting, backpressure on the bounded ingest queue, clean shutdown
  with in-flight work, and the headline guarantee: answers served over
  TCP are bit-identical to direct facade calls on the same replayed
  scenario stream, under both lockstep and concurrent clients.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.experiments.library import FleetMix, fleet_lanes
from repro.geo.bbox import BoundingBox
from repro.obs import Observability
from repro.obs.metrics import LatencyRecorder
from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.prediction import LinearPrediction
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.service.live.client import LiveClient, LiveRequestError
from repro.service.live.protocol import (
    FrameError,
    decode_answer,
    decode_message,
    encode_answer,
    encode_message,
    read_frame,
)
from repro.service.live.server import KNOWN_OPS, UNKNOWN_OP, LiveLocationServer
from repro.service.loadgen import (
    build_replay_plan,
    mismatched_answers,
    run_load_test,
    service_for_plan,
)
from repro.service.server import LocationServer
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.workload import QueryWorkload
from repro.traces.trace import Trace

from reference.linear_queries import range_query as reference_range_query
from reference.streaming import PolledQueue, delivery_order
from reference.tick_loop import TickLoopFleet


def make_message(sequence=0, time=0.0, position=(0.0, 0.0), velocity=(10.0, 0.0),
                 uncertainty=0.0):
    state = ObjectState(
        time=time, position=position, velocity=velocity,
        speed=float(np.hypot(*velocity)), uncertainty=uncertainty,
    )
    return UpdateMessage(sequence=sequence, state=state, reason=UpdateReason.THRESHOLD)


async def _ping(client: LiveClient) -> int:
    """Round-trip a ``ping``; the server's ``applied_seq``."""
    return int((await client.request({"op": "ping"}))["applied_seq"])


def _straight_trace(n: int = 40, dt: float = 1.0, speed: float = 15.0) -> Trace:
    times = np.arange(n) * dt
    return Trace(times, np.column_stack((times * speed, np.zeros(n))))


def _library_lanes():
    return fleet_lanes([FleetMix.parse("city:linear:100:4")], scale=0.15, seed=7)


def _small_plan(max_batches=25, max_queries=15, rate=3.0, seed=5):
    workload = QueryWorkload(arrival_rate_per_s=rate, seed=seed)
    return build_replay_plan(
        _library_lanes(), workload, max_batches=max_batches, max_queries=max_queries
    )


# --------------------------------------------------------------------------- #
# channel delivery ties (satellite 1)
# --------------------------------------------------------------------------- #
class TestChannelDeliveryTies:
    def test_deliver_due_survives_tied_delivery_instants(self):
        # Two messages from the same object due at the same instant used to
        # crash: sorted() fell through the equal (deliver_at, object_id)
        # prefix into comparing UpdateMessage objects.
        queue = PolledQueue(MessageChannel(latency=2.0))
        queue.send("obj", make_message(sequence=2, time=1.0), time=1.0)
        queue.send("obj", make_message(sequence=1, time=1.0), time=1.0)
        delivered = queue.deliver_due(5.0)
        assert [m.sequence for _, m in delivered] == [1, 2]

    def test_tie_break_is_per_object_send_order(self):
        queue = PolledQueue(MessageChannel())
        queue.send("b", make_message(sequence=1), time=0.0)
        queue.send("a", make_message(sequence=3), time=0.0)
        queue.send("a", make_message(sequence=2), time=0.0)
        delivered = queue.deliver_due(0.0)
        assert [(oid, m.sequence) for oid, m in delivered] == [
            ("a", 2), ("a", 3), ("b", 1),
        ]

    def test_event_kernel_batch_sort_uses_same_key(self):
        # The polled path sorts simultaneous deliveries with delivery_order
        # (the fleet by the same key after its channel order); tied entries
        # must order by sequence, not raise.
        m1, m2 = make_message(sequence=1), make_message(sequence=2)
        entries = [(5.0, "obj", m2), (5.0, "obj", m1), (4.0, "zzz", m2)]
        entries.sort(key=delivery_order)
        assert [(t, oid, m.sequence) for t, oid, m in entries] == [
            (4.0, "zzz", 2), (5.0, "obj", 1), (5.0, "obj", 2),
        ]

    def test_both_kernels_deliver_tied_instants_identically(self):
        # A latency that parks several objects' sends on the same delivery
        # instant exercises the tie-handling sort inside a real run on the
        # fleet loop and on the tick-loop oracle; the two runs must also
        # stay bit-identical.
        from repro.protocols.linear import LinearPredictionProtocol

        def _run(kernel):
            lanes = [
                FleetLane(
                    object_id=f"o{n}",
                    protocol=LinearPredictionProtocol(accuracy=30.0),
                    sensor_trace=_straight_trace(),
                )
                for n in range(3)
            ]
            channel = MessageChannel(latency=3.0)
            for lane in lanes:
                lane.channel = channel
            fleet_cls = TickLoopFleet if kernel == "tick" else FleetSimulation
            return fleet_cls(lanes).run()

        tick, event = _run("tick"), _run("event")
        assert tick.total_updates > 0
        assert tick.total_updates == event.total_updates
        for oid in tick.results:
            assert tick.results[oid].updates == event.results[oid].updates


# --------------------------------------------------------------------------- #
# channel reuse across runs and loops
# --------------------------------------------------------------------------- #
class TestChannelReuse:
    def _lanes(self, channel):
        from repro.protocols.linear import LinearPredictionProtocol

        return [
            FleetLane(
                object_id="obj",
                protocol=LinearPredictionProtocol(accuracy=25.0),
                sensor_trace=_straight_trace(),
                channel=channel,
            )
        ]

    def _updates(self, result):
        return result.results["obj"].updates

    def test_channel_reused_tick_then_event(self):
        channel = MessageChannel(latency=1.0)
        first = TickLoopFleet(self._lanes(channel)).run()
        # The same channel instance now serves a fleet run; reset() at run
        # start must leave no counters of the tick run behind.
        second = FleetSimulation(self._lanes(channel)).run()
        fresh = FleetSimulation(self._lanes(MessageChannel(latency=1.0))).run()
        assert self._updates(first) > 0
        assert self._updates(second) == self._updates(fresh)
        assert channel.stats.messages_sent == channel.stats.messages_delivered

    def test_channel_reused_event_then_event(self):
        channel = MessageChannel(latency=1.0)
        first = FleetSimulation(self._lanes(channel)).run()
        second = FleetSimulation(self._lanes(channel)).run()
        assert self._updates(first) == self._updates(second) > 0


# --------------------------------------------------------------------------- #
# transmit: the channel's one send path, under the fleet and the polled queue
# --------------------------------------------------------------------------- #
class TestChannelTransmit:
    def test_transmit_counts_the_send_without_queueing(self):
        channel = MessageChannel(latency=2.5)
        message = make_message(sequence=4)
        assert channel.transmit("obj", message, time=10.0) == 12.5
        assert channel.stats.messages_sent == 1
        assert channel.stats.bytes_sent == message.size_bytes
        assert channel.stats.messages_delivered == 0

    def test_transmit_and_send_draw_the_same_keyed_losses(self):
        """A seeded channel loses the same (object, sequence) messages on
        the fleet's transmit path and on the polled send path."""
        messages = [make_message(sequence=n) for n in range(200)]
        fleet_side = MessageChannel(latency=1.0, loss_probability=0.3, seed=9)
        kept = {
            m.sequence for m in messages
            if fleet_side.transmit("obj", m, time=0.0) is not None
        }
        polled = MessageChannel(latency=1.0, loss_probability=0.3, seed=9)
        queue = PolledQueue(polled)
        for m in messages:
            queue.send("obj", m, time=0.0)
        assert {m.sequence for _, m in queue.deliver_due(1.0)} == kept
        assert 0 < len(kept) < len(messages)
        assert fleet_side.stats.messages_lost == polled.stats.messages_lost

    def test_record_delivered_counts_messages_and_bytes(self):
        channel = MessageChannel()
        messages = [make_message(sequence=n) for n in range(3)]
        channel.record_delivered(messages)
        channel.record_delivered([])
        assert channel.stats.messages_delivered == 3
        assert channel.stats.bytes_delivered == sum(m.size_bytes for m in messages)


# --------------------------------------------------------------------------- #
# facade margin queries with all-infinite accuracies (satellite 3)
# --------------------------------------------------------------------------- #
class TestMarginRangeQueryInfiniteAccuracy:
    def _populated(self, n_shards):
        rng = np.random.default_rng(42)
        service = LocationService(n_shards=n_shards, region_size=400.0)
        reference = LocationServer()
        batch = []
        for i in range(40):
            object_id = f"obj{i:02d}"
            service.register_object(object_id)  # accuracy defaults to inf
            reference.register_object(object_id)
            position = tuple(rng.uniform(-1000.0, 1000.0, size=2))
            velocity = tuple(rng.uniform(-15.0, 15.0, size=2))
            batch.append((object_id, make_message(
                sequence=1, time=0.0, position=position, velocity=velocity,
            )))
        service.ingest_batch(batch, 0.0)
        for object_id, message in batch:
            reference.receive_update(object_id, message, 0.0)
        return service, reference

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("margin", [0.5, 1.0, 3.0])
    def test_bit_identical_to_reference_scans(self, n_shards, margin):
        service, reference = self._populated(n_shards)
        assert service._max_finite_accuracy == 0.0
        boxes = [
            BoundingBox(-200.0, -200.0, 200.0, 200.0),
            BoundingBox(-1200.0, -1200.0, 1200.0, 1200.0),
            BoundingBox(500.0, -100.0, 900.0, 350.0),
            BoundingBox(2000.0, 2000.0, 2100.0, 2100.0),  # empty
        ]
        for t in (0.0, 7.5, 30.0):
            for box in boxes:
                assert service.range_query(box, t, margin=margin) == \
                    reference_range_query(reference, box, t, margin=margin)

    def test_margin_is_inert_when_every_accuracy_is_infinite(self):
        # With no finite accuracy there is nothing to expand by: the
        # margin'd answer must equal the exact one on both implementations.
        service, reference = self._populated(2)
        box = BoundingBox(-300.0, -300.0, 300.0, 300.0)
        assert service.range_query(box, 5.0, margin=2.0) == \
            service.range_query(box, 5.0)
        assert reference_range_query(reference, box, 5.0, margin=2.0) == \
            reference_range_query(reference, box, 5.0)


# --------------------------------------------------------------------------- #
# wire protocol and latency accounting
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def test_message_roundtrip_is_exact(self):
        message = make_message(
            sequence=17, time=12.34567890123, position=(0.1 + 0.2, -1234.5678),
            velocity=(33.333333333333336, -0.1), uncertainty=float("inf"),
        )
        object_id, decoded = decode_message(encode_message("car/1", message))
        assert object_id == "car/1"
        assert decoded.sequence == message.sequence
        assert decoded.reason == message.reason
        assert decoded.state.time == message.state.time
        assert np.array_equal(decoded.state.position, message.state.position)
        assert np.array_equal(decoded.state.velocity, message.state.velocity)
        assert decoded.state.speed == message.state.speed
        assert decoded.state.uncertainty == float("inf")
        assert decoded.state.link_id is None

    def test_answer_roundtrip_is_exact(self):
        range_answer = ["a", "b", "c"]
        scored = [("x", 0.1 + 0.2), ("y", float(np.pi))]
        assert decode_answer("range", encode_answer("range", range_answer)) == range_answer
        assert decode_answer("nearest", encode_answer("nearest", scored)) == scored

    def _read(self, payload: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_read_frame_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_read_frame_rejects_a_truncated_length_prefix(self):
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(b"\x00\x00")

    def test_read_frame_rejects_garbage(self):
        import struct

        with pytest.raises(FrameError):
            self._read(struct.pack(">I", 3) + b"{x}")  # invalid JSON
        with pytest.raises(FrameError):
            self._read(struct.pack(">I", 2) + b"[]")  # not an object
        with pytest.raises(FrameError):
            self._read(struct.pack(">I", 10) + b"short")  # closed mid-frame
        with pytest.raises(FrameError):
            self._read(struct.pack(">I", 1 << 30))  # oversized


class TestLatencyRecorder:
    def test_nearest_rank_percentiles(self):
        recorder = LatencyRecorder([0.004, 0.001, 0.003, 0.002])
        assert recorder.percentile(50.0) == 0.002
        assert recorder.percentile(75.0) == 0.003
        assert recorder.percentile(100.0) == 0.004
        assert recorder.percentile(1.0) == 0.001
        assert recorder.mean() == pytest.approx(0.0025)

    def test_summary_and_merge(self):
        a, b = LatencyRecorder([0.001]), LatencyRecorder([0.003])
        a.merge(b)
        summary = a.summary()
        assert summary["count"] == 2
        assert summary["avg_ms"] == 2.0
        assert summary["p50_ms"] == 1.0
        assert summary["p99_ms"] == 3.0
        assert summary["max_ms"] == 3.0
        empty = LatencyRecorder().summary()
        assert empty["count"] == 0 and empty["p99_ms"] == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            LatencyRecorder([0.1]).percentile(0.0)


# --------------------------------------------------------------------------- #
# the live server
# --------------------------------------------------------------------------- #
def _gate_writer(server: LiveLocationServer) -> asyncio.Event:
    """Hold the server's ingest writer until the returned event is set.

    Lets a test fill the bounded queue deterministically: nothing drains
    while the gate is closed, so backpressure becomes observable without
    timing games.
    """
    gate = asyncio.Event()
    original = server._drain_ingest_queue

    async def gated():
        await gate.wait()
        await original()

    server._drain_ingest_queue = gated
    return gate


class TestLiveServer:
    def test_ping_register_and_errors(self):
        async def go():
            server = LiveLocationServer()
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    assert await _ping(client) == 0
                    registered = await client.request({"op": "register", "objects": [
                        {"id": "a", "prediction": "linear", "accuracy": 50.0},
                        {"id": "b"},
                    ]})
                    assert registered["registered"] == ["a", "b"]
                    with pytest.raises(LiveRequestError):
                        await client.request(
                            {"op": "register", "objects": [{"id": "c", "prediction": "warp"}]}
                        )
                    with pytest.raises(LiveRequestError):
                        await client.request({"op": "no-such-op"})
                    # Ingesting for an unknown object is an error, and the
                    # connection survives it.
                    with pytest.raises(LiveRequestError):
                        await client.ingest(0.0, [("ghost", make_message())])
                    response = await client.ingest(
                        0.0, [("a", make_message(sequence=1, position=(5.0, 5.0)))]
                    )
                    assert response["seq"] == 1
                    answer, at_seq = await client.nearest_objects(
                        (0.0, 0.0), 0.0, k=1, min_seq=1
                    )
                    assert at_seq >= 1
                    assert [oid for oid, _ in answer] == ["a"]
                    # A watermark ahead of everything ever accepted can
                    # never be satisfied — error, not a hang.
                    with pytest.raises(LiveRequestError):
                        await client.range_query(
                            BoundingBox(0, 0, 1, 1), 0.0, min_seq=99
                        )
            finally:
                await server.stop()

        asyncio.run(go())

    def test_unknown_ops_share_one_counter_and_metric(self):
        async def go():
            obs = Observability()
            server = LiveLocationServer(obs=obs)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    await _ping(client)
                    for n in range(200):
                        with pytest.raises(LiveRequestError):
                            await client.request({"op": f"bogus-{n}"})
            finally:
                await server.stop()
            return server, obs

        server, obs = asyncio.run(go())
        assert server.op_counts == {"ping": 1, UNKNOWN_OP: 200}
        op_metrics = [name for name in obs.registry.snapshot() if name.startswith("live.op.")]
        assert sorted(op_metrics) == ["live.op.ping", f"live.op.{UNKNOWN_OP}"]

    def test_malformed_frames_are_counted_and_server_keeps_serving(self):
        import struct

        async def send_malformed(host, port, raw):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(raw)
            await writer.drain()
            # The server closes the connection on a framing error.
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()

        async def go():
            obs = Observability()
            server = LiveLocationServer(obs=obs)
            host, port = await server.start()
            try:
                await send_malformed(host, port, struct.pack(">I", 1 << 30))  # oversize
                await send_malformed(host, port, struct.pack(">I", 3) + b"{x}")  # not JSON
                async with await LiveClient.connect(host, port) as client:
                    assert await _ping(client) == 0
                    stats = await client.request({"op": "stats"})
            finally:
                await server.stop()
            return server, obs, stats

        server, obs, stats = asyncio.run(go())
        assert stats["server"]["frame_errors"] == 2
        assert server.frame_errors == 2
        assert obs.registry.snapshot()["live.frame_errors"]["value"] == 2
        assert server.op_counts == {"ping": 1, "stats": 1}

    def test_truncated_frame_is_counted(self):
        import struct

        async def go():
            server = LiveLocationServer()
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # Announce 10 bytes, send 5, then close the write side.
                writer.write(struct.pack(">I", 10) + b"short")
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()
                await writer.wait_closed()
                async with await LiveClient.connect(host, port) as client:
                    stats = await client.request({"op": "stats"})
            finally:
                await server.stop()
            return stats

        assert asyncio.run(go())["server"]["frame_errors"] == 1

    def test_known_ops_are_the_dispatched_ops(self):
        async def go():
            server = LiveLocationServer()
            for op in sorted(KNOWN_OPS - {"shutdown"}):
                try:
                    response = await server._dispatch(op, {"op": op})
                except Exception:  # noqa: BLE001 — a handler rejected the bare request
                    continue
                assert "unknown op" not in str(response.get("error", "")), op
            response = await server._dispatch("bogus", {"op": "bogus"})
            assert "unknown op" in response["error"]

        asyncio.run(go())

    def test_backpressure_rejects_without_wait(self):
        async def go():
            service = LocationService()
            service.register_object("obj")
            server = LiveLocationServer(service, ingest_queue_size=2)
            gate = _gate_writer(server)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    batch = [("obj", make_message(sequence=1))]
                    first = await client.ingest(0.0, batch, wait=False)
                    second = await client.ingest(1.0, batch, wait=False)
                    assert first["seq"] == 1 and second["seq"] == 2
                    # Queue (size 2) is full and nothing drains: shed-load
                    # requests are rejected, not buffered.
                    third = await client.ingest(2.0, batch, wait=False, check=False)
                    assert third["ok"] is False and third["rejected"] is True
                    assert server.rejected_batches == 1
                    assert server.ingest_queue_depth == 2
                    gate.set()
                    # Once the writer drains, the same request succeeds and
                    # nothing was lost: seqs 1 and 2 were applied.
                    fourth = await client.ingest(3.0, batch, wait=False)
                    assert fourth["seq"] == 3
                    answer, at_seq = await client.nearest_objects(
                        (0.0, 0.0), 0.0, k=1, min_seq=3
                    )
                    assert at_seq == 3 and len(answer) == 1
            finally:
                await server.stop()

        asyncio.run(go())

    def test_backpressure_delays_with_wait(self):
        async def go():
            service = LocationService()
            service.register_object("obj")
            server = LiveLocationServer(service, ingest_queue_size=1)
            gate = _gate_writer(server)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    batch = [("obj", make_message(sequence=1))]
                    await client.ingest(0.0, batch)  # fills the queue
                    # The next waiting ingest must stall (bounded queue),
                    # not complete and not grow memory.
                    blocked = asyncio.create_task(client.ingest(1.0, batch))
                    await asyncio.sleep(0.05)
                    assert not blocked.done()
                    assert server.ingest_queue_depth == 1
                    gate.set()
                    response = await asyncio.wait_for(blocked, timeout=2.0)
                    assert response["seq"] == 2
            finally:
                await server.stop()

        asyncio.run(go())

    def test_clean_shutdown_applies_accepted_batches(self):
        async def go():
            service = LocationService()
            service.register_object("obj")
            server = LiveLocationServer(service, ingest_queue_size=4)
            gate = _gate_writer(server)
            host, port = await server.start()
            client = await LiveClient.connect(host, port)
            batch = [("obj", make_message(sequence=1, position=(7.0, 7.0)))]
            await client.ingest(0.0, batch)
            await client.ingest(1.0, batch)
            await client.close()
            # Two acknowledged batches still sit in the queue; a clean stop
            # must apply them before returning.
            assert server.applied_seq == 0
            gate.set()
            await server.stop(grace=2.0)
            assert server.applied_seq == server.enqueued_seq == 2
            assert len(service.nearest_objects((0.0, 0.0), 0.0, k=1)) == 1
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=1.0
                )

        asyncio.run(go())

    def test_shutdown_with_idle_connection_does_not_hang(self):
        async def go():
            server = LiveLocationServer()
            host, port = await server.start()
            client = await LiveClient.connect(host, port)
            assert await _ping(client) == 0
            # The connection stays open (handler parked on read_frame); the
            # grace period must cut it loose rather than hang the stop.
            await asyncio.wait_for(server.stop(grace=0.2), timeout=5.0)
            await client.close()

        asyncio.run(go())

    def test_shutdown_op_releases_run_until_shutdown(self):
        async def go():
            server = LiveLocationServer()
            host, port = await server.start()
            runner = asyncio.create_task(server.run_until_shutdown())
            async with await LiveClient.connect(host, port) as client:
                await client.request({"op": "shutdown"})
            await asyncio.wait_for(runner, timeout=5.0)

        asyncio.run(go())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_failing_batch_does_not_end_the_writer(self):
        # t = 1e308 is finite, so the batch is accepted; predicting a moving
        # object that far ahead overflows inside the writer's ingest_batch.
        async def go():
            service = LocationService()
            service.register_object("obj", prediction=LinearPrediction(), accuracy=50.0)
            server = LiveLocationServer(service)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    bad = await client.ingest(1e308, [("obj", make_message(sequence=1))])
                    assert bad["seq"] == 1
                    good = await client.ingest(
                        1.0, [("obj", make_message(sequence=2, position=(9.0, 9.0)))]
                    )
                    assert good["seq"] == 2
                    answer, at_seq = await asyncio.wait_for(
                        client.nearest_objects((0.0, 0.0), 1.0, k=1, min_seq=2), timeout=5.0
                    )
                    stats = await client.request({"op": "stats"})
            finally:
                await asyncio.wait_for(server.stop(grace=0.5), timeout=5.0)
            return server, answer, at_seq, stats

        server, answer, at_seq, stats = asyncio.run(go())
        assert at_seq == server.applied_seq == 2
        assert [oid for oid, _ in answer] == ["obj"]
        assert stats["server"]["ingest_errors"] == server.ingest_errors == 1

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_ingest_time_rejected(self, t):
        async def go():
            service = LocationService()
            service.register_object("obj")
            server = LiveLocationServer(service)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    message = encode_message("obj", make_message(sequence=1))
                    response = await client.request(
                        {"op": "ingest", "t": t, "updates": [message]}, check=False
                    )
                    assert await _ping(client) == 0
            finally:
                await server.stop()
            return server, response

        server, response = asyncio.run(go())
        assert response["ok"] is False
        assert "finite" in response["error"]
        assert server.enqueued_seq == 0


# --------------------------------------------------------------------------- #
# replayed scenario traffic: the bit-identity guarantee
# --------------------------------------------------------------------------- #
class TestReplayedTraffic:
    def test_plan_extraction(self):
        plan = _small_plan()
        assert plan.batches and plan.calls
        assert plan.total_updates >= len(plan.batches)
        times = [t for t, _ in plan.batches]
        assert times == sorted(times)
        assert all(call.kind in ("range", "nearest", "geofence") for call in plan.calls)
        # The Poisson stream is the workload's seeded machinery: same seed,
        # same calls.
        again = _small_plan()
        assert again.calls == plan.calls

    def test_plan_needs_a_lane(self):
        with pytest.raises(ValueError, match="lane"):
            build_replay_plan([], QueryWorkload(arrival_rate_per_s=1.0, seed=0))

    @pytest.mark.parametrize(
        "mode, clients, message",
        [("burst", 1, "unknown mode"), ("concurrent", 0, "at least one client")],
        ids=["unknown_mode", "no_clients"],
    )
    def test_load_test_arguments_checked_before_connecting(self, mode, clients, message):
        plan = _small_plan(max_batches=2, max_queries=1)
        with pytest.raises(ValueError, match=message):
            # Port 1 is never dialled: the arguments are rejected first.
            asyncio.run(run_load_test(plan, "127.0.0.1", 1, clients=clients, mode=mode))

    def _run(self, plan, mode, clients, n_shards=2, queue_size=8):
        async def go():
            server = LiveLocationServer(
                service_for_plan(plan, n_shards=n_shards),
                ingest_queue_size=queue_size,
            )
            host, port = await server.start()
            try:
                return await run_load_test(
                    plan, host, port, clients=clients, mode=mode
                )
            finally:
                await server.stop()

        return asyncio.run(go())

    def test_lockstep_answers_bit_identical_to_facade(self):
        plan = _small_plan()
        report = self._run(plan, "lockstep", 1)
        assert report.accepted_batches == len(plan.batches)
        assert len(report.query_records) == len(plan.calls)
        assert mismatched_answers(plan, report, n_shards=2) == []
        # Lockstep watermarks make the schedule itself deterministic: every
        # query was answered with exactly the batches that preceded it in
        # plan order applied.
        merged = sorted(
            [(t, 0, i) for i, (t, _) in enumerate(plan.batches)]
            + [(c.time, 1, i) for i, c in enumerate(plan.calls)]
        )
        expected_at = {}
        seq = 0
        for _t, kind, index in merged:
            if kind == 0:
                seq += 1
            else:
                expected_at[index] = seq
        for call_index, at_seq, _answer in report.query_records:
            assert at_seq == expected_at[call_index]

    def test_concurrent_answers_bit_identical_to_facade(self):
        plan = _small_plan()
        report = self._run(plan, "concurrent", 3)
        assert report.accepted_batches == len(plan.batches)
        assert len(report.query_records) == len(plan.calls)
        assert report.query_latency.summary()["p99_ms"] > 0.0
        assert mismatched_answers(plan, report, n_shards=2) == []

    def test_concurrent_with_load_shedding_stays_bit_identical(self):
        # A tiny queue plus no-wait ingest drops batches; the identity must
        # hold for whatever schedule actually executed.
        plan = _small_plan(max_batches=40, max_queries=10)

        async def go():
            server = LiveLocationServer(
                service_for_plan(plan, n_shards=1), ingest_queue_size=1
            )
            host, port = await server.start()
            try:
                return await run_load_test(
                    plan, host, port, clients=4, mode="concurrent", wait=False
                )
            finally:
                await server.stop()

        report = asyncio.run(go())
        assert report.accepted_batches + report.rejected_batches == len(plan.batches)
        assert mismatched_answers(plan, report, n_shards=1) == []

    def test_report_metrics_shape(self):
        plan = _small_plan(max_batches=10, max_queries=5)
        report = self._run(plan, "lockstep", 1, n_shards=1)
        summary = report.as_dict()
        assert summary["throughput_rps"] > 0
        assert summary["queries"] == 5
        for side in ("ingest", "query"):
            for key in ("count", "avg_ms", "p50_ms", "p95_ms", "p99_ms"):
                assert key in summary[side]
        assert summary["query"]["p99_ms"] >= summary["query"]["p50_ms"]


class TestQueryCoalescing:
    """Concurrent queries sharing a watermark are answered by one flush."""

    @staticmethod
    def _populated_service(n=40):
        service = LocationService(n_shards=2, region_size=500.0)
        rng = np.random.default_rng(7)
        for i in range(n):
            oid = f"o{i}"
            service.register_object(oid)
            x, y = rng.uniform(0.0, 4000.0, size=2)
            service.receive_update(
                oid, make_message(position=(float(x), float(y)), velocity=(0.0, 0.0)), 0.0
            )
        return service

    def test_gathered_queries_share_one_flush(self):
        async def go():
            service = self._populated_service()
            server = LiveLocationServer(service, obs=Observability())
            requests = [
                ("nearest", {"t": 0.0, "point": [100.0 * i, 50.0 * i], "k": 3})
                for i in range(6)
            ]
            responses = await asyncio.gather(
                *[server._handle_query(op, dict(req)) for op, req in requests]
            )
            assert all(r["ok"] for r in responses)
            seqs = {r["at_seq"] for r in responses}
            assert seqs == {0}  # one applied_seq read for the whole batch
            snap = server.obs.registry.snapshot()
            hist = snap["live.query.batch_size"]
            assert hist["count"] == 1  # six queries, a single flush
            assert hist["max"] == 6.0
            return responses

        asyncio.run(go())

    def test_coalesced_answers_match_direct_facade(self):
        from repro.service.live.protocol import decode_answer as _decode

        async def go():
            service = self._populated_service()
            mirror = self._populated_service()
            server = LiveLocationServer(service)
            requests = [
                ("nearest", {"t": 0.0, "point": [500.0, 500.0], "k": 4}),
                ("range", {"t": 0.0, "box": [0.0, 0.0, 2000.0, 2000.0]}),
                ("geofence", {"t": 0.0, "point": [1500.0, 1500.0], "radius": 900.0}),
            ]
            responses = await asyncio.gather(
                *[server._handle_query(op, dict(req)) for op, req in requests]
            )
            expected = [
                mirror.nearest_objects((500.0, 500.0), 0.0, k=4),
                mirror.range_query(BoundingBox(0.0, 0.0, 2000.0, 2000.0), 0.0),
                mirror.geofence_query((1500.0, 1500.0), 900.0, 0.0),
            ]
            for (op, _), response, want in zip(requests, responses, expected):
                assert response["ok"]
                assert _decode(op, response["answer"]) == want

        asyncio.run(go())

    def test_bad_query_in_batch_does_not_poison_the_rest(self):
        async def go():
            service = self._populated_service()
            server = LiveLocationServer(service)
            good = ("nearest", {"t": 0.0, "point": [100.0, 100.0], "k": 2})
            bad = ("geofence", {"t": 0.0, "point": [100.0, 100.0]})  # no radius
            responses = await asyncio.gather(
                server._handle_query(*good),
                server._handle_query(*bad),
                server._handle_query(*good),
            )
            assert responses[0]["ok"] and responses[2]["ok"]
            assert responses[0] == responses[2]
            assert responses[1]["ok"] is False
            assert "error" in responses[1]

        asyncio.run(go())


class TestLiveRebalance:
    """The rebalance hook runs between ingest batches under live traffic."""

    @staticmethod
    def _skewed_pair():
        """Two identical skewed services (one gets rebalanced, one never)."""
        from repro.service.sharding import RebalancePolicy

        def build():
            service = LocationService(n_shards=3, region_size=100.0)
            hot_cells = []
            for cx in range(40):
                for cy in range(40):
                    if service.policy.hash_shard_for_cell((cx, cy)) == 0:
                        hot_cells.append((cx, cy))
                        if len(hot_cells) == 4:
                            break
                if len(hot_cells) == 4:
                    break
            counts = (30, 20, 14, 8)
            for j, (cell, count) in enumerate(zip(hot_cells, counts)):
                for i in range(count):
                    oid = f"hot{j}-{i}"
                    x = (cell[0] + 0.1 + 0.8 * (i % 7) / 7.0) * 100.0
                    y = (cell[1] + 0.1 + 0.8 * (i // 7 % 7) / 7.0) * 100.0
                    service.register_object(oid)
                    service.receive_update(
                        oid, make_message(position=(x, y), velocity=(0.0, 0.0)), 0.0
                    )
            return service

        return build(), build(), RebalancePolicy(skew_threshold=1.4, min_objects=16)

    def test_rebalance_fires_under_live_ingest_and_answers_unchanged(self):
        async def go():
            service, mirror, policy = self._skewed_pair()
            server = LiveLocationServer(service, rebalance=policy)
            host, port = await server.start()
            try:
                async with await LiveClient.connect(host, port) as client:
                    batch = [
                        ("hot0-0", make_message(sequence=1, time=1.0,
                                                position=(20.0, 20.0),
                                                velocity=(0.0, 0.0)))
                    ]
                    response = await client.ingest(1.0, batch)
                    mirror.ingest_batch(batch, 1.0)
                    answer, at_seq = await client.nearest_objects(
                        (150.0, 150.0), 1.0, k=6, min_seq=response["seq"]
                    )
                    assert at_seq >= response["seq"]
                    assert server.rebalance_passes >= 1
                    assert policy.objects_moved > 0
                    # Placement changed, answers did not: the never-rebalanced
                    # mirror gives bit-identical results.
                    assert answer == mirror.nearest_objects((150.0, 150.0), 1.0, k=6)
                    fence, _ = await client.geofence_query(
                        (150.0, 150.0), 400.0, 1.0, min_seq=response["seq"]
                    )
                    assert fence == mirror.geofence_query((150.0, 150.0), 400.0, 1.0)
                    stats = await client.request({"op": "stats"})
                    assert stats["server"]["rebalance_passes"] == server.rebalance_passes
                    report = stats["server"]["rebalance"]
                    assert report is not None
                    assert report["skew_after"] < report["skew_before"]
                    # The skew actually fell below the trigger threshold.
                    imbalance = stats["service"]["load_imbalance"]
                    assert imbalance < 1.4
            finally:
                await server.stop()

        asyncio.run(go())
