"""The discrete-event kernel: determinism, equivalence, timers, arrivals.

The load-bearing contract is **degenerate-schedule equivalence**: when every
lane shares the tick rate and channel latency is a tick multiple, the event
kernel must produce bit-identical updates, error metrics, channel statistics
and service statistics to the classic tick loop — kept as an independent
oracle in :mod:`reference.tick_loop` and compared here over the whole
scenario library.  On top of that sit the capabilities a tick loop lacks:
exact channel delivery instants (``max_queue_delay == 0``), protocol timers
firing at exact deadlines, per-message keyed channel loss (identical on
both loops), per-lane sampling rates, Poisson query arrivals and periodic
shard-handoff maintenance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.library import FleetMix, fleet_lanes, scenario_names
from repro.mobility.generator import resample_scenario
from repro.protocols.adaptive import DisconnectionDetectionDeadReckoning
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import TimeBasedReporting
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation, run_simulation
from repro.sim.kernel import DELIVERY, QUERY, SAMPLE, TIMER, EventKernel
from repro.sim.runner import ScenarioSpec, auto_region_size
from repro.sim.workload import QueryWorkload
from repro.traces.trace import Trace

from reference.tick_loop import TickLoopFleet

#: Small per-scenario scales (mirrors the golden suite, so the per-process
#: scenario cache is shared between the two test modules).
SCALES = {"freeway": 0.05, "interurban": 0.08, "city": 0.07, "walking": 0.15}
DEFAULT_SCALE = 0.15

LIBRARY_NAMES = scenario_names()


def _scenario(name: str):
    return ScenarioSpec(name=name, scale=SCALES.get(name, DEFAULT_SCALE)).build()


def _protocol(scenario, protocol_id: str, accuracy: float = 100.0):
    return SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(
        scenario
    )


def _fleet(lanes, kernel: str, **kwargs):
    """The fleet under test (``"event"``) or the tick-loop oracle (``"tick"``)."""
    cls = TickLoopFleet if kernel == "tick" else FleetSimulation
    return cls(lanes, **kwargs)


def _run(scenario, protocol_id: str, kernel: str, channel=None):
    if kernel == "event":
        return run_simulation(
            _protocol(scenario, protocol_id),
            scenario.sensor_trace,
            scenario.true_trace,
            channel,
        )
    lane = FleetLane(
        "object-0",
        _protocol(scenario, protocol_id),
        scenario.sensor_trace,
        scenario.true_trace,
        channel=channel,
    )
    return TickLoopFleet([lane]).run().results["object-0"]


def _straight_trace(n: int = 61, dt: float = 1.0, speed: float = 20.0) -> Trace:
    times = np.arange(n) * dt
    return Trace(times, np.column_stack((times * speed, np.zeros(n))))


class RecordingChannel(MessageChannel):
    """A channel that records every send as ``(send_time, reason)``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sent = []

    def send(self, object_id, message, time):
        self.sent.append((time, message.reason.value))
        super().send(object_id, message, time)


# --------------------------------------------------------------------------- #
# the kernel itself
# --------------------------------------------------------------------------- #
class TestEventKernel:
    def test_orders_by_time_priority_seq(self):
        kern = EventKernel()
        kern.schedule(5.0, DELIVERY, "d@5")
        kern.schedule(5.0, SAMPLE, "s@5-first")
        kern.schedule(2.0, QUERY, "q@2")
        kern.schedule(5.0, SAMPLE, "s@5-second")
        kern.schedule(5.0, TIMER, "t@5")
        order = [kern.pop()[3] for _ in range(len(kern))]
        assert order == ["q@2", "s@5-first", "s@5-second", "t@5", "d@5"]

    def test_drain_instant_includes_same_instant_reschedules(self):
        kern = EventKernel()
        kern.schedule(1.0, SAMPLE, "a")
        kern.schedule(2.0, SAMPLE, "later")
        seen = []
        for _t, _prio, _seq, payload in kern.drain_instant():
            seen.append(payload)
            if payload == "a":
                # A handler scheduling at the instant being drained (e.g. a
                # zero-latency delivery) is picked up by the same drain.
                kern.schedule(1.0, DELIVERY, "b")
        assert seen == ["a", "b"]
        assert len(kern) == 1


# --------------------------------------------------------------------------- #
# degenerate-schedule equivalence: event == tick, bit for bit
# --------------------------------------------------------------------------- #
class TestKernelEquivalence:
    @pytest.mark.parametrize("name", LIBRARY_NAMES)
    def test_event_equals_tick_on_every_library_scenario(self, name):
        """Updates, bytes, reasons and every error sample are identical."""
        scenario = _scenario(name)
        for protocol_id in ("distance", "linear", "map"):
            tick = _run(scenario, protocol_id, "tick")
            event = _run(scenario, protocol_id, "event")
            assert tick.as_dict() == event.as_dict(), (name, protocol_id)
            assert np.array_equal(tick.metrics.errors, event.metrics.errors)

    def test_fleet_with_latency_and_loss_channel_is_identical(self):
        """Tick-aligned latency + seeded loss: results *and* channel stats."""
        outcomes = {}
        for kernel in ("tick", "event"):
            channel = MessageChannel(latency=3.0, loss_probability=0.15, seed=11)
            lanes = fleet_lanes(
                [FleetMix("city", "linear", 100.0, 3), FleetMix("walking", "distance", 80.0, 2)],
                scale=SCALES["city"],
            )
            fleet = _fleet(lanes, kernel, channel=channel).run()
            outcomes[kernel] = (
                {oid: r.as_dict() for oid, r in fleet.results.items()},
                channel.stats,
            )
        assert outcomes["tick"][0] == outcomes["event"][0]
        assert outcomes["tick"][1] == outcomes["event"][1]
        assert outcomes["tick"][1].messages_lost > 0
        assert outcomes["tick"][1].max_queue_delay == 0.0

    def test_sharded_service_stats_are_identical(self):
        outcomes = {}
        for kernel in ("tick", "event"):
            lanes = fleet_lanes([FleetMix("city", "linear", 100.0, 4)], scale=SCALES["city"])
            service = LocationService(n_shards=3, region_size=auto_region_size(lanes, 3))
            fleet = _fleet(lanes, kernel, server=service).run()
            stats = dict(fleet.service_stats)
            stats.pop("query_seconds")
            stats.pop("mean_query_seconds")
            outcomes[kernel] = ({oid: r.as_dict() for oid, r in fleet.results.items()}, stats)
        assert outcomes["tick"] == outcomes["event"]

    def test_per_tick_workload_replay_is_identical(self):
        reports = {}
        for kernel in ("tick", "event"):
            lanes = fleet_lanes([FleetMix("city", "linear", 100.0, 3)], scale=SCALES["city"])
            fleet = _fleet(
                lanes,
                kernel,
                server=LocationService(),
                query_workload=QueryWorkload(queries_per_tick=0.5, seed=3),
            ).run()
            report = fleet.workload.as_dict()
            report.pop("query_seconds")
            report.pop("mean_query_us")
            report.pop("queries_per_second")
            reports[kernel] = report
        assert reports["tick"] == reports["event"]
        assert reports["tick"]["queries"] > 0


# --------------------------------------------------------------------------- #
# mixed-rate fleets: exact delivery beats tick quantisation
# --------------------------------------------------------------------------- #
class TestMixedRateFleet:
    def _mixed_lanes(self):
        """1 Hz city cars beside 0.2 Hz mixed-rate cars, phase-shifted."""
        fast = _scenario("rush_hour_city")
        slow = _scenario("mixed_rate_city")
        lanes = []
        for n in range(3):
            protocol = _protocol(fast, "distance")
            lanes.append(FleetLane(f"fast/{n}", protocol, fast.sensor_trace, fast.true_trace))
        for n in range(3):
            protocol = _protocol(slow, "distance")
            # Phase-shift the low-rate trackers off the 1 s grid so their
            # sightings (and deliveries) fall between ticks.
            shifted = Trace(
                slow.sensor_trace.times + 0.25 * (n + 1),
                slow.sensor_trace.positions,
            )
            truth = Trace(
                slow.true_trace.times + 0.25 * (n + 1), slow.true_trace.positions
            )
            lanes.append(FleetLane(f"slow/{n}", protocol, shifted, truth))
        return lanes

    def test_results_match_and_event_delivery_is_exact(self):
        """Same updates and errors as the tick-loop oracle; only the tick
        loop shows queue-delay quantisation on a non-aligned latency."""
        outcomes = {}
        for kernel in ("tick", "event"):
            channel = MessageChannel(latency=7.3)
            fleet = _fleet(self._mixed_lanes(), kernel, channel=channel).run()
            outcomes[kernel] = (
                {oid: r.as_dict() for oid, r in fleet.results.items()},
                channel.stats,
            )
        assert outcomes["tick"][0] == outcomes["event"][0]
        tick_stats, event_stats = outcomes["tick"][1], outcomes["event"][1]
        assert tick_stats.messages_delivered == event_stats.messages_delivered
        assert tick_stats.max_queue_delay > 0.0
        assert event_stats.max_queue_delay == 0.0


# --------------------------------------------------------------------------- #
# protocol timer contracts
# --------------------------------------------------------------------------- #
class TestProtocolTimers:
    def test_time_based_reporting_fires_at_exact_deadlines(self):
        """Under the event kernel reports go out at exactly t0 + k·interval
        even though no sighting falls on those instants."""
        trace = _straight_trace(n=61)  # 1 Hz sightings
        channel = RecordingChannel()
        protocol = TimeBasedReporting(accuracy=100.0, interval=7.5)
        FleetSimulation(
            [FleetLane("x", protocol, trace, channel=channel)]
        ).run()
        timer_sends = [t for t, reason in channel.sent if reason == "timer"]
        assert timer_sends == [7.5 * k for k in range(1, 9)]

    def test_non_representable_interval_terminates_and_fires_exactly(self):
        """Regression: a for_speed()-style interval whose float rounding
        makes ``(last + interval) - last < interval`` must not wedge the
        kernel in a refire loop — the staleness check compares against the
        scheduled deadline itself, never a re-derived difference."""
        interval = 3.597122302158273  # 500 m / 139 m/s — not representable
        times = np.arange(3) * 1.0 + 0.406
        trace = Trace(times, np.column_stack((times * 20.0, np.zeros(3))))
        channel = RecordingChannel()
        protocol = TimeBasedReporting(accuracy=500.0, interval=interval)
        FleetSimulation(
            [FleetLane("x", protocol, trace, channel=channel)]
        ).run()  # must terminate
        assert [t for t, r in channel.sent] == [0.406]  # trace ends before t0+interval
        longer = np.arange(10) * 1.0 + 0.406
        trace = Trace(longer, np.column_stack((longer * 20.0, np.zeros(10))))
        channel = RecordingChannel()
        protocol = TimeBasedReporting(accuracy=500.0, interval=interval)
        FleetSimulation(
            [FleetLane("x", protocol, trace, channel=channel)]
        ).run()
        first = 0.406 + interval
        assert [t for t, r in channel.sent] == [0.406, first, first + interval]

    def test_time_based_aligned_interval_is_kernel_identical(self):
        """A tick-multiple interval is the degenerate case: identical."""
        sends = {}
        for kernel in ("tick", "event"):
            trace = _straight_trace(n=61)
            channel = RecordingChannel()
            protocol = TimeBasedReporting(accuracy=100.0, interval=6.0)
            _fleet([FleetLane("x", protocol, trace, channel=channel)], kernel).run()
            sends[kernel] = channel.sent
        assert sends["tick"] == sends["event"]

    def test_dtdr_declares_disconnection_at_exact_timeout(self):
        # A stationary object never violates the threshold, so the only
        # signal is the silence itself.
        times = np.arange(0.0, 41.0)
        trace = Trace(times, np.zeros((41, 2)))
        exact = DisconnectionDetectionDeadReckoning(
            initial_threshold=50.0, disconnect_timeout=12.5
        )
        FleetSimulation([FleetLane("x", exact, trace)]).run()
        assert exact.disconnection_times == [12.5]
        assert exact.disconnected
        polled = DisconnectionDetectionDeadReckoning(
            initial_threshold=50.0, disconnect_timeout=12.5
        )
        TickLoopFleet([FleetLane("x", polled, trace)]).run()
        assert polled.disconnection_times == [13.0]  # polled: first sighting past it

    def test_dtdr_update_clears_disconnection_state(self):
        protocol = DisconnectionDetectionDeadReckoning(
            initial_threshold=5.0, disconnect_timeout=100.0
        )
        trace = _straight_trace(n=31)  # moves fast: threshold updates fire
        FleetSimulation([FleetLane("x", protocol, trace)]).run()
        assert protocol.disconnection_times == []
        assert not protocol.disconnected

    def test_declining_protocol_with_sticky_deadline_terminates(self):
        """Progress guard: a protocol that declines every timer fire while
        never moving its deadline must not wedge the kernel at one instant."""

        class StickyDeadline(LinearPredictionProtocol):
            def next_deadline(self):
                if self.last_reported is None:
                    return None
                return self.last_reported.time + 2.5

            def on_timer(self, time):
                return None  # always declines; deadline stays put

        protocol = StickyDeadline(1000.0)  # threshold never trips
        result = FleetSimulation(
            [FleetLane("x", protocol, _straight_trace(n=21))]
        ).run()  # must terminate
        assert result.results["x"].updates == 1  # just the initial report

    def test_dtdr_without_timeout_has_no_timer(self):
        protocol = DisconnectionDetectionDeadReckoning(initial_threshold=50.0)
        assert protocol.next_deadline() is None
        result = FleetSimulation(
            [FleetLane("x", protocol, _straight_trace())]
        ).run()
        assert protocol.disconnection_times == []
        assert result.results["x"].updates > 0


# --------------------------------------------------------------------------- #
# channel loss: keyed per message, reproducible across kernels
# --------------------------------------------------------------------------- #
class TestKeyedLoss:
    def test_seeded_loss_pattern_is_kernel_invariant(self):
        lost = {}
        for kernel in ("tick", "event"):
            channel = RecordingChannel(latency=2.0, loss_probability=0.3, seed=21)
            scenario = _scenario("city")
            protocol = _protocol(scenario, "distance")
            lane = FleetLane("x", protocol, scenario.sensor_trace, scenario.true_trace)
            _fleet([lane], kernel, channel=channel).run()
            lost[kernel] = (channel.stats.messages_sent, channel.stats.messages_lost)
        assert lost["tick"] == lost["event"]
        assert lost["tick"][1] > 0

    def test_seeded_loss_is_independent_of_send_interleaving(self):
        """The same (object, sequence) messages meet the same fate no
        matter what other traffic shares the channel."""
        from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason

        def message(seq):
            state = ObjectState(time=float(seq), position=(0.0, 0.0),
                                velocity=(0.0, 0.0), speed=0.0)
            return UpdateMessage(sequence=seq, state=state, reason=UpdateReason.THRESHOLD)

        alone = MessageChannel(loss_probability=0.4, seed=7)
        for seq in range(50):
            alone.send("a", message(seq), float(seq))
        fate_alone = alone.stats.messages_lost

        crowded = MessageChannel(loss_probability=0.4, seed=7)
        for seq in range(50):
            crowded.send("noise", message(seq), float(seq))
            crowded.send("a", message(seq), float(seq))
        # Count object "a"'s losses by replaying the keyed decision.
        only_a = MessageChannel(loss_probability=0.4, seed=7)
        for seq in range(50):
            only_a.send("a", message(seq), float(seq))
        assert only_a.stats.messages_lost == fate_alone

    def test_unseeded_channel_keeps_stream_draws(self):
        channel = MessageChannel(loss_probability=0.5)
        assert channel.stats.messages_lost == 0  # nothing sent, just constructs


# --------------------------------------------------------------------------- #
# per-lane sampling rates
# --------------------------------------------------------------------------- #
class TestSampleInterval:
    def test_generated_scenario_sampling_grid(self):
        scenario = _scenario("low_power_tracker")
        assert np.allclose(np.diff(scenario.sensor_trace.times), 20.0)
        assert np.allclose(scenario.true_trace.times, scenario.sensor_trace.times)
        assert len(scenario.journey.link_ids) == len(scenario.true_trace)

    def test_scenario_spec_decimation_matches_native_samples(self):
        base = ScenarioSpec(name="city", scale=SCALES["city"]).build()
        thin = ScenarioSpec(
            name="city", scale=SCALES["city"], sample_interval=5.0
        ).build()
        assert np.array_equal(thin.sensor_trace.times, base.sensor_trace.times[::5])
        assert np.array_equal(thin.sensor_trace.positions, base.sensor_trace.positions[::5])
        assert np.array_equal(thin.true_trace.positions, base.true_trace.positions[::5])

    def test_sample_interval_is_part_of_the_cache_key(self):
        a = ScenarioSpec(name="city", scale=SCALES["city"])
        b = ScenarioSpec(name="city", scale=SCALES["city"], sample_interval=5.0)
        assert a != b
        assert a.build() is not b.build()
        assert b.build() is b.build()  # cached

    def test_non_multiple_interval_is_rejected(self):
        scenario = ScenarioSpec(name="city", scale=SCALES["city"]).build()
        with pytest.raises(ValueError, match="not a multiple"):
            resample_scenario(scenario, 2.5)

    def test_unit_interval_is_a_noop(self):
        scenario = ScenarioSpec(name="city", scale=SCALES["city"]).build()
        assert resample_scenario(scenario, 1.0) is scenario


# --------------------------------------------------------------------------- #
# Poisson query arrivals
# --------------------------------------------------------------------------- #
class TestPoissonArrivals:
    def _lanes(self):
        return fleet_lanes([FleetMix("city", "linear", 100.0, 3)], scale=SCALES["city"])

    def test_arrivals_are_deterministic_and_close_to_rate(self):
        counts = []
        answers = []
        for _ in range(2):
            fleet = FleetSimulation(
                self._lanes(),
                server=LocationService(),
                query_workload=QueryWorkload(arrival_rate_per_s=0.3, seed=17),
                record_query_answers=True,
            )
            result = fleet.run()
            counts.append(result.workload.queries)
            answers.append(fleet.workload_executor.answers)
        assert counts[0] == counts[1] > 0
        assert answers[0] == answers[1]
        duration = self._lanes()[0].sensor_trace.duration
        expected = 0.3 * duration
        assert 0.5 * expected <= counts[0] <= 1.7 * expected

    def test_report_counts_sample_instants_as_ticks(self):
        fleet = FleetSimulation(
            self._lanes(),
            server=LocationService(),
            query_workload=QueryWorkload(arrival_rate_per_s=0.3, seed=17),
        )
        result = fleet.run()
        # One tick per distinct sample instant, not a misleading zero.
        assert result.workload.ticks == len(self._lanes()[0].sensor_trace.times)

    def test_workload_does_not_change_simulation_results(self):
        with_queries = FleetSimulation(
            self._lanes(),
            server=LocationService(),
            query_workload=QueryWorkload(arrival_rate_per_s=0.5, seed=1),
        ).run()
        without = FleetSimulation(self._lanes(), server=LocationService()).run()
        assert {o: r.as_dict() for o, r in with_queries.results.items()} == {
            o: r.as_dict() for o, r in without.results.items()
        }

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="arrival_rate_per_s"):
            QueryWorkload(arrival_rate_per_s=0.0)


# --------------------------------------------------------------------------- #
# shard-handoff maintenance events
# --------------------------------------------------------------------------- #
class TestHandoffEvents:
    def _fleet(self, **kwargs):
        lanes = fleet_lanes([FleetMix("city", "linear", 100.0, 4)], scale=SCALES["city"])
        service = LocationService(n_shards=3, region_size=auto_region_size(lanes, 3))
        return FleetSimulation(lanes, server=service, **kwargs)

    def test_requires_shardable_backend(self):
        with pytest.raises(ValueError, match="rebalance"):
            FleetSimulation(
                [FleetLane("x", LinearPredictionProtocol(100.0), _straight_trace())],
                handoff_interval=30.0,
            )

    def test_maintenance_never_changes_results(self):
        plain = self._fleet().run()
        swept = self._fleet(handoff_interval=20.0).run()
        assert {o: r.as_dict() for o, r in plain.results.items()} == {
            o: r.as_dict() for o, r in swept.results.items()
        }
        # The sweeps can only add handoffs, never remove any.
        assert swept.service_stats["handoffs"] >= plain.service_stats["handoffs"]


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestKernelCli:
    def test_simulate_kernel_event(self, capsys):
        from repro.cli import main

        assert main([
            "--json", "simulate", "--scenario", "city", "--protocol", "linear",
            "--accuracy", "100", "--scale", "0.07",
        ]) == 0
        out = capsys.readouterr().out
        assert '"updates"' in out

    def test_fleet_kernel_event(self, capsys):
        from repro.cli import main

        assert main([
            "--json", "fleet", "--mix", "city:linear:100:2",
            "--scale", "0.07",
        ]) == 0
        assert '"updates_per_object_hour"' in capsys.readouterr().out

    def test_query_bench_poisson_kernel(self, capsys):
        from repro.cli import main

        assert main([
            "--json", "query-bench", "--scenario", "poisson_queries_freeway",
            "--count", "3", "--shards", "2", "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert '"kernel"' not in out
        assert '"arrival_rate_per_s": 0.5' in out

    def test_kernel_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "simulate", "--scenario", "city", "--protocol", "linear",
                "--accuracy", "100", "--kernel", "event",
            ])
        assert "--kernel" in capsys.readouterr().err
