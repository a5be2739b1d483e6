"""Columnar (struct-of-arrays) mega-fleet engine.

At 100k tracked objects the per-object representation of the fleet loop —
one protocol instance, one estimator deque, one server record each — spends
its time on attribute access and allocation.  This module keeps the whole
fleet's hot state in contiguous NumPy columns instead:

* :class:`ColumnarStore` — one array per field (current position, last
  reported position/velocity/time, thresholds, per-object message sequence
  counters, update/byte totals).
* :class:`ColumnarFleetEngine` — a vectorised simulation loop over that
  store whose arithmetic matches the scalar protocol/server code operation
  for operation, so its results are **bitwise identical** to
  :class:`~repro.sim.fleet.FleetSimulation` (asserted by the test-suite on
  library fleets).

The engine covers the *homogeneous mega-fleet* shape: every lane on one
shared sampling grid, a threshold protocol with static or linear
prediction (:class:`~repro.protocols.reporting.DistanceBasedReporting` or
:class:`~repro.protocols.linear.LinearPredictionProtocol`), and the
default loss-free zero-latency channel.  Anything richer — per-lane
channels, latency/loss, timers, map prediction, query workloads — stays on
the general fleet loop (use :meth:`ColumnarFleetEngine.ineligibility` to
ask why a fleet does not qualify).  Per-lane accuracies, sensor
uncertainties and separate truth traces are fully supported: they are
per-object *columns*, not code paths.

Why bitwise equality is achievable: the scalar trigger is
``sqrt(dx*dx + dy*dy) + up > us`` on float64 scalars, and NumPy performs
the same IEEE-754 operations elementwise; the batched speed/heading
estimator reduces each window along the last axis exactly like the
per-lane :func:`~repro.traces.estimation.estimate_trace` (itself proven
bitwise equal to the streaming estimator).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import DistanceBasedReporting
from repro.protocols.base import _BASE_UPDATE_BYTES, UpdateReason
from repro.sim.metrics import AccuracyMetrics, SimulationResult

#: Prediction modes the vectorised loop implements.
STATIC, LINEAR = "static", "linear"

#: Lanes per chunk of the batched estimator: bounds the sliding-window
#: temporaries to ~100 MB at typical trace lengths while keeping the NumPy
#: call overhead amortised.
_ESTIMATE_CHUNK = 4096


def estimate_traces(
    times: np.ndarray, positions: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window speed/heading estimates for N lanes sharing one grid.

    ``positions`` has shape ``(n_lanes, n_samples, 2)``; returns
    ``(velocities, speeds)`` of shapes ``(n_lanes, n_samples, 2)`` and
    ``(n_lanes, n_samples)``.  Row ``k`` is bitwise identical to
    ``estimate_trace(times, positions[k], window)`` — the reductions run
    over the last (window) axis in the same order, and the shared time grid
    makes the centred-time factors literally the same floats — which is
    what lets the columnar engine reuse the scalar protocols' equivalence
    proof.  Lanes are processed in fixed-size chunks so the windowed
    temporaries stay bounded at mega-fleet widths.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    n_lanes, n = positions.shape[0], positions.shape[1]
    velocities = np.zeros((n_lanes, n, 2))
    speeds = np.zeros((n_lanes, n))
    if n < 2:
        return velocities, speeds
    w = int(window)
    # Ramp-up: growing prefix windows of size 2 .. w - 1, one vectorised
    # pass per prefix length across all lanes.  The time factors are
    # scalars shared by every lane (one common grid), computed exactly as
    # estimate_velocity computes them.
    for i in range(1, min(w - 1, n)):
        t = times[: i + 1]
        t_rel = t - t[-1]
        t_mean = t_rel.mean()
        t_centered = t_rel - t_mean
        denom = float((t_centered * t_centered).sum())
        if denom == 0.0:
            continue
        # ascontiguousarray keeps the per-row reductions on the same pairwise
        # summation path as the scalar estimator's contiguous prefixes.
        x = np.ascontiguousarray(positions[:, : i + 1, 0])
        y = np.ascontiguousarray(positions[:, : i + 1, 1])
        vx = (t_centered * (x - x.mean(axis=1, keepdims=True))).sum(axis=1) / denom
        vy = (t_centered * (y - y.mean(axis=1, keepdims=True))).sum(axis=1) / denom
        velocities[:, i, 0] = vx
        velocities[:, i, 1] = vy
        speeds[:, i] = np.hypot(vx, vy)
    if n < w:
        return velocities, speeds
    from numpy.lib.stride_tricks import sliding_window_view

    tw = np.ascontiguousarray(sliding_window_view(times, w))
    t_rel = tw - tw[:, -1:]
    t_centered = t_rel - t_rel.mean(axis=1, keepdims=True)
    denom = (t_centered * t_centered).sum(axis=1)
    ok = denom != 0.0
    denom_safe = np.where(ok, denom, 1.0)
    for lo in range(0, n_lanes, _ESTIMATE_CHUNK):
        hi = min(lo + _ESTIMATE_CHUNK, n_lanes)
        xw = np.ascontiguousarray(
            sliding_window_view(positions[lo:hi, :, 0], w, axis=1)
        )
        yw = np.ascontiguousarray(
            sliding_window_view(positions[lo:hi, :, 1], w, axis=1)
        )
        vx = (t_centered * (xw - xw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
        vy = (t_centered * (yw - yw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
        vx = np.where(ok, vx, 0.0)
        vy = np.where(ok, vy, 0.0)
        velocities[lo:hi, w - 1 :, 0] = vx
        velocities[lo:hi, w - 1 :, 1] = vy
        speeds[lo:hi, w - 1 :] = np.hypot(vx, vy)
    return velocities, speeds


class ColumnarStore:
    """Struct-of-arrays state for N tracked objects.

    One contiguous column per field instead of N Python objects: current
    position, last *reported* position / velocity / time (the protocol's
    ``or`` and, with a zero-latency loss-free channel, also the server's
    record), the per-object protocol thresholds ``us`` / ``up``, per-object
    message sequence counters (the channel's keyed-loss counter), and the
    update/byte totals.
    """

    __slots__ = (
        "n", "object_ids", "position", "reported_position",
        "reported_velocity", "reported_time", "accuracy",
        "sensor_uncertainty", "sequence", "updates", "bytes_sent",
        "has_report",
    )

    def __init__(
        self,
        object_ids: Sequence[str],
        accuracy,
        sensor_uncertainty,
    ):
        n = len(object_ids)
        if n == 0:
            raise ValueError("a columnar store needs at least one object")
        self.n = n
        self.object_ids = list(object_ids)
        if len(set(self.object_ids)) != n:
            raise ValueError("object ids must be unique")
        self.accuracy = np.broadcast_to(
            np.asarray(accuracy, dtype=float), (n,)
        ).copy()
        self.sensor_uncertainty = np.broadcast_to(
            np.asarray(sensor_uncertainty, dtype=float), (n,)
        ).copy()
        if np.any(self.accuracy <= 0):
            raise ValueError("accuracy (us) must be positive")
        if np.any(self.sensor_uncertainty < 0):
            raise ValueError("sensor_uncertainty (up) must be non-negative")
        self.position = np.zeros((n, 2))
        self.reported_position = np.zeros((n, 2))
        self.reported_velocity = np.zeros((n, 2))
        self.reported_time = np.zeros(n)
        self.has_report = np.zeros(n, dtype=bool)
        self.sequence = np.zeros(n, dtype=np.int64)
        self.updates = np.zeros(n, dtype=np.int64)
        self.bytes_sent = np.zeros(n, dtype=np.int64)


class ColumnarFleetEngine:
    """Vectorised fleet simulation over a :class:`ColumnarStore`.

    Parameters
    ----------
    times:
        The shared sampling grid, shape ``(n_samples,)``, strictly
        increasing.
    sensor:
        Sensor positions, shape ``(n_lanes, n_samples, 2)``.
    truth:
        Ground-truth positions of the same shape (pass ``sensor`` itself
        for noise-free fleets).
    mode:
        ``"static"`` (distance-based reporting) or ``"linear"``
        (linear-prediction dead reckoning).
    accuracy / sensor_uncertainty:
        Scalars or per-lane arrays — the protocol columns ``us`` and ``up``.
    estimation_window:
        The speed/heading estimation window shared by the fleet (only
        consulted in ``linear`` mode; static prediction never reads the
        velocity estimate and skips the estimator entirely).
    object_ids:
        Optional explicit ids; default ``obj/<k>``.
    protocol_name:
        Overrides the reported protocol name (defaults to the scalar
        protocol's).
    count_initial_update:
        Same meaning as on :class:`~repro.sim.fleet.FleetSimulation`.
    """

    def __init__(
        self,
        times: np.ndarray,
        sensor: np.ndarray,
        truth: Optional[np.ndarray] = None,
        mode: str = LINEAR,
        accuracy=100.0,
        sensor_uncertainty=0.0,
        estimation_window: int = 4,
        object_ids: Optional[Sequence[str]] = None,
        protocol_name: Optional[str] = None,
        count_initial_update: bool = True,
        obs=None,
    ):
        if mode not in (STATIC, LINEAR):
            raise ValueError(f"mode must be 'static' or 'linear', got {mode!r}")
        self.times = np.asarray(times, dtype=float)
        self.sensor = np.asarray(sensor, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.sensor.ndim != 3 or self.sensor.shape[1:] != (len(self.times), 2):
            raise ValueError(
                f"sensor must have shape (n_lanes, {len(self.times)}, 2), "
                f"got {self.sensor.shape!r}"
            )
        self.truth = self.sensor if truth is None else np.asarray(truth, dtype=float)
        if self.truth.shape != self.sensor.shape:
            raise ValueError("truth must share the sensor array's shape")
        self.mode = mode
        self.estimation_window = int(estimation_window)
        self.count_initial_update = bool(count_initial_update)
        n = self.sensor.shape[0]
        ids = (
            list(object_ids)
            if object_ids is not None
            else [f"obj/{k}" for k in range(n)]
        )
        if len(ids) != n:
            raise ValueError("object_ids must match the sensor array's lane count")
        self.store = ColumnarStore(ids, accuracy, sensor_uncertainty)
        if protocol_name is None:
            protocol_name = (
                DistanceBasedReporting.name if mode == STATIC
                else LinearPredictionProtocol.name
            )
        self.protocol_name = protocol_name
        #: Optional :class:`~repro.obs.Observability`; the run records the
        #: same deterministic ``sim.*`` counters the scalar fleet loop
        #: records (the columnar engine is bit-identical to it, so the
        #: counts agree), plus estimate/loop phase spans.  Aggregate-only:
        #: nothing is recorded per instant, so obs-on overhead is noise.
        self.obs = obs

    # ------------------------------------------------------------------ #
    # lane-based construction and eligibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def ineligibility(lanes, channel=None, server=None, query_workload=None) -> Optional[str]:
        """Why this fleet cannot run columnar — or ``None`` if it can.

        The general fleet loop handles everything; the columnar engine
        handles the homogeneous mega-fleet shape described in the module
        docstring.  The returned string is a human-readable reason
        (first mismatch found).
        """
        lanes = list(lanes)
        if not lanes:
            return "a fleet needs at least one lane"
        if server is not None:
            return "columnar fleets imply the plain in-memory server"
        if query_workload is not None:
            return "query workloads need the general fleet loop"
        first = lanes[0].protocol
        if type(first) not in (DistanceBasedReporting, LinearPredictionProtocol):
            return (
                f"protocol {type(first).__name__} has no columnar decision rule "
                "(supported: DistanceBasedReporting, LinearPredictionProtocol)"
            )
        window = first.estimator.window
        times = lanes[0].sensor_trace.times
        for lane in lanes:
            if type(lane.protocol) is not type(first):
                return "columnar fleets need one protocol class across all lanes"
            if lane.protocol.estimator.window != window:
                return "columnar fleets share one estimation window"
            if lane.channel is not None:
                ch = lane.channel
                if ch.latency != 0.0 or ch.loss_probability != 0.0:
                    return "columnar fleets need loss-free zero-latency channels"
            if not np.array_equal(lane.sensor_trace.times, times):
                return "columnar fleets share one sampling grid"
            truth = lane.truth_trace
            if truth is not None and not np.array_equal(truth.times, times):
                return "sensor and truth traces must share their timestamps"
        if channel is not None and (
            channel.latency != 0.0 or channel.loss_probability != 0.0
        ):
            return "columnar fleets need loss-free zero-latency channels"
        return None

    @classmethod
    def from_lanes(
        cls, lanes, count_initial_update: bool = True, obs=None
    ) -> "ColumnarFleetEngine":
        """Build the engine from :class:`~repro.sim.fleet.FleetLane`\\ s.

        Raises ``ValueError`` with the :meth:`ineligibility` reason when the
        fleet does not fit the columnar shape.
        """
        lanes = list(lanes)
        reason = cls.ineligibility(lanes)
        if reason is not None:
            raise ValueError(f"fleet is not columnar-eligible: {reason}")
        first = lanes[0].protocol
        mode = STATIC if isinstance(first, DistanceBasedReporting) else LINEAR
        times = lanes[0].sensor_trace.times
        sensor = np.stack([lane.sensor_trace.positions for lane in lanes])
        truth = np.stack(
            [
                (lane.truth_trace if lane.truth_trace is not None else lane.sensor_trace).positions
                for lane in lanes
            ]
        )
        return cls(
            times=times,
            sensor=sensor,
            truth=truth,
            mode=mode,
            accuracy=np.array([lane.protocol.accuracy for lane in lanes]),
            sensor_uncertainty=np.array(
                [lane.protocol.sensor_uncertainty for lane in lanes]
            ),
            estimation_window=first.estimator.window,
            object_ids=[lane.object_id for lane in lanes],
            protocol_name=first.name,
            count_initial_update=count_initial_update,
            obs=obs,
        )

    # ------------------------------------------------------------------ #
    # the vectorised loop
    # ------------------------------------------------------------------ #
    def run(self):
        """Execute the simulation; returns a :class:`~repro.sim.fleet.FleetResult`.

        Per sample instant the loop performs the fleet loop's exact sequence
        — decide (threshold on the predicted deviation), transmit+deliver
        (zero latency folds these into the reported-state columns), measure
        (server prediction against truth) — as a handful of whole-fleet
        array operations.
        """
        from repro.sim.fleet import FleetResult  # runtime: fleet imports us too

        store = self.store
        times = self.times
        n, t_count = store.n, len(times)
        linear = self.mode == LINEAR
        obs = self.obs
        estimate_span = None if obs is None else obs.span(
            "columnar.estimate", cat="sim", args={"lanes": n, "samples": t_count}
        )
        if linear:
            velocities, _speeds = estimate_traces(
                times, self.sensor, self.estimation_window
            )
        if estimate_span is not None:
            estimate_span.close()
        loop_span = None if obs is None else obs.span(
            "columnar.loop", cat="sim", args={"lanes": n, "samples": t_count}
        )
        threshold_counts = np.zeros(n, dtype=np.int64)
        errors = np.empty((n, t_count))
        us = store.accuracy
        up = store.sensor_uncertainty
        rep_pos = store.reported_position
        rep_vel = store.reported_velocity
        rep_time = store.reported_time
        sensor = self.sensor
        truth = self.truth
        time_list = times.tolist()
        for i, t in enumerate(time_list):
            pos = sensor[:, i, :]
            if i == 0:
                # INITIAL: the server knows nothing yet — everyone reports.
                rep_pos[:] = pos
                if linear:
                    rep_vel[:] = velocities[:, i, :]
                rep_time[:] = t
            else:
                if linear:
                    dt = t - rep_time
                    pred_x = rep_pos[:, 0] + rep_vel[:, 0] * dt
                    pred_y = rep_pos[:, 1] + rep_vel[:, 1] * dt
                else:
                    pred_x = rep_pos[:, 0]
                    pred_y = rep_pos[:, 1]
                dx = pos[:, 0] - pred_x
                dy = pos[:, 1] - pred_y
                deviation = np.sqrt(dx * dx + dy * dy)
                trig = deviation + up > us
                if trig.any():
                    rep_pos[trig] = pos[trig]
                    if linear:
                        rep_vel[trig] = velocities[trig, i, :]
                    rep_time[trig] = t
                    threshold_counts[trig] += 1
            # Server-side error at this instant: with zero latency the
            # freshly delivered states are already in the reported columns;
            # dt is exactly 0 for just-updated lanes, so the linear
            # prediction reduces to the reported position bit for bit.
            if linear:
                dt = t - rep_time
                srv_x = rep_pos[:, 0] + rep_vel[:, 0] * dt
                srv_y = rep_pos[:, 1] + rep_vel[:, 1] * dt
            else:
                srv_x = rep_pos[:, 0]
                srv_y = rep_pos[:, 1]
            ex = srv_x - truth[:, i, 0]
            ey = srv_y - truth[:, i, 1]
            errors[:, i] = np.sqrt(ex * ex + ey * ey)
        if loop_span is not None:
            loop_span.close()
        store.position[:] = sensor[:, -1, :]
        store.has_report[:] = True
        updates = threshold_counts + 1
        store.sequence[:] = updates
        store.updates[:] = updates
        store.bytes_sent[:] = updates * _BASE_UPDATE_BYTES
        if obs is not None:
            # The same deterministic counters the scalar fleet loop records
            # in _record_lane_metrics — the engines are bit-identical, so
            # the counts agree by construction.
            registry = obs.registry
            registry.counter("sim.lanes").inc(n)
            registry.counter("sim.samples").inc(n * t_count)
            registry.counter("sim.updates_sent").inc(int(updates.sum()))
            registry.counter("sim.bytes_sent").inc(int(store.bytes_sent.sum()))
            registry.counter("sim.error_samples").inc(n * t_count)
            registry.counter("sim.update_reason.initial").inc(n)
            threshold_total = int(threshold_counts.sum())
            if threshold_total:
                registry.counter("sim.update_reason.threshold").inc(threshold_total)
        duration_h = (
            float(times[-1] - times[0]) / 3600.0 if t_count > 1 else 0.0
        )
        counted = updates if self.count_initial_update else updates - 1
        results: Dict[str, SimulationResult] = {}
        threshold_list = threshold_counts.tolist()
        counted_list = counted.tolist()
        bytes_list = store.bytes_sent.tolist()
        us_list = us.tolist()
        for k, object_id in enumerate(store.object_ids):
            metrics = AccuracyMetrics()
            metrics.set_bound(us_list[k])
            metrics.record_batch(errors[k])
            reasons = {UpdateReason.INITIAL.value: 1}
            if threshold_list[k]:
                reasons[UpdateReason.THRESHOLD.value] = threshold_list[k]
            results[object_id] = SimulationResult(
                protocol_name=self.protocol_name,
                accuracy=us_list[k],
                duration_h=duration_h,
                updates=counted_list[k],
                bytes_sent=bytes_list[k],
                metrics=metrics,
                update_reasons=reasons,
            )
        return FleetResult(results=results)

    def channel_stats(self):
        """The shared channel's counters implied by the run (all delivered).

        Matches the :class:`~repro.service.channel.ChannelStats` a default
        fleet channel would have accumulated: zero latency and zero loss
        mean every sent message was delivered in the same instant.
        """
        from repro.service.channel import ChannelStats

        sent = int(self.store.updates.sum())
        size = int(self.store.bytes_sent.sum())
        return ChannelStats(
            messages_sent=sent,
            messages_delivered=sent,
            messages_lost=0,
            bytes_sent=size,
            bytes_delivered=size,
        )

