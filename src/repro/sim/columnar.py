"""Columnar (struct-of-arrays) mega-fleet engine.

At 100k tracked objects the per-object representation of the fleet loop —
one protocol instance, one lane state, one server record each — spends
its time on attribute access and allocation.  This module keeps the whole
fleet's hot state in contiguous NumPy columns instead:

* :class:`ColumnarStore` — one array per field (last reported
  position/velocity/time, thresholds, byte totals).
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
channels, latency/loss, timers, map prediction, a sharded service — stays
on the general fleet loop (use :meth:`ColumnarFleetEngine.ineligibility` to
ask why a fleet does not qualify).  Per-lane accuracies, sensor
uncertainties and separate truth traces are fully supported: they are
per-object *columns*, not code paths.

Why bitwise equality is achievable: the scalar trigger is
``sqrt(dx*dx + dy*dy) + up > us`` on float64 scalars, and NumPy performs
the same IEEE-754 operations elementwise.  The speed and heading a lane
reports matter only at the instants it sends, so the loop estimates them
there alone, with :func:`~repro.traces.estimation.estimate_at` over the
sending lanes' last *window* sightings: that is row for row the sliding
estimate :func:`~repro.traces.estimation.estimate_traces` the fleet loop
runs per lane (proven bitwise equal to estimating sighting by sighting).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.obs import NO_OBS, Observability
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import DistanceBasedReporting
from repro.protocols.base import _BASE_UPDATE_BYTES, UpdateReason
from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.traces.estimation import estimate_at, estimate_traces

# estimate_traces stays importable from here: perfbench/layers.py wraps it
# by name on this module, and tests import it from here.
__all__ = [
    "LINEAR", "STATIC", "ColumnarFleetEngine", "ColumnarStore", "estimate_traces",
]

#: Prediction modes the vectorised loop implements.
STATIC, LINEAR = "static", "linear"

class ColumnarStore:
    """Struct-of-arrays state for N tracked objects.

    One contiguous column per field instead of N Python objects: last
    *reported* position / velocity / time (the protocol's ``or`` and, with a
    zero-latency loss-free channel, also the server's record), the
    per-object protocol thresholds ``us`` / ``up``, and the byte totals.
    """

    __slots__ = (
        "n", "object_ids", "reported_position", "reported_velocity",
        "reported_time", "accuracy", "sensor_uncertainty", "bytes_sent",
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
        self.reported_position = np.zeros((n, 2))
        self.reported_velocity = np.zeros((n, 2))
        self.reported_time = np.zeros(n)
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
        The speed/heading estimation window shared by the fleet.  Only
        ``linear`` mode estimates, and only for the lanes that send at an
        instant; static prediction never reads the velocity estimate.
    object_ids:
        Optional explicit ids; default ``obj/<k>``.
    protocol_name:
        Overrides the reported protocol name (defaults to the scalar
        protocol's).
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
        obs: Observability = NO_OBS,
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
        if mode == LINEAR and self.estimation_window < 2:
            raise ValueError("estimation_window must be at least 2")
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
        #: The :class:`~repro.obs.Observability` bundle; the run records the
        #: same deterministic ``sim.*`` counters the scalar fleet loop
        #: records (the columnar engine is bit-identical to it, so the
        #: counts agree), plus a loop phase span.  Aggregate-only:
        #: nothing is recorded per instant, so obs-on overhead is noise.
        self.obs = obs

    # ------------------------------------------------------------------ #
    # lane-based construction and eligibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def ineligibility(lanes, channel=None, server=None) -> Optional[str]:
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
        first = lanes[0].protocol
        if type(first) not in (DistanceBasedReporting, LinearPredictionProtocol):
            return (
                f"protocol {type(first).__name__} has no columnar decision rule "
                "(supported: DistanceBasedReporting, LinearPredictionProtocol)"
            )
        window = first.estimation_window
        times = lanes[0].sensor_trace.times
        for lane in lanes:
            if type(lane.protocol) is not type(first):
                return "columnar fleets need one protocol class across all lanes"
            if lane.protocol.estimation_window != window:
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
    def from_lanes(cls, lanes, obs: Observability = NO_OBS) -> "ColumnarFleetEngine":
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
            estimation_window=first.estimation_window,
            object_ids=[lane.object_id for lane in lanes],
            protocol_name=first.name,
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
        array operations.  In ``linear`` mode the sending lanes' velocities
        are estimated at that instant from their last *window* sightings.
        """
        from repro.sim.fleet import FleetResult  # runtime: fleet imports us too

        store = self.store
        times = self.times
        n, t_count = store.n, len(times)
        linear = self.mode == LINEAR
        window = self.estimation_window
        obs = self.obs
        loop_span = obs.span(
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
                # One sighting gives no velocity: the estimate's row 0 is 0.
                rep_pos[:] = pos
                rep_vel[:] = 0.0
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
                    sent = np.flatnonzero(trig)
                    rep_pos[sent] = pos[sent]
                    if linear:
                        lo = max(0, i + 1 - window)
                        rep_vel[sent] = estimate_at(
                            times[lo : i + 1], sensor[sent, lo : i + 1], window
                        )
                    rep_time[sent] = t
                    threshold_counts[sent] += 1
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
        loop_span.close()
        updates = threshold_counts + 1
        store.bytes_sent[:] = updates * _BASE_UPDATE_BYTES
        # The same deterministic counters the scalar fleet loop records
        # in _record_lane_metrics — the engines are bit-identical, so
        # the counts agree by construction.
        obs.counter("sim.lanes").inc(n)
        obs.counter("sim.samples").inc(n * t_count)
        obs.counter("sim.updates_sent").inc(int(updates.sum()))
        obs.counter("sim.bytes_sent").inc(int(store.bytes_sent.sum()))
        obs.counter("sim.error_samples").inc(n * t_count)
        obs.counter("sim.update_reason.initial").inc(n)
        threshold_total = int(threshold_counts.sum())
        if threshold_total:
            obs.counter("sim.update_reason.threshold").inc(threshold_total)
        duration_h = (
            float(times[-1] - times[0]) / 3600.0 if t_count > 1 else 0.0
        )
        results: Dict[str, SimulationResult] = {}
        threshold_list = threshold_counts.tolist()
        updates_list = updates.tolist()
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
                updates=updates_list[k],
                bytes_sent=bytes_list[k],
                metrics=metrics,
                update_reasons=reasons,
            )
        return FleetResult(results=results)
