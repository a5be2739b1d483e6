"""Common machinery shared by all update protocols.

The general dead-reckoning mechanism of the paper (Fig. 1):

* the *source* observes sensor sightings ``(t, position)``;
* it maintains the last *reported* object state ``or`` and predicts the
  position the server currently assumes with the shared prediction function
  ``pred(or, param, t)``;
* when ``Distance(op.pos, pred(or, param, t)) + up > us`` it sends an update
  containing the current object state.

:class:`UpdateProtocol` implements that loop once; concrete protocols
provide the prediction function, the content of the transmitted state and
(for the non-DR baselines) a different trigger condition.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.geo.vec import Vec2, as_vec, distance, norm
from repro.protocols.prediction import PredictionFunction


class UpdateReason(enum.Enum):
    """Why an update message was transmitted."""

    INITIAL = "initial"
    """First sighting: the server knows nothing yet."""

    THRESHOLD = "threshold"
    """The predicted position deviated from the actual one by more than ``us``."""

    TIMER = "timer"
    """Periodic (time-based) update."""

    OFF_MAP = "off_map"
    """The map-based source lost its link and falls back to linear prediction."""

    REACQUIRED = "reacquired"
    """The map-based source found a link again and returns to map prediction."""

    FINAL = "final"
    """Explicit flush at the end of a trace (not counted by the evaluation)."""


@dataclass(frozen=True, slots=True)
class ObjectState:
    """The state of the mobile object as transmitted in an update.

    Mirrors the paper's ``o``: position, speed, direction of movement and a
    timestamp, optionally extended with the current link for the map-based
    protocol (``o.l``) and the offset of the (corrected) position along it.

    Slotted: one instance exists per transmitted update, and the server
    keeps the latest one per tracked object, so the ``__dict__`` saving
    scales with the fleet.
    """

    time: float
    position: np.ndarray
    velocity: np.ndarray
    speed: float
    link_id: Optional[int] = None
    link_offset: Optional[float] = None
    uncertainty: float = 0.0
    acceleration: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_vec(self.position))
        object.__setattr__(self, "velocity", as_vec(self.velocity))
        if self.acceleration is not None:
            object.__setattr__(self, "acceleration", as_vec(self.acceleration))
        if self.speed < 0:
            raise ValueError("speed must be non-negative")

    @property
    def direction(self) -> np.ndarray:
        """Unit direction of movement (zero vector when stationary)."""
        if self.speed == 0.0:
            return np.zeros(2)
        n = norm(self.velocity)
        if n == 0.0:
            return np.zeros(2)
        return self.velocity / n

    def with_link(self, link_id: Optional[int], link_offset: Optional[float]) -> "ObjectState":
        """A copy of the state with different link information."""
        return replace(self, link_id=link_id, link_offset=link_offset)


#: Rough wire sizes in bytes, used for the bandwidth metric: timestamp (8),
#: position (2 x 8), speed (4), direction (4), and optionally a link id (4).
_BASE_UPDATE_BYTES = 8 + 16 + 4 + 4
_LINK_FIELD_BYTES = 4


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """A location update transmitted from the source to the server.

    ``size_bytes``, the approximate payload size, is computed once at
    construction: the sender, the channel's send and its delivery count
    all read it.
    """

    sequence: int
    state: ObjectState
    reason: UpdateReason
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = _BASE_UPDATE_BYTES
        if self.state.link_id is not None:
            size += _LINK_FIELD_BYTES
        object.__setattr__(self, "size_bytes", size)


class UpdateProtocol(abc.ABC):
    """Source-side protocol machine.

    Parameters
    ----------
    accuracy:
        The requested accuracy ``us`` at the server, in metres.
    sensor_uncertainty:
        The sensor uncertainty ``up`` in metres; added to the measured
        deviation before comparing against ``us`` so the guarantee holds for
        the *true* position, as in the paper's pseudo code.
    estimation_window:
        Number of recent sightings used to estimate speed and heading
        (the paper's *n*; see :mod:`repro.traces.estimation`).  The caller
        estimates with it and hands the estimates to :meth:`prepare_trace`
        and :meth:`observe_precomputed`.
    """

    #: Human-readable protocol name used in reports and figures.
    name: str = "abstract"

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        if accuracy <= 0:
            raise ValueError("accuracy (us) must be positive")
        if sensor_uncertainty < 0:
            raise ValueError("sensor_uncertainty (up) must be non-negative")
        if estimation_window < 2:
            raise ValueError("window must be at least 2")
        self.accuracy = float(accuracy)
        self.sensor_uncertainty = float(sensor_uncertainty)
        self.estimation_window = int(estimation_window)
        self._last_reported: Optional[ObjectState] = None
        self._sequence = 0
        self._updates_sent = 0
        self._bytes_sent = 0

    # ------------------------------------------------------------------ #
    # to be provided by concrete protocols
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def prediction_function(self) -> PredictionFunction:
        """The prediction function shared between source and server."""

    @abc.abstractmethod
    def _should_update(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateReason]:
        """Decide whether an update must be sent for this sighting."""

    def _build_state(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> ObjectState:
        """Build the object state transmitted in an update.

        The default sends the raw sensor position; the map-based protocol
        overrides this to send the corrected (map-matched) position and the
        current link.
        """
        return ObjectState(
            time=time,
            position=position,
            velocity=velocity,
            speed=speed,
            uncertainty=self.sensor_uncertainty,
        )

    # ------------------------------------------------------------------ #
    # the common source loop
    # ------------------------------------------------------------------ #
    def prepare_trace(
        self,
        times: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        speeds: np.ndarray,
    ) -> None:
        """Announce the whole trace that :meth:`observe_precomputed` will feed.

        Called once per run, before the first sighting, with the trace's
        times, sensed positions and the estimates of
        :func:`repro.traces.estimation.estimate_trace`.  A protocol whose
        per-sighting work depends only on those inputs (not on the
        accuracy ``us``) can do it here for the whole trace at once; the
        map-based protocol matches the trace onto the map.  The default
        does nothing.
        """

    def observe_precomputed(
        self, time: float, position: Vec2, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateMessage]:
        """Process one sighting; return an update if one must be sent.

        This is the paper's source loop (Fig. 1), once per sighting, and the
        only way a protocol sees one.  The caller computes the
        sliding-window speed/heading estimates over the last
        :attr:`estimation_window` sightings for the whole trace
        (:func:`repro.traces.estimation.estimate_trace`), hands the trace to
        :meth:`prepare_trace` and then feeds its sightings here in order
        (:func:`repro.sim.fleet.trace_updates` does all three).  The
        map-based protocol reads this sighting's map match from the stream
        prepared there.
        """
        p = as_vec(position)
        self._pre_decision_hook(time, p, velocity, speed)
        if self._last_reported is None:
            reason: Optional[UpdateReason] = UpdateReason.INITIAL
        else:
            reason = self._should_update(time, p, velocity, speed)
        if reason is None:
            return None
        return self._emit_update(time, p, velocity, speed, reason)

    def _emit_update(
        self,
        time: float,
        p: np.ndarray,
        velocity: np.ndarray,
        speed: float,
        reason: UpdateReason,
    ) -> UpdateMessage:
        """Build, account and record one update message (shared by the
        sighting path and the timer path)."""
        state = self._build_state(time, p, velocity, speed)
        message = UpdateMessage(sequence=self._sequence, state=state, reason=reason)
        self._sequence += 1
        self._updates_sent += 1
        self._bytes_sent += message.size_bytes
        self._last_reported = state
        self._post_update_hook(message)
        return message

    # ------------------------------------------------------------------ #
    # timer hooks (the fleet's send schedule)
    # ------------------------------------------------------------------ #
    def next_deadline(self) -> Optional[float]:
        """The next instant at which this protocol's timer must fire.

        Protocols whose trigger involves wall-clock time (periodic
        reporting, disconnection timeouts) return the exact deadline; the
        fleet's send schedule (:func:`repro.sim.fleet.lane_updates`) calls
        :meth:`on_timer` when it expires, so the protocol acts at the exact
        instant instead of at the first sighting that happens to be polled
        afterwards.  ``None`` (the default) means no timer is pending.  A
        caller that only feeds sightings to :meth:`observe_precomputed`
        never consults these hooks; the protocol then polls its deadline on
        every sighting.
        """
        return None

    def on_timer(self, time: float) -> Optional[UpdateMessage]:
        """Handle a timer expiry at exactly *time*.

        Returns an update message to transmit, or ``None``.  Called only by
        the fleet's send schedule, and only for deadlines announced via
        :meth:`next_deadline`; implementations must tolerate stale fires
        (a sighting processed at the same instant may already have serviced
        the deadline) by re-checking their trigger condition.  An
        implementation that declines a fire while leaving
        :meth:`next_deadline` unchanged is not re-fired at that instant
        (the schedule guards against spinning); that deadline value is
        treated as spent until the protocol moves it.
        """
        return None

    def _pre_decision_hook(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> None:
        """Hook run before the update decision.

        Per-sighting source state lives here; the map-based protocol reads
        the sighting's row of the match stream :meth:`prepare_trace` built.
        """

    def _post_update_hook(self, message: UpdateMessage) -> None:
        """Hook run after an update has been recorded."""

    # ------------------------------------------------------------------ #
    # helpers available to subclasses
    # ------------------------------------------------------------------ #
    @property
    def last_reported(self) -> Optional[ObjectState]:
        """The last state transmitted to the server (``or`` in the paper)."""
        return self._last_reported

    def predicted_position(self, time: float) -> Optional[np.ndarray]:
        """Where the server currently believes the object to be."""
        if self._last_reported is None:
            return None
        return self.prediction_function().predict(self._last_reported, time)

    def deviation(self, time: float, position: Vec2) -> float:
        """Distance between the actual position and the server's prediction."""
        predicted = self.predicted_position(time)
        if predicted is None:
            return float("inf")
        return distance(as_vec(position), predicted)

    def _threshold_exceeded(self, time: float, position: np.ndarray) -> bool:
        """The paper's trigger: ``Distance(pos, pred(or, t)) + up > us``."""
        return self.deviation(time, position) + self.sensor_uncertainty > self.accuracy

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def updates_sent(self) -> int:
        """Number of updates transmitted so far."""
        return self._updates_sent

    @property
    def bytes_sent(self) -> int:
        """Total payload bytes transmitted so far."""
        return self._bytes_sent

    def reset(self) -> None:
        """Restore the protocol to its initial state (new trace).

        Subclasses rebind (not clear in place) their mutable per-run
        members here: :meth:`clone_for` resets a shallow copy, so the
        rebinding is what gives the clone state of its own.
        """
        self._last_reported = None
        self._sequence = 0
        self._updates_sent = 0
        self._bytes_sent = 0

    def clone_for(self, accuracy: Optional[float] = None) -> "UpdateProtocol":
        """A fresh-state copy of this protocol, optionally with a new accuracy.

        This is the sweep-reuse hook: expensive shared structure (road map,
        routes, prediction geometry) is shared by reference, and
        :meth:`reset` rebinds every mutable per-run member on the clone, so
        cloning never disturbs the prototype — its prepared trace and
        statistics stay exactly as they were.
        """
        import copy

        if accuracy is not None and accuracy <= 0:
            raise ValueError("accuracy (us) must be positive")
        clone = copy.copy(self)
        if accuracy is not None:
            clone.accuracy = float(accuracy)
        clone.reset()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(us={self.accuracy:.0f} m)"
