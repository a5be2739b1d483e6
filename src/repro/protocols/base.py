"""Common machinery shared by all update protocols.

The general dead-reckoning mechanism of the paper (Fig. 1):

* the *source* observes sensor sightings ``(t, position)``;
* it maintains the last *reported* object state ``or`` and predicts the
  position the server currently assumes with the shared prediction function
  ``pred(or, param, t)``;
* when ``Distance(op.pos, pred(or, param, t)) + up > us`` it sends an update
  containing the current object state.

:class:`UpdateProtocol` states that trigger once, on arrays: a window
method judges rows of the prepared trace against the last report, and
:func:`repro.sim.fleet.lane_updates` searches it for the first send.
Concrete protocols provide the prediction function, the content of the
transmitted state and (for the non-DR baselines and the Wolfson variants)
a different trigger or a deadline.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec
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
        estimates with it and hands the estimates to :meth:`prepare_trace`.
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
        self._forget_trace()

    # ------------------------------------------------------------------ #
    # to be provided by concrete protocols
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def prediction_function(self) -> PredictionFunction:
        """The prediction function shared between source and server."""

    def _trigger(self, lo: int, hi: int) -> List[Tuple[np.ndarray, UpdateReason]]:
        """The protocol's send rule for rows ``lo..hi`` of the prepared trace.

        Every row is judged against :attr:`last_reported`, as if no update
        had been sent since.  The rule is a list of ``(mask, reason)``
        pairs in priority order: a row sends if any mask holds there, for
        the first reason whose mask does.  The default is the paper's
        trigger ``Distance(pos, pred(or, t)) + up > us`` (:meth:`_exceeds`).
        """
        return [(self._exceeds(lo, hi, self.accuracy), UpdateReason.THRESHOLD)]

    def _exceeds(self, lo: int, hi: int, threshold) -> np.ndarray:
        """Rows ``lo..hi`` whose deviation from the prediction plus ``up``
        exceeds *threshold* (a number or one per row).

        ``sqrt(dx*dx + dy*dy)`` against
        :meth:`~repro.protocols.prediction.PredictionFunction.predict_many`
        of the last report: the IEEE operations of
        :func:`~repro.geo.vec.distance` and ``predict``, in their order.
        """
        d = self._positions[lo:hi] - self.prediction_function().predict_many(
            self._last_reported, self._times[lo:hi]
        )
        d *= d
        return np.sqrt(d[:, 0] + d[:, 1]) + self.sensor_uncertainty > threshold

    def _build_state(self, time: float, row: int) -> ObjectState:
        """Build the object state an update sent at *time* transmits.

        *row* is the sighting of the prepared trace the update reports.
        The default sends the raw sensor position; the map-based protocol
        sends the corrected (map-matched) position and the current link.
        """
        return ObjectState(
            time=time,
            position=self._positions[row],
            velocity=self._velocities[row],
            speed=float(self._speeds[row]),
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
        """Hand the protocol the trace whose sends it decides.

        Called once per run with the trace's times, sensed positions and
        the estimates of :func:`repro.traces.estimation.estimate_trace`.
        :meth:`_trigger` judges rows of these arrays, and a protocol whose
        rule needs more per-row inputs derives them here (the map-based
        protocol matches the trace onto the map).
        """
        self._forget_trace()
        self._times = np.asarray(times, dtype=float)
        self._positions = np.asarray(positions, dtype=float)
        self._velocities = np.asarray(velocities, dtype=float)
        self._speeds = np.asarray(speeds, dtype=float)

    def _forget_trace(self) -> None:
        """Drop the prepared trace, once its rows are decided or on reset.

        Also rewinds the next row to decide (:attr:`_row`) and the row the
        last report carried (:attr:`_reported_row`, -1 for none of this
        trace).
        """
        self._times = self._positions = self._velocities = self._speeds = None
        self._row = 0
        self._reported_row = -1

    def observe_precomputed(
        self, time: float, position: Vec2, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateMessage]:
        """Decide the prepared trace's next sighting; return its update, if any.

        One row of :meth:`_trigger`: the sighting at *time* must be the
        next row of the trace handed to :meth:`prepare_trace`, whose
        position and estimates are what the rule reads.  Deadlines are
        not consulted.  :func:`repro.sim.fleet.lane_updates` decides a
        whole trace at once, deadlines included.
        """
        times = self._times
        if times is None:
            raise RuntimeError("observe_precomputed needs prepare_trace() for the trace first")
        row = self._row
        if row >= len(times) or times[row] != time:
            expected = f"t={float(times[row])!r}" if row < len(times) else "no more rows"
            raise ValueError(
                f"sighting at t={float(time)!r} does not match row {row} of the "
                f"prepared trace ({expected})"
            )
        self._row = row + 1
        if self._last_reported is None:
            return self._emit_update(time, row, UpdateReason.INITIAL)
        for mask, reason in self._trigger(row, row + 1):
            if mask[0]:
                return self._emit_update(time, row, reason)
        return None

    def _emit_update(self, time: float, row: int, reason: UpdateReason) -> UpdateMessage:
        """Build, account and record the update sent at *time* for *row*."""
        state = self._build_state(time, row)
        message = UpdateMessage(sequence=self._sequence, state=state, reason=reason)
        self._sequence += 1
        self._updates_sent += 1
        self._bytes_sent += message.size_bytes
        self._last_reported = state
        self._reported_row = row
        self._post_update_hook(message)
        return message

    def _post_update_hook(self, message: UpdateMessage) -> None:
        """Hook run after an update has been recorded."""

    # ------------------------------------------------------------------ #
    # deadlines (the fleet's send schedule)
    # ------------------------------------------------------------------ #
    #: Whether a sighting at exactly :meth:`next_deadline` meets the
    #: deadline before its own decision, as no timer fire (dtdr's polled
    #: disconnection check), rather than the deadline firing after the
    #: sighting's decision (time-based reporting's periodic report).
    deadline_before_decision: bool = False

    def next_deadline(self) -> Optional[float]:
        """The next instant at which this protocol acts without a sighting.

        Protocols whose rule involves wall-clock time (periodic reporting,
        disconnection timeouts) return the exact instant;
        :func:`repro.sim.fleet.lane_updates` calls :meth:`_on_deadline`
        there.  ``None`` (the default) means no deadline is pending.
        """
        return None

    def _on_deadline(self, time: float) -> Optional[UpdateReason]:
        """Act on the deadline at *time*; the reason to send an update then.

        The update carries the last sighting at or before *time*.  A
        protocol that sends nothing and leaves :meth:`next_deadline`
        where it was has spent that deadline: it does not fire again.
        """
        return None

    # ------------------------------------------------------------------ #
    # helpers available to subclasses
    # ------------------------------------------------------------------ #
    @property
    def last_reported(self) -> Optional[ObjectState]:
        """The last state transmitted to the server (``or`` in the paper)."""
        return self._last_reported

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
        self._forget_trace()

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
