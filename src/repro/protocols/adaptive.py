"""Wolfson-style adaptive dead-reckoning strategies (sdr, adr, dtdr).

The related-work section of the paper summarises the dead-reckoning policies
of Wolfson et al. [12] for moving-objects databases, which differ from the
accuracy-bounded protocols of the rest of this package: they minimise a
*cost* that combines the price of an update message with the price of
position uncertainty and deviation, rather than guaranteeing a fixed
accuracy.

* :class:`SpeedDeadReckoning` (sdr) — a constant deviation threshold.
* :class:`AdaptiveDeadReckoning` (adr) — the threshold is recomputed at
  every update from the recently observed deviation growth so that the total
  cost (update cost amortised over the update interval plus the expected
  deviation cost) is minimised.
* :class:`DisconnectionDetectionDeadReckoning` (dtdr) — the threshold decays
  over time since the last update, so that a long silence can only mean a
  disconnection, not a large deviation.

These protocols use the same linear prediction as
:class:`~repro.protocols.linear.LinearPredictionProtocol`; only the
threshold policy differs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.protocols.base import UpdateProtocol, UpdateReason
from repro.protocols.prediction import LinearPrediction, PredictionFunction


class _LinearPredictionThresholdProtocol(UpdateProtocol):
    """Shared machinery: linear prediction with a protocol-defined threshold."""

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self._prediction = LinearPrediction()

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def _thresholds(self, times: np.ndarray):
        """The threshold at each of *times*: one number when it is constant
        between reports (sdr, adr), else one per time (dtdr)."""
        return self.accuracy

    def _trigger(self, lo, hi):
        threshold = self._thresholds(self._times[lo:hi])
        return [(self._exceeds(lo, hi, threshold), UpdateReason.THRESHOLD)]


class SpeedDeadReckoning(_LinearPredictionThresholdProtocol):
    """Wolfson's *speed dead reckoning* (sdr): a fixed deviation threshold.

    Functionally equivalent to linear-prediction dead reckoning with
    ``us = threshold``; provided under its own name so the adaptive variants
    have their natural baseline in the benchmarks.
    """

    name = "speed dead reckoning (sdr)"

    def __init__(
        self,
        threshold: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(threshold, sensor_uncertainty, estimation_window)


class AdaptiveDeadReckoning(_LinearPredictionThresholdProtocol):
    """Wolfson's *adaptive dead reckoning* (adr).

    The cost of tracking over an update interval of length ``T`` with
    threshold ``th`` is modelled as ``update_cost / T + deviation_cost *
    E[deviation]`` with ``E[deviation] ~ th / 2`` for a deviation that grows
    roughly linearly at rate ``r`` (so ``T = th / r``).  Minimising
    ``update_cost * r / th + deviation_cost * th / 2`` over ``th`` gives

    ``th* = sqrt(2 * update_cost * r / deviation_cost)``.

    The deviation growth rate ``r`` is re-estimated at every update from the
    time it took the deviation to reach the previous threshold, which is the
    essence of adr: straight, steady movement grows the threshold (fewer
    updates), erratic movement shrinks it (smaller uncertainty).

    Parameters
    ----------
    initial_threshold:
        Threshold used until the first adaptation.
    update_cost:
        Cost of transmitting one update message (arbitrary units).
    deviation_cost:
        Cost per metre of average deviation per second (same units).
    min_threshold, max_threshold:
        Clamp on the adapted threshold.
    """

    name = "adaptive dead reckoning (adr)"

    def __init__(
        self,
        initial_threshold: float,
        update_cost: float = 1.0,
        deviation_cost: float = 0.001,
        min_threshold: float = 5.0,
        max_threshold: float = 2000.0,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(initial_threshold, sensor_uncertainty, estimation_window)
        if update_cost <= 0 or deviation_cost <= 0:
            raise ValueError("update_cost and deviation_cost must be positive")
        if min_threshold <= 0 or max_threshold < min_threshold:
            raise ValueError("invalid threshold bounds")
        self.update_cost = float(update_cost)
        self.deviation_cost = float(deviation_cost)
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self._threshold = float(initial_threshold)

    def _thresholds(self, times: np.ndarray) -> float:
        return self._threshold

    def _post_update_hook(self, message) -> None:
        # Estimate the deviation growth rate from the interval that just
        # ended, then pick the cost-minimising threshold for the next one.
        previous_time = getattr(self, "_previous_update_time", None)
        now = message.state.time
        if previous_time is not None and now > previous_time:
            interval = now - previous_time
            rate = self._threshold / interval  # metres of deviation per second
            optimal = math.sqrt(2.0 * self.update_cost * rate / self.deviation_cost)
            self._threshold = min(self.max_threshold, max(self.min_threshold, optimal))
        self._previous_update_time = now

    def reset(self) -> None:
        super().reset()
        self._threshold = self.accuracy
        self._previous_update_time = None


class DisconnectionDetectionDeadReckoning(_LinearPredictionThresholdProtocol):
    """Wolfson's *disconnection detection dead reckoning* (dtdr).

    The threshold continuously decreases while no update is sent, so a
    prolonged silence implies the connection is lost rather than that the
    object happens to move exactly as predicted.

    Parameters
    ----------
    initial_threshold:
        Threshold immediately after an update.
    decay_time:
        Time (seconds) after which the threshold has decayed to
        ``floor_fraction`` of its initial value (linear decay).
    floor_fraction:
        Lower bound on the threshold, as a fraction of the initial value.
    disconnect_timeout:
        Silence (seconds since the last update) after which the tracker
        declares a probable disconnection — the point of the decaying
        threshold: a *connected* source moving as predicted would still be
        under the decayed threshold, so a silence this long means the link
        is gone.  Declarations are recorded on
        :attr:`disconnection_times`, at exactly ``last_update +
        disconnect_timeout`` (:meth:`next_deadline`).  ``None`` disables
        detection.
    """

    name = "disconnection-detection dead reckoning (dtdr)"

    def __init__(
        self,
        initial_threshold: float,
        decay_time: float = 300.0,
        floor_fraction: float = 0.2,
        disconnect_timeout: Optional[float] = None,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(initial_threshold, sensor_uncertainty, estimation_window)
        if decay_time <= 0:
            raise ValueError("decay_time must be positive")
        if not (0.0 < floor_fraction <= 1.0):
            raise ValueError("floor_fraction must be in (0, 1]")
        if disconnect_timeout is not None and disconnect_timeout <= 0:
            raise ValueError("disconnect_timeout must be positive")
        self.decay_time = float(decay_time)
        self.floor_fraction = float(floor_fraction)
        self.disconnect_timeout = (
            float(disconnect_timeout) if disconnect_timeout is not None else None
        )
        self._disconnected = False
        self._disconnection_times: list = []

    def _thresholds(self, times: np.ndarray):
        if self.last_reported is None:
            return self.accuracy
        elapsed = np.maximum(0.0, times - self.last_reported.time)
        return self.accuracy * np.maximum(self.floor_fraction, 1.0 - elapsed / self.decay_time)

    # ------------------------------------------------------------------ #
    # disconnection detection
    # ------------------------------------------------------------------ #
    @property
    def disconnection_times(self) -> list:
        """Instants at which a probable disconnection was declared."""
        return list(self._disconnection_times)

    def next_deadline(self) -> Optional[float]:
        """The exact instant at which silence becomes a disconnection."""
        if (
            self.disconnect_timeout is None
            or self._disconnected
            or self.last_reported is None
        ):
            return None
        return self.last_reported.time + self.disconnect_timeout

    #: A sighting at exactly the timeout declares the disconnection before
    #: its own decision, so an update sent there still follows it.
    deadline_before_decision = True

    def _on_deadline(self, time: float) -> None:
        """Declare the disconnection at *time*; nothing is sent."""
        self._disconnected = True
        self._disconnection_times.append(float(time))

    def _post_update_hook(self, message) -> None:
        # Any transmitted update proves the link is up again.
        self._disconnected = False

    def reset(self) -> None:
        super().reset()
        self._disconnected = False
        # Rebinding (not clearing) also detaches a clone_for copy from the
        # prototype's list, so no _detach_clone_state override is needed.
        self._disconnection_times = []
