"""The map-based dead-reckoning protocol (the paper's contribution, Sec. 3).

Compared to the basic dead-reckoning mechanism, the map-based protocol

* runs a map-matching algorithm on every sensor sighting at the source
  (:class:`~repro.mapmatching.IncrementalMapMatcher`),
* transmits the *corrected* position ``pc``, the current speed and the
  identifier of the current link in its updates, and
* uses a prediction function enhanced by map information
  (:class:`~repro.protocols.prediction.MapPrediction`): the object is
  assumed to keep following its reported link, and at intersections the turn
  policy — by default the link with the smallest angle to the previous one —
  selects the next link.

When the source cannot match the object to any link (forward- and
backward-tracking both fail), it sends an update with an *empty link* and
both sides fall back to linear prediction until the object can be matched to
the map again.

Matching does not depend on the requested accuracy ``us``: its inputs are
the map, the matcher configuration, the sighting and the estimated heading.
:meth:`~repro.protocols.base.UpdateProtocol.prepare_trace` therefore
matches the whole trace once into a
:class:`~repro.mapmatching.matcher.MatchStream`, and clones made with
:meth:`~repro.protocols.base.UpdateProtocol.clone_for` share a memo of
those streams with their prototype, so an accuracy sweep matches each
trace once, not once per accuracy.  No matcher runs per sighting.

Its send rule is the paper's threshold plus the match stream's
``matched`` column: an ``OFF_MAP`` update at an unmatched sighting while
the last report holds a link, and (if configured) a ``REACQUIRED`` one at
a matched sighting while it holds none.  Both win over the threshold.
:func:`repro.sim.fleet.lane_updates` searches that rule over windows of
the stream and of
:meth:`~repro.protocols.prediction.MapPrediction.predict_many` positions,
and the update sent at a sighting carries that sighting's row of the
stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.mapmatching.matcher import IncrementalMapMatcher, MatcherConfig, MatchStream
from repro.protocols.base import ObjectState, UpdateProtocol, UpdateReason
from repro.protocols.prediction import (
    MapPrediction,
    PredictionFunction,
    SmallestAngleTurnPolicy,
    TurnPolicy,
)
from repro.roadmap.graph import RoadMap


@dataclass(frozen=True)
class MapBasedConfig:
    """Tuning knobs of the map-based protocol.

    Attributes
    ----------
    matching_tolerance:
        The paper's ``um``: how far (metres) a position may lie from a link
        and still be matched onto it; should reflect the sensor accuracy.
    end_proximity:
        Distance to the link end (metres) below which leaving the link is
        interpreted as having passed the intersection (forward-tracking).
    backtrack_depth:
        Number of intersections examined during backward-tracking.
    reacquire_interval:
        When off-map, how often (in sightings) the source re-queries the
        spatial index to return to the map-based protocol.
    advance_at_link_end:
        Forward-track as soon as the projection clamps at the current
        link's end instead of staying clamped within ``um`` (see
        :class:`~repro.mapmatching.matcher.MatcherConfig`).  Makes the
        matching invariant to link segmentation on imported maps; off by
        default to preserve the paper's evaluated behaviour.
    update_on_off_map:
        Send an update with an empty link as soon as the object can no
        longer be matched (paper behaviour).  Disabling this delays the
        fallback until the next threshold update.
    update_on_reacquire:
        Send an update as soon as a link is found again.  The paper does not
        require this; disabled by default, the link is simply included in
        the next regular update.
    use_corrected_position:
        Transmit the map-matched position ``pc`` (paper behaviour).  When
        disabled the raw sensor position is transmitted instead; used by the
        ablation benchmarks.
    speed_limit_factor:
        When set, the shared prediction caps the assumed speed on every link
        at this fraction of the link's speed limit (the paper's future-work
        extension); ``None`` reproduces the evaluated protocol.
    """

    matching_tolerance: float = 30.0
    end_proximity: float = 50.0
    backtrack_depth: int = 2
    reacquire_interval: int = 5
    advance_at_link_end: bool = False
    update_on_off_map: bool = True
    update_on_reacquire: bool = False
    use_corrected_position: bool = True
    speed_limit_factor: Optional[float] = None

    def matcher_config(self) -> MatcherConfig:
        """The corresponding :class:`~repro.mapmatching.MatcherConfig`."""
        return MatcherConfig(
            tolerance=self.matching_tolerance,
            end_proximity=self.end_proximity,
            backtrack_depth=self.backtrack_depth,
            reacquire_interval=self.reacquire_interval,
            advance_at_link_end=self.advance_at_link_end,
        )


class MapBasedProtocol(UpdateProtocol):
    """Map-based dead reckoning.

    Parameters
    ----------
    accuracy:
        Requested accuracy ``us`` at the server, in metres.
    roadmap:
        The road map shared by source and server.
    sensor_uncertainty:
        Sensor uncertainty ``up`` in metres.
    estimation_window:
        Window for the speed/heading estimate.
    turn_policy:
        Intersection choice policy of the prediction function; defaults to
        the paper's smallest-angle rule.
    config:
        Map-matching and protocol behaviour knobs.
    """

    name = "map-based dead reckoning"

    def __init__(
        self,
        accuracy: float,
        roadmap: RoadMap,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
        turn_policy: Optional[TurnPolicy] = None,
        config: Optional[MapBasedConfig] = None,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self.roadmap = roadmap
        self.config = config or MapBasedConfig()
        self._turn_policy = turn_policy or SmallestAngleTurnPolicy()
        self._prediction = MapPrediction(
            roadmap,
            self._turn_policy,
            speed_limit_factor=self.config.speed_limit_factor,
        )
        # Match streams by trace content; clone_for shares the dict with
        # every clone, so a sweep over accuracies matches each trace once.
        self._match_streams: Dict[tuple, MatchStream] = {}
        self._stream: Optional[MatchStream] = None

    # ------------------------------------------------------------------ #
    # UpdateProtocol interface
    # ------------------------------------------------------------------ #
    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def prepare_trace(
        self,
        times: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        speeds: np.ndarray,
    ) -> None:
        """Match the whole trace once (or fetch its memoised stream)."""
        super().prepare_trace(times, positions, velocities, speeds)
        positions = np.ascontiguousarray(positions, dtype=float)
        velocities = np.ascontiguousarray(velocities, dtype=float)
        speeds = np.ascontiguousarray(speeds, dtype=float)
        digest = hashlib.blake2b(digest_size=16)
        for array in (positions, velocities, speeds):
            digest.update(array.data)
        config = self.config.matcher_config()
        key = (config, self.estimation_window, len(positions), digest.digest())
        stream = self._match_streams.get(key)
        if stream is None:
            matcher = IncrementalMapMatcher(self.roadmap, config)
            stream = matcher.match_stream(positions, velocities, speeds)
            self._match_streams[key] = stream
        self._stream = stream

    def _trigger(self, lo, hi):
        triggers = super()._trigger(lo, hi)
        matched = self._stream.matched[lo:hi]
        if self._last_reported.link_id is not None:
            # Losing the map: tell the server to fall back to linear prediction.
            if self.config.update_on_off_map:
                return [(~matched, UpdateReason.OFF_MAP), *triggers]
        elif self.config.update_on_reacquire:
            # Returning to the map (optional behaviour).
            return [(matched, UpdateReason.REACQUIRED), *triggers]
        return triggers

    def _build_state(self, time: float, row: int) -> ObjectState:
        if not self._stream.matched[row]:
            # Off-map: transmit the raw position with an empty link; the
            # shared prediction function degrades to linear prediction.
            return super()._build_state(time, row)
        link_id, offset, corrected = self._stream.row(row)
        return ObjectState(
            time=time,
            position=corrected if self.config.use_corrected_position else self._positions[row],
            velocity=self._velocities[row],
            speed=float(self._speeds[row]),
            link_id=link_id,
            link_offset=offset,
            uncertainty=self.sensor_uncertainty,
        )

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    @property
    def match_stream(self) -> Optional[MatchStream]:
        """The stream :meth:`prepare_trace` matched for the current trace."""
        return self._stream

    def matching_statistics(self) -> dict:
        """Counters of the map matcher over the prepared stream's whole trace.

        Without a prepared stream, the zero counters of a matcher that has
        seen no sighting.
        """
        if self._stream is not None:
            return dict(self._stream.statistics)
        return IncrementalMapMatcher(self.roadmap, self.config.matcher_config()).statistics()

    def reset(self) -> None:
        # Rebinds only: the memo of match streams stays shared with every
        # clone_for copy.
        super().reset()
        self._stream = None
