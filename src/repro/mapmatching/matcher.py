"""Incremental map matching as described in Section 3 of the paper.

The matcher keeps a *current link* for the mobile object and, for every new
position sighting:

1. projects the sensed position ``pp`` perpendicularly onto the current link
   to obtain the corrected position ``pc``;
2. accepts the match when the projection distance is at most the matching
   tolerance ``um`` (which "reflects the accuracy of the sensor system");
3. otherwise decides between *forward-tracking* (the object passed the end
   of the link and reached an intersection: examine the outgoing links of
   that intersection) and *backward-tracking* (the object left the link in
   the middle, so a previous choice was wrong: go back to the last
   intersection(s) and examine their other outgoing links);
4. when neither finds a link within ``um``, declares the object *off-map*;
   the caller falls back to linear prediction and the matcher periodically
   re-queries the spatial index to return to the map.

:meth:`IncrementalMapMatcher.update` is the one definition of that
algorithm.  :meth:`IncrementalMapMatcher.match_stream` runs it over a whole
trace and packs the results into a :class:`MatchStream` of arrays, so
callers that replay one trace many times (the accuracy sweeps of the
paper's Figs. 7-10) match it once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec, distance
from repro.roadmap.elements import Link
from repro.roadmap.graph import RoadMap


#: Estimated speed (m/s) at or below which the heading estimate is dominated
#: by sensor noise and is withheld from the matcher.
HEADING_MIN_SPEED = 1.0


class MatchStatus(enum.Enum):
    """Outcome of one matching step."""

    MATCHED = "matched"
    """The position lies within ``um`` of the current link."""

    NEW_LINK = "new_link"
    """The position was matched, but onto a different link than before."""

    OFF_MAP = "off_map"
    """No link within ``um`` could be found."""


@dataclass(frozen=True)
class MatchResult:
    """Result of matching one position sighting."""

    status: MatchStatus
    link_id: Optional[int]
    offset: Optional[float]
    position: np.ndarray
    distance: float

    @property
    def is_matched(self) -> bool:
        """Whether a link was found (``MATCHED`` or ``NEW_LINK``)."""
        return self.status is not MatchStatus.OFF_MAP


@dataclass(frozen=True, eq=False)
class MatchStream:
    """The results of matching every sighting of one trace, as arrays.

    Row *i* holds what :meth:`IncrementalMapMatcher.update` returned for
    sighting *i*.  Off-map rows have ``matched`` false, link id ``-1``,
    offset NaN, distance infinity and the sensed position as ``positions``.

    Attributes
    ----------
    matched:
        ``(n,)`` bool, whether a link was found.
    link_ids:
        ``(n,)`` int64, the matched link's id (``-1`` when off-map).
    offsets:
        ``(n,)`` float64, offset of the corrected position along the link.
    positions:
        ``(n, 2)`` float64, the corrected position ``pc``.
    distances:
        ``(n,)`` float64, distance between the sensed and corrected position.
    statistics:
        The matcher's :meth:`~IncrementalMapMatcher.statistics` after the
        last sighting.
    """

    matched: np.ndarray
    link_ids: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray
    distances: np.ndarray
    statistics: Dict[str, int]

    def __len__(self) -> int:
        return len(self.matched)

    def row(self, i: int) -> Tuple[int, float, np.ndarray]:
        """Link id, offset and (a copy of) the corrected position of matched row *i*."""
        return int(self.link_ids[i]), float(self.offsets[i]), self.positions[i].copy()


@dataclass(frozen=True)
class MatcherConfig:
    """Tuning parameters of the incremental matcher.

    Attributes
    ----------
    tolerance:
        The paper's ``um``: maximum distance (metres) between a position and
        a link for the position to be matched onto that link.
    end_proximity:
        How close (metres, measured along the link) the previous match must
        have been to the link end for the matcher to consider the object to
        have "passed the end of the current link" and try forward-tracking
        first.
    backtrack_depth:
        How many intersections backward-tracking walks back through.
    reacquire_interval:
        When off-map, a full spatial-index query is issued every this many
        sightings to try to return to the map.
    advance_at_link_end:
        When the projection onto the current link clamps at the link's end
        (the object has passed the far intersection) but is still within
        ``um``, immediately try forward-tracking and advance whenever an
        outgoing link matches strictly better — instead of staying clamped
        to the endpoint until the distance exceeds ``um``.  This makes the
        matched positions independent of how a road is segmented into
        links, which the ingest benchmark relies on when comparing raw
        vs degree-2-contracted imported graphs.  Off by default: the
        clamped behaviour is what the paper's evaluation (and the golden
        metrics) pin down.
    """

    tolerance: float = 30.0
    end_proximity: float = 50.0
    backtrack_depth: int = 2
    reacquire_interval: int = 5
    advance_at_link_end: bool = False

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.end_proximity < 0:
            raise ValueError("end_proximity must be non-negative")
        if self.backtrack_depth < 1:
            raise ValueError("backtrack_depth must be at least 1")
        if self.reacquire_interval < 1:
            raise ValueError("reacquire_interval must be at least 1")


class IncrementalMapMatcher:
    """Stateful matcher fed one position sighting at a time."""

    def __init__(self, roadmap: RoadMap, config: Optional[MatcherConfig] = None):
        self.roadmap = roadmap
        self.config = config or MatcherConfig()
        self._current_link: Optional[Link] = None
        self._last_offset: float = 0.0
        self._link_history: List[int] = []
        self._off_map_counter = 0
        self._heading: Optional[np.ndarray] = None
        # statistics
        self.n_forward_tracks = 0
        self.n_backward_tracks = 0
        self.n_reacquisitions = 0
        self.n_off_map = 0
        self.n_direction_flips = 0

    @staticmethod
    def _normalised_heading(heading: Optional[Vec2]) -> Optional[np.ndarray]:
        if heading is None:
            return None
        h = as_vec(heading)
        norm = float(np.hypot(h[0], h[1]))
        if norm < 1e-9:
            return None
        return h / norm

    def _alignment(self, link: Link, offset: float) -> float:
        """Cosine between the object's heading and the link direction at *offset*."""
        if self._heading is None:
            return 1.0
        direction = link.direction_at(offset)
        return float(direction @ self._heading)

    def _maybe_flip_direction(
        self, p: np.ndarray, offset: float, dist: float
    ) -> Optional[MatchResult]:
        """Switch to the reverse twin of the current link if we travel against it."""
        assert self._current_link is not None
        if self._heading is None:
            return None
        if self._alignment(self._current_link, offset) >= -0.2:
            return None
        twin = self.roadmap.reverse_link(self._current_link)
        if twin is None:
            return None
        matched, twin_offset, twin_dist = twin.project(p)
        if twin_dist > self.config.tolerance:
            return None
        if self._alignment(twin, twin_offset) <= 0.0:
            return None
        self._set_current(twin, twin_offset)
        self.n_direction_flips += 1
        return MatchResult(MatchStatus.NEW_LINK, twin.id, twin_offset, matched, twin_dist)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def update(self, position: Vec2, heading: Optional[Vec2] = None) -> MatchResult:
        """Match one sensed position and return the result.

        Parameters
        ----------
        position:
            The sensed position ``pp``.
        heading:
            Optional unit vector of the object's direction of travel
            (estimated from the last sightings).  When provided it is used
            to disambiguate the two directed links of a two-way road, whose
            geometries are identical: the prediction function must advance
            along the link the object actually travels, not its reverse
            twin.
        """
        p = as_vec(position)
        self._heading = self._normalised_heading(heading)
        if self._current_link is None:
            return self._acquire(p)

        matched, offset, dist = self._current_link.project(p)
        if dist <= self.config.tolerance:
            # The geometry still matches; check that we are not tracking the
            # reverse carriageway of the road the object actually follows.
            flipped = self._maybe_flip_direction(p, offset, dist)
            if flipped is not None:
                return flipped
            if (
                self.config.advance_at_link_end
                and offset >= self._current_link.length - 1e-6
            ):
                advanced = self._advance_past_end(p)
                if advanced is not None:
                    return advanced
            self._last_offset = offset
            return MatchResult(
                MatchStatus.MATCHED, self._current_link.id, offset, matched, dist
            )

        # The position no longer matches the current link: decide between
        # forward- and backward-tracking based on whether the object had
        # (nearly) reached the end of the link.
        near_end = (
            self._current_link.length - self._last_offset <= self.config.end_proximity
            or offset >= self._current_link.length - 1e-6
        )
        result = None
        if near_end:
            result = self._forward_track(p)
            if result is None:
                result = self._backward_track(p)
        else:
            result = self._backward_track(p)
            if result is None:
                result = self._forward_track(p)
        if result is not None:
            if (
                self.config.advance_at_link_end
                and result.offset is not None
                and self._current_link is not None
                and result.offset >= self._current_link.length - 1e-6
            ):
                # The recovered match itself clamps at a link end — the
                # sighting passed more than one link since the last one.
                advanced = self._advance_past_end(p)
                if advanced is not None:
                    return advanced
            return result
        return self._declare_off_map(p)

    def match_stream(
        self, positions: np.ndarray, velocities: np.ndarray, speeds: np.ndarray
    ) -> MatchStream:
        """Match every sighting of a trace; return the results as arrays.

        *positions* and *velocities* are ``(n, 2)`` and *speeds* ``(n,)``,
        the sliding-window estimates of
        :func:`~repro.traces.estimation.estimate_trace`.  The heading handed
        to :meth:`update` is the estimated velocity when the speed exceeds
        :data:`HEADING_MIN_SPEED` and ``None`` otherwise, as the map-based
        protocol does per sighting.  Each row is one :meth:`update` call,
        starting from this matcher's current state, so the stream equals
        matching the sightings one by one.
        """
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        matched = np.zeros(n, dtype=bool)
        link_ids = np.full(n, -1, dtype=np.int64)
        offsets = np.full(n, np.nan)
        corrected = np.empty((n, 2))
        distances = np.full(n, np.inf)
        for i, speed in enumerate(np.asarray(speeds, dtype=float).tolist()):
            result = self.update(
                positions[i],
                heading=velocities[i] if speed > HEADING_MIN_SPEED else None,
            )
            corrected[i] = result.position
            if result.is_matched:
                matched[i] = True
                link_ids[i] = result.link_id
                offsets[i] = result.offset
                distances[i] = result.distance
        # Streams are shared by every protocol clone that replays the trace.
        for column in (matched, link_ids, offsets, corrected, distances):
            column.flags.writeable = False
        return MatchStream(
            matched, link_ids, offsets, corrected, distances, self.statistics()
        )

    # ------------------------------------------------------------------ #
    # acquisition and tracking
    # ------------------------------------------------------------------ #
    def _acquire(self, p: np.ndarray) -> MatchResult:
        """Initial matching / re-acquisition through the spatial index."""
        self._off_map_counter += 1
        if (
            self._off_map_counter > 1
            and (self._off_map_counter - 1) % self.config.reacquire_interval != 0
        ):
            return MatchResult(MatchStatus.OFF_MAP, None, None, p.copy(), float("inf"))
        candidates = [
            link for link, _ in self.roadmap.links_near(p, self.config.tolerance)
        ]
        result = self._best_candidate(p, candidates)
        if result is None:
            self.n_off_map += 1
            return MatchResult(MatchStatus.OFF_MAP, None, None, p.copy(), float("inf"))
        self.n_reacquisitions += 1
        self._off_map_counter = 0
        return result

    def _forward_track(self, p: np.ndarray) -> Optional[MatchResult]:
        """The object passed the end of its link: try the outgoing links there."""
        assert self._current_link is not None
        candidates = self.roadmap.outgoing_links(self._current_link.to_node)
        result = self._best_candidate(p, candidates, exclude=self._current_link.id)
        if result is not None:
            self.n_forward_tracks += 1
        return result

    def _backward_track(self, p: np.ndarray) -> Optional[MatchResult]:
        """A previous link choice was wrong: re-examine earlier intersections."""
        assert self._current_link is not None
        candidates: List[Link] = []
        node = self._current_link.from_node
        depth = 0
        visited_nodes = set()
        history = list(reversed(self._link_history))
        while depth < self.config.backtrack_depth and node not in visited_nodes:
            visited_nodes.add(node)
            candidates.extend(self.roadmap.outgoing_links(node))
            depth += 1
            # Walk further back along the recently traversed links, if known.
            previous_id = history[depth - 1] if depth - 1 < len(history) else None
            if previous_id is None or not self.roadmap.has_link(previous_id):
                break
            node = self.roadmap.link(previous_id).from_node
        result = self._best_candidate(p, candidates, exclude=self._current_link.id)
        if result is not None:
            self.n_backward_tracks += 1
        return result

    def _advance_past_end(self, p: np.ndarray) -> Optional[MatchResult]:
        """Follow outgoing links while they match strictly better.

        Called when the projection clamps at the current link's end but is
        still within tolerance (``advance_at_link_end``).  The loop handles
        sightings that legitimately pass several short links between two
        samples, as happens on uncontracted imported graphs.
        """
        best: Optional[MatchResult] = None
        for _ in range(64):  # bounded: every step strictly improves the match
            assert self._current_link is not None
            _, offset, dist = self._current_link.project(p)
            misaligned = self._alignment(self._current_link, offset) < 0.0
            result = self._best_candidate(
                p,
                self.roadmap.outgoing_links(self._current_link.to_node),
                exclude=self._current_link.id,
                better_than=(misaligned, dist),
            )
            if result is None:
                break
            self.n_forward_tracks += 1
            best = result
            assert result.offset is not None
            if result.offset < self._current_link.length - 1e-6:
                break  # the match is interior now; no further link passed
        return best

    def _best_candidate(
        self,
        p: np.ndarray,
        candidates: List[Link],
        exclude: Optional[int] = None,
        better_than: Optional[tuple] = None,
    ) -> Optional[MatchResult]:
        # Candidates are ranked primarily by whether the object's heading is
        # compatible with the link direction (so the correct carriageway of a
        # two-way road wins over its reverse twin) and secondarily by the
        # projection distance, the paper's "nearest link" rule.
        best: Optional[tuple[bool, float, Link, np.ndarray, float]] = None
        for link in candidates:
            if exclude is not None and link.id == exclude:
                continue
            matched, offset, dist = link.project(p)
            if dist > self.config.tolerance:
                continue
            misaligned = self._alignment(link, offset) < 0.0
            key = (misaligned, dist)
            if better_than is not None and key >= better_than:
                continue
            if best is None or key < (best[0], best[1]):
                best = (misaligned, dist, link, matched, offset)
        if best is None:
            return None
        _, dist, link, matched, offset = best
        self._set_current(link, offset)
        return MatchResult(MatchStatus.NEW_LINK, link.id, offset, matched, dist)

    def _declare_off_map(self, p: np.ndarray) -> MatchResult:
        self.n_off_map += 1
        self._current_link = None
        self._last_offset = 0.0
        self._off_map_counter = 1
        return MatchResult(MatchStatus.OFF_MAP, None, None, p.copy(), float("inf"))

    def _set_current(self, link: Link, offset: float) -> None:
        if self._current_link is not None and self._current_link.id != link.id:
            self._link_history.append(self._current_link.id)
            if len(self._link_history) > 32:
                self._link_history.pop(0)
        self._current_link = link
        self._last_offset = offset

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict:
        """Counters describing the matcher's behaviour so far."""
        return {
            "forward_tracks": self.n_forward_tracks,
            "backward_tracks": self.n_backward_tracks,
            "reacquisitions": self.n_reacquisitions,
            "off_map_events": self.n_off_map,
            "direction_flips": self.n_direction_flips,
        }
