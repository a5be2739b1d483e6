"""Offline (whole-trace) map matching.

Used for analysis rather than by the online protocol: given a complete trace
and a road map, produce the matched link id for every sample.  The paper
uses its ground truth for the same purpose implicitly (its simulator knows
which road the object drives on); here the offline matcher also provides the
training data for :class:`~repro.roadmap.probability.TurnProbabilityTable`
when only traces (not ground-truth link ids) are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mapmatching.matcher import IncrementalMapMatcher, MatcherConfig
from repro.roadmap.graph import RoadMap
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace


@dataclass(frozen=True)
class MatchedTracePoint:
    """Per-sample result of offline matching."""

    time: float
    position: np.ndarray
    link_id: Optional[int]
    matched_position: Optional[np.ndarray]
    distance: Optional[float]


def match_trace(
    trace: Trace, roadmap: RoadMap, config: Optional[MatcherConfig] = None
) -> List[MatchedTracePoint]:
    """Match every sample of *trace* onto *roadmap*.

    The same incremental matcher the protocol uses is run over the whole
    trace, with headings from a 4-sighting estimation window; off-map
    samples yield ``link_id=None``.
    """
    positions = trace.positions
    velocities, speeds = estimate_trace(trace.times, positions, window=4)
    stream = IncrementalMapMatcher(roadmap, config).match_stream(
        positions, velocities, speeds
    )
    results: List[MatchedTracePoint] = []
    for i, time in enumerate(trace.times.tolist()):
        if stream.matched[i]:
            link_id, _offset, matched_position = stream.row(i)
            distance: Optional[float] = float(stream.distances[i])
        else:
            link_id, matched_position, distance = None, None, None
        results.append(
            MatchedTracePoint(
                time=time,
                position=positions[i].copy(),
                link_id=link_id,
                matched_position=matched_position,
                distance=distance,
            )
        )
    return results


def matched_link_sequence(points: List[MatchedTracePoint]) -> List[int]:
    """Collapse per-sample matches into the sequence of distinct links visited.

    Consecutive duplicates are removed and off-map samples are skipped, which
    is the form :meth:`TurnProbabilityTable.record_link_sequence` expects.
    """
    sequence: List[int] = []
    for point in points:
        if point.link_id is None:
            continue
        if not sequence or sequence[-1] != point.link_id:
            sequence.append(point.link_id)
    return sequence


def matching_accuracy(
    points: List[MatchedTracePoint], true_link_ids: List[int], roadmap: RoadMap
) -> float:
    """Fraction of samples matched to the correct link (or its reverse twin).

    The reverse twin counts as correct because a geometric matcher cannot
    distinguish the two carriageways of a two-way road from position alone;
    neither can the paper's.
    """
    if len(points) != len(true_link_ids):
        raise ValueError("points and true_link_ids must have the same length")
    if not points:
        return 0.0
    correct = 0
    for point, true_id in zip(points, true_link_ids):
        if point.link_id is None:
            continue
        if point.link_id == true_id:
            correct += 1
            continue
        true_link = roadmap.link(true_id)
        twin = roadmap.reverse_link(true_link)
        if twin is not None and point.link_id == twin.id:
            correct += 1
    return correct / len(points)
