"""Turn-probability tables for the map-based-with-probabilities variant.

The paper (Sec. 2) proposes enhancing map links with probability information
describing how likely an object is to follow each outgoing link after an
intersection, either aggregated over all users (*user-independent*) or per
object (*user-specific*).  The prediction function then picks the most
probable outgoing link instead of the geometrically straightest one.

:class:`TurnProbabilityTable` stores transition counts ``(from_link ->
to_link)`` and converts them to probabilities on demand; it can be populated
from observed routes or traces, which is exactly how a deployment would
bootstrap the statistics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence

from repro.roadmap.elements import Link
from repro.roadmap.graph import RoadMap
from repro.roadmap.routing import Route


class TurnProbabilityTable:
    """Link-to-link transition statistics over a road map.

    Parameters
    ----------
    roadmap:
        The map the statistics refer to.
    laplace_smoothing:
        Pseudo-count added to every legal transition when converting counts
        to probabilities, so that unseen turns retain a small probability.
    """

    def __init__(self, roadmap: RoadMap, laplace_smoothing: float = 0.0):
        if laplace_smoothing < 0:
            raise ValueError("laplace_smoothing must be non-negative")
        self.roadmap = roadmap
        self.laplace_smoothing = float(laplace_smoothing)
        self._counts: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))

    # ------------------------------------------------------------------ #
    # recording observations
    # ------------------------------------------------------------------ #
    def record_transition(self, from_link_id: int, to_link_id: int, weight: float = 1.0) -> None:
        """Record that *to_link_id* was taken after *from_link_id*."""
        if not self.roadmap.has_link(from_link_id):
            raise KeyError(f"unknown link id {from_link_id}")
        if not self.roadmap.has_link(to_link_id):
            raise KeyError(f"unknown link id {to_link_id}")
        self._counts[from_link_id][to_link_id] += float(weight)

    def record_route(self, route: Route, weight: float = 1.0) -> None:
        """Record every consecutive link pair of *route*."""
        for a, b in zip(route.links, route.links[1:]):
            self.record_transition(a.id, b.id, weight)

    def record_link_sequence(self, link_ids: Sequence[int], weight: float = 1.0) -> None:
        """Record transitions from an explicit link-id sequence."""
        for a, b in zip(link_ids, link_ids[1:]):
            if a is None or b is None:
                continue
            self.record_transition(a, b, weight)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def transition_probabilities(self, from_link: Link) -> Dict[int, float]:
        """Probability of each legal successor of *from_link*.

        Legal successors are taken from the road map (U-turns excluded); the
        probabilities always sum to 1 over that set, even when no
        observations exist (uniform distribution in that case).
        """
        successors = self.roadmap.successors(from_link)
        if not successors:
            return {}
        counts = self._counts.get(from_link.id, {})
        scores = {
            s.id: counts.get(s.id, 0.0) + self.laplace_smoothing for s in successors
        }
        total = sum(scores.values())
        if total <= 0.0:
            uniform = 1.0 / len(successors)
            return {s.id: uniform for s in successors}
        return {link_id: score / total for link_id, score in scores.items()}

    def most_probable_successor(self, from_link: Link) -> Optional[Link]:
        """The successor with the highest probability, or ``None`` at dead ends.

        Ties are broken deterministically by link id so that source and
        server make the same choice — a requirement of the protocol.
        """
        probabilities = self.transition_probabilities(from_link)
        if not probabilities:
            return None
        best_id = min(
            probabilities, key=lambda link_id: (-probabilities[link_id], link_id)
        )
        return self.roadmap.link(best_id)
