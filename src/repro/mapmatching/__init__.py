"""Map matching: placing sensed positions onto road-map links.

The paper's map-based dead-reckoning protocol "basically executes a
map-matching algorithm when monitoring the sensor information at the source"
(Sec. 3).  The matcher here implements exactly the algorithm the paper
describes — nearest-link selection within a tolerance ``um``, perpendicular
projection to obtain the corrected position ``pc``, forward-tracking past
link ends, backward-tracking after wrong choices, and off-map fallback with
periodic re-acquisition — plus an offline variant used for analysis and for
learning turn probabilities from ground-truth traces.
"""

from repro.mapmatching.matcher import (
    IncrementalMapMatcher,
    MatchResult,
    MatchStatus,
    MatchStream,
    MatcherConfig,
)
from repro.mapmatching.offline import match_trace, MatchedTracePoint

__all__ = [
    "IncrementalMapMatcher",
    "MatchResult",
    "MatchStatus",
    "MatchStream",
    "MatcherConfig",
    "match_trace",
    "MatchedTracePoint",
]
