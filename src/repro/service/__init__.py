"""Location-service substrate.

The paper's system model (Fig. 1) has a *source* co-located with the mobile
object's positioning sensor and a *location server* that stores the reported
object state, applies the shared prediction function and answers position
queries from applications.  This package provides the server, the message
channel from the source to it and the query API applications use ("find
the nearest taxi cab", "address all users inside an area", paper Sec. 1);
the source is an update protocol (:mod:`repro.protocols`) whose sends the
fleet simulation computes (:func:`repro.sim.fleet.lane_updates`).

Beyond the paper's single server, the package also provides the sharded
serving tier the ROADMAP's fleet-scale north star needs:
:class:`LocationService` keeps the whole fleet's server state in one
columnar row table, partitions the tracked objects across N shards by
spatial region (pluggable :class:`ShardingPolicy`; a shard is a home-shard
value in that table), ingests updates in per-tick batches, hands objects
off across shard boundaries, and answers range / k-nearest / geofence
queries through one columnar :class:`QueryEngine` per shard.
That facade is the one query surface: vectorised NumPy kernels, with
answers asserted bit-identical to the linear-scan oracle in
``tests/reference/linear_queries.py``.  :class:`RebalancePolicy` re-homes
hot routing cells when the per-shard skew exceeds a threshold, keeping the
tier load-adaptive under live traffic.
"""

from repro.service.channel import ChannelStats, MessageChannel
from repro.service.server import LocationServer, TrackedObject
from repro.service.sharding import (
    GridHashPolicy,
    RebalancePolicy,
    RebalanceReport,
    ShardingPolicy,
    shard_skew,
)
from repro.service.query_engine import QueryEngine
from repro.service.facade import LocationService, QueryCounters, ShardLoad

__all__ = [
    "MessageChannel",
    "ChannelStats",
    "LocationServer",
    "TrackedObject",
    "LocationService",
    "QueryEngine",
    "QueryCounters",
    "ShardLoad",
    "ShardingPolicy",
    "GridHashPolicy",
    "RebalancePolicy",
    "RebalanceReport",
    "shard_skew",
]
