"""The live serving tier: an asyncio front over the :class:`LocationService`.

Everything else in the repository runs the location service as a batch
simulation; this package runs it as a long-lived network server:

* :mod:`repro.service.live.protocol` — the length-prefixed JSON wire
  protocol and the codecs that round-trip update messages and query
  answers bit-exactly.
* :mod:`repro.service.live.server` — :class:`LiveLocationServer`, a TCP
  server owning one :class:`~repro.service.facade.LocationService` with
  single-writer ingestion behind a bounded queue (backpressure) and
  watermark-consistent queries.
* :mod:`repro.service.live.client` — :class:`LiveClient`, the async
  request/response client used by the load generator, tests and CLI.
* :class:`~repro.obs.metrics.LatencyRecorder` — the per-request
  wall-clock latency histogram (avg/p50/p95/p99), re-exported here from
  the shared metrics module.

The load generator that drives a server with replayed scenario traffic
lives one level up, in :mod:`repro.service.loadgen`.
"""

from repro.service.live.client import LiveClient, LiveRequestError
from repro.service.live.server import LiveLocationServer
from repro.obs.metrics import LatencyRecorder

__all__ = [
    "LiveClient",
    "LiveLocationServer",
    "LiveRequestError",
    "LatencyRecorder",
]
