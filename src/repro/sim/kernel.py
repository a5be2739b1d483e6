"""Deterministic discrete-event simulation kernel.

The update protocols of the paper are defined by *events* — threshold
crossings, report timers, message arrivals.  A fixed global tick would
quantise channel delivery times, force every object onto one sampling grid
and burn cycles stepping idle objects; instead, anything that happens is
an event at an exact instant, and the simulation jumps from event to
event.  :class:`EventKernel` is the binary-heap agenda those events wait
on.

Event kinds
-----------
The fleet simulation handles three kinds of events (the constants double
as the ordering priority, see below).  Sightings are known in advance, so
:class:`~repro.sim.fleet.FleetSimulation` reads them from a pre-merged
sample stream instead of pushing each one through the agenda; the other
two kinds are agenda entries.

===================  ====================================================
:data:`SAMPLE`       a sensor sighting reaches an object's source
:data:`TIMER`        a protocol's report/deadline timer expires
                     (:meth:`~repro.protocols.base.UpdateProtocol.next_deadline`)
:data:`DELIVERY`     an update message arrives at the server — at exactly
                     ``send_time + latency``, not at the next tick
===================  ====================================================

Application queries are not simulation events: they only read what the
updates wrote.  They are replayed afterwards from a materialised plan
(:func:`repro.service.loadgen.build_replay_plan`).

Determinism rules
-----------------
The agenda is ordered by the tuple ``(time, priority, seq)``:

* ``time`` — simulation time of the event;
* ``priority`` — the event kind: at one instant, samples are processed
  before timers, timers before deliveries.  This is the classic
  per-timestep order (all sightings, then all due deliveries, then
  measurement), which is what makes the schedule *bit-identical* to a
  time-stepped loop when every lane shares one sampling grid, channel
  latency is a multiple of it, and no protocol timer deadline falls off
  the grid (off-grid deadlines firing exactly, instead of at the next
  polled sighting, is the intended improvement over polling);
* ``seq`` — a monotonically increasing schedule counter breaking the
  remaining ties, so events scheduled earlier fire earlier.  Scheduling
  itself is deterministic (no wall-clock, no id()-ordering), hence so is
  the whole run.

The kernel holds no simulation state of its own; it is a pure agenda.
:class:`~repro.sim.fleet.FleetSimulation` owns the event handlers.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Tuple

#: Event kinds, in their at-the-same-instant processing order.  The kind
#: *is* the ordering priority.
SAMPLE = 0
TIMER = 1
DELIVERY = 2

#: Human-readable names of the event kinds (logs, tests, docs).
KIND_NAMES = {
    SAMPLE: "sample",
    TIMER: "timer",
    DELIVERY: "delivery",
}


class EventKernel:
    """A binary-heap event agenda ordered by ``(time, priority, seq)``.

    Entries are plain tuples ``(time, priority, seq, payload)`` — no event
    objects are allocated on the hot path.  ``payload`` is whatever the
    scheduling handler wants back (the kernel never inspects it).
    ``agenda`` is the heap itself: the fleet loop peeks ``agenda[0]`` to
    merge it with its sample stream, but only this class mutates it.

    ``on_pop`` is the observability seam: a callable invoked as
    ``on_pop(time, priority, seq)`` for every event the agenda hands out
    (per-event-kind counts, the flight recorder).  It must never mutate
    the agenda; when ``None`` — the default — the only cost on the hot
    path is one identity check per pop.
    """

    __slots__ = ("agenda", "_seq", "on_pop")

    def __init__(self, on_pop=None) -> None:
        self.agenda: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self.on_pop = on_pop

    def schedule(self, time: float, priority: int, payload: object) -> None:
        """Add an event at *time* with the given kind/*priority*."""
        heapq.heappush(self.agenda, (time, priority, self._seq, payload))
        self._seq += 1

    def pop(self) -> Tuple[float, int, int, object]:
        """Remove and return the next event ``(time, priority, seq, payload)``."""
        entry = heapq.heappop(self.agenda)
        if self.on_pop is not None:
            self.on_pop(entry[0], entry[1], entry[2])
        return entry

    def __len__(self) -> int:
        return len(self.agenda)

    def __bool__(self) -> bool:
        return bool(self.agenda)

    def drain_instant(self) -> Iterator[Tuple[float, int, int, object]]:
        """Yield every event scheduled at the current next instant.

        Events *scheduled at that same instant by the handlers run during
        the drain* (e.g. a zero-latency delivery for an update a timer fire
        just sent) are included: the drain keeps popping until the head of
        the agenda moves past the instant.
        """
        agenda = self.agenda
        if not agenda:
            return
        t = agenda[0][0]
        on_pop = self.on_pop
        if on_pop is None:
            while agenda and agenda[0][0] == t:
                yield heapq.heappop(agenda)
        else:
            while agenda and agenda[0][0] == t:
                entry = heapq.heappop(agenda)
                on_pop(entry[0], entry[1], entry[2])
                yield entry
