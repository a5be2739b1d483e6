"""Message channel between source and location server.

The paper motivates dead reckoning with the scarcity and cost of wireless
WAN bandwidth; the channel model here accounts for every transmitted message
and byte so the evaluation can report bandwidth alongside update counts, and
it can add latency and losses for robustness experiments (losses model the
disconnections Wolfson's dtdr strategy addresses).

The channel has one delivery path.  Every send goes through
:meth:`MessageChannel.transmit`, which counts the message, decides whether
it is lost and returns its delivery instant ``t + L``; whoever delivers the
message counts it with :meth:`MessageChannel.record_delivered`.  The fleet
simulation pushes each lane's whole update stream through ``transmit`` and
ingests every surviving message at exactly its delivery instant, so latency
is exact and :attr:`ChannelStats.max_queue_delay` stays ``0``.  The
test-suite's tick-loop oracle instead holds transmitted messages in a
polled in-flight queue of its own and delivers them at the first tick
``>= t + L``; it records the quantisation that introduces in
``max_queue_delay``.

Losses are drawn **per message**, keyed by ``(seed, object_id, sequence)``
rather than by consuming a shared RNG stream in send order.  Send
interleaving depends on the driver and the fleet composition, so a
stream-ordered draw would make the loss pattern an artifact of the
caller; the keyed draw gives bit-identical loss sequences for the same
seed whatever the driver.  A lossy channel therefore needs a seed; only a
loss-free channel may omit it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.protocols.base import UpdateMessage


@dataclass(slots=True)
class ChannelStats:
    """Counters describing the traffic that went through a channel.

    Slotted: every fleet channel touches these counters once per message."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Worst observed queueing delay in seconds: how long a message sat in
    #: a polled in-flight queue *past* its nominal delivery instant
    #: ``send_time + latency`` before a poll picked it up.  Exactly ``0``
    #: in the fleet simulation (messages arrive at the exact instant); only
    #: a polling driver (the test-suite's tick-loop oracle) raises it.
    max_queue_delay: float = 0.0


class MessageChannel:
    """Unidirectional source-to-server channel with latency and loss.

    Parameters
    ----------
    latency:
        Constant one-way delay in seconds added to every delivered message.
    loss_probability:
        Probability that a message is silently dropped.
    seed:
        Seed for the loss process, required when ``loss_probability > 0``.
        Each message's loss is drawn independently from ``(seed,
        object_id, sequence)``, so the loss pattern is identical for every
        driver and across repeated runs.
    """

    def __init__(
        self, latency: float = 0.0, loss_probability: float = 0.0, seed: Optional[int] = None
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if not (0.0 <= loss_probability < 1.0):
            raise ValueError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and seed is None:
            raise ValueError("a lossy channel needs a seed (losses are keyed by it)")
        self.latency = float(latency)
        self.loss_probability = float(loss_probability)
        self._seed = seed
        self.stats = ChannelStats()

    def transmit(self, object_id: str, message: UpdateMessage, time: float) -> Optional[float]:
        """Count one send at *time*; return its delivery instant, or ``None`` if lost."""
        self.stats.messages_sent += 1
        self.stats.bytes_sent += message.size_bytes
        if self.loss_probability > 0.0 and self._is_lost(object_id, message):
            self.stats.messages_lost += 1
            return None
        return time + self.latency

    def _is_lost(self, object_id: str, message: UpdateMessage) -> bool:
        """Decide this message's fate (see the module docstring).

        The keyed draw hashes the key through BLAKE2b — a proper PRF, so
        consecutive sequence numbers give serially *uncorrelated* Bernoulli
        draws (a CRC would correlate neighbouring keys, clustering losses),
        and the digest is stable across processes (unlike ``hash()`` of a
        string under ``PYTHONHASHSEED``).
        """
        key = f"{self._seed}|{object_id}|{message.sequence}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64  # uniform in [0, 1)
        return draw < self.loss_probability

    def record_delivered(self, messages: Sequence[UpdateMessage]) -> None:
        """Count *messages* as delivered."""
        self.stats.messages_delivered += len(messages)
        self.stats.bytes_delivered += sum(m.size_bytes for m in messages)

    def reset(self) -> None:
        """Zero the statistics.

        Simulations call this at run start so that a caller-supplied channel
        cannot leak counters from a previous run into the next one.  Losses
        are drawn per message (keyed by object and sequence number), so
        repeated runs over one channel replay the same loss pattern — that
        is the reproducibility contract.
        """
        self.stats = ChannelStats()
