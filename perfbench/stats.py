"""Order statistics and process measurements shared by the workloads.

The percentile is the benchmark's own (nearest rank, as the program's
``repro.obs`` uses), so a change to the program cannot change how the
benchmark measures it.
"""

from __future__ import annotations

import math
import resource
from statistics import median
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (``0 < q <= 100``) of unsorted *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_percentile(samples: Sequence[float], q: float, windows: int = 10) -> float:
    """Median over *windows* consecutive slices of *samples* (in arrival
    order) of each slice's *q*-th percentile.

    A tail percentile over a whole run moves with every burst of outside
    load on the machine (tens of consecutive slow requests, at random
    points of the run); splitting the run into windows confines a burst to
    the windows it falls in, and the median drops them.
    """
    size = len(samples) // windows
    if size == 0:
        raise ValueError(f"need at least {windows} samples")
    return median([percentile(samples[w * size:(w + 1) * size], q) for w in range(windows)])


def windowed_rate(durations: Sequence[float], windows: int = 10) -> float:
    """Median over *windows* consecutive slices of *durations* (one per
    operation, in arrival order) of each slice's operations per second of
    summed duration; a burst of outside load only slows the slices it falls in.
    """
    size = len(durations) // windows
    if size == 0:
        raise ValueError(f"need at least {windows} samples")
    return median([size / sum(durations[w * size:(w + 1) * size]) for w in range(windows)])


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
