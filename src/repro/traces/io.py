"""Trace I/O.

Traces are written as plain CSV (``time,x,y`` in seconds and metres) — the
format the paper describes for its receiver output ("its output has been
written to a file every second").
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from repro.traces.trace import Trace


def save_trace_csv(trace: Trace, path: Union[str, Path]) -> None:
    """Write *trace* as ``time,x,y`` CSV (seconds, metres)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "x", "y"])
        for time, (x, y) in zip(trace.times, trace.positions):
            writer.writerow([f"{time:.3f}", f"{x:.3f}", f"{y:.3f}"])
