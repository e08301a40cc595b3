"""Arithmetic and outside-the-process resource readings.

Nothing here imports the system under test: percentiles, open-loop
lateness, and ``/proc`` / filesystem readings of the router and worker
processes.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import List, Sequence

#: A timed operation needs this many samples in a run so that at least
#: ten lie beyond the p95 it reports.
MIN_SAMPLES = 200


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")``
    at the integer percentiles.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each open-loop send left relative to its schedule (seconds).

    Early sends (clock jitter) count as zero lateness.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent times must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def fell_behind(late: Sequence[float], interval: float, tolerance_s: float = 1.0) -> bool:
    """Whether an open-loop generator lost its schedule.

    A generator that keeps up returns to schedule after every stall, so
    its last sends leave on time.  One that cannot sustain the rate
    accumulates lateness; it is judged behind when the mean lateness of
    its last ten sends exceeds ``max(tolerance_s, 10 * interval)``.
    """
    if not late:
        return False
    tail = late[-10:]
    return sum(tail) / len(tail) > max(tolerance_s, 10.0 * interval)


# ----------------------------------------------------------------------
# /proc and filesystem readings
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has consumed."""
    data = Path(f"/proc/{pid}/stat").read_text()
    # The command name (field 2) may hold spaces; fields resume after ')'.
    fields = data[data.rfind(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for entry in Path(path).rglob("*"):
        if entry.is_file():
            total += entry.stat().st_size
    return total
