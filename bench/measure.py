"""Clocks, resource readings and summary statistics for the harness.

All times are host time.  CPU is user+sys of this process, of every child
it has reaped, and (on Linux, from ``/proc``) of the children still alive —
pool workers are not reaped until the session closes, and leaving them out
would make a parallel sweep look cheaper than a serial one.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
DRIFT_LIMIT = 0.10


def _live_children_cpu() -> float:
    """user+sys seconds of live direct children (0.0 where /proc is absent)."""
    me = os.getpid()
    total = 0.0
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0.0
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # The command name is parenthesised and may contain spaces.
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        if int(fields[1]) == me:
            # utime + stime, plus cutime + cstime for what the child itself reaped.
            total += sum(int(field) for field in fields[11:15]) / _CLOCK_TICKS
    return total


def cpu_seconds() -> float:
    """CPU consumed so far by this process and all its children, dead or alive."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime + _live_children_cpu()
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0  # bytes vs KiB
    return max(own, reaped) / scale


def spin_seconds(iterations: int = 300_000, rounds: int = 5) -> float:
    """Best-of-``rounds`` time of a fixed pure-python loop: the machine's speed right now."""
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        accumulator = 0
        for value in range(iterations):
            accumulator += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


def drift(before: float, after: float) -> float:
    """Relative change of the calibration loop across a workload."""
    return abs(after - before) / before


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single sample is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def summarise(
    values: Sequence[float], unit: str, pick: Callable[[Sequence[float]], float] = statistics.median
) -> Dict[str, Any]:
    """The record every reported metric carries: its value, and what the value was picked from."""
    q1, median, q3 = quartiles(values)
    return {
        "unit": unit,
        "value": pick(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": list(values),
    }


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


def _git_commit(root: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def environment(root: str) -> Dict[str, Any]:
    """The host facts a reader needs before comparing two result files."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.coding import np_backend

    try:
        load: Optional[List[float]] = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "coding_backend": np_backend.DEFAULT_BACKEND,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_at_start": load,
    }
