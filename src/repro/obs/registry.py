"""The process-local metrics registry: named counters, gauges and timers.

Every hot subsystem (runner dispatch, supervision, the run store, the
execution session, the fuzz engine) registers named instruments here and
bumps them as work flows through.  The registry is **descriptive, never
load-bearing**: its numbers are observations about an execution, and
nothing in the library reads them back to make a decision — disabling the
registry entirely (see :func:`set_enabled`) changes no record, baseline or
verdict byte.

Design constraints, in order:

* **cheap on the hot path** — an enabled counter increment is one global
  load, one attribute add; instruments are created once (typically at module
  import) and cached by the caller, so steady-state cost never includes a
  registry lookup;
* **deterministic where it can be** — counter and gauge values are pure
  functions of the work performed; :meth:`MetricsRegistry.snapshot` orders
  every key, so two identical serial executions snapshot identically.
  Timers record *wall-clock* durations (count and per-bucket tallies), which
  are host facts, not content — consumers must treat them as descriptive;
* **process-local** — worker processes have their own (unused) copy; all
  instrumentation sites run in the parent, which is the only place the
  numbers are aggregated or persisted.

The module-level :data:`METRICS` registry is the default instance the
library threads through; isolated registries can be constructed for tests.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

_NAME_PATTERN = re.compile(r"^[a-z0-9]+([._-][a-z0-9]+)*$")

_ENABLED = True
# One module-level flag instead of a per-instrument field: the disabled
# check is a single global load, and flipping it reconfigures every
# instrument of every registry at once (the benchmark harness uses this to
# measure the telemetry-off floor).


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable instrument updates (snapshots still work)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def telemetry_enabled() -> bool:
    """Whether instrument updates are currently applied."""
    return _ENABLED


TIMER_BUCKETS: Tuple[float, ...] = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)
"""Histogram bucket upper bounds, in seconds (an implicit +inf bucket
catches the rest).  Log-spaced to cover everything from a cache-hit lookup
to a long scenario run."""


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if _ENABLED:
            self.value += amount


class Gauge:
    """A point-in-time value (pool size, coverage sites, pending records)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        if _ENABLED:
            self.value = value


class Timer:
    """Wall-clock duration observations in histogram-style buckets.

    ``count`` and the per-bucket tallies are deterministic only insofar as
    the host is; treat them as descriptive.  ``observe`` takes seconds.
    """

    __slots__ = ("name", "count", "total_seconds", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.buckets = [0] * (len(TIMER_BUCKETS) + 1)

    def observe(self, seconds: float) -> None:
        if not _ENABLED:
            return
        self.count += 1
        self.total_seconds += seconds
        for position, bound in enumerate(TIMER_BUCKETS):
            if seconds <= bound:
                self.buckets[position] += 1
                return
        self.buckets[-1] += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager: observe the wall-clock duration of the block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)


class MetricsRegistry:
    """Named instruments, created on first request and reused thereafter.

    A name belongs to exactly one instrument kind for the registry's
    lifetime; asking for the same name as a different kind is a programming
    error and raises ``ValueError``.  :meth:`reset` zeroes values but keeps
    the instrument objects, so callers that cached an instrument at import
    time stay wired after a test reset.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def _check_name(self, name: str, kind: str) -> None:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid instrument name {name!r}: use lowercase dotted words "
                "([a-z0-9] separated by '.', '_' or '-')"
            )
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("timer", self._timers),
        ):
            if other_kind != kind and name in table:
                raise ValueError(f"instrument {name!r} already exists as a {other_kind}")

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_name(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_name(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            self._check_name(name, "timer")
            instrument = self._timers[name] = Timer(name)
        return instrument

    # ------------------------------------------------------------------
    # Snapshots and deltas
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, int]:
        """Flat, sorted ``{name: value}`` of every counter."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def counter_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since a :meth:`counter_values` snapshot.

        Counters created after ``before`` was taken diff against zero; the
        result only includes counters that actually moved.
        """
        after = self.counter_values()
        return {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }

    def snapshot(self) -> Dict[str, Any]:
        """The full registry as a JSON-ready dict with sorted keys."""
        return {
            "counters": self.counter_values(),
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "timers": {
                name: {
                    "count": timer.count,
                    "total_seconds": round(timer.total_seconds, 6),
                    "buckets": {
                        _bucket_label(position): timer.buckets[position]
                        for position in range(len(timer.buckets))
                    },
                }
                for name, timer in sorted(self._timers.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place (cached instrument objects survive)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for timer in self._timers.values():
            timer.count = 0
            timer.total_seconds = 0.0
            timer.buckets = [0] * (len(TIMER_BUCKETS) + 1)


def _bucket_label(position: int) -> str:
    if position >= len(TIMER_BUCKETS):
        return "+inf"
    return f"{TIMER_BUCKETS[position]:g}"


METRICS = MetricsRegistry()
"""The process-local default registry every subsystem instruments into."""


# ----------------------------------------------------------------------
# Rendering (the ``stats`` subcommand's output formats)
# ----------------------------------------------------------------------
def render_text(snapshot: Dict[str, Any], title: str = "metrics") -> str:
    """A plain-text rendering of a :meth:`MetricsRegistry.snapshot`."""
    lines: List[str] = [f"{title}:"]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    timers = snapshot.get("timers", {})
    if counters:
        lines.append("  counters:")
        lines.extend(f"    {name} = {value}" for name, value in sorted(counters.items()))
    if gauges:
        lines.append("  gauges:")
        lines.extend(f"    {name} = {value}" for name, value in sorted(gauges.items()))
    if timers:
        lines.append("  timers:")
        for name, data in sorted(timers.items()):
            lines.append(
                f"    {name}: count={data['count']} total={data['total_seconds']:.3f}s"
            )
    if len(lines) == 1:
        lines.append("  (no instruments recorded)")
    return "\n".join(lines)


def render_markdown(snapshot: Dict[str, Any]) -> str:
    """The counters/gauges as a GitHub-flavoured markdown table."""
    lines = ["| instrument | kind | value |", "| --- | --- | --- |"]
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"| {name} | counter | {value} |")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"| {name} | gauge | {value} |")
    for name, data in sorted(snapshot.get("timers", {}).items()):
        lines.append(
            f"| {name} | timer | count={data['count']} total={data['total_seconds']:.3f}s |"
        )
    return "\n".join(lines)


def _prometheus_name(name: str, suffix: str = "") -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name) + suffix


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """The snapshot in the Prometheus textfile exposition format.

    Suitable for a node-exporter textfile collector: counters become
    ``repro_<name>_total``, gauges ``repro_<name>``, timers a classic
    ``_seconds`` histogram (``_bucket``/``_sum``/``_count`` series with
    cumulative ``le`` labels).
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prometheus_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, data in sorted(snapshot.get("timers", {}).items()):
        metric = _prometheus_name(name, "_seconds")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for label in [f"{bound:g}" for bound in TIMER_BUCKETS] + ["+inf"]:
            cumulative += data["buckets"].get(label, 0)
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        lines.append(f"{metric}_sum {data['total_seconds']}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n"
