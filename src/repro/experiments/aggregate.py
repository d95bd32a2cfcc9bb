"""Sweep aggregation and JSON regression baselines.

The runner produces one :class:`~repro.experiments.execute.RunResult` per
``(scenario, seed)``; this module folds those records into per-scenario
:class:`ScenarioSummary` statistics (message/word/latency distributions,
violation and error counts) and diffs them against a stored JSON baseline so
a sweep can act as a regression gate: correctness fields are compared
exactly, complexity means within a relative tolerance.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Union

from .execute import RunResult

BASELINE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Distribution:
    """Summary statistics of one per-run metric across a sweep."""

    minimum: float
    maximum: float
    mean: float
    median: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Distribution":
        if not values:
            return cls(0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            median = float(ordered[middle])
        else:
            median = (ordered[middle - 1] + ordered[middle]) / 2.0
        return cls(
            minimum=float(ordered[0]),
            maximum=float(ordered[-1]),
            mean=sum(ordered) / len(ordered),
            median=median,
        )


@dataclass
class ScenarioSummary:
    """Aggregated outcome of every run of one scenario in a sweep."""

    scenario: str
    runs: int = 0
    errors: int = 0
    incomplete: int = 0
    agreement_violations: int = 0
    validity_violations: int = 0
    violation_total: int = 0
    messages: Distribution = field(default_factory=lambda: Distribution(0, 0, 0, 0))
    words: Distribution = field(default_factory=lambda: Distribution(0, 0, 0, 0))
    latency: Distribution = field(default_factory=lambda: Distribution(0, 0, 0, 0))

    @property
    def ok(self) -> bool:
        return (
            self.errors == 0
            and self.incomplete == 0
            and self.agreement_violations == 0
            and self.validity_violations == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


SUMMARY_OK = "ok"
"""Rendered status of a scenario summary whose every run passed."""

SUMMARY_FAIL = "FAIL"
"""Rendered status of a scenario summary with errors or violations."""


def summary_status(ok: bool) -> str:
    """The rendered status cell for a scenario summary (live sweep and store report)."""
    return SUMMARY_OK if ok else SUMMARY_FAIL


class _ScenarioAccumulator:
    """Streaming per-scenario fold: counters plus the metric value lists.

    Only the numeric distributions (needed for min/max/mean/median) are
    retained per run — the :class:`RunResult` records themselves are not,
    which is what lets a sweep aggregate while it streams instead of
    materializing every record first.
    """

    __slots__ = (
        "scenario",
        "runs",
        "errors",
        "incomplete",
        "agreement_violations",
        "validity_violations",
        "violation_total",
        "messages",
        "words",
        "latency",
    )

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.runs = 0
        self.errors = 0
        self.incomplete = 0
        self.agreement_violations = 0
        self.validity_violations = 0
        self.violation_total = 0
        self.messages: List[float] = []
        self.words: List[float] = []
        self.latency: List[float] = []

    def add(self, result: RunResult) -> None:
        self.runs += 1
        self.violation_total += len(result.violations)
        if result.error is not None:
            self.errors += 1
            return
        # Finished runs feed the distributions and the correctness counters.
        if not result.completed:
            self.incomplete += 1
        if result.agreement is False:
            self.agreement_violations += 1
        if result.validity_ok is False:
            self.validity_violations += 1
        self.messages.append(result.message_complexity)
        self.words.append(result.communication_complexity)
        if result.completed and result.decision_latency is not None:
            self.latency.append(result.decision_latency)

    def summary(self) -> ScenarioSummary:
        return ScenarioSummary(
            scenario=self.scenario,
            runs=self.runs,
            errors=self.errors,
            incomplete=self.incomplete,
            agreement_violations=self.agreement_violations,
            validity_violations=self.validity_violations,
            violation_total=self.violation_total,
            messages=Distribution.from_values(self.messages),
            words=Distribution.from_values(self.words),
            latency=Distribution.from_values(self.latency),
        )


class StreamingAggregator:
    """Folds :class:`RunResult` records into summaries one record at a time.

    Built for :meth:`Runner.iter_runs`: feed results as the pool produces
    them and call :meth:`summaries` at the end — identical output to
    :func:`aggregate` over the full list, without holding the records.
    """

    def __init__(self) -> None:
        self._accumulators: Dict[str, _ScenarioAccumulator] = {}

    def add(self, result: RunResult) -> None:
        accumulator = self._accumulators.get(result.scenario)
        if accumulator is None:
            accumulator = self._accumulators[result.scenario] = _ScenarioAccumulator(
                result.scenario
            )
        accumulator.add(result)

    def add_many(self, results: Iterable[RunResult]) -> None:
        for result in results:
            self.add(result)

    def summaries(self) -> Dict[str, ScenarioSummary]:
        return {name: acc.summary() for name, acc in self._accumulators.items()}


def aggregate(results: Iterable[RunResult]) -> Dict[str, ScenarioSummary]:
    """Fold run records into per-scenario summaries (keyed by scenario name).

    Runs that never finished (errors, timeouts) carry no agreement/validity
    verdict and no meaningful latency, so they only feed the ``errors``
    counter: agreement/validity violations are counted over runs with an
    actual ``False`` verdict, and the latency distribution only over runs in
    which every correct process decided.  Treating a timed-out run's
    placeholder fields as data would let it pass for a clean, zero-latency
    run.

    This is the one-shot wrapper over :class:`StreamingAggregator`; both
    produce identical summaries.
    """
    aggregator = StreamingAggregator()
    aggregator.add_many(results)
    return aggregator.summaries()


def summaries_to_payload(summaries: Dict[str, ScenarioSummary]) -> Dict[str, Any]:
    """The baseline JSON shape as plain dicts (single source of the format)."""
    return {
        "format_version": BASELINE_FORMAT_VERSION,
        "scenarios": {name: summary.to_dict() for name, summary in summaries.items()},
    }


def summaries_to_json(summaries: Dict[str, ScenarioSummary]) -> str:
    """Canonical JSON for a set of summaries (stable across runs and hosts)."""
    return json.dumps(summaries_to_payload(summaries), sort_keys=True, separators=(",", ":"))


def write_baseline(path: Union[str, pathlib.Path], summaries: Dict[str, ScenarioSummary]) -> None:
    """Store sweep summaries as a regression baseline."""
    pathlib.Path(path).write_text(summaries_to_json(summaries) + "\n")


def load_baseline(path: Union[str, pathlib.Path]) -> Dict[str, Dict[str, Any]]:
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format_version") != BASELINE_FORMAT_VERSION:
        raise ValueError(
            f"baseline {path} has format_version {payload.get('format_version')!r}, "
            f"expected {BASELINE_FORMAT_VERSION}"
        )
    return payload["scenarios"]


def diff_against_baseline(
    summaries: Dict[str, ScenarioSummary],
    baseline: Dict[str, Dict[str, Any]],
    relative_tolerance: float = 0.2,
) -> List[str]:
    """Compare a sweep against a baseline; returns human-readable regressions.

    Correctness counters (errors, incomplete runs, agreement/validity
    violations) must not exceed the baseline.  Mean message and word
    complexity may drift by at most ``relative_tolerance`` above it
    (improvements never count as regressions).
    """
    regressions: List[str] = []
    for name, stored in sorted(baseline.items()):
        summary = summaries.get(name)
        if summary is None:
            regressions.append(f"{name}: scenario missing from the sweep")
            continue
        for counter in ("errors", "incomplete", "agreement_violations", "validity_violations"):
            measured = getattr(summary, counter)
            allowed = stored.get(counter, 0)
            if measured > allowed:
                regressions.append(f"{name}: {counter} rose from {allowed} to {measured}")
        for metric in ("messages", "words"):
            measured_mean = getattr(summary, metric).mean
            stored_mean = stored.get(metric, {}).get("mean", 0.0)
            ceiling = stored_mean * (1.0 + relative_tolerance)
            if stored_mean and measured_mean > ceiling and not math.isclose(measured_mean, ceiling):
                regressions.append(
                    f"{name}: mean {metric} rose from {stored_mean:.1f} to {measured_mean:.1f} "
                    f"(> {relative_tolerance:.0%} tolerance)"
                )
    return regressions


def check_baseline(
    summaries: Dict[str, ScenarioSummary],
    path: Union[str, pathlib.Path],
    relative_tolerance: float = 0.2,
) -> List[str]:
    """Load a baseline file and diff a sweep against it."""
    return diff_against_baseline(summaries, load_baseline(path), relative_tolerance)


def results_to_json(results: Sequence[RunResult]) -> str:
    """Canonical JSON for raw run records (used by the CLI ``--output``)."""
    return json.dumps([result.to_dict() for result in results], sort_keys=True, separators=(",", ":"))
