"""Query layer over a :class:`~repro.store.store.RunStore`.

Turns stored slices back into the same
:class:`~repro.experiments.aggregate.ScenarioSummary` shape the live sweeps
produce, renders them as text / markdown tables, and diffs a store against
a *reference* — another store or a JSON baseline file — reusing
:func:`~repro.experiments.aggregate.diff_against_baseline` so the store CLI
and the sweep regression gate agree on what counts as a regression.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Sequence, Union

from ..experiments.aggregate import (
    ScenarioSummary,
    StreamingAggregator,
    diff_against_baseline,
    load_baseline,
    summaries_to_payload,
    summary_status,
)
from .store import RunStore, is_run_store


class EmptySliceError(ValueError):
    """A report/compare slice yielded no usable records.

    Raised when a requested store slice is empty (or all-stale: every record
    lives under another code fingerprint) — such a slice would summarize to
    nothing and trivially pass any diff, so it must be a loud, distinct
    condition the CLI can map to its own exit code rather than a silent
    "no regressions".
    """


def summarize_store(
    store: RunStore,
    scenarios: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    adversaries: Optional[Sequence[str]] = None,
    delays: Optional[Sequence[str]] = None,
    any_code: bool = False,
) -> Dict[str, ScenarioSummary]:
    """Aggregate a stored slice exactly like a live sweep would."""
    aggregator = StreamingAggregator()
    aggregator.add_many(
        store.iter_records(
            scenarios=scenarios,
            protocols=protocols,
            adversaries=adversaries,
            delays=delays,
            any_code=any_code,
        )
    )
    return aggregator.summaries()


_COLUMNS = (
    ("scenario", lambda s: s.scenario),
    ("runs", lambda s: str(s.runs)),
    ("status", lambda s: summary_status(s.ok)),
    ("errors", lambda s: str(s.errors)),
    ("incomplete", lambda s: str(s.incomplete)),
    ("agree-viol", lambda s: str(s.agreement_violations)),
    ("valid-viol", lambda s: str(s.validity_violations)),
    ("msgs-mean", lambda s: f"{s.messages.mean:.1f}"),
    ("words-mean", lambda s: f"{s.words.mean:.1f}"),
    ("latency-mean", lambda s: f"{s.latency.mean:.1f}"),
)


def _rows(summaries: Dict[str, ScenarioSummary]) -> List[List[str]]:
    return [[render(summaries[name]) for _, render in _COLUMNS] for name in sorted(summaries)]


def render_table(summaries: Dict[str, ScenarioSummary]) -> str:
    """A plain-text summary table (column-aligned, stable ordering)."""
    header = [name for name, _ in _COLUMNS]
    rows = [header] + _rows(summaries)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_markdown(summaries: Dict[str, ScenarioSummary]) -> str:
    """The same table as GitHub-flavoured markdown."""
    header = [name for name, _ in _COLUMNS]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in _rows(summaries):
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def load_reference_summaries(
    path: Union[str, pathlib.Path],
    any_code: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """Load a comparison reference: a run store *or* a JSON baseline file.

    Returns the baseline payload shape (plain dicts keyed by scenario name),
    which is what :func:`diff_against_baseline` consumes.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"reference {path} does not exist")
    if is_run_store(path):
        with RunStore(path) as reference:
            return summaries_to_payload(summarize_store(reference, any_code=any_code))["scenarios"]
    return load_baseline(path)


def compare_with_reference(
    store: RunStore,
    reference_path: Union[str, pathlib.Path],
    relative_tolerance: float = 0.2,
    scenarios: Optional[Sequence[str]] = None,
    any_code: bool = False,
) -> List[str]:
    """Diff a store against a reference store / baseline; returns regressions.

    ``scenarios`` restricts *both* sides to the named slice, so a partial
    store can be compared against a full-matrix baseline without every
    absent scenario reporting as "missing from the sweep".

    An empty side is a configuration error, not a clean diff: a store whose
    records all live under a *different* code fingerprint (e.g. one built at
    an earlier commit) would otherwise summarize to nothing and trivially
    report "no regressions" — so both sides must yield at least one
    scenario, and :class:`EmptySliceError` names the empty one otherwise.
    """
    current = summarize_store(store, scenarios=scenarios, any_code=any_code)
    if not current:
        raise EmptySliceError(
            f"store {store.path} has no records for the requested slice under the current "
            "code fingerprint; pass --any-code to read records from other code versions, "
            "or --rerun the sweep"
        )
    reference = load_reference_summaries(reference_path, any_code=any_code)
    if scenarios is not None:
        wanted = set(scenarios)
        reference = {name: stored for name, stored in reference.items() if name in wanted}
    if not reference:
        raise EmptySliceError(
            f"reference {reference_path} yields no scenarios to compare against (a reference "
            "store built by different code summarizes to nothing unless --any-code is given)"
        )
    return diff_against_baseline(current, reference, relative_tolerance)
