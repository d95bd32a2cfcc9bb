"""Persistent run store: content-addressed caching for scenario sweeps.

Every :class:`~repro.experiments.execute.RunResult` is a deterministic pure
function of ``(scenario, seed, code)`` — so it only ever needs to be
computed once.  This package persists those results the way open-science
collaborations publish immutable result archives: an accumulating,
queryable database instead of one-shot sweep processes.

* :mod:`repro.store.fingerprint` — content hashes: a scenario fingerprint
  over the canonical :class:`~repro.experiments.scenario.ScenarioSpec`
  payload and a code fingerprint over the semantic module tree plus the
  registered builders' source (cache entries auto-invalidate when the
  semantics change);
* :mod:`repro.store.store` — :class:`RunStore`, an SQLite (WAL) database
  keyed by ``(scenario_fp, seed, code_fp)`` with batched writes and an
  in-memory LRU read path, safe to share between sweep processes; every
  keyed table (runs, verdicts, corpus, poison) is one description from
  which its schema, statements, buffer and cache are derived;
* :mod:`repro.store.query` — aggregate stored slices back into
  :class:`~repro.experiments.aggregate.ScenarioSummary` tables, render
  text/markdown reports, and diff a store against another store or a JSON
  baseline (the ``report`` / ``compare`` CLI subcommands).

Wired into sweeps via ``Runner.iter_runs(..., store=...)`` and the CLI:
``python -m repro.experiments run --store runs.db`` resumes interrupted
sweeps for free and ``--rerun`` forces recomputation.
"""

from .fingerprint import (
    ANALYSIS_PACKAGES,
    FINGERPRINT_VERSION,
    SEMANTIC_PACKAGES,
    analysis_code_fingerprint,
    canonical_form,
    code_fingerprint,
    payload_fingerprint,
    scenario_fingerprint,
    spec_from_payload,
    spec_payload,
)
from .query import (
    EmptySliceError,
    compare_with_reference,
    load_reference_summaries,
    render_markdown,
    render_table,
    summarize_store,
)
from .store import (
    STORE_FORMAT_VERSION,
    CorpusRecord,
    PoisonEntry,
    RunStore,
    StoreFlushError,
    StoreFormatError,
    StoreRecovery,
    StoreStats,
    TelemetrySnapshot,
    is_run_store,
)

__all__ = [
    "ANALYSIS_PACKAGES",
    "FINGERPRINT_VERSION",
    "SEMANTIC_PACKAGES",
    "STORE_FORMAT_VERSION",
    "CorpusRecord",
    "EmptySliceError",
    "PoisonEntry",
    "RunStore",
    "StoreFlushError",
    "StoreFormatError",
    "StoreRecovery",
    "StoreStats",
    "TelemetrySnapshot",
    "analysis_code_fingerprint",
    "canonical_form",
    "code_fingerprint",
    "payload_fingerprint",
    "compare_with_reference",
    "is_run_store",
    "load_reference_summaries",
    "render_markdown",
    "render_table",
    "scenario_fingerprint",
    "spec_from_payload",
    "spec_payload",
    "summarize_store",
]
