"""Parallel experiment runner and scenario matrix.

This package turns the one-off ``Simulation`` drivers of the early repo into
an experiment subsystem:

* :mod:`repro.experiments.scenario` — :class:`ScenarioSpec` plus registries
  that compose consensus protocols, adversary behaviours and network delay
  models into a named cartesian scenario matrix;
* :mod:`repro.experiments.execute` — the run semantics: :func:`execute_run`
  maps one ``(scenario, seed)`` pair to a deterministic :class:`RunResult`
  record (with ``scenario`` the only ``experiments`` code inside the store's
  code fingerprint);
* :mod:`repro.experiments.runner` — the engine: :class:`Runner` sweeps
  ``scenarios × seeds`` serially or with ``multiprocessing`` fan-out and
  per-run timeouts, yielding those records byte-identically either way;
* :mod:`repro.experiments.aggregate` — per-scenario summary statistics and
  JSON regression baselines;
* :mod:`repro.experiments.cli` — the ``python -m repro.experiments`` entry
  point (``--list [--json]``, ``run`` with optional ``--store``/``--rerun``
  persistence via :mod:`repro.store`, plus the store-backed ``report`` and
  ``compare`` subcommands; baseline write/check).

Seeds: every run is fully determined by its ``(scenario, seed)`` pair.
:data:`DEFAULT_SEED` and :func:`sweep_seeds` are the single seeding path
shared with the benchmark suite, so BENCH numbers reproduce run-to-run.
"""

from .aggregate import (
    Distribution,
    ScenarioSummary,
    StreamingAggregator,
    aggregate,
    check_baseline,
    diff_against_baseline,
    load_baseline,
    results_to_json,
    summaries_to_json,
    summaries_to_payload,
    write_baseline,
)
from .execute import RunResult, canonical_value, execute_run
from .runner import DEFAULT_SEED, Runner, sweep_seeds
from .scenario import (
    ADVERSARIES,
    DELAY_MODELS,
    EQUIVOCATION_ATTACKS,
    PROTOCOLS,
    ProtocolSetup,
    ScenarioSpec,
    default_matrix,
    find_scenarios,
    large_n_presets,
    make_params,
    make_scenario,
    scenario_matrix,
    scenario_name,
)

__all__ = [
    "ScenarioSpec",
    "ProtocolSetup",
    "PROTOCOLS",
    "ADVERSARIES",
    "DELAY_MODELS",
    "make_scenario",
    "make_params",
    "scenario_matrix",
    "scenario_name",
    "default_matrix",
    "large_n_presets",
    "EQUIVOCATION_ATTACKS",
    "find_scenarios",
    "Runner",
    "RunResult",
    "execute_run",
    "canonical_value",
    "DEFAULT_SEED",
    "sweep_seeds",
    "aggregate",
    "StreamingAggregator",
    "Distribution",
    "ScenarioSummary",
    "write_baseline",
    "load_baseline",
    "check_baseline",
    "diff_against_baseline",
    "summaries_to_json",
    "summaries_to_payload",
    "results_to_json",
]
