"""Shared CLI plumbing: exit codes, failure rendering, slice arguments, paths.

The process exit codes are flat constants here — the CLI contract, usable
directly as a CI gate.  Every command module renders configuration errors
and empty slices through :func:`fail` / :func:`fail_empty`, so the
``error:`` / ``empty slice:`` prefixes and their exit codes are defined in
exactly one place.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..scenario import ADVERSARIES, DELAY_MODELS, PROTOCOLS

EXIT_OK = 0
"""Success: the job completed cleanly."""

EXIT_FAILURE = 1
"""Failures: failing runs, regressions, divergences, require-cached misses."""

EXIT_CONFIG = 2
"""Configuration error: the request itself was invalid."""

EXIT_EMPTY_SLICE = 3
"""``report``/``compare`` matched no (current-code) records — distinct from
:data:`EXIT_CONFIG` so CI can tell "you asked for nothing" from "you asked
wrongly"."""

EXIT_INTERRUPTED = 130
"""The job was interrupted (Ctrl-C / SIGINT): the session tore down its pool
and flushed the records completed so far, then the CLI exited with the
conventional ``128 + SIGINT`` code so shells and CI see a signal death."""

DEFAULT_VERDICT_BASELINE = pathlib.Path("benchmarks/baselines/analysis_verdicts.json")
"""The committed analysis-verdict baseline (``analyze --check-baseline`` default)."""

DEFAULT_MATRIX_BASELINE = pathlib.Path("benchmarks/baselines/scenario_matrix.json")
"""The committed scenario-matrix baseline the cross-check reads by default."""


def fail(message: str) -> int:
    """Render a configuration error; returns :data:`EXIT_CONFIG`."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def fail_empty(message: str) -> int:
    """Render an empty report/compare slice; returns :data:`EXIT_EMPTY_SLICE`."""
    print(f"empty slice: {message}", file=sys.stderr)
    return EXIT_EMPTY_SLICE


def add_slice_arguments(parser: argparse.ArgumentParser, with_scenario: bool = True) -> None:
    """The matrix-slice selectors shared by ``run`` and ``report``."""
    if with_scenario:
        parser.add_argument("--scenario", nargs="+", default=None, help="explicit scenario names")
    parser.add_argument("--protocol", nargs="+", default=None, choices=sorted(PROTOCOLS))
    parser.add_argument("--adversary", nargs="+", default=None, choices=sorted(ADVERSARIES))
    parser.add_argument("--delay", nargs="+", default=None, choices=sorted(DELAY_MODELS))


def add_parallelism_arguments(parser: argparse.ArgumentParser) -> None:
    """The pool-shape knobs shared by ``run``, ``analyze`` and ``fuzz``.

    ``--parallel`` sizes the worker pool; ``--batch-size`` sizes the
    microbatch each worker dispatch carries.  Both are pure throughput
    knobs: any combination (including serial) produces byte-identical
    records.
    """
    from .validators import positive_int

    parser.add_argument(
        "--parallel", type=positive_int, default=None, metavar="W", help="worker processes (default: serial)"
    )
    parser.add_argument(
        "--batch-size",
        type=positive_int,
        default=None,
        metavar="B",
        help="tasks per parallel worker dispatch; amortizes dispatch overhead "
        "while keeping results, caching and retries per-task (default: sized "
        "automatically from the sweep and worker counts)",
    )


def add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by ``run``, ``analyze`` and ``fuzz``.

    Validated at parse time through :func:`.validators.non_negative_int`, so
    a bad retry budget dies with the same argparse error in every command.
    """
    from .validators import non_negative_int

    parser.add_argument(
        "--max-retries",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="retries granted to a task whose worker crashes and to failing store "
        "flushes, before the task is quarantined / the flush error surfaces "
        "(default: the retry policy's built-in budget)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first failed unit of work (first failed run, first "
        "divergent verdict, first violating fuzz batch) instead of completing "
        "the whole matrix",
    )


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """The telemetry knobs shared by ``run``, ``analyze`` and ``fuzz``.

    Telemetry is descriptive, never load-bearing: enabling any of these
    changes no record, baseline or exit code.
    """
    parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace (job/phase spans, per-run events) "
        "to FILE; traced runs produce byte-identical records to untraced ones",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a metrics snapshot (dispatch/store/supervision counters and "
        "timings) after the job finishes — the same numbers the `stats` "
        "subcommand renders",
    )
