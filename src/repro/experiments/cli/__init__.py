"""Command-line interface for scenario sweeps: ``python -m repro.experiments``.

Examples::

    # Enumerate the registered scenario matrix (add --json for tooling)
    python -m repro.experiments --list
    python -m repro.experiments --list --json

    # Parallel smoke sweep over a slice of the matrix, 2 seeds per scenario
    python -m repro.experiments run --protocol binary universal-authenticated \
        --adversary silent crash --seeds 2 --parallel 4

    # Incremental sweep against a persistent run store: cache hits are
    # served from runs.db, misses are executed and persisted, so an
    # interrupted sweep resumes for free and a re-sweep executes nothing.
    python -m repro.experiments run --store runs.db --seeds 3 --parallel 4
    python -m repro.experiments run --store runs.db --seeds 3 --require-cached
    python -m repro.experiments run --store runs.db --seeds 3 --rerun

    # Aggregate and diff stored slices without re-running anything
    python -m repro.experiments report --store runs.db --protocol binary
    python -m repro.experiments compare --store runs.db \
        --against benchmarks/baselines/scenario_matrix.json

    # Full matrix, write (or check) a regression baseline
    python -m repro.experiments run --seeds 3 --write-baseline baseline.json
    python -m repro.experiments run --seeds 3 --check-baseline baseline.json

    # Classify the validity-property families (the paper's theory side) and
    # cross-check the verdicts against the recorded scenario matrix; verdicts
    # are cached in the same run store, so a re-analysis classifies nothing.
    python -m repro.experiments analyze --parallel 4 --store runs.db
    python -m repro.experiments analyze --check-baseline

    # Coverage-guided adversarial fuzzing over scenario space: mutate the
    # base scenarios, persist the corpus in the run store (a warm re-fuzz
    # executes nothing), shrink violations to minimal replayable specs.
    python -m repro.experiments fuzz --budget 200 --seed 2023 --store runs.db \
        --counterexamples out/counterexamples
    python -m repro.experiments run --spec out/counterexamples/counterexample-XYZ.json

    # Telemetry is descriptive, never load-bearing: traced runs are
    # byte-identical to untraced ones.  Render the live metrics registry or
    # the snapshot a job persisted into the store.
    python -m repro.experiments run --store runs.db --trace trace.jsonl --stats
    python -m repro.experiments stats --store runs.db --json

The process exits non-zero when any run errors out, violates a correctness
property, or regresses against the baseline — which makes the command usable
directly as a CI gate.  Exit codes: 0 success, 1 failures/regressions,
2 configuration errors, 3 empty slice (``report``/``compare`` found no
matching records), 130 interrupted (Ctrl-C; the pool is torn down and
completed records are flushed before exiting).

Each subcommand lives in its own module.  ``run``, ``analyze`` and
``fuzz`` do exactly three things: parse arguments, build a job spec
(:mod:`repro.jobs.spec`), and render the outcome of submitting it through
an :class:`~repro.jobs.session.ExecutionSession`, which owns the worker
pool and the store connection.  ``report``, ``compare`` and ``stats`` are
read-only store queries: they open a :class:`~repro.store.store.RunStore`
themselves and persist nothing.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

import sys

from ...jobs.spec import DEFAULT_FUZZ_BASES
from . import analyze, compare, fuzz, report, run, stats
from .common import (
    DEFAULT_MATRIX_BASELINE,
    DEFAULT_VERDICT_BASELINE,
    EXIT_EMPTY_SLICE,
    EXIT_INTERRUPTED,
)
from .listing import command_list
from .validators import parse_seeds

# Compatibility aliases: tests and older callers import the monolith names.
_parse_seeds = parse_seeds

__all__ = [
    "main",
    "parse_seeds",
    "DEFAULT_FUZZ_BASES",
    "DEFAULT_MATRIX_BASELINE",
    "DEFAULT_VERDICT_BASELINE",
    "EXIT_EMPTY_SLICE",
    "EXIT_INTERRUPTED",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Sweep the protocol x adversary x delay scenario matrix.",
    )
    parser.add_argument("--list", action="store_true", help="enumerate registered scenarios and exit")
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --list: emit the matrix as machine-readable JSON (one record per "
        "scenario with its content fingerprint — the same source of truth the run store keys on)",
    )
    subparsers = parser.add_subparsers(dest="command")
    run.add_parser(subparsers)
    report.add_parser(subparsers)
    analyze.add_parser(subparsers)
    fuzz.add_parser(subparsers)
    compare.add_parser(subparsers)
    stats.add_parser(subparsers)
    return parser


_COMMANDS = {
    "run": run.command_run,
    "report": report.command_report,
    "analyze": analyze.command_analyze,
    "fuzz": fuzz.command_fuzz,
    "compare": compare.command_compare,
    "stats": stats.command_stats,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list or args.command is None:
        return command_list(args.json)
    command = _COMMANDS.get(args.command)
    if command is not None:
        try:
            return command(args)
        except KeyboardInterrupt:
            # The session's context manager already tore down the pool and
            # flushed completed records on the way out; all that is left is
            # to report the interruption with the conventional SIGINT code.
            print(f"interrupted: {args.command} stopped by SIGINT", file=sys.stderr)
            return EXIT_INTERRUPTED
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises
