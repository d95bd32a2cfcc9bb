"""The ``fuzz`` command: one coverage-guided mutation campaign as a job."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ...jobs import (
    DEFAULT_FUZZ_BASES,
    ExecutionSession,
    FuzzJob,
    JobSpecError,
    resolve_fuzz_bases,
    specs_to_payloads,
)
from ...store.store import StoreFormatError
from ..runner import DEFAULT_SEED
from .common import (
    EXIT_FAILURE,
    EXIT_OK,
    add_observability_arguments,
    add_parallelism_arguments,
    add_resilience_arguments,
    fail,
)
from .validators import positive_float, positive_int


def add_parser(subparsers) -> None:
    fuzz = subparsers.add_parser(
        "fuzz",
        help="coverage-guided adversarial fuzzing over scenario space",
        description="Mutate the base scenarios under a seeded walk, score executions by "
        "coverage novelty, persist the corpus in the run store, and shrink every "
        "violating input to a minimal replayable counterexample (run --spec replays it). "
        "Deterministic: same seed, budget and bases produce the same campaign, serial "
        "or parallel.",
    )
    fuzz.add_argument(
        "--budget", type=positive_int, default=200, help="candidates to process (default: 200)"
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"fuzz seed driving the mutation walk (default: {DEFAULT_SEED})",
    )
    fuzz.add_argument(
        "--base",
        nargs="+",
        default=None,
        metavar="NAME",
        help="base scenarios to mutate from: default-matrix names or protocol+adversary+delay "
        f"combinations, extension keys included (default: {' '.join(DEFAULT_FUZZ_BASES)})",
    )
    fuzz.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        help="persistent run store: results + corpus are content-addressed there, so a "
        "warm re-fuzz of the same campaign executes zero runs",
    )
    add_parallelism_arguments(fuzz)
    fuzz.add_argument(
        "--timeout", type=positive_float, default=None, help="per-run wall-clock timeout in seconds"
    )
    add_resilience_arguments(fuzz)
    add_observability_arguments(fuzz)
    fuzz.add_argument(
        "--counterexamples",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="write each shrunk counterexample as a replayable JSON file in DIR",
    )
    fuzz.add_argument(
        "--json-output", type=pathlib.Path, default=None, help="write the full campaign report as JSON"
    )
    fuzz.add_argument(
        "--require-cached",
        action="store_true",
        help="with --store: exit non-zero unless the whole campaign was served from the "
        "store (CI uses this to prove a warm re-fuzz executes nothing)",
    )
    fuzz.add_argument("--quiet", action="store_true", help="suppress per-round progress lines")


def command_fuzz(args: argparse.Namespace) -> int:
    try:
        bases = resolve_fuzz_bases(args.base if args.base else DEFAULT_FUZZ_BASES)
    except (KeyError, JobSpecError) as exc:
        return fail(exc.args[0] if exc.args else str(exc))
    if args.require_cached and args.store is None:
        return fail("--require-cached only makes sense with --store")

    job = FuzzJob(
        base_payloads=specs_to_payloads(bases),
        budget=args.budget,
        fuzz_seed=args.seed,
    )
    try:
        with ExecutionSession(
            parallel=args.parallel,
            batch_size=args.batch_size,
            timeout=args.timeout,
            store_path=args.store,
            max_retries=args.max_retries,
            fail_fast=args.fail_fast,
            trace_path=args.trace,
        ) as session:
            outcome = session.submit(job, log=None if args.quiet else print)
    except StoreFormatError as exc:
        return fail(str(exc))
    except ValueError as exc:
        return fail(str(exc))
    report = outcome.report

    print(
        f"fuzz seed={report.fuzz_seed}: {report.candidates} candidates "
        f"({report.executed} executed, {report.cached} cached, "
        f"{report.skipped_invalid} invalid skipped)"
    )
    print(
        f"  coverage: {report.coverage_sites} sites, {report.novel} novel inputs, "
        f"pool {report.pool_size}"
    )
    print(
        f"  violations: {report.violating} inputs, "
        f"{len(report.counterexamples)} distinct counterexample(s)"
    )
    for counterexample in report.counterexamples:
        print(
            f"  counterexample {counterexample['scenario']} seed={counterexample['seed']} "
            f"({len(counterexample['mutations'])} mutation(s) from {counterexample['base']}): "
            + "; ".join(counterexample["violations"])
        )

    exit_code = EXIT_OK if outcome.ok else EXIT_FAILURE
    if args.store is not None:
        stats = outcome.store_stats
        print(
            f"store {args.store}: {report.cached} cached, {report.executed} executed, "
            f"{stats['stored']} runs + {stats['corpus_stored']} corpus entries stored"
        )
        if args.require_cached and report.executed:
            print(
                f"  REQUIRE-CACHED failed: {report.executed} of {report.candidates} "
                "candidates were not in the store",
                file=sys.stderr,
            )
            exit_code = EXIT_FAILURE
    if args.counterexamples is not None:
        args.counterexamples.mkdir(parents=True, exist_ok=True)
        for counterexample in report.counterexamples:
            path = args.counterexamples / f"counterexample-{counterexample['entry_fp'][:16]}.json"
            path.write_text(json.dumps(counterexample, sort_keys=True, indent=2) + "\n")
        print(
            f"wrote {len(report.counterexamples)} counterexample(s) to {args.counterexamples} "
            "(replay with: run --spec FILE)"
        )
    if args.json_output is not None:
        args.json_output.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"wrote campaign report to {args.json_output}")
    if args.stats:
        from ...obs.registry import METRICS, render_text

        print(render_text(METRICS.snapshot(), title="telemetry"))
    return exit_code
