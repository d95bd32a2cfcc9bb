"""The ``analyze`` command: classify validity families, cross-check runs."""

from __future__ import annotations

import argparse
import pathlib
import sys

from ...jobs import AnalyzeJob, ExecutionSession, JobSpecError
from ...store.store import StoreFormatError
from .common import (
    DEFAULT_MATRIX_BASELINE,
    DEFAULT_VERDICT_BASELINE,
    EXIT_FAILURE,
    EXIT_OK,
    add_observability_arguments,
    add_parallelism_arguments,
    add_resilience_arguments,
    fail,
)


def add_parser(subparsers) -> None:
    analyze = subparsers.add_parser(
        "analyze",
        help="classify validity-property families and cross-check the scenario matrix",
    )
    analyze.add_argument(
        "--family",
        nargs="+",
        default=None,
        choices=["named", "enumerated", "sampled"],
        help="restrict the classified property families (default: all, plus the "
        "properties the scenario matrix targets)",
    )
    add_parallelism_arguments(analyze)
    add_resilience_arguments(analyze)
    add_observability_arguments(analyze)
    analyze.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        help="persistent run store (SQLite): serve cached verdicts, classify+persist misses",
    )
    analyze.add_argument(
        "--rerun", action="store_true", help="with --store: reclassify everything and refresh the store"
    )
    analyze.add_argument(
        "--require-cached",
        action="store_true",
        help="with --store: exit non-zero unless every verdict was served from the store",
    )
    analyze.add_argument(
        "--markdown", type=pathlib.Path, default=None, help="write the verdict table as markdown"
    )
    analyze.add_argument(
        "--json-output",
        type=pathlib.Path,
        default=None,
        help="write the verdicts as JSON (same shape as the verdict baseline)",
    )
    analyze.add_argument(
        "--write-baseline", type=pathlib.Path, default=None, help="store the verdicts as a baseline"
    )
    analyze.add_argument(
        "--check-baseline",
        type=pathlib.Path,
        nargs="?",
        const=DEFAULT_VERDICT_BASELINE,
        default=None,
        help=f"diff the verdicts against a stored baseline (default: {DEFAULT_VERDICT_BASELINE}); "
        "theory verdicts are exact, so any changed field is a regression",
    )
    analyze.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip checking the verdicts against the recorded scenario-matrix summaries",
    )
    analyze.add_argument(
        "--cross-check-against",
        type=pathlib.Path,
        default=DEFAULT_MATRIX_BASELINE,
        help="recorded summaries to cross-check: a run store or a baseline JSON "
        f"(default: {DEFAULT_MATRIX_BASELINE})",
    )
    analyze.add_argument("--quiet", action="store_true", help="only print failures")


def command_analyze(args: argparse.Namespace) -> int:
    from ...analysis.pipeline import (
        diff_verdicts,
        load_verdict_baseline,
        render_verdict_markdown,
        render_verdict_table,
        verdicts_to_json,
    )

    if (args.rerun or args.require_cached) and args.store is None:
        return fail("--rerun/--require-cached only make sense with --store")
    if args.rerun and args.require_cached:
        return fail("--rerun forces reclassification, which contradicts --require-cached")

    cross_check = not args.no_cross_check
    job = AnalyzeJob(
        families=tuple(args.family) if args.family else ("named", "enumerated", "sampled"),
        cross_check_reference=str(args.cross_check_against) if cross_check else None,
        rerun=args.rerun,
    )
    try:
        with ExecutionSession(
            parallel=args.parallel,
            batch_size=args.batch_size,
            store_path=args.store,
            max_retries=args.max_retries,
            fail_fast=args.fail_fast,
            trace_path=args.trace,
        ) as session:
            outcome = session.submit(job)
    except JobSpecError as exc:
        return fail(str(exc))
    except StoreFormatError as exc:
        return fail(str(exc))

    verdicts = outcome.verdicts
    counts = outcome.counts
    exit_code = EXIT_OK
    if not args.quiet:
        print(
            f"{counts['total']} validity properties classified "
            f"({outcome.cached} cached, {outcome.classified} classified)"
        )
        print(
            f"  solvable: {counts['solvable']} "
            f"(trivial: {counts['trivial']}, non-trivial via C_S: {counts['solvable_non_trivial']})  "
            f"unsolvable: {counts['unsolvable']}"
        )
    if args.store is not None:
        stats = outcome.store_stats
        if args.rerun and not args.quiet:
            print(
                f"store {args.store}: {outcome.classified} verdicts reclassified (--rerun), "
                f"{stats['verdicts_stored']} stored"
            )
        elif not args.quiet:
            print(
                f"store {args.store}: {outcome.cached} cached, {outcome.classified} "
                f"classified, {stats['verdicts_stored']} stored"
            )
        if args.require_cached and outcome.classified:
            print(
                f"  REQUIRE-CACHED failed: {outcome.classified} of {counts['total']} "
                "verdicts were not in the store",
                file=sys.stderr,
            )
            exit_code = EXIT_FAILURE

    if cross_check:
        if outcome.cross_check_error is not None:
            return fail(outcome.cross_check_error)
        result = outcome.cross_check
        for divergence in result.divergences:
            print(f"  DIVERGENCE {divergence}", file=sys.stderr)
        if result.divergences:
            print(
                f"theory/simulation cross-check: {len(result.divergences)} divergences "
                f"over {result.checked} scenarios",
                file=sys.stderr,
            )
            exit_code = EXIT_FAILURE
        elif not args.quiet:
            print(
                f"cross-check vs {args.cross_check_against}: {result.checked} scenarios "
                f"consistent, {len(result.skipped)} without a property target — 0 divergences"
            )

    if args.markdown is not None:
        args.markdown.write_text(render_verdict_markdown(verdicts) + "\n")
        print(f"wrote markdown verdict table for {len(verdicts)} properties to {args.markdown}")
    if args.json_output is not None:
        args.json_output.write_text(verdicts_to_json(verdicts) + "\n")
        print(f"wrote {len(verdicts)} verdicts to {args.json_output}")
    if args.check_baseline is not None:
        try:
            baseline = load_verdict_baseline(args.check_baseline)
        except (OSError, ValueError) as exc:
            return fail(str(exc))
        regressions = diff_verdicts(verdicts, baseline)
        for regression in regressions:
            print(f"  REGRESSION {regression}", file=sys.stderr)
        if regressions:
            exit_code = EXIT_FAILURE
        elif not args.quiet:
            print(f"verdict baseline {args.check_baseline}: no divergences")
    if args.write_baseline is not None:
        args.write_baseline.write_text(verdicts_to_json(verdicts) + "\n")
        print(f"wrote verdict baseline for {len(verdicts)} properties to {args.write_baseline}")
    if not args.quiet and args.markdown is None and exit_code == EXIT_OK and len(verdicts) <= 16:
        print(render_verdict_table(verdicts))
    if args.stats:
        from ...obs.registry import METRICS, render_text

        print(render_text(METRICS.snapshot(), title="telemetry"))
    return exit_code
