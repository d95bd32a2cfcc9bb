"""The ``run`` command: build a :class:`SweepJob`, submit it, render.

All execution policy lives behind :meth:`ExecutionSession.submit` — this
module only parses arguments into a job spec, runs it through a session,
and renders the typed outcome (including the baseline gate, which is a
CLI-level concern layered on the sweep summaries).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Tuple

from ...jobs import ExecutionSession, SweepJob, select_scenarios, specs_to_payloads
from ...store.store import StoreFormatError
from ..aggregate import (
    check_baseline,
    results_to_json,
    summaries_to_payload,
    summary_status,
    write_baseline,
)
from ..runner import DEFAULT_SEED
from ..scenario import ScenarioSpec
from .common import (
    EXIT_FAILURE,
    EXIT_OK,
    add_observability_arguments,
    add_parallelism_arguments,
    add_resilience_arguments,
    add_slice_arguments,
    fail,
)
from .validators import parse_seeds, positive_float


def add_parser(subparsers) -> None:
    run = subparsers.add_parser("run", help="execute a sweep")
    add_slice_arguments(run)
    run.add_argument(
        "--seeds",
        default=None,
        help=f"either a count (seeds {DEFAULT_SEED}, {DEFAULT_SEED + 1}, ...) or a comma list "
        "(default: 1 seed; with --spec: the seed recorded in the file)",
    )
    run.add_argument(
        "--spec",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="replay a single scenario from JSON — a fuzz counterexample file or a bare "
        "spec payload (as in --list --json); overrides any matrix slice selection",
    )
    add_parallelism_arguments(run)
    run.add_argument(
        "--timeout", type=positive_float, default=None, help="per-run wall-clock timeout in seconds"
    )
    add_resilience_arguments(run)
    add_observability_arguments(run)
    run.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        help="persistent run store (SQLite): serve cache hits, execute+persist misses",
    )
    run.add_argument(
        "--rerun",
        action="store_true",
        help="with --store: recompute every requested run and refresh the store",
    )
    run.add_argument(
        "--require-cached",
        action="store_true",
        help="with --store: exit non-zero unless every run was served from the store "
        "(CI uses this to prove a warm sweep executes nothing)",
    )
    run.add_argument("--output", type=pathlib.Path, default=None, help="write raw RunResult records as JSON")
    run.add_argument("--write-baseline", type=pathlib.Path, default=None, help="store the sweep summary")
    run.add_argument("--check-baseline", type=pathlib.Path, default=None, help="diff against a stored summary")
    run.add_argument(
        "--diff-output",
        type=pathlib.Path,
        default=None,
        help="write the baseline diff (regressions + measured summary) as JSON, for CI artifacts",
    )
    run.add_argument("--tolerance", type=float, default=0.2, help="relative complexity tolerance for the diff")
    run.add_argument("--quiet", action="store_true", help="only print failures")


def load_spec_file(
    path: pathlib.Path, seeds_arg: Optional[str]
) -> Tuple[List[ScenarioSpec], List[int]]:
    """Load ``run --spec FILE``: a counterexample record or a bare spec payload.

    Returns ``(scenarios, seeds)``.  The file's recorded seed is the default
    seed list, so replaying a fuzz counterexample reproduces the exact run;
    an explicit ``--seeds`` still wins.
    """
    from ...store.fingerprint import spec_from_payload

    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"spec file {path} must contain a JSON object")
    record = payload.get("spec", payload)
    try:
        spec = spec_from_payload(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"spec file {path} has missing or invalid spec fields: {exc}") from None
    if seeds_arg is not None:
        seeds = parse_seeds(seeds_arg)
    elif "seed" in payload:
        seeds = [int(payload["seed"])]
    else:
        seeds = [DEFAULT_SEED]
    return [spec], seeds


def command_run(args: argparse.Namespace) -> int:
    try:
        if args.spec is not None:
            scenarios, seeds = load_spec_file(args.spec, args.seeds)
        else:
            scenarios = select_scenarios(args.scenario, args.protocol, args.adversary, args.delay)
            seeds = parse_seeds(args.seeds if args.seeds is not None else "1")
    except (KeyError, ValueError) as exc:
        return fail(exc.args[0] if exc.args else str(exc))
    if not scenarios:
        return fail("no scenarios selected")
    if args.diff_output is not None and args.check_baseline is None:
        return fail("--diff-output requires --check-baseline")
    if (args.rerun or args.require_cached) and args.store is None:
        return fail("--rerun/--require-cached only make sense with --store")
    if args.rerun and args.require_cached:
        return fail("--rerun forces execution, which contradicts --require-cached")

    job = SweepJob(
        scenario_payloads=specs_to_payloads(scenarios),
        seeds=tuple(seeds),
        rerun=args.rerun,
        collect_records=args.output is not None,
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
            outcome = session.submit(job)
    except StoreFormatError as exc:
        return fail(str(exc))

    summaries = outcome.summaries
    if not args.quiet:
        print(f"{outcome.run_count} runs over {len(scenarios)} scenarios x {len(seeds)} seeds")
        for name in sorted(summaries):
            summary = summaries[name]
            status = summary_status(summary.ok)
            print(
                f"  [{status}] {name}: msgs mean={summary.messages.mean:.1f} "
                f"words mean={summary.words.mean:.1f} latency mean={summary.latency.mean:.1f}"
            )
    for result in outcome.failures:
        reason = result.error or "; ".join(result.violations) or "incomplete"
        print(f"  FAILED {result.scenario} seed={result.seed}: {reason}", file=sys.stderr)

    if outcome.records is not None:
        args.output.write_text(results_to_json(outcome.records) + "\n")
        print(f"wrote {len(outcome.records)} run records to {args.output}")

    exit_code = EXIT_OK if outcome.ok else EXIT_FAILURE
    if args.store is not None:
        stats = outcome.store_stats
        executed = outcome.run_count - stats["hits"]
        if args.rerun:
            print(f"store {args.store}: {executed} runs recomputed (--rerun), {stats['stored']} stored")
        else:
            print(f"store {args.store}: {stats['hits']} cached, {executed} executed, {stats['stored']} stored")
        if args.require_cached and (stats["misses"] or stats["hits"] < outcome.run_count):
            print(
                f"  REQUIRE-CACHED failed: {stats['misses']} of {outcome.run_count} runs were not in the store",
                file=sys.stderr,
            )
            exit_code = EXIT_FAILURE
    if args.check_baseline is not None:
        regressions = check_baseline(summaries, args.check_baseline, args.tolerance)
        for regression in regressions:
            print(f"  REGRESSION {regression}", file=sys.stderr)
        if args.diff_output is not None:
            payload = {
                "baseline": str(args.check_baseline),
                "regressions": regressions,
                "failures": [result.to_dict() for result in outcome.failures],
                "measured": summaries_to_payload(summaries),
            }
            args.diff_output.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            print(f"wrote baseline diff to {args.diff_output}")
        if regressions:
            exit_code = EXIT_FAILURE
        elif not args.quiet:
            print(f"baseline {args.check_baseline}: no regressions")
    if args.write_baseline is not None:
        write_baseline(args.write_baseline, summaries)
        print(f"wrote baseline for {len(summaries)} scenarios to {args.write_baseline}")
    if args.stats:
        from ...obs.registry import METRICS, render_text

        print(render_text(METRICS.snapshot(), title="telemetry"))
    return exit_code
