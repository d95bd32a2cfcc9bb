"""The ``report`` command: aggregate a stored slice into summary tables.

A read-only store query: it opens the store itself, never a session, so it
persists nothing (no telemetry snapshot shadows the last sweep's).
"""

from __future__ import annotations

import argparse
import pathlib

from ...jobs import SweepJob
from ...store.store import RunStore, StoreFormatError
from .common import EXIT_OK, add_slice_arguments, fail, fail_empty


def add_parser(subparsers) -> None:
    report = subparsers.add_parser("report", help="aggregate a stored slice into summary tables")
    report.add_argument("--store", type=pathlib.Path, required=True, help="run store to read")
    add_slice_arguments(report)
    report.add_argument(
        "--any-code",
        action="store_true",
        help="include records stored under other code fingerprints (default: current code only)",
    )
    report.add_argument("--markdown", type=pathlib.Path, default=None, help="write the table as markdown")
    report.add_argument("--json-output", type=pathlib.Path, default=None, help="write the summaries as JSON")
    report.add_argument("--quiet", action="store_true", help="do not print the table to stdout")


def command_report(args: argparse.Namespace) -> int:
    import json

    from ...store import render_markdown, render_table, summarize_store
    from ..aggregate import summaries_to_payload

    if not args.store.exists():
        return fail(f"store {args.store} does not exist")
    try:
        with RunStore(args.store) as store:
            summaries = summarize_store(
                store,
                scenarios=args.scenario,
                protocols=args.protocol,
                adversaries=args.adversary,
                delays=args.delay,
                any_code=args.any_code,
            )
            stale = sum(
                count for code_fp, count in store.code_fingerprints() if code_fp != store.code_fp
            )
            # Surface what the slice did NOT compute: the quarantined (poison)
            # tasks under the current code, and the supervision counters of
            # the store's most recent sweep snapshot when one was persisted.
            poison = list(store.iter_poison())
            telemetry = store.get_telemetry(label=SweepJob.kind)
    except StoreFormatError as exc:
        return fail(str(exc))
    supervision = telemetry.snapshot.get("supervision") if telemetry is not None else None
    if not isinstance(supervision, dict):
        supervision = None
    if not summaries:
        hint = (
            " (records exist under other code fingerprints; pass --any-code or --rerun the sweep)"
            if stale and not args.any_code
            else ""
        )
        return fail_empty(f"no stored records match the requested slice{hint}")
    if not args.quiet:
        print(render_table(summaries))
        if stale and not args.any_code:
            print(f"(+{stale} records under older code fingerprints; --any-code includes them)")
        if poison:
            print(f"poison: {len(poison)} quarantined task(s) recorded in this store")
            for entry in poison:
                print(
                    f"  {entry.scenario} seed={entry.seed}: "
                    f"{entry.reason} ({entry.attempts} attempts)"
                )
        if supervision:
            pairs = ", ".join(f"{key}={value}" for key, value in sorted(supervision.items()))
            print(f"supervision (last sweep): {pairs}")
    if args.markdown is not None:
        args.markdown.write_text(render_markdown(summaries) + "\n")
        print(f"wrote markdown report for {len(summaries)} scenarios to {args.markdown}")
    if args.json_output is not None:
        payload = summaries_to_payload(summaries)
        payload["poison"] = [
            {
                "scenario": entry.scenario,
                "seed": entry.seed,
                "attempts": entry.attempts,
                "reason": entry.reason,
            }
            for entry in poison
        ]
        payload["supervision"] = supervision
        args.json_output.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote JSON summaries for {len(summaries)} scenarios to {args.json_output}")
    return EXIT_OK
