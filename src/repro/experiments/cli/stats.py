"""The ``stats`` command: render a telemetry snapshot.

Two sources, one renderer.  Without ``--store`` the command renders the
*live* process-local registry (:data:`repro.obs.registry.METRICS`) — useful
when embedding the CLI in a larger process or driving it from tests.  With
``--store DB`` it loads a persisted ``telemetry`` snapshot (the session
writes one per successful ``run``/``analyze``/``fuzz`` job) and renders the
registry state captured at the end of that job, plus the job-attributable
counter deltas and the supervision stats that rode along.

Output modes mirror the rest of the CLI: human text (default),
``--markdown`` table, ``--json`` for machine consumers (`jq`-friendly: the
registry always lives under the top-level ``registry`` key), and
``--prometheus FILE`` for a node-exporter-style textfile export.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib

from ...obs.registry import METRICS, render_markdown, render_prometheus, render_text
from ...store.store import RunStore, StoreFormatError
from .common import EXIT_OK, fail, fail_empty


def add_parser(subparsers) -> None:
    stats = subparsers.add_parser(
        "stats",
        help="render a telemetry snapshot (live registry or persisted from a store)",
        description="Render dispatch/store/supervision counters and phase timings. "
        "Without --store: the live in-process metrics registry. With --store: the "
        "latest telemetry snapshot a job persisted there (or --snapshot ID). "
        "Telemetry is descriptive only; this command never changes anything.",
    )
    stats.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        help="run store holding persisted telemetry snapshots (default: live registry)",
    )
    stats.add_argument(
        "--label",
        default=None,
        metavar="JOB",
        help="with --store: restrict to snapshots persisted by this job kind "
        "(sweep/analyze/fuzz)",
    )
    stats.add_argument(
        "--snapshot",
        type=int,
        default=None,
        metavar="ID",
        help="with --store: render this snapshot id instead of the latest",
    )
    stats.add_argument("--json", action="store_true", help="print the snapshot as JSON")
    stats.add_argument("--markdown", action="store_true", help="print the snapshot as a markdown table")
    stats.add_argument(
        "--prometheus",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also write the snapshot in Prometheus textfile-exposition format to FILE",
    )


def _load_persisted(args: argparse.Namespace):
    """Load the requested :class:`TelemetrySnapshot`, or an exit code on failure."""
    if not args.store.exists():
        return fail(f"store {args.store} does not exist")
    try:
        with RunStore(args.store) as store:
            record = store.get_telemetry(snapshot_id=args.snapshot, label=args.label)
    except StoreFormatError as exc:
        return fail(str(exc))
    if record is None:
        wanted = f"snapshot {args.snapshot}" if args.snapshot is not None else "telemetry snapshots"
        scope = f" for job {args.label!r}" if args.label else ""
        return fail_empty(f"store {args.store} holds no {wanted}{scope}")
    return record


def command_stats(args: argparse.Namespace) -> int:
    if args.snapshot is not None and args.store is None:
        return fail("--snapshot only makes sense with --store")
    if args.label is not None and args.store is None:
        return fail("--label only makes sense with --store")

    if args.store is not None:
        record = _load_persisted(args)
        if isinstance(record, int):  # an exit code from fail()/fail_empty()
            return record
        payload = dict(record.snapshot)
        payload.setdefault("registry", {})
        payload["source"] = "store"
        payload["store_path"] = str(args.store)
        payload["snapshot_id"] = record.snapshot_id
        payload["label"] = record.label
        payload["created"] = record.created
        registry_snapshot = payload["registry"]
        title = f"telemetry snapshot {record.snapshot_id} ({record.label})"
    else:
        registry_snapshot = METRICS.snapshot()
        payload = {"source": "live", "registry": registry_snapshot}
        title = "telemetry (live registry)"

    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.markdown:
        print(render_markdown(registry_snapshot))
    else:
        if args.store is not None:
            created = datetime.datetime.fromtimestamp(
                record.created, tz=datetime.timezone.utc
            ).isoformat(timespec="seconds")
            status = payload.get("status")
            print(f"{title}: status={status} created={created}")
        print(render_text(registry_snapshot, title=title if args.store is None else "registry"))
        supervision = payload.get("supervision")
        if isinstance(supervision, dict) and supervision:
            pairs = ", ".join(f"{key}={value}" for key, value in sorted(supervision.items()))
            print(f"  supervision: {pairs}")
    if args.prometheus is not None:
        args.prometheus.write_text(render_prometheus(registry_snapshot))
        print(f"wrote Prometheus textfile export to {args.prometheus}")
    return EXIT_OK
