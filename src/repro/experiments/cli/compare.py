"""The ``compare`` command: diff a store against a reference.

A read-only store query: it opens the store itself, never a session, so it
persists nothing.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ...store.query import EmptySliceError, compare_with_reference
from ...store.store import RunStore, StoreFormatError
from .common import EXIT_FAILURE, EXIT_OK, fail, fail_empty


def add_parser(subparsers) -> None:
    compare = subparsers.add_parser(
        "compare", help="diff a store against another store or a JSON baseline"
    )
    compare.add_argument("--store", type=pathlib.Path, required=True, help="run store to measure")
    compare.add_argument(
        "--against",
        type=pathlib.Path,
        required=True,
        help="reference: another run store (SQLite) or a baseline JSON file",
    )
    compare.add_argument("--scenario", nargs="+", default=None, help="restrict both sides to these scenarios")
    compare.add_argument("--tolerance", type=float, default=0.2, help="relative complexity tolerance")
    compare.add_argument(
        "--any-code", action="store_true", help="include records from other code fingerprints"
    )


def command_compare(args: argparse.Namespace) -> int:
    if not args.store.exists():
        return fail(f"store {args.store} does not exist")
    if not args.against.exists():
        return fail(f"reference {args.against} does not exist")
    try:
        with RunStore(args.store) as store:
            regressions = compare_with_reference(
                store,
                args.against,
                relative_tolerance=args.tolerance,
                scenarios=args.scenario,
                any_code=args.any_code,
            )
    except EmptySliceError as exc:
        return fail_empty(str(exc))
    except (ValueError, StoreFormatError) as exc:
        return fail(str(exc))
    for regression in regressions:
        print(f"  REGRESSION {regression}", file=sys.stderr)
    if regressions:
        print(f"{len(regressions)} regressions against {args.against}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"{args.store} vs {args.against}: no regressions")
    return EXIT_OK
