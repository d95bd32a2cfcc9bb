#!/usr/bin/env python3
"""Apply the bounds of BENCHMARK.json to two result files of ``bench/run.py``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): ``better`` / ``same`` / ``worse``
by more than the metric's bound, or ``unresolved`` when the spread between
a side's own quartiles is wider than the bound — unless every sample of
one side beats every sample of the other, which settles it whatever the
spread.  A is the base of every ratio.  Exits 1 on any ``worse`` row or
any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Sequence

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(base: Dict[str, Any], other: Dict[str, Any], higher_is_better: bool, bound: float) -> str:
    """How ``other`` reads against ``base`` for one metric of one workload."""
    sign = 1.0 if higher_is_better else -1.0
    ours, theirs = [sign * x for x in base["samples"]], [sign * x for x in other["samples"]]
    separated = min(theirs) > max(ours) or max(theirs) < min(ours)
    spreads = [(side["q3"] - side["q1"]) / abs(side["value"]) for side in (base, other)]
    if max(spreads) > bound and not separated:
        return "unresolved"
    change = sign * (other["value"] - base["value"]) / abs(base["value"])
    return "better" if change > bound else "worse" if change < -bound else "same"


def compare(base: Dict[str, Any], other: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name in base["workloads"]:
        if name not in other["workloads"]:
            continue
        ours, theirs = base["workloads"][name], other["workloads"][name]
        for entry in spec["end_to_end"]:
            a, b = ours["metrics"].get(entry["name"]), theirs["metrics"].get(entry["name"])
            if a is None or b is None:
                continue
            rows.append({
                "workload": name,
                "metric": entry["name"],
                "unit": entry["unit"],
                "bound": entry["bound"],
                "base": a["value"],
                "other": b["value"],
                "ratio": b["value"] / a["value"],
                "spread_base": (a["q3"] - a["q1"]) / abs(a["value"]),
                "spread_other": (b["q3"] - b["q1"]) / abs(b["value"]),
                "verdict": verdict(a, b, entry["better"] == "higher", entry["bound"]),
            })
        rows.append({
            "workload": name,
            "metric": "failed_share",
            "unit": "ratio",
            "bound": 0.0,
            "base": ours["failed_share"],
            "other": theirs["failed_share"],
            "ratio": None,
            "spread_base": 0.0,
            "spread_other": 0.0,
            "verdict": "worse" if theirs["failed_share"] > ours["failed_share"] else "same",
        })
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, other = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads(SPEC_PATH.read_text())
    if base["trace"] or other["trace"]:
        print("compare.py: end-to-end numbers come only from untraced runs", file=sys.stderr)
        return 2
    rows = compare(base, other, spec)
    print(f"A = {argv[0]} (the base of every ratio)\nB = {argv[1]}")
    print(f"{'workload':<22}{'metric':<15}{'A':>12}{'B':>12} {'unit':<5}{'B/A':>8}{'bound':>7}"
          f"{'iqrA':>7}{'iqrB':>7}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(
            f"{row['workload']:<22}{row['metric']:<15}{row['base']:>12.5g}{row['other']:>12.5g} "
            f"{row['unit']:<5}{ratio:>8}{row['bound']:>7.2f}{row['spread_base']:>7.3f}"
            f"{row['spread_other']:>7.3f}  {row['verdict']}"
        )
    counts = {
        kind: sum(row["verdict"] == kind for row in rows)
        for kind in ("better", "same", "worse", "unresolved")
    }
    print("  ".join(f"{kind}: {count}" for kind, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
