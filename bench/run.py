#!/usr/bin/env python3
"""The benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py                         # every workload, each in its own child
    python3 bench/run.py --workload matrix_serial --seed 7 --seconds 8 --trace 0
    python3 bench/run.py --trace 1 --output trace.json
    python3 bench/run.py --smoke                 # tiny sizes, for the tier-1 smoke test

With one ``--workload`` the run happens in this interpreter and the last line
of standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  With several, each runs in a child interpreter of its own so
that peak memory and CPU are attributable.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation at all; ``--trace 1`` is a
separate run that produces the per-layer metrics and nothing else.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
CHILD_TIMEOUT = 170  # the driver allows a run 180 s


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # Nothing to measure: leave without a result (and before importing the program).
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import workloads  # noqa: E402

# ``tracing`` is imported only by the traced run: it pulls in the CLI, whose
# import cost belongs to cli_sweep's set-up and to no other workload's.


def _workdir(name: str) -> pathlib.Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))


def _child_command(name: str, args: argparse.Namespace, *extra: str) -> List[str]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    return command + list(extra)


# ----------------------------------------------------------------------
# One unit, timed
# ----------------------------------------------------------------------
def timed_unit(workload: Any, function: Callable[[], Any]) -> Dict[str, Any]:
    """Run one unit between its untimed before/after hooks."""
    workload.before_unit()
    cpu, started = measure.cpu_seconds(), time.perf_counter()
    ops, results = function()
    wall, cpu = time.perf_counter() - started, measure.cpu_seconds() - cpu
    workload.after_unit()
    return {"ops": ops, "results": results, "wall": wall, "cpu": cpu}


class Tally:
    """Ops attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, workload: Any, unit: Dict[str, Any]) -> None:
        # The first unit checked also gets the once-only checks (committed baselines).
        problems = workload.verify(unit["results"], first=self.attempted == 0)
        self.attempted += unit["ops"]
        if problems:
            self.failed += unit["ops"]  # a failed check fails every op of the unit
            self.problems.extend(problems[:5])


def measure_setup(name: str, args: argparse.Namespace, probes: int) -> List[float]:
    """Wall-clock of ``probes`` fresh interpreters that import, build inputs and open."""
    walls = []
    for _ in range(probes):
        started = time.perf_counter()
        # No timeout: with one, subprocess polls for the exit in steps of up to 50 ms.
        subprocess.run(
            _child_command(name, args, "--setup-probe"), check=True, stdout=subprocess.DEVNULL
        )
        walls.append(time.perf_counter() - started)
    return walls


def setup_probe(name: str, args: argparse.Namespace) -> int:
    workdir = _workdir(name)
    try:
        workload = workloads.WORKLOADS[name](
            args.seed, workloads.SIZES["smoke" if args.smoke else "full"], workdir
        )
        workload.open()
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
SETTLED_WITHIN = 0.05
OVERTIME = 1.75


def _measured_enough(
    units: List[Dict[str, Any]], elapsed: float, args: argparse.Namespace, min_units: int
) -> bool:
    """Stop after ``--seconds``, or a little later when the host was disturbed.

    The run reports its fastest unit.  When the host is quiet, units crowd
    just above that floor; when three of them are not within 5 % of the
    fastest, the floor was probably not reached, and the run goes on for up
    to ``OVERTIME`` × ``--seconds`` to catch a quieter moment.
    """
    if len(units) < min_units:
        return False
    if args.smoke or elapsed >= OVERTIME * args.seconds:
        return True
    walls = sorted(unit["wall"] for unit in units)
    settled = len(walls) >= 3 and walls[2] <= walls[0] * (1.0 + SETTLED_WITHIN)
    return elapsed >= args.seconds and settled


def run_untraced(workload: Any, args: argparse.Namespace, tally: Tally) -> Dict[str, Any]:
    sizes = workload.sizes
    setups = measure_setup(workload.name, args, sizes["setup_probes"])
    workload.open()
    started = time.perf_counter()
    workload.fixture()
    fixture_s = time.perf_counter() - started
    if sizes["warmup"]:
        tally.add(workload, timed_unit(workload, workload.unit))
    units: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while not _measured_enough(units, time.perf_counter() - started, args, sizes["min_units"]):
        unit = timed_unit(workload, workload.unit)
        tally.add(workload, unit)
        del unit["results"]
        units.append(unit)
    workload.extra["measured_s"] = time.perf_counter() - started
    workload.close()
    workload.extra["fixture_s"] = fixture_s
    # Interference on a shared host only ever slows a unit down, so the fastest
    # unit is the steadiest reading of the three per-unit metrics (README).
    return {
        "ops_per_s": measure.summarise([unit["ops"] / unit["wall"] for unit in units], "op/s", max),
        "cpu_ms_per_op": measure.summarise(
            [unit["cpu"] / unit["ops"] * 1e3 for unit in units], "ms", min
        ),
        "peak_rss_mb": measure.summarise([measure.peak_rss_mb()], "MB"),
        "setup_s": measure.summarise(setups, "s"),
        "unit_wall_s": measure.summarise([unit["wall"] for unit in units], "s", min),
    }


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(workload: Any, args: argparse.Namespace, tally: Tally) -> Dict[str, float]:
    import tracing
    from repro.obs import METRICS

    sizes = workload.sizes
    workload.open()
    started = time.perf_counter()
    workload.fixture()
    values: Dict[str, float] = {"bench.fixture_s": time.perf_counter() - started}
    if sizes["warmup"]:
        tally.add(workload, timed_unit(workload, workload.traced_unit))

    # Pass (a): the same unit with and without boundary spans, interleaved.
    recorder = tracing.SpanRecorder()
    spanned: List[Dict[str, Any]] = []

    def plain_unit() -> float:
        unit = timed_unit(workload, workload.traced_unit)
        tally.add(workload, unit)
        return unit["wall"]

    def spanned_unit() -> float:
        recorder.unit += 1
        before: Dict[str, Dict[str, int]] = {}

        def unit_with_spans():
            # Here and not earlier: after before_unit has booted the pool, so that
            # forked workers do not inherit the wrappers and the boot's no-op tasks
            # are not counted as dispatches of the unit.
            before.update(counts=dict(recorder.counts), registry=METRICS.counter_values())
            recorder.install()
            try:
                return workload.traced_unit()
            finally:
                recorder.remove()

        unit = timed_unit(workload, unit_with_spans)
        tally.add(workload, unit)
        moved = METRICS.counter_delta(before["registry"])
        unit["exact"] = {
            **{key: value - before["counts"].get(key, 0) for key, value in recorder.counts.items()},
            **{key: moved.get(key, 0) for key in tracing.REGISTRY_COUNTERS},
        }
        spanned.append(unit)
        return unit["wall"]

    budget, started = 0.4 * args.seconds, time.perf_counter()
    shares: List[float] = []
    while len(shares) < sizes["pairs"] or (
        not args.smoke and time.perf_counter() - started < budget
    ):
        if len(shares) % 2:
            after, before = spanned_unit(), plain_unit()
        else:
            before, after = plain_unit(), spanned_unit()
        shares.append((after - before) / before)
    values["bench.trace_overhead_share"] = statistics.median(shares)
    ops = sum(unit["ops"] for unit in spanned)
    values.update(tracing.span_metrics(recorder, ops))
    exact = spanned[0]["exact"]
    exact_repeats = all(unit["exact"] == exact for unit in spanned)
    for counter, metric in tracing.REGISTRY_COUNTERS.items():
        values[metric] = exact[counter]
    looked_up = exact["store.hits"] + exact["store.misses"]
    if looked_up:
        values["store.hit_ratio"] = exact["store.hits"] / looked_up
    if "store_bytes_per_op" in workload.extra:
        values["store.bytes_per_op"] = workload.extra["store_bytes_per_op"]
    if args.spans:
        recorder.write(args.spans)

    # Pass (b): two profiled units; shares from the first, counts must repeat.
    profiles = []
    for _ in range(2):
        workload.before_unit()
        shares_by_layer, calls, (ops, results) = tracing.profile(workload.traced_unit)
        workload.after_unit()
        tally.add(workload, {"ops": ops, "results": results})
        profiles.append((shares_by_layer, calls, ops))
    exact_repeats = exact_repeats and profiles[0][1] == profiles[1][1]
    profiled = tracing.profile_metrics(*profiles[0])
    if workload.work_in_children:
        # Only the parent is profiled: the counts of what the workers call are not zero, just unseen.
        profiled = {key: value for key, value in profiled.items() if key.endswith("self_share")}
    values.update(profiled)
    if not exact_repeats:
        tally.failed = tally.attempted
        tally.problems.append("exact counts differ between two traced passes")

    extra_metrics = tracing.EXTRA_METRICS.get(workload.name)
    if extra_metrics is not None:
        values.update(extra_metrics(workload, sizes["pairs"]))
    workload.close()
    workload.extra["exact_counts_repeat"] = exact_repeats
    workload.extra["span_units"] = len(spanned)
    return values


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------
def run_workload(name: str, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    mode = "smoke" if args.smoke else ("trace" if args.trace else "full")
    workdir = _workdir(name)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[name](args.seed, workloads.SIZES[mode], workdir)
        calibration = measure.spin_seconds()
        metrics = (run_traced if args.trace else run_untraced)(workload, args, tally)
        drift = measure.drift(calibration, measure.spin_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["bench.calibration_drift"] = drift
        undeclared = set(metrics) - {entry["name"] for entry in spec["per_layer"]}
        if undeclared:
            raise AssertionError(f"layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
        # Every declared layer metric is present; one that has no source on
        # this workload is null here and 0 on the driver's result line.
        metrics = {
            entry["name"]: {"unit": entry["unit"], "value": metrics.get(entry["name"])}
            for entry in spec["per_layer"]
        }
    return {
        "workload": name,
        "op": workload.op,
        "why": workload.why,
        "trace": bool(args.trace),
        "seed": args.seed,
        "sizes": workload.sizes_used(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "calibration_drift": drift,
        "noisy": drift > measure.DRIFT_LIMIT,
        "results_digest": workload.digest,
        "extra": workload.extra,
        "metrics": metrics,
    }


def result_line(document: Dict[str, Any]) -> str:
    """The driver's contract: the last line of standard output."""
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": 0.0 if metric["value"] is None else metric["value"], "unit": metric["unit"]}
            for name, metric in document["metrics"].items()
        },
    })


def print_report(document: Dict[str, Any]) -> None:
    status = "ok" if document["correct"] else "FAILED"
    noisy = f"  NOISY (calibration drift {document['calibration_drift']:.2f})" if document["noisy"] else ""
    print(
        f"== {document['workload']} [{status}] op={document['op']} sizes={document['sizes']} "
        f"attempted={document['attempted']} failed={document['failed']}{noisy}"
    )
    for problem in document["problems"]:
        print(f"   problem: {problem}")
    for name, metric in document["metrics"].items():
        if metric["value"] is None:
            continue
        line = f"   {name:<46} {metric['value']:>14.6g} {metric['unit']:<6}"
        if "n" in metric:
            line += (
                f" median={metric['median']:.6g} q1={metric['q1']:.6g} q3={metric['q3']:.6g} "
                f"min={metric['min']:.6g} max={metric['max']:.6g} n={metric['n']}"
            )
        print(line)


# ----------------------------------------------------------------------
# Several workloads: one child interpreter each
# ----------------------------------------------------------------------
def run_suite(names: Sequence[str], args: argparse.Namespace, document: Dict[str, Any]) -> None:
    workdir = _workdir("suite")
    try:
        for name in names:
            output = workdir / f"{name}.json"
            extra = ["--trace", str(args.trace), "--seconds", str(args.seconds), "--output", str(output)]
            if args.spans:
                extra += ["--spans", f"{args.spans}.{name}"]
            done = subprocess.run(
                _child_command(name, args, *extra), timeout=CHILD_TIMEOUT, check=False,
                stdout=subprocess.DEVNULL,
            )
            if not output.is_file():
                sys.exit(f"bench/run.py: workload {name} exited {done.returncode} without a result")
            child = json.loads(output.read_text())["workloads"][name]
            document["workloads"][name] = child
            print_report(child)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # One matrix, three engines: their outputs must be the same bytes.
    digests = {
        name: document["workloads"][name]["results_digest"]
        for name in ("matrix_serial", "matrix_parallel_cold", "matrix_warm_store")
        if name in document["workloads"]
    }
    document["matrix_digests_identical"] = len(set(digests.values())) <= 1
    if not document["matrix_digests_identical"]:
        print(f"problem: matrix workloads disagree on the results digest: {digests}")
        for name in digests:
            child = document["workloads"][name]
            child.update(correct=False, failed=child["attempted"], failed_share=1.0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None, metavar="NAME",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None, help="base seed of the inputs (default 2023)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics); 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one unit, no time target")
    parser.add_argument("--output", type=pathlib.Path, default=None, help="write the result file here")
    parser.add_argument("--spans", default=None, metavar="FILE", help="traced run: write spans as JSONL")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    declared = [entry["name"] for entry in spec["workloads"]]
    names = args.workload or declared
    unknown = [name for name in names if name not in workloads.WORKLOADS or name not in declared]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json declares {declared}")
    if args.setup_probe:
        return setup_probe(names[0], args)

    document: Dict[str, Any] = {
        "format_version": 1,
        "mode": "smoke" if args.smoke else "full",
        "trace": bool(args.trace),
        "seed": args.seed,
        "seconds": args.seconds,
        "env": measure.environment(str(ROOT)),
        "workloads": {},
    }
    if len(names) == 1:
        child = run_workload(names[0], args, spec)
        document["workloads"][names[0]] = child
        print_report(child)
    else:
        run_suite(names, args, document)
    if args.output is not None:
        args.output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if len(names) == 1:
        print(result_line(document["workloads"][names[0]]))
    ok = all(child["correct"] for child in document["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
