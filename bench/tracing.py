"""The traced run: boundary spans, a profile pass, and the per-layer metrics.

Everything here measures the program from outside.  Pass (a) wraps a
handful of public functions per op with a timing wrapper that records
``[name, start, end, parent, unit, tag]`` in memory.  Pass (b) runs the same
unit under ``cProfile`` and keeps only *shares* of self time per layer and
*call counts* of named functions — never absolute profiled times, which
the profiler inflates unevenly.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import cProfile
import collections
import functools
import json
import os
import pathlib
import pickle
import pstats
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
import measure
import workloads
from repro import obs
from repro.analysis import pipeline
from repro.coding.reed_solomon import Fragment, ReedSolomonCode
from repro.core import solvability
from repro.crypto import hashing
from repro.crypto.signatures import KeyAuthority
from repro.experiments import cli as cli_module
from repro.experiments import runner as runner_module
from repro.experiments.aggregate import StreamingAggregator
from repro.jobs import session as session_module
from repro.jobs.spec import SweepJob, specs_to_payloads
from repro.sim.simulation import Simulation
from repro.store import store as store_module

_BENCH_DIR = str(pathlib.Path(__file__).resolve().parent)

# Profiled functions whose call counts are reported: (path under src/repro, name).
COUNTED_FUNCTIONS = {
    ("sim/simulation.py", "transmit"): "sim.transmit",
    ("sim/metrics.py", "record_message"): "sim.record_message",
    ("crypto/hashing.py", "stable_encode"): "crypto.stable_encode",
    ("crypto/hashing.py", "digest"): "crypto.digest",
    ("crypto/signatures.py", "sign"): "crypto.sign",
    ("crypto/signatures.py", "verify"): "crypto.verify",
    ("coding/reed_solomon.py", "encode"): "coding.encode",
    ("coding/reed_solomon.py", "decode"): "coding.decode",
    ("coding/np_backend.py", "encode_symbol_rows"): "coding.numpy",
    ("coding/np_backend.py", "decode_coefficient_rows"): "coding.numpy",
}

# Program counters (repro.obs.METRICS) reported as layer metrics.
REGISTRY_COUNTERS = {
    "runner.tasks.dispatched": "experiments.dispatch.tasks_dispatched",
    "runner.tasks.cached": "experiments.dispatch.tasks_cached",
    "store.hits": "store.hits",
    "store.misses": "store.misses",
    "store.stored": "store.stored",
    "store.flush.attempts": "store.flush.attempts",
    "store.flush.retries": "store.flush.retries",
    "supervisor.crashes_detected": "resilience.crashes",
    "supervisor.respawns": "resilience.respawns",
    "supervisor.retries": "resilience.retries",
    "supervisor.quarantined": "resilience.quarantined",
}

class SpanRecorder:
    """In-memory spans around public calls, installed and removed from here."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, unit, tag]
        self.counts: Dict[str, int] = collections.defaultdict(int)
        self.unit = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, original: Callable, tag=None, after=None, generator=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def begin(args, kwargs) -> list:
            label = tag(*args, **kwargs) if tag else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, label]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            return record

        if generator:
            # The span stays open while the consumer works between yields, so
            # what the consumer calls (aggregation) nests under it by time.
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                record = begin(args, kwargs)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = begin(args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, args[0])
            return result

        return wrapper

    def _patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        original = vars(owner)[attribute]  # the plain function, not a bound method
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original, **options))

    def install(self) -> None:
        """Wrap the layer boundaries (see README: how to read the span file)."""
        patch = self._patch
        patch(cli_module, "main", "cli.main")
        patch(session_module.ExecutionSession, "submit", "jobs.submit")
        patch(runner_module.Runner, "iter_runs", "experiments.iter_runs", generator=True)
        patch(
            runner_module, "execute_run", "experiments.execute_run",
            tag=lambda spec, seed: spec.protocol,
        )
        patch(StreamingAggregator, "add", "experiments.aggregate")
        patch(Simulation, "populate", "sim.populate")
        patch(Simulation, "run_until_all_correct_decide", "sim.run_loop", after=_count_simulation)
        patch(store_module.RunStore, "__init__", "store.open")
        patch(store_module.RunStore, "fingerprint", "store.fingerprint")
        patch(store_module.RunStore, "get", "store.get")
        patch(store_module.RunStore, "put", "store.put")
        patch(
            store_module.RunStore, "flush", "store.flush",
            tag=lambda store: None if store.pending_count else "empty",
        )
        patch(pipeline, "run_analysis", "analysis.run_analysis")
        patch(pipeline, "classify_task", "analysis.classify")
        patch(solvability, "check_triviality", "core.triviality")
        patch(solvability, "check_similarity_condition", "core.similarity_condition")

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent (line index), unit, tag."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, unit, tag in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                if tag is not None:
                    record["tag"] = tag
                handle.write(json.dumps(record) + "\n")


def _count_simulation(counts: Dict[str, int], simulation: Simulation) -> None:
    counts["sim.events"] += simulation.events_processed
    counts["sim.messages"] += simulation.metrics.total_messages
    counts["sim.words"] += simulation.metrics.total_words


def span_metrics(recorder: SpanRecorder, ops: int) -> Dict[str, float]:
    """Layer metrics from the boundary spans of ``ops`` operations."""
    spans = recorder.spans
    durations: Dict[str, List[float]] = collections.defaultdict(list)
    self_times: Dict[str, float] = collections.defaultdict(float)
    by_protocol: Dict[str, List[float]] = collections.defaultdict(list)
    inside_submit: Dict[int, float] = collections.defaultdict(float)
    for name, start, end, parent, _unit, tag in spans:
        duration = end - start
        self_times[name] += duration
        if parent >= 0:
            self_times[spans[parent][0]] -= duration
            if name == "experiments.iter_runs" and spans[parent][0] == "jobs.submit":
                inside_submit[parent] += duration
        if name == "store.flush" and tag == "empty":
            continue  # flush_retrying calls flush with nothing pending; that is not a flush
        durations[name].append(duration)
        if name == "experiments.execute_run":
            by_protocol[tag].append(duration)
    # A metric whose boundary was never crossed on this workload gets no value, not a zero.
    metrics: Dict[str, float] = {}
    for span, metric, scale in (
        ("experiments.aggregate", "experiments.aggregate.us_per_op", 1e6),
        ("sim.populate", "sim.populate.ms_per_op", 1e3),
        ("sim.run_loop", "sim.run_loop.ms_per_op", 1e3),
        ("store.open", "store.open_ms", 1e3),
        ("store.get", "store.get.us_per_op", 1e6),
        ("store.put", "store.put.us_per_op", 1e6),
        ("store.flush", "store.flush.ms_per_flush", 1e3),
    ):
        if durations[span]:
            metrics[metric] = statistics.fmean(durations[span]) * scale
    runs = durations["experiments.execute_run"]
    if runs:
        metrics["experiments.execute_run.ms_p50"] = measure.percentile(runs, 0.50) * 1e3
        metrics["experiments.execute_run.ms_p99"] = measure.percentile(runs, 0.99) * 1e3
        metrics["experiments.execute_run.self_ms_per_op"] = (
            self_times["experiments.execute_run"] / len(runs) * 1e3
        )
        for protocol, timings in by_protocol.items():
            metrics[f"consensus.{protocol}.ms_per_op"] = statistics.fmean(timings) * 1e3
    loops = durations["sim.run_loop"]
    if loops:
        counts = recorder.counts
        metrics["sim.events_per_op"] = counts["sim.events"] / len(loops)
        metrics["sim.events_per_s"] = counts["sim.events"] / sum(loops)
        metrics["sim.messages_per_op"] = counts["sim.messages"] / len(loops)
        metrics["sim.words_per_op"] = counts["sim.words"] / len(loops)
    if durations["store.fingerprint"]:
        metrics["store.fingerprint.us_per_op"] = sum(durations["store.fingerprint"]) / ops * 1e6
    if inside_submit:
        metrics["jobs.submit.overhead_ms"] = statistics.fmean(
            [spans[index][2] - spans[index][1] - inside for index, inside in inside_submit.items()]
        ) * 1e3
    classified = durations["analysis.classify"]
    if classified:
        metrics["analysis.classify.ms_p50"] = measure.percentile(classified, 0.50) * 1e3
        metrics["analysis.classify.ms_max"] = max(classified) * 1e3
        for check in ("similarity_condition", "triviality"):
            metrics[f"core.{check}.ms_per_op"] = sum(durations[f"core.{check}"]) / len(classified) * 1e3
    return metrics


# ----------------------------------------------------------------------
# Pass (b): cProfile shares and call counts
# ----------------------------------------------------------------------
def profile(function: Callable[[], Any]) -> Tuple[Dict[str, float], Dict[str, int], Any]:
    """Run ``function`` under cProfile: (self-time share per layer, call counts, its result)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = function()
    finally:
        profiler.disable()
    self_time: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.defaultdict(int)
    for (filename, _line, function_name), (primitive, _total, tottime, _cum, _callers) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        if filename.startswith(_BENCH_DIR):
            continue  # the harness's own frames are not the program
        self_time[layers.layer_of_function(filename, function_name)] += tottime
        normalised = filename.replace("\\", "/")
        for (suffix, name), key in COUNTED_FUNCTIONS.items():
            if function_name == name and normalised.endswith("/repro/" + suffix):
                # Primitive calls: a recursive descent into a nested value is one encode.
                calls[key] += primitive
    total = sum(self_time.values()) or 1.0
    shares = {layer: self_time[layer] / total for layer in layers.SHARE_LAYERS}
    return shares, dict(calls), result


def profile_metrics(shares: Dict[str, float], calls: Dict[str, int], ops: int) -> Dict[str, float]:
    metrics = {f"{layer}.self_share": share for layer, share in shares.items()}
    per_op = 1.0 / max(1, ops)
    for key in sorted(set(COUNTED_FUNCTIONS.values()) - {"coding.numpy"}):
        metrics[f"{key}.calls_per_op"] = calls.get(key, 0) * per_op
    metrics["crypto.stable_encode.calls_per_message"] = calls.get("crypto.stable_encode", 0) / max(
        1, calls.get("sim.transmit", 0)
    )
    coded = calls.get("coding.encode", 0) + calls.get("coding.decode", 0)
    metrics["coding.numpy_path_share"] = calls.get("coding.numpy", 0) / coded if coded else 0.0
    return metrics


# ----------------------------------------------------------------------
# Paired comparisons
# ----------------------------------------------------------------------
def paired_share(base: Callable[[], float], variant: Callable[[], float], pairs: int):
    """Median of (variant − base) ÷ base over interleaved pairs, and whether it resolves.

    Each callable runs one unit and returns its wall-clock.  The order inside
    a pair alternates so drift cancels.  The effect counts as resolved only
    when it is larger than the spread between the pairs' quartiles.
    """
    shares = []
    for index in range(pairs):
        if index % 2:
            after, before = variant(), base()
        else:
            before, after = base(), variant()
        shares.append((after - before) / before)
    q1, median, q3 = measure.quartiles(shares)
    return median, 1.0 if (q3 - q1) < abs(median) else 0.0


def _timed(function: Callable[[], Any]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Workload-specific layer metrics
# ----------------------------------------------------------------------
def obs_metrics(workload: Any, pairs: int) -> Dict[str, float]:
    """Cost of the program's own telemetry and trace sink on the serial matrix."""

    def sweep(enabled: bool) -> float:
        obs.set_enabled(enabled)
        try:
            return _timed(workload.unit)
        finally:
            obs.set_enabled(True)

    telemetry, telemetry_resolved = paired_share(lambda: sweep(False), lambda: sweep(True), pairs)

    job = SweepJob(scenario_payloads=specs_to_payloads(workload.matrix), seeds=workload.seeds)
    trace_path = workload.workdir / "sink.jsonl"

    def session_sweep(path: Optional[Any]) -> float:
        started = time.perf_counter()
        with session_module.ExecutionSession(trace_path=path) as session:
            session.submit(job)
        return time.perf_counter() - started

    sink, sink_resolved = paired_share(
        lambda: session_sweep(None), lambda: session_sweep(trace_path), pairs
    )
    return {
        "obs.telemetry_overhead_share": telemetry,
        "obs.telemetry_overhead_significant": telemetry_resolved,
        "obs.trace_sink_overhead_share": sink,
        "obs.trace_sink_overhead_significant": sink_resolved,
    }


def _rate_and_cpu(function: Callable[[], int]) -> Tuple[float, float]:
    """(ops per second, CPU seconds per op) of one call that returns its op count."""
    cpu, started = measure.cpu_seconds(), time.perf_counter()
    ops = function()
    return ops / (time.perf_counter() - started), (measure.cpu_seconds() - cpu) / ops


def parallel_metrics(workload: Any, pairs: int) -> Dict[str, float]:
    """The parallel session against an interleaved in-process serial control."""

    def serial() -> Tuple[float, float]:
        return _rate_and_cpu(lambda: len(workloads.serial_sweep(workload.matrix, workload.seeds)))

    def parallel() -> Tuple[float, float]:
        workload.before_unit()
        reading = _rate_and_cpu(lambda: workload.unit()[0])
        workload.after_unit()
        return reading

    speedups, overheads = [], []
    for index in range(pairs):
        if index % 2:
            there, here = parallel(), serial()
        else:
            here, there = serial(), parallel()
        speedups.append(there[0] / here[0])
        overheads.append((there[1] - here[1]) * 1e3)
    speedup = statistics.median(speedups)

    items = [(spec, seed, workloads.RUN_TIMEOUT) for spec in workload.matrix for seed in workload.seeds]
    results = workloads.serial_sweep(workload.matrix, workload.seeds[:1])
    tasks = list(enumerate(items))
    answers = list(enumerate(results))
    started = time.perf_counter()
    task_blobs = [pickle.dumps(task, pickle.HIGHEST_PROTOCOL) for task in tasks]
    answer_blobs = [pickle.dumps(answer, pickle.HIGHEST_PROTOCOL) for answer in answers]
    for blob in task_blobs + answer_blobs:
        pickle.loads(blob)
    pickled = time.perf_counter() - started

    def build_job() -> None:
        SweepJob(scenario_payloads=specs_to_payloads(workload.matrix), seeds=workload.seeds)

    return {
        "experiments.parallel.speedup_vs_serial": speedup,
        "experiments.parallel.efficiency": speedup / workloads.WORKERS,
        "experiments.parallel.overhead_ms_per_op": statistics.median(overheads),
        "experiments.pickle.task_bytes": statistics.fmean([len(blob) for blob in task_blobs]),
        "experiments.pickle.result_bytes": statistics.fmean([len(blob) for blob in answer_blobs]),
        # One op ships one task out and one result back.
        "experiments.pickle.us_per_op": pickled / (len(task_blobs) + len(answer_blobs)) * 2e6,
        "jobs.spec.payload_ms": statistics.median(_timed(build_job) for _ in range(5)) * 1e3,
    }


def _capture(owner: type, attribute: str, function: Callable[[], Any]) -> List[tuple]:
    """Arguments of every ``owner.attribute`` call made while ``function`` runs."""
    original = vars(owner)[attribute]
    seen: List[tuple] = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)
    try:
        function()
    finally:
        setattr(owner, attribute, original)
    return seen


def _us_per_call(function: Callable[[tuple], Any], samples: List[tuple], rounds: int = 5) -> float:
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        for sample in samples:
            function(sample)
        timings.append((time.perf_counter() - started) / len(samples))
    return statistics.median(timings) * 1e6


def signed_metrics(workload: Any, _pairs: int) -> Dict[str, float]:
    """Micro-timings of crypto and coding on payloads the workload really produces."""

    def one_seed() -> None:
        workloads.serial_sweep(workload.matrix, workload.seeds[:1])

    verifies = _capture(KeyAuthority, "verify", one_seed)[:2000]
    metrics = {
        "crypto.stable_encode.us_per_call": _us_per_call(
            lambda call: hashing.stable_encode(call[2]), verifies
        ),
        "crypto.verify.us_per_call": _us_per_call(
            lambda call: KeyAuthority.verify(*call), verifies
        ),
    }

    # The largest compact scenario disperses the largest blobs; time the last one it encoded.
    compact = [spec for spec in workload.matrix if spec.protocol == "universal-compact"][-1:]
    used, blob = _capture(
        ReedSolomonCode, "encode", lambda: workloads.serial_sweep(compact, workload.seeds[:1])
    )[-1]
    code = ReedSolomonCode(used.total_symbols, used.data_symbols)
    fragments = code.encode(blob)
    errors = code.max_correctable_errors(len(fragments))
    corrupted = [
        Fragment(each.index, tuple(symbol ^ 0x5A for symbol in each.symbols), each.blob_length)
        for each in fragments[:errors]
    ] + fragments[errors:]
    if code.decode(fragments) != bytes(blob) or code.decode(corrupted) != bytes(blob):
        raise AssertionError("Reed-Solomon round trip failed on a captured blob")
    for key, call in (
        ("encode", lambda _: code.encode(blob)),
        ("decode_clean", lambda _: code.decode(fragments)),
        ("decode_corrupt", lambda _: code.decode(corrupted)),
    ):
        metrics[f"coding.{key}_mb_s"] = len(blob) / _us_per_call(call, [()] * 20)  # B/us = MB/s
    workload.extra["coding"] = {
        "n": code.total_symbols,
        "k": code.data_symbols,
        "blob_bytes": len(blob),
        "corrupted_fragments": errors,
    }
    return metrics


def analysis_metrics(workload: Any, _pairs: int) -> Dict[str, float]:
    cost = sum(
        pipeline.enumeration_cost(task.system(), len(task.domain)) for task in workload.tasks
    )
    return {"analysis.enumeration_cost_per_s": cost / _timed(workload.unit)}


def cli_metrics(workload: Any, pairs: int) -> Dict[str, float]:
    """What a fresh process adds to the same command run in this one."""
    code = (
        "import time; t = time.perf_counter(); import repro.experiments.cli; "
        "print(time.perf_counter() - t)"
    )
    environment = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    imports = [
        float(
            subprocess.run(
                [sys.executable, "-c", code], env=environment, capture_output=True, text=True, check=True
            ).stdout
        )
        for _ in range(pairs)
    ]

    def one(function: Callable[[], Any]) -> float:
        workload.before_unit()
        wall = _timed(function)
        workload.after_unit()
        return wall

    differences = []
    for index in range(pairs):
        if index % 2:
            inside, outside = one(workload.traced_unit), one(workload.unit)
        else:
            outside, inside = one(workload.unit), one(workload.traced_unit)
        differences.append(outside - inside)
    return {
        "cli.import_s": statistics.median(imports),
        "cli.overhead_s": statistics.median(differences),
    }


EXTRA_METRICS: Dict[str, Callable[[Any, int], Dict[str, float]]] = {
    "matrix_serial": obs_metrics,
    "matrix_parallel_cold": parallel_metrics,
    "large_n_signed": signed_metrics,
    "analyze_cold": analysis_metrics,
    "cli_sweep": cli_metrics,
}
