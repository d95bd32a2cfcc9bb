"""The seven workloads: what each builds, opens, runs and checks.

A workload object is driven in this order by ``run.py``::

    w = Workload(seed, sizes, workdir)   # build inputs        } set-up
    w.open()                             # open runner/session }  (setup_s)
    w.fixture()                          # benchmark fixtures, not set-up
    repeat: w.before_unit(); w.unit(); w.after_unit(); w.verify(...)
    w.close()

Only ``unit()`` is timed.  It returns ``(ops, results)``; the results are
checked by ``verify`` outside the timed region.  Every call into the program
goes through a module or class attribute looked up at call time
(``runner_module.execute_run``, ``pipeline.run_analysis``), so the traced
run can wrap those names from here without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis import pipeline
from repro.experiments import runner as runner_module
from repro.experiments.aggregate import StreamingAggregator, aggregate, check_baseline, summaries_to_json
from repro.experiments.runner import DEFAULT_SEED, sweep_seeds
from repro.experiments.scenario import default_matrix, make_scenario
from repro.jobs import session as session_module
from repro.jobs.spec import SweepJob, select_scenarios, specs_to_payloads
from repro.store import store as store_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MATRIX_BASELINE = ROOT / "benchmarks" / "baselines" / "scenario_matrix.json"
VERDICT_BASELINE = ROOT / "benchmarks" / "baselines" / "analysis_verdicts.json"
BASELINE_SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)  # the slice scenario_matrix.json was written from

WORKERS = min(2, os.cpu_count() or 1)  # never more workers than cores
RUN_TIMEOUT = 300.0

# ISSUE 11 sized units at 2-5 s (12 matrix seeds, 8 large-n seeds, 74 tasks).
# They are a quarter to a second here, for two measured reasons: the driver
# makes 158 runs inside 3420 s, so a run has about 8 s to measure in; and on
# this shared host the fastest of many short units repeats run to run far
# better than the median of a few long ones (README, "End-to-end metrics").
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "matrix_stride": 1,  # every scenario of the default matrix
        "matrix_seeds": 3,
        "warm_passes": 16,
        "signed_systems": ((16, 5), (22, 7), (31, 10)),
        "signed_seeds": 2,
        "unsigned_systems": ((10, 3), (16, 5)),
        "unsigned_seeds": 2,
        "named_systems": (0, 1, 3),  # indices into DEFAULT_NAMED_SYSTEMS
        "enumerated_tasks": 24,
        "sampled_tasks": 16,
        "cli_seeds": 2,
        "setup_probes": 5,
        "min_units": 3,
        "warmup": True,
        "pairs": 5,
    },
    # The traced run does more passes over each unit, so its units are smaller.
    "trace": {
        "matrix_stride": 1,
        "matrix_seeds": 1,
        "warm_passes": 8,
        "signed_systems": ((16, 5), (22, 7), (31, 10)),
        "signed_seeds": 1,
        "unsigned_systems": ((10, 3), (16, 5)),
        "unsigned_seeds": 1,
        "named_systems": (0, 1),
        "enumerated_tasks": 24,
        "sampled_tasks": 16,
        "cli_seeds": 1,
        "setup_probes": 1,
        "min_units": 3,
        "warmup": True,
        "pairs": 5,
    },
    "smoke": {
        "matrix_stride": 4,  # every fourth scenario keeps every protocol and adversary
        "matrix_seeds": 1,
        "warm_passes": 2,
        "signed_systems": ((16, 5),),
        "signed_seeds": 1,
        "unsigned_systems": ((10, 3),),
        "unsigned_seeds": 1,
        "named_systems": (0,),
        "enumerated_tasks": 0,
        "sampled_tasks": 0,
        "cli_seeds": 1,
        "setup_probes": 1,
        "min_units": 1,
        "warmup": False,
        "pairs": 1,
    },
}


def results_digest(results: Sequence[Any]) -> str:
    """sha256 over the concatenated canonical JSON of runs or verdicts."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.canonical_json().encode())
    return digest.hexdigest()


def serial_sweep(matrix: Sequence[Any], seeds: Sequence[int]) -> List[Any]:
    """The control: every pair through plain ``execute_run``, no engine at all."""
    return [runner_module.execute_run(spec, seed) for spec in matrix for seed in seeds]


def _aggregated_sweep(runner: Any, matrix: Sequence[Any], seeds: Sequence[int], store: Any = None):
    aggregator = StreamingAggregator()
    results = []
    for result in runner.iter_runs(matrix, seeds, store=store):
        aggregator.add(result)
        results.append(result)
    return aggregator, results


class Workload:
    """Shared shape; subclasses fill in ``open``/``unit`` and what they check."""

    name = ""
    op = "run"
    why = ""
    work_in_children = False  # True when the ops run in processes the harness cannot see into

    def __init__(self, seed: int, sizes: Dict[str, Any], workdir: pathlib.Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.expected_digest: str = ""
        self.digest: str = ""
        self.extra: Dict[str, Any] = {}

    def open(self) -> None:
        """Open what the program opens before its first op (counted in ``setup_s``)."""

    def fixture(self) -> None:
        """Build what only the benchmark needs (reported as ``bench.fixture_s``)."""

    def before_unit(self) -> None:
        """Untimed preparation of one unit."""

    def unit(self) -> Tuple[int, List[Any]]:
        raise NotImplementedError

    def traced_unit(self) -> Tuple[int, List[Any]]:
        """The unit as the traced run drives it: in this process, so spans are seen."""
        return self.unit()

    def after_unit(self) -> None:
        """Untimed clean-up of one unit."""

    def close(self) -> None:
        """Release what ``open`` opened."""

    def sizes_used(self) -> Dict[str, Any]:
        return {}

    def verify(self, results: List[Any], first: bool) -> List[str]:
        """Problems with one unit's outputs; any problem fails every op of the unit."""
        problems = [
            f"{result.scenario} seed={result.seed}: {result.error or result.violations or 'incomplete'}"
            for result in results
            if not getattr(result, "ok", True)
        ]
        self.digest = results_digest(results)
        if not self.expected_digest:
            self.expected_digest = self.digest  # the first unit is the reference for the rest
        elif self.digest != self.expected_digest:
            problems.append(f"results digest {self.digest[:12]} != expected {self.expected_digest[:12]}")
        return problems


class _MatrixWorkload(Workload):
    """The default matrix × ``matrix_seeds`` seeds; three ways to run it."""

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.matrix = default_matrix()[:: sizes["matrix_stride"]]
        self.seeds = sweep_seeds(sizes["matrix_seeds"], seed)

    def sizes_used(self):
        return {"scenarios": len(self.matrix), "seeds": len(self.seeds)}

    def verify(self, results, first):
        problems = super().verify(results, first)
        expected = len(self.matrix) * len(self.seeds)
        if len(results) != expected:
            problems.append(f"{len(results)} results for {expected} pairs")
        if first:
            problems.extend(self._baseline_problems(results))
        return problems

    def _baseline_problems(self, results) -> List[str]:
        """The committed-baseline comparison, possible only on the default seed."""
        self.extra["baseline_checked"] = False
        if self.seed != DEFAULT_SEED or not set(BASELINE_SEEDS) <= set(self.seeds):
            return []
        self.extra["baseline_checked"] = True
        slice_ = [result for result in results if result.seed in BASELINE_SEEDS]
        return check_baseline(aggregate(slice_), MATRIX_BASELINE)


class MatrixSerial(_MatrixWorkload):
    name = "matrix_serial"
    why = (
        "the control: sim, crypto and consensus do all the work and store, jobs, "
        "resilience and pickle do none; every other matrix workload is read against it"
    )

    def open(self):
        self.runner = runner_module.Runner(parallel=None, timeout=RUN_TIMEOUT)

    def unit(self):
        _aggregator, results = _aggregated_sweep(self.runner, self.matrix, self.seeds)
        return len(results), results

    def close(self):
        self.runner.close()


class MatrixParallelCold(_MatrixWorkload):
    name = "matrix_parallel_cold"
    work_in_children = True
    why = (
        "same compute as matrix_serial through a 2-worker session into a fresh store: what "
        "is left over is dispatch, pickle, supervision, reorder and store writes"
    )

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.session = None
        self.store_path = workdir / "cold.db"  # deleted after every unit: each meets a fresh file
        self.job = SweepJob(
            scenario_payloads=specs_to_payloads(self.matrix), seeds=self.seeds, collect_records=True
        )

    def sizes_used(self):
        return dict(super().sizes_used(), workers=WORKERS)

    def open(self):
        # A fresh store per unit needs a fresh session, and a session boots its
        # own pool: boot it here, untimed, with one no-op round trip, so the
        # timed submit meets a warm pool exactly as the set-up probe left it.
        self.session = session_module.ExecutionSession(
            parallel=WORKERS, timeout=RUN_TIMEOUT, store_path=self.store_path
        )
        list(self.session.runner.iter_tasks(abs, [1, 2]))

    def fixture(self):
        self.expected_digest = results_digest(serial_sweep(self.matrix, self.seeds))

    def before_unit(self):
        if self.session is None:
            self.open()

    def unit(self):
        outcome = self.session.submit(self.job)
        return outcome.run_count, outcome.records

    def after_unit(self):
        stored = self.session.store.stats.stored
        self.close()  # checkpoints the WAL, so the file size is the whole store
        self.extra["store_bytes_per_op"] = self.store_path.stat().st_size / max(1, stored)
        self.extra["stored"] = stored
        self.store_path.unlink()

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None


class MatrixWarmStore(_MatrixWorkload):
    name = "matrix_warm_store"
    op = "cache-served run"
    why = (
        "every run is a store hit: sim, crypto and consensus do nothing and fingerprinting, "
        "RunStore.get, from_dict and aggregation do everything (the store used for reads)"
    )

    def sizes_used(self):
        return dict(super().sizes_used(), passes=self.sizes["warm_passes"])

    def open(self):
        self.runner = runner_module.Runner(parallel=None, timeout=RUN_TIMEOUT)
        self.store_path = self.workdir / "warm.db"
        store_module.RunStore(self.store_path).close()  # creates the file and its schema

    def fixture(self):
        with store_module.RunStore(self.store_path) as store:
            self.expected_digest = results_digest(
                self.runner.run(self.matrix, self.seeds, store=store)
            )

    def unit(self):
        self.misses = 0
        results: List[Any] = []
        for _ in range(self.sizes["warm_passes"]):
            # A new connection per pass keeps the in-memory LRU out of it.
            with store_module.RunStore(self.store_path) as store:
                _aggregator, results = _aggregated_sweep(self.runner, self.matrix, self.seeds, store)
                self.misses += store.stats.misses
        return self.sizes["warm_passes"] * len(results), results

    def verify(self, results, first):
        problems = super().verify(results, first)
        if self.misses:
            problems.append(f"{self.misses} store misses on a warm store")
        return problems

    def close(self):
        self.runner.close()


class _LargeN(Workload):
    """Serial ``execute_run`` over larger systems, where per-message cost dominates."""

    protocols: Tuple[str, ...] = ()
    systems_key = ""
    seeds_key = ""

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.matrix = [
            make_scenario(
                protocol, adversary, "eventual", n=n, t=t, max_events=5_000_000,
                name=f"{protocol}+{adversary}+eventual@n{n}",
            )
            for protocol in self.protocols
            for adversary in ("silent", "equivocation")
            for n, t in sizes[self.systems_key]
        ]
        self.seeds = sweep_seeds(sizes[self.seeds_key], seed)

    def sizes_used(self):
        return {
            "scenarios": len(self.matrix),
            "seeds": len(self.seeds),
            "systems": [list(system) for system in self.sizes[self.systems_key]],
        }

    def unit(self):
        results = serial_sweep(self.matrix, self.seeds)
        return len(results), results


class LargeNSigned(_LargeN):
    name = "large_n_signed"
    protocols = ("quad", "universal-authenticated", "universal-compact")
    systems_key = "signed_systems"
    seeds_key = "signed_seeds"
    why = (
        "n up to 31 with signed messages: crypto is about a third of self time and coding a "
        "tenth on the compact variant, so an encode/verify cache or a coding change shows here"
    )


class LargeNUnsigned(_LargeN):
    name = "large_n_unsigned"
    protocols = ("binary", "universal-non-authenticated")
    systems_key = "unsigned_systems"
    seeds_key = "unsigned_seeds"
    why = (
        "no signatures at all: the simulator send path is over half of self time, so a send-path "
        "change shows here and a crypto cache must leave it flat (bypass pair of large_n_signed)"
    )


class AnalyzeCold(Workload):
    name = "analyze_cold"
    op = "verdict"
    why = (
        "the paper's subject, classifying validity properties: only core and analysis work, "
        "so any sweep-side optimisation must leave it flat"
    )

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        tasks = pipeline.named_tasks(
            [pipeline.DEFAULT_NAMED_SYSTEMS[index] for index in sizes["named_systems"]]
        )
        if sizes["enumerated_tasks"]:
            tasks += pipeline.enumerated_tasks(sizes["enumerated_tasks"])
        if sizes["sampled_tasks"]:
            # The base seed moves the sampled family; the default seed samples
            # the indices the committed verdict baseline holds.
            tasks += pipeline.sampled_tasks(
                sizes["sampled_tasks"], base_seed=(seed - DEFAULT_SEED) % 1_000_000
            )
        self.tasks = pipeline.dedupe_tasks(tasks)

    def sizes_used(self):
        return {"tasks": len(self.tasks)}

    def open(self):
        self.runner = runner_module.Runner(parallel=None)

    def unit(self):
        run = pipeline.run_analysis(self.tasks, runner=self.runner)
        return len(run.verdicts), run.verdicts

    def verify(self, results, first):
        problems = super().verify(results, first)
        if len(results) != len(self.tasks):
            problems.append(f"{len(results)} verdicts for {len(self.tasks)} tasks")
        self.extra.setdefault("baseline_checked", False)
        if first and self.seed == DEFAULT_SEED:
            baseline = pipeline.load_verdict_baseline(VERDICT_BASELINE)
            shared = [verdict for verdict in results if verdict.label in baseline]
            self.extra["baseline_checked"] = bool(shared)
            expected = {verdict.label: baseline[verdict.label] for verdict in shared}
            problems.extend(pipeline.diff_verdicts(shared, expected))
        return problems

    def close(self):
        self.runner.close()


class CliSweep(Workload):
    name = "cli_sweep"
    why = (
        "the user-visible unit: a fresh `python -m repro.experiments run` per repeat, so "
        "interpreter start and the import of the CLI are paid every time"
    )

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.matrix = select_scenarios()
        self.seeds = sweep_seeds(sizes["cli_seeds"], seed)
        # Both files are deleted after every unit, so each invocation starts from nothing.
        self.store_path = workdir / "cli.db"
        self.baseline_path = workdir / "cli.json"

    def sizes_used(self):
        return {"scenarios": len(self.matrix), "seeds": len(self.seeds)}

    def open(self):
        # What the command does before its first run: import the CLI (no other
        # workload pays for that import), then build the job.
        from repro.experiments import cli

        self.cli = cli
        SweepJob(scenario_payloads=specs_to_payloads(self.matrix), seeds=self.seeds)

    def argv(self) -> List[str]:
        # The trailing comma keeps a single seed a list: a bare number is a seed *count*.
        seeds = "".join(f"{seed}," for seed in self.seeds)
        return [
            "run", "--seeds", seeds, "--quiet",
            "--store", str(self.store_path), "--write-baseline", str(self.baseline_path),
        ]

    def fixture(self):
        results = serial_sweep(self.matrix, self.seeds)
        self.expected_baseline = summaries_to_json(aggregate(results)) + "\n"

    def unit(self):
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", *self.argv()],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )  # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
        self.returncode, self.stderr = done.returncode, done.stderr
        return len(self.matrix) * len(self.seeds), []

    def traced_unit(self):
        # The same command in this process: spans and the profile can see it,
        # and what is missing is exactly what a fresh process adds.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            self.returncode = self.cli.main(self.argv())
        self.stderr = err.getvalue()
        return len(self.matrix) * len(self.seeds), []

    def after_unit(self):
        self.written_baseline = ""
        if self.baseline_path.is_file():
            self.written_baseline = self.baseline_path.read_text()
            self.baseline_path.unlink()
        if self.store_path.is_file():
            self.extra["store_bytes_per_op"] = self.store_path.stat().st_size / (
                len(self.matrix) * len(self.seeds)
            )
            self.store_path.unlink()

    def verify(self, results, first):
        problems = []
        if self.returncode != 0:
            problems.append(f"CLI exited {self.returncode}: {self.stderr.strip()[-200:]}")
        if self.written_baseline != self.expected_baseline:
            problems.append("the CLI's --write-baseline file differs from the in-process summaries")
        self.digest = hashlib.sha256(self.written_baseline.encode()).hexdigest()
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        MatrixSerial, MatrixParallelCold, MatrixWarmStore, LargeNSigned, LargeNUnsigned,
        AnalyzeCold, CliSweep,
    )
}
