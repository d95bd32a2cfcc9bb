"""Microbatched dispatch: a pure throughput knob, never a semantics knob.

The runner amortizes pickle/pool overhead by shipping *batches* of tasks
per worker dispatch (``batch_size``, default sized automatically).  The
contract this file pins down: every batch size — serial, 1, small, larger
than the sweep, auto — produces **byte-identical** result sequences; a warm
store still serves an identical re-sweep with zero dispatches; and
supervision stays *per-task* under batching — a crashed batch is split and
re-dispatched so that exactly the poison task is quarantined, never its
innocent batch-mates.
"""

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.cli.common import EXIT_CONFIG
from repro.experiments.runner import POISON_ERROR_PREFIX, Runner
from repro.experiments.scenario import find_scenarios
from repro.jobs import ExecutionSession, SweepJob
from repro.resilience import FaultPlan, RetryPolicy
from repro.store import RunStore

SLICE = [
    "binary+silent+synchronous",
    "quad+silent+synchronous",
    "binary+crash+synchronous",
    "quad+crash+synchronous",
]
SEEDS = [1, 2]
BATCH_SIZES = [1, 3, 7, None]  # unit, mid-sweep split, ragged tail, auto

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)


def canonical_results(results):
    return [result.canonical_json() for result in results]


def sweep(batch_size=None, **runner_kwargs):
    runner = Runner(batch_size=batch_size, **runner_kwargs)
    try:
        return canonical_results(runner.iter_runs(find_scenarios(SLICE), SEEDS)), runner
    finally:
        runner.close()


# ----------------------------------------------------------------------
# Byte-identity across batch sizes
# ----------------------------------------------------------------------
class TestBatchSizeByteIdentity:
    def test_every_batch_size_matches_the_serial_sweep(self):
        baseline, _ = sweep()  # serial: batch_size is ignored entirely
        cases = [(2, batch_size) for batch_size in BATCH_SIZES] + [(4, 3), (4, None)]
        for workers, batch_size in cases:
            parallel, runner = sweep(batch_size=batch_size, parallel=workers)
            assert parallel == baseline, f"parallel={workers} batch_size={batch_size} diverged"
            assert runner.supervision.dispatched == len(SLICE) * len(SEEDS)

    def test_serial_sweep_ignores_batch_size(self):
        baseline, _ = sweep()
        serial_batched, runner = sweep(batch_size=5)
        assert serial_batched == baseline
        assert runner.supervision.dispatched == 0  # serial path never batches

    def test_oversized_batch_is_one_dispatch(self):
        baseline, _ = sweep()
        huge, runner = sweep(batch_size=100, parallel=2)
        assert huge == baseline
        assert runner.supervision.dispatched == len(SLICE) * len(SEEDS)


# ----------------------------------------------------------------------
# Auto batch sizing
# ----------------------------------------------------------------------
def largest_batch(runner, misses):
    return max(len(batch) for batch in runner._plan_batches([(i, i) for i in range(misses)]))


class TestEffectiveBatchSize:
    def test_explicit_size_always_wins(self):
        runner = Runner(parallel=4, batch_size=7)
        assert largest_batch(runner, 1) == 1  # a one-miss sweep is one short batch
        assert largest_batch(runner, 10**4) == 7
        runner.close()

    def test_auto_scales_with_misses_and_is_capped(self):
        runner = Runner(parallel=4)
        assert largest_batch(runner, 5) == 1  # tiny sweeps stay unbatched
        assert largest_batch(runner, 100) == 100 // 8
        assert largest_batch(runner, 10**4) == Runner.MAX_AUTO_BATCH
        runner.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            Runner(batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionSession(batch_size=-3)

    def test_session_threads_batch_size_into_its_runner(self):
        with ExecutionSession(parallel=2, batch_size=4) as session:
            assert session.runner.batch_size == 4


# ----------------------------------------------------------------------
# Warm store: an identical re-sweep dispatches nothing
# ----------------------------------------------------------------------
class TestWarmStoreUnderBatching:
    def test_second_sweep_executes_zero_runs(self, tmp_path):
        scenarios = find_scenarios(SLICE)
        with RunStore(tmp_path / "runs.db") as store:
            cold = Runner(parallel=2, batch_size=3)
            try:
                first = canonical_results(cold.iter_runs(scenarios, SEEDS, store=store))
                assert cold.supervision.dispatched == len(scenarios) * len(SEEDS)
            finally:
                cold.close()
            warm = Runner(parallel=2, batch_size=3)
            try:
                second = canonical_results(warm.iter_runs(scenarios, SEEDS, store=store))
                assert warm.supervision.dispatched == 0
            finally:
                warm.close()
        assert second == first

    def test_partial_cache_dispatches_only_the_misses(self, tmp_path):
        scenarios = find_scenarios(SLICE)
        with RunStore(tmp_path / "runs.db") as store:
            seeded = Runner()
            try:
                list(seeded.iter_runs(scenarios[:2], SEEDS, store=store))
            finally:
                seeded.close()
            topped_up = Runner(parallel=2, batch_size=3)
            try:
                results = canonical_results(topped_up.iter_runs(scenarios, SEEDS, store=store))
                assert topped_up.supervision.dispatched == 2 * len(SEEDS)
            finally:
                topped_up.close()
        baseline, _ = sweep()
        assert results == baseline


# ----------------------------------------------------------------------
# Supervision stays per-task inside a batch
# ----------------------------------------------------------------------
class TestBatchSupervision:
    def test_crashed_batch_recovers_every_member(self):
        baseline, _ = sweep()
        plan = FaultPlan(seed=1, worker_crash=(1, 4))
        runner = Runner(parallel=2, batch_size=3, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            survived = canonical_results(runner.iter_runs(find_scenarios(SLICE), SEEDS))
            assert runner.supervision.crashes_detected >= 1
            assert runner.supervision.quarantined == 0
        finally:
            runner.close()
        assert survived == baseline

    @pytest.mark.parametrize("batch_size", [2, 3, 8])
    def test_poison_quarantines_exactly_the_affected_task(self, batch_size):
        # Task 2 is poison (crashes on every attempt).  Under batching its
        # whole batch crashes with it, but recovery splits the batch into
        # singletons: batch-mates must complete normally and only task 2 may
        # be quarantined — with the same attempt accounting as unbatched.
        scenarios = find_scenarios(SLICE)
        plan = FaultPlan(poison=(2,))
        runner = Runner(parallel=2, batch_size=batch_size, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            results = list(runner.iter_runs(scenarios, SEEDS))
        finally:
            runner.close()
        poisoned = [r for r in results if r.error and r.error.startswith(POISON_ERROR_PREFIX)]
        healthy = [r for r in results if r.completed]
        assert len(results) == len(scenarios) * len(SEEDS)
        assert len(poisoned) == 1
        assert f"after {FAST_RETRY.max_attempts} attempt(s)" in poisoned[0].error
        assert len(healthy) == len(results) - 1
        assert runner.supervision.quarantined == 1
        # The survivors are byte-identical to the fault-free sweep: exactly
        # one baseline record (the quarantined task's) is missing.
        baseline, _ = sweep()
        baseline_set = set(baseline)
        healthy_json = set(canonical_results(healthy))
        assert healthy_json <= baseline_set
        assert len(baseline_set - healthy_json) == 1


# ----------------------------------------------------------------------
# The CLI / session surface
# ----------------------------------------------------------------------
class TestBatchSizeCLI:
    @pytest.mark.parametrize("command", ["run", "analyze", "fuzz"])
    @pytest.mark.parametrize("value", ["0", "-2", "three"])
    def test_batch_size_validated_at_parse_time(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, "--batch-size", value])
        assert excinfo.value.code == EXIT_CONFIG
        assert "expected a positive integer" in capsys.readouterr().err

    def test_batched_cli_sweep_matches_unbatched_store(self, tmp_path, capsys):
        base = ["run", "--scenario"] + SLICE + ["--seeds", "2", "--quiet"]
        assert cli_main(base + ["--store", str(tmp_path / "plain.db")]) == 0
        batched = base + ["--parallel", "2", "--batch-size", "3"]
        assert cli_main(batched + ["--store", str(tmp_path / "batched.db")]) == 0
        capsys.readouterr()
        with RunStore(tmp_path / "plain.db") as plain, RunStore(tmp_path / "batched.db") as fast:
            plain_records = sorted(r.canonical_json() for r in plain.iter_records())
            batched_records = sorted(r.canonical_json() for r in fast.iter_records())
        assert plain_records == batched_records
        assert len(plain_records) == len(SLICE) * 2

    def test_session_sweep_job_respects_batch_size(self, tmp_path):
        from repro.jobs import select_scenarios, specs_to_payloads

        scenarios = select_scenarios(SLICE)
        job = SweepJob(specs_to_payloads(scenarios), seeds=(1,), collect_records=True)
        with ExecutionSession(parallel=2, batch_size=2, store_path=tmp_path / "runs.db") as session:
            outcome = session.submit(job)
            assert session.runner.supervision.dispatched == len(SLICE)
        # The batched job's records are byte-identical to a serial sweep.
        produced = canonical_results(outcome.records)
        assert produced == canonical_results(Runner().iter_runs(scenarios, [1]))
