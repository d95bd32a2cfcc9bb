"""The deterministic chaos harness: fault injection across every layer.

The resilience contract this file pins down: a sweep under injected worker
crashes, hangs and flush failures produces *byte-identical* results to a
fault-free sweep (faults change how long execution takes, never what it
computes); a poison task is quarantined after its retry budget without
aborting the sweep; a corrupt store file is quarantined and rebuilt from
its surviving rows; a disk-full flush degrades to the JSONL side-journal
and replays on the next open; and the CLI validates the resilience flags
at parse time and exits 130 on Ctrl-C with completed records flushed.

Every fault here comes from a :class:`~repro.resilience.faults.FaultPlan`
— pure data, seeded, replayable — so each test is exactly reproducible.
"""

import json
import os
import pathlib
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.runner import POISON_ERROR_PREFIX, Runner
from repro.experiments.scenario import default_matrix, find_scenarios
from repro.experiments.cli.common import EXIT_CONFIG, EXIT_INTERRUPTED
from repro.jobs import ExecutionSession, SweepJob, select_scenarios, specs_to_payloads
from repro.resilience import FaultPlan, RetryPolicy, TaskQuarantinedError
from repro.store import PoisonEntry, RunStore, StoreRecovery

SLICE = [
    "binary+silent+synchronous",
    "quad+silent+synchronous",
    "binary+crash+synchronous",
    "quad+crash+synchronous",
]

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)


def canonical_results(results):
    return [result.canonical_json() for result in results]


# ----------------------------------------------------------------------
# FaultPlan: pure data, wire round-trip, fault semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            seed=7,
            worker_crash=(3, 1),
            worker_hang=(5,),
            poison=(2,),
            flush_errors=(1, 2),
            corrupt_on_reopen=True,
            hang_seconds=0.5,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.worker_crash == (1, 3)  # coerced sorted

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_json(json.dumps({"seed": 1, "explode": True}))

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", FaultPlan(worker_crash=(2,)).to_json())
        assert FaultPlan.from_env().worker_crash == (2,)
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert FaultPlan.from_env() is None  # callers fall back to no faults

    def test_crash_faults_fire_on_first_attempt_only(self):
        plan = FaultPlan(worker_crash=(1,), poison=(2,))
        assert plan.worker_fault(1, attempt=1) == "crash"
        assert plan.worker_fault(1, attempt=2) is None  # retry runs clean
        assert plan.worker_fault(2, attempt=1) == "crash"
        assert plan.worker_fault(2, attempt=5) == "crash"  # poison never heals

    def test_flush_faults_are_attempt_indexed(self):
        plan = FaultPlan(flush_errors=(1, 3))
        assert [plan.flush_fault(n) for n in (1, 2, 3, 4)] == [True, False, True, False]


# ----------------------------------------------------------------------
# Retry policy: deterministic backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.05, backoff_max=0.2, seed=11)
        series = [policy.backoff(attempt, token=3) for attempt in range(1, 6)]
        assert series == [policy.backoff(attempt, token=3) for attempt in range(1, 6)]
        assert all(0.0 <= delay <= 0.2 for delay in series)
        assert series != [policy.backoff(attempt, token=4) for attempt in range(1, 6)]


# ----------------------------------------------------------------------
# Supervised execution: crashes, hangs, poison — results unchanged
# ----------------------------------------------------------------------
class TestSupervisedSweeps:
    def test_two_worker_kills_full_matrix_byte_identical(self):
        # The acceptance gate: kill two workers mid-sweep over the full
        # 112-scenario matrix; every result must be byte-identical to the
        # fault-free serial sweep, because execution faults may change how
        # runs are scheduled but never what they compute.
        scenarios = default_matrix()
        serial = Runner()
        baseline = canonical_results(serial.iter_runs(scenarios, [1]))
        serial.close()

        # The second crash sits past the first dispatch window (tasks 0-63):
        # a crash position inside it is lost with task 5's crash and re-runs
        # as attempt two, where a first-attempt crash never fires.
        plan = FaultPlan(seed=1, worker_crash=(5, 100))
        chaotic = Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            survived = canonical_results(chaotic.iter_runs(scenarios, [1]))
            assert chaotic.supervision.crashes_detected >= 2
            assert chaotic.supervision.respawns >= 2
            assert chaotic.supervision.quarantined == 0
        finally:
            chaotic.close()
        assert survived == baseline

    def test_hang_is_reclaimed_by_the_supervision_deadline(self):
        scenarios = find_scenarios(SLICE)
        serial = Runner()
        baseline = canonical_results(serial.iter_runs(scenarios, [1]))
        serial.close()

        plan = FaultPlan(worker_hang=(2,), hang_seconds=60.0)
        runner = Runner(
            parallel=2, retry_policy=FAST_RETRY, fault_plan=plan, supervision_deadline=1.0
        )
        try:
            survived = canonical_results(runner.iter_runs(scenarios, [1]))
            assert runner.supervision.crashes_detected >= 1
        finally:
            runner.close()
        assert survived == baseline

    def test_poison_task_is_quarantined_without_aborting(self, tmp_path):
        scenarios = find_scenarios(SLICE)
        plan = FaultPlan(poison=(2,))
        runner = Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        with RunStore(tmp_path / "runs.db") as store:
            try:
                results = list(runner.iter_runs(scenarios, [1], store=store))
            finally:
                runner.close()
            poisoned = [r for r in results if r.error and r.error.startswith(POISON_ERROR_PREFIX)]
            healthy = [r for r in results if r.completed]
            assert len(results) == len(scenarios)
            assert len(poisoned) == 1
            assert f"after {FAST_RETRY.max_attempts} attempt(s)" in poisoned[0].error
            assert len(healthy) == len(scenarios) - 1
            assert runner.supervision.quarantined == 1
            # Quarantine is persisted as a typed record, not a cached run:
            # the poison table remembers it, the runs table does not.
            store.flush()
            entries = list(store.iter_poison())
            assert [type(e) for e in entries] == [PoisonEntry]
            assert entries[0].attempts == FAST_RETRY.max_attempts
            assert sum(1 for _ in store.iter_records()) == len(scenarios) - 1

    def test_poison_without_handler_raises_typed_error(self):
        plan = FaultPlan(poison=(1,))
        runner = Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            with pytest.raises(TaskQuarantinedError, match="quarantined after"):
                list(runner.iter_tasks(_square, [1, 2, 3]))
        finally:
            runner.close()

    def test_retries_do_not_double_yield(self):
        # A killed worker's task is re-dispatched exactly once per retry;
        # the reorder buffer must still yield each index exactly once.
        plan = FaultPlan(worker_crash=(1, 3))
        runner = Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            results = list(runner.iter_tasks(_square, list(range(8))))
        finally:
            runner.close()
        assert results == [n * n for n in range(8)]

    def test_close_narrowly_suppresses_teardown_errors(self):
        messages = []
        runner = Runner(parallel=2, on_log=messages.append)

        class WeirdPool:
            def terminate(self):
                raise KeyError("not a teardown error")

            def join(self):
                raise OSError("expected teardown noise")

        runner._pool = WeirdPool()
        runner.close()  # OSError suppressed silently, KeyError logged
        assert runner._pool is None
        assert any("KeyError" in message for message in messages)


def _square(value):
    return value * value


# ----------------------------------------------------------------------
# Store chaos: flush retry, journal spill + replay, corruption recovery
# ----------------------------------------------------------------------
class TestStoreChaos:
    def _record(self, store, scenarios, seed=1):
        runner = Runner()
        try:
            return list(runner.iter_runs(find_scenarios(scenarios), [seed], store=store))
        finally:
            runner.close()

    def test_injected_flush_failure_absorbed_by_retry(self, tmp_path):
        plan = FaultPlan(flush_errors=(1,))
        with RunStore(tmp_path / "runs.db", retry_policy=FAST_RETRY, fault_plan=plan) as store:
            self._record(store, SLICE[:2])
        assert store.stats.flush_retries >= 1
        with RunStore(tmp_path / "runs.db") as reopened:
            assert sum(1 for _ in reopened.iter_records()) == 2

    def test_disk_full_spills_to_journal_and_replays_on_open(self, tmp_path):
        # Every flush attempt fails with the injected disk-full error, so
        # close() degrades to the JSONL side-journal instead of raising.
        plan = FaultPlan(flush_errors=tuple(range(1, 10)))
        store = RunStore(tmp_path / "runs.db", retry_policy=FAST_RETRY, fault_plan=plan)
        self._record(store, SLICE[:2])
        store.close()
        journal = store.journal_path
        assert journal.exists()
        assert all(
            set(json.loads(line)) == {"table", "row"}
            for line in journal.read_text().splitlines()
        )
        with RunStore(tmp_path / "runs.db") as reopened:
            assert reopened.journal_replayed == 2
            assert sum(1 for _ in reopened.iter_records()) == 2
        assert not journal.exists()

    def _spilled_journal(self, path, scenarios):
        """Close a store on a 'full disk' so its records land in the journal."""
        plan = FaultPlan(flush_errors=tuple(range(1, 10)))
        store = RunStore(path, retry_policy=FAST_RETRY, fault_plan=plan)
        self._record(store, scenarios)
        store.close()
        return store.journal_path

    def test_journal_replay_skips_only_the_rows_the_schema_rejects(self, tmp_path):
        # One parseable, right-arity line the schema rejects (NOT NULL) used
        # to take every row of its table down with it — and the journal, the
        # only copy, was deleted regardless.
        path = tmp_path / "runs.db"
        journal = self._spilled_journal(path, SLICE[:3])
        valid = journal.read_text()
        rejected = json.dumps({"table": "runs", "row": [None] * 11})
        unbindable = json.dumps({"table": "poison", "row": [{}, 1, "fp", "s", 1, "r"]})
        journal.write_text(f"{rejected}\n{valid}{unbindable}\n")
        with RunStore(path) as reopened:
            assert reopened.journal_replayed == 3
            assert reopened.count() == 3
            assert {r.scenario for r in reopened.iter_records()} == set(SLICE[:3])
        assert not journal.exists()  # nothing left that a later open could use

    def test_journal_survives_rows_that_could_not_be_written(self, tmp_path, monkeypatch):
        # The disk is still full on the next open: every replayed insert
        # fails for an environmental reason.  The journal is the only copy
        # of those rows, so it must stay on disk for a later, healthier open.
        path = tmp_path / "runs.db"
        journal = self._spilled_journal(path, SLICE[:2])
        before = journal.read_text()

        class StillFull(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql.startswith("INSERT OR REPLACE"):
                    raise sqlite3.OperationalError("database or disk is full")
                return super().execute(sql, *args)

            executemany = execute

        real_connect = sqlite3.connect
        with monkeypatch.context() as patched:
            patched.setattr(
                sqlite3, "connect", lambda *a, **kw: real_connect(*a, factory=StillFull, **kw)
            )
            with RunStore(path) as reopened:
                assert reopened.journal_replayed == 0
                assert reopened.count() == 0
        assert journal.read_text() == before
        with RunStore(path) as healthy:
            assert healthy.journal_replayed == 2
            assert healthy.count() == 2
        assert not journal.exists()

    def test_corrupt_file_is_quarantined_and_rebuilt(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            self._record(store, SLICE[:2])
        plan = FaultPlan(corrupt_on_reopen=True)
        with RunStore(path, fault_plan=plan) as store:
            recovery = store.recovery
            assert isinstance(recovery, StoreRecovery)
            quarantined = pathlib.Path(recovery.quarantined_path)
            assert quarantined.exists()
            assert quarantined.suffix == ".corrupt"
            # The rebuilt store serves whatever rows survived the damage.
            assert sum(1 for _ in store.iter_records()) == recovery.salvaged_rows
        with RunStore(path) as clean:  # the rebuilt file opens cleanly
            assert clean.recovery is None

    def test_non_store_files_still_rejected_not_recovered(self, tmp_path):
        from repro.store.store import StoreFormatError

        path = tmp_path / "not-a-store.db"
        path.write_text("this is not sqlite\n")
        with pytest.raises(StoreFormatError, match="cannot open run store"):
            RunStore(path)
        assert path.exists()  # refused, not quarantined


# ----------------------------------------------------------------------
# Fuzz campaigns under faults
# ----------------------------------------------------------------------
class TestFuzzChaos:
    def test_campaign_identical_under_worker_crashes(self):
        from repro.fuzz.engine import run_fuzz
        from repro.jobs.spec import resolve_fuzz_bases

        bases = resolve_fuzz_bases(["binary+none+partition"])
        baseline = run_fuzz(bases, budget=12, fuzz_seed=5, shrink=False)

        plan = FaultPlan(worker_crash=(2, 6))
        runner = Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        try:
            chaotic = run_fuzz(bases, budget=12, fuzz_seed=5, shrink=False, runner=runner)
            assert runner.supervision.crashes_detected >= 1
        finally:
            runner.close()
        assert chaotic.to_dict() == baseline.to_dict()


# ----------------------------------------------------------------------
# CLI: flag validation, env-driven plans, Ctrl-C teardown
# ----------------------------------------------------------------------
class TestChaosCLI:
    @pytest.mark.parametrize("command", ["run", "analyze", "fuzz"])
    @pytest.mark.parametrize("value", ["-1", "half"])
    def test_max_retries_validated_at_parse_time(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, "--max-retries", value])
        assert excinfo.value.code == EXIT_CONFIG
        assert "expected a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "analyze", "fuzz"])
    def test_resilience_flags_accepted_everywhere(self, command):
        parser_probe = ["--max-retries", "2", "--fail-fast"]
        if command == "run":
            argv = [command, "--scenario", SLICE[0], "--quiet"] + parser_probe
        elif command == "analyze":
            argv = [command, "--family", "named", "--quiet", "--no-cross-check"] + parser_probe
        else:
            argv = [command, "--budget", "2", "--quiet"] + parser_probe
        assert cli_main(argv) == 0

    def test_env_fault_plan_sweep_matches_fault_free_store(self, tmp_path, monkeypatch, capsys):
        # Two worker kills and a failing first flush, injected through the
        # environment: the store must end byte-identical to a fault-free
        # one, with no innocent task quarantined for a transient death.
        clean_db, chaos_db = str(tmp_path / "clean.db"), str(tmp_path / "chaos.db")
        argv = ["run", "--scenario"] + SLICE + ["--seeds", "2", "--parallel", "2", "--quiet"]
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert cli_main(argv + ["--store", clean_db]) == 0
        plan = FaultPlan(seed=3, worker_crash=(2, 5), flush_errors=(1,))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        assert cli_main(argv + ["--store", chaos_db]) == 0
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        capsys.readouterr()

        with RunStore(clean_db) as clean, RunStore(chaos_db) as chaos:
            clean_records = sorted(r.canonical_json() for r in clean.iter_records())
            chaos_records = sorted(r.canonical_json() for r in chaos.iter_records())
            assert list(clean.iter_poison()) == list(chaos.iter_poison()) == []
        assert clean_records == chaos_records
        assert len(clean_records) == len(SLICE) * 2
        assert cli_main(["compare", "--store", chaos_db, "--against", clean_db, "--tolerance", "0"]) == 0

    def test_keyboard_interrupt_flushes_completed_and_exits_130(
        self, tmp_path, monkeypatch, capsys
    ):
        # Ctrl-C after the second completed run: the session must still
        # terminate the pool, flush what finished, and exit 130.
        original_put = RunStore.put
        puts = {"n": 0}

        def interrupting_put(self, spec, result):
            stored = original_put(self, spec, result)
            puts["n"] += 1
            if puts["n"] == 2:
                raise KeyboardInterrupt
            return stored

        monkeypatch.setattr(RunStore, "put", interrupting_put)
        argv = ["run", "--scenario"] + SLICE + ["--store", str(tmp_path / "runs.db"), "--quiet"]
        assert cli_main(argv) == EXIT_INTERRUPTED
        assert "interrupted: run stopped by SIGINT" in capsys.readouterr().err
        monkeypatch.setattr(RunStore, "put", original_put)
        with RunStore(tmp_path / "runs.db") as store:
            assert sum(1 for _ in store.iter_records()) == 2

    def test_interrupted_sweep_resumes_missing_runs_only(self, tmp_path, monkeypatch, capsys):
        # The resume contract: after an interruption, a second identical
        # sweep executes only the runs the first one never completed.
        self.test_keyboard_interrupt_flushes_completed_and_exits_130(
            tmp_path, monkeypatch, capsys
        )
        argv = ["run", "--scenario"] + SLICE + ["--store", str(tmp_path / "runs.db")]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert f"2 cached, {len(SLICE) - 2} executed" in out


def _committed_rows(path):
    """Rows another process has committed, 0 while the table is unreadable."""
    if not path.exists():
        return 0
    try:
        with sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=0.1) as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
    except sqlite3.Error:
        return 0


def _sorted_records(path):
    with RunStore(path) as store:  # opening runs any pending recovery
        return sorted(r.canonical_json() for r in store.iter_records())


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkilled_sweep_resumes_missing_runs_only(tmp_path, monkeypatch, capsys):
    # A real process killed with SIGKILL after its first committed batch
    # keeps only what it committed; the re-run serves exactly those from
    # cache and executes the rest.  100 seeds make 400 runs, so the sweep
    # outlives its first 128-record commit.
    argv = ["run", "--scenario", *SLICE, "--seeds", "100", "--quiet"]
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert cli_main(argv + ["--store", str(tmp_path / "clean.db")]) == 0
    clean = _sorted_records(tmp_path / "clean.db")
    assert len(clean) == len(SLICE) * 100

    resume_db = tmp_path / "resume.db"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *argv, "--store", str(resume_db)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while victim.poll() is None and time.monotonic() < deadline:
        if _committed_rows(resume_db) > 0:
            break
        time.sleep(0.005)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait()

    survivors = len(_sorted_records(resume_db))  # == len(clean) if it finished first
    capsys.readouterr()
    assert cli_main(argv + ["--store", str(resume_db)]) == 0
    assert f"{survivors} cached, {len(clean) - survivors} executed" in capsys.readouterr().out
    assert _sorted_records(resume_db) == clean


# ----------------------------------------------------------------------
# Session integration: quarantine surfaces in the outcome
# ----------------------------------------------------------------------
class TestSessionChaos:
    def test_sweep_outcome_reports_quarantine_and_supervision(self, tmp_path):
        plan = FaultPlan(poison=(2,))
        with ExecutionSession(
            parallel=2, store_path=tmp_path / "runs.db", max_retries=1, fault_plan=plan
        ) as session:
            outcome = session.submit(
                SweepJob(specs_to_payloads(select_scenarios(SLICE)), collect_records=True)
            )
        assert not outcome.ok
        assert len(outcome.quarantined) == 1
        assert outcome.quarantined[0].error.startswith(POISON_ERROR_PREFIX)
        assert outcome.supervision["quarantined"] == 1
        assert outcome.supervision["dispatched"] >= len(SLICE)
        # The persisted telemetry snapshot names the failed job's status.
        with RunStore(tmp_path / "runs.db") as store:
            assert store.get_telemetry(label="sweep").snapshot["status"] == "Error"

    def test_fail_fast_stops_after_first_failure(self, tmp_path, monkeypatch):
        # Quarantine the first dispatched task; fail-fast must cut the
        # sweep short instead of completing the matrix.
        plan = FaultPlan(poison=(1,))
        with ExecutionSession(
            parallel=2,
            store_path=tmp_path / "runs.db",
            max_retries=0,
            fail_fast=True,
            fault_plan=plan,
        ) as session:
            outcome = session.submit(
                SweepJob(specs_to_payloads(select_scenarios(SLICE)), collect_records=True)
            )
        assert not outcome.ok
        assert len(outcome.records) < len(SLICE)
