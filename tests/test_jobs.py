"""The job/session layer: specs, session ownership, teardown.

Covers the contracts the architecture hangs on: every job type survives
pickling and rejects invalid fields at construction; one session runs sweep → analyze → fuzz on
a single pool and store (and a warm second submit executes nothing); the
``run`` command writes exactly the bytes ``ExecutionSession.submit``
produces; and teardown is exception-safe — the pool dies and the store
flushes even when a job blows up mid-flight or a streaming generator is
abandoned.
"""

import dataclasses
import json
import logging
import pickle
from types import SimpleNamespace

import pytest

from repro.experiments import DEFAULT_SEED, execute_run
from repro.experiments.aggregate import results_to_json, summary_status, write_baseline
from repro.experiments.cli import main as cli_main
from repro.experiments.cli.common import (
    EXIT_CONFIG,
    EXIT_EMPTY_SLICE,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
)
from repro.jobs import (
    AnalyzeJob,
    AnalyzeOutcome,
    ExecutionSession,
    FuzzJob,
    FuzzOutcome,
    JobSpecError,
    SessionClosedError,
    SweepJob,
    SweepOutcome,
    payloads_to_specs,
    resolve_fuzz_bases,
    select_scenarios,
    specs_to_payloads,
)
from repro.resilience import FaultPlan
from repro.store import RunStore
from repro.store.store import StoreFlushError

SLICE = ["binary+silent+synchronous", "quad+silent+synchronous"]


def slice_payloads():
    return specs_to_payloads(select_scenarios(SLICE))


# ----------------------------------------------------------------------
# Spec round-trips: pickle → identical spec; bad fields die at construction
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    def jobs(self, tmp_path):
        return [
            SweepJob(slice_payloads(), seeds=(7, 8), rerun=True, collect_records=True),
            AnalyzeJob(families=("named", "sampled"), cross_check_reference="ref.json"),
            FuzzJob(
                specs_to_payloads(resolve_fuzz_bases(["binary+none+partition"])),
                budget=9,
                fuzz_seed=3,
            ),
        ]

    def test_every_job_type_round_trips(self, tmp_path):
        # A job's scenarios travel as canonical payload strings: decoding
        # them and re-encoding the specs rebuilds an equal job.
        for job in self.jobs(tmp_path):
            rebuilt = {
                name: specs_to_payloads(payloads_to_specs(value))
                for name, value in vars(job).items()
                if name.endswith("_payloads")
            }
            assert dataclasses.replace(job, **rebuilt) == job
        sweep = self.jobs(tmp_path)[0]
        assert payloads_to_specs(sweep.scenario_payloads) == select_scenarios(SLICE)

    def test_jobs_are_picklable(self, tmp_path):
        for job in self.jobs(tmp_path):
            assert pickle.loads(pickle.dumps(job)) == job

    def test_missing_fields_rejected(self):
        # A scenario payload with missing fields (or no JSON at all) is a
        # spec error, raised while the job's inputs are resolved and before
        # the session starts a runner.
        for payload in ('{"name": "binary+silent+synchronous"}', "not json"):
            with pytest.raises(JobSpecError, match="invalid scenario payload"):
                payloads_to_specs([payload])
        with ExecutionSession() as session:
            with pytest.raises(JobSpecError, match="invalid scenario payload"):
                session.submit(SweepJob(('{"name": "x"}',)))
            assert session._runner is None

    def test_invalid_specs_die_at_construction(self):
        with pytest.raises(JobSpecError, match="no scenarios"):
            SweepJob(())
        with pytest.raises(JobSpecError, match="repeats"):
            SweepJob(slice_payloads(), seeds=(5, 5))
        with pytest.raises(JobSpecError, match="at least 1"):
            FuzzJob(slice_payloads(), budget=0)
        with pytest.raises(JobSpecError, match="unknown property families"):
            AnalyzeJob(families=("named", "imagined"))

    def test_unknown_fuzz_base_rejected(self):
        with pytest.raises(JobSpecError, match="unknown fuzz base"):
            resolve_fuzz_bases(["not-a-base"])


# ----------------------------------------------------------------------
# Session reuse: one pool + one store across sweep → analyze → fuzz
# ----------------------------------------------------------------------
class TestSessionReuse:
    def test_sweep_analyze_fuzz_share_resources(self, tmp_path):
        store_path = tmp_path / "runs.db"
        with ExecutionSession(parallel=2, store_path=store_path) as session:
            sweep = session.submit(SweepJob(slice_payloads(), seeds=(DEFAULT_SEED,)))
            runner = session._runner
            store = session._store
            assert runner is not None and store is not None

            analyze = session.submit(AnalyzeJob(families=("named",)))
            fuzz = session.submit(
                FuzzJob(specs_to_payloads(resolve_fuzz_bases(["binary+none+partition"])), budget=6)
            )
            # One pool, one connection, across all three job types.
            assert session._runner is runner
            assert session._store is store

        assert sweep.ok
        assert sweep.run_count == len(SLICE)
        assert not sweep.failures
        assert sweep.store_stats["stored"] == len(SLICE)
        assert analyze.ok
        assert analyze.counts["total"] == len(analyze.verdicts)
        assert fuzz.ok
        assert fuzz.report.candidates == 6

    def test_warm_second_submit_executes_nothing(self, tmp_path):
        store_path = tmp_path / "runs.db"
        job = SweepJob(slice_payloads(), seeds=(DEFAULT_SEED, DEFAULT_SEED + 1))
        with ExecutionSession(store_path=store_path) as session:
            cold = session.submit(job)
            warm = session.submit(job)
        assert cold.store_stats["hits"] == 0
        assert cold.store_stats["stored"] == cold.run_count
        # Store counters are per-job deltas, so the warm submit proves itself.
        assert warm.store_stats["hits"] == warm.run_count
        assert warm.store_stats["misses"] == 0
        assert warm.store_stats["stored"] == 0

    def test_storeless_session_has_no_store(self):
        with ExecutionSession() as session:
            assert session.store is None
            outcome = session.submit(SweepJob(slice_payloads()))
        assert outcome.ok
        assert outcome.store_stats is None

    def test_store_requiring_jobs_fail_without_store(self, tmp_path, capsys):
        # report and compare read a store outside any session and never
        # create one: without --store they do not parse, and a missing store
        # is a configuration error that leaves no file behind.
        for command in (["report"], ["compare", "--against", "base.json"]):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(command)
            assert excinfo.value.code == EXIT_CONFIG
        absent = tmp_path / "absent.db"
        assert cli_main(["report", "--store", str(absent)]) == EXIT_CONFIG
        assert cli_main(["compare", "--store", str(absent), "--against", str(absent)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count(f"store {absent} does not exist") == 2
        assert not absent.exists()

    def test_report_no_solution_on_empty_store(self, tmp_path, capsys):
        # An empty store is an empty slice for both read-only queries, and
        # reading it writes nothing into it (no telemetry snapshot).
        empty, baseline = tmp_path / "empty.db", tmp_path / "baseline.json"
        RunStore(empty).close()
        assert cli_main([
            "run", "--scenario", SLICE[0], "--seeds", "1", "--quiet", "--write-baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--store", str(empty)]) == EXIT_EMPTY_SLICE
        assert "no stored records" in capsys.readouterr().err
        assert cli_main(["compare", "--store", str(empty), "--against", str(baseline)]) == EXIT_EMPTY_SLICE
        assert "has no records" in capsys.readouterr().err
        with RunStore(empty) as store:
            assert store.count(any_code=True) == 0
            assert list(store.iter_telemetry()) == []

    def test_cli_run_writes_the_bytes_the_job_api_produces(self, tmp_path):
        # The run command is a rendering shell over ExecutionSession.submit:
        # its --output records and --write-baseline summary are byte-identical
        # to the same job's.  A warm resubmit executing nothing is
        # test_warm_second_submit_executes_nothing.
        protocols, seeds = ["binary", "quad"], (DEFAULT_SEED, DEFAULT_SEED + 1)
        cli_records, cli_baseline = tmp_path / "cli_records.json", tmp_path / "cli_baseline.json"
        assert cli_main([
            "run", "--protocol", *protocols, "--seeds", ",".join(map(str, seeds)), "--quiet",
            "--store", str(tmp_path / "cli.db"),
            "--output", str(cli_records), "--write-baseline", str(cli_baseline),
        ]) == 0
        job = SweepJob(
            specs_to_payloads(select_scenarios(protocols=protocols)),
            seeds=seeds,
            collect_records=True,
        )
        with ExecutionSession(store_path=tmp_path / "api.db") as session:
            outcome = session.submit(job)
        assert outcome.run_count > 0
        assert cli_records.read_text() == results_to_json(outcome.records) + "\n"
        api_baseline = tmp_path / "api_baseline.json"
        write_baseline(api_baseline, outcome.summaries)
        assert cli_baseline.read_bytes() == api_baseline.read_bytes()

    def test_unknown_job_type_is_spec_error(self):
        with ExecutionSession() as session:
            with pytest.raises(JobSpecError, match="not a known job type"):
                session.submit(object())
            # Refused before any resource is touched.
            assert session._runner is None

    def test_fuzz_progress_lines_reach_log(self, tmp_path):
        lines = []
        with ExecutionSession(store_path=tmp_path / "fuzz.db") as session:
            session.submit(
                FuzzJob(specs_to_payloads(resolve_fuzz_bases(["binary+none+partition"])), budget=6),
                log=lines.append,
            )
        assert lines and lines[-1].startswith("fuzz: 6/6 candidates, ")


# ----------------------------------------------------------------------
# Outcomes: `ok` is the job's own verdict, and the CLI's exit code follows it
# ----------------------------------------------------------------------
class TestOutcomes:
    @pytest.mark.parametrize(
        "failures, quarantined, ok",
        [([], [], True), (["failed run"], [], False), ([], ["poison record"], False)],
    )
    def test_sweep_ok_means_no_failed_or_quarantined_run(self, failures, quarantined, ok):
        outcome = SweepOutcome(
            run_count=1, scenario_count=1, seed_count=1, summaries={},
            failures=failures, quarantined=quarantined,
        )
        assert outcome.ok is ok

    @pytest.mark.parametrize(
        "cross_check, error, ok",
        [
            (None, None, True),
            (SimpleNamespace(divergences=[]), None, True),
            (SimpleNamespace(divergences=["divergence"]), None, False),
            (None, "unreadable reference", False),
        ],
        ids=["no-cross-check", "consistent", "divergent", "unreadable"],
    )
    def test_analyze_ok_means_a_clean_cross_check(self, cross_check, error, ok):
        outcome = AnalyzeOutcome(
            verdicts=[], cached=0, classified=0, counts={},
            cross_check=cross_check, cross_check_error=error,
        )
        assert outcome.ok is ok

    def test_fuzz_ok_even_when_the_campaign_finds_violations(self):
        assert FuzzOutcome(report=SimpleNamespace(violating=3)).ok

    def test_exit_codes_are_the_cli_contract(self):
        # CI gates read these numbers; 130 is the shell's 128 + SIGINT.
        assert (EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_EMPTY_SLICE, EXIT_INTERRUPTED) == (
            0, 1, 2, 3, 130,
        )

    def test_summary_status_strings(self):
        assert summary_status(True) == "ok"
        assert summary_status(False) == "FAIL"

    def test_run_exits_failure_when_a_run_is_quarantined(self, monkeypatch, capsys):
        # A sweep that is not ok fails the run command even without a
        # baseline: the quarantined run renders as a FAIL row.
        monkeypatch.setenv("REPRO_FAULT_PLAN", FaultPlan(poison=(1,)).to_json())
        argv = ["run", "--scenario", *SLICE, "--parallel", "2", "--max-retries", "0"]
        assert cli_main(argv) == EXIT_FAILURE
        assert "[FAIL]" in capsys.readouterr().out

    def test_failed_analyze_persists_an_error_snapshot(self, tmp_path):
        reference = tmp_path / "reference.json"
        reference.write_text("not json")
        with ExecutionSession(store_path=tmp_path / "runs.db") as session:
            outcome = session.submit(
                AnalyzeJob(families=("named",), cross_check_reference=str(reference))
            )
        assert not outcome.ok and outcome.cross_check_error is not None
        with RunStore(tmp_path / "runs.db") as store:
            assert store.get_telemetry(label="analyze").snapshot["status"] == "Error"

    def test_supervision_lines_go_to_log_and_not_to_logging(self, caplog):
        # The runner's supervision notes belong to the job: they reach the
        # caller's log, and without one they are dropped, not logged.
        job = SweepJob(slice_payloads())
        lines = []
        with ExecutionSession(parallel=2, fault_plan=FaultPlan(worker_crash=(1,))) as session:
            assert session.submit(job, log=lines.append).ok
        assert any(line.startswith("supervisor: ") for line in lines)
        with caplog.at_level(logging.WARNING):
            with ExecutionSession(parallel=2, fault_plan=FaultPlan(worker_crash=(1,))) as session:
                assert session.submit(job).ok
        assert caplog.records == []


# ----------------------------------------------------------------------
# Teardown guarantees
# ----------------------------------------------------------------------
class TestTeardown:
    def test_closed_session_refuses_work(self):
        session = ExecutionSession()
        session.close()
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.submit(SweepJob(slice_payloads()))
        with pytest.raises(SessionClosedError):
            session.runner
        session.close()  # idempotent

    def test_mid_job_exception_still_tears_down(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("kernel died")

        monkeypatch.setattr(ExecutionSession, "_sweep", explode)
        trace = tmp_path / "trace.jsonl"
        session = ExecutionSession(store_path=tmp_path / "runs.db", trace_path=trace)
        with pytest.raises(RuntimeError, match="kernel died"):
            with session:
                session.submit(SweepJob(slice_payloads()))
        assert session.closed
        assert session._runner is None and session._store is None
        # The job's span records how the job ended.
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        ends = [r for r in records if r["record"] == "span-end" and r["name"] == "job.sweep"]
        assert [r.get("error") for r in ends] == ["RuntimeError"]

    def test_mid_job_exception_salvages_buffered_records(self, tmp_path, monkeypatch):
        # A job that dies after buffering records flushes them on the way
        # out, before the session closes, and re-raises the original error.
        def put_then_explode(session, job, log):
            for spec in payloads_to_specs(job.scenario_payloads):
                session.store.put(spec, execute_run(spec, DEFAULT_SEED))
            raise RuntimeError("kernel died")

        monkeypatch.setattr(ExecutionSession, "_sweep", put_then_explode)
        with ExecutionSession(store_path=tmp_path / "runs.db") as session:
            with pytest.raises(RuntimeError, match="kernel died"):
                session.submit(SweepJob(slice_payloads()))
            assert session.store.pending_count == 0
            with RunStore(tmp_path / "runs.db") as reader:
                assert sum(1 for _ in reader.iter_records()) == len(SLICE)

    def test_session_survives_job_error_until_closed(self, tmp_path):
        # A failing job must not poison the session: the next submit reuses
        # the same pool and store.
        with ExecutionSession(store_path=tmp_path / "runs.db") as session:
            with pytest.raises(JobSpecError):
                session.submit(AnalyzeJob(families=("named",), cross_check_reference="absent.json"))
            outcome = session.submit(SweepJob(slice_payloads()))
        assert outcome.ok

    def test_abandoned_generator_then_close(self, tmp_path):
        # Abandon a streaming sweep mid-flight; closing the session must
        # still terminate the pool and flush the store without hanging.
        with ExecutionSession(parallel=2, store_path=tmp_path / "runs.db") as session:
            scenarios = select_scenarios(SLICE)
            iterator = session.runner.iter_runs(scenarios, [DEFAULT_SEED], store=session.store)
            next(iterator)
            del iterator
        with RunStore(tmp_path / "runs.db") as store:
            assert sum(1 for _ in store.iter_records()) >= 1

    def test_transient_flush_failure_absorbed_by_retry(self, tmp_path):
        # A flush that fails once and then succeeds is invisible to the
        # caller: close() retries under the store's policy and returns.
        session = ExecutionSession(
            store_path=tmp_path / "runs.db",
            max_retries=2,
            fault_plan=FaultPlan(flush_errors=(1,)),
        )
        store = session.store
        for spec in select_scenarios(SLICE):  # buffered: close() does the only flush
            store.put(spec, execute_run(spec, DEFAULT_SEED))
        assert store.pending_count == len(SLICE)
        session.close()  # no raise: the retry absorbed the transient failure
        assert session._store is None
        assert store.stats.flush_retries == 1  # attempt 1 failed, attempt 2 committed
        assert store.pending_count == 0
        assert not store.journal_path.exists()
        with RunStore(tmp_path / "runs.db") as reopened:
            assert sum(1 for _ in reopened.iter_records()) == len(SLICE)

    def test_flush_failure_keeps_store_for_retry(self, tmp_path):
        # A persistent, non-spillworthy failure exhausts the retry budget
        # and surfaces as StoreFlushError naming the attempts spent; the
        # store reference is kept so a later close() can retry.
        import contextlib
        import sqlite3

        session = ExecutionSession(store_path=tmp_path / "runs.db", max_retries=1)
        store = session.store
        for spec in select_scenarios(SLICE):
            store.put(spec, execute_run(spec, DEFAULT_SEED))
        # Break the schema through a second connection: every flush attempt
        # now fails with "no such table: runs", which no journal can absorb.
        with contextlib.closing(sqlite3.connect(str(tmp_path / "runs.db"))) as saboteur:
            saboteur.execute("ALTER TABLE runs RENAME TO runs_hidden")
            saboteur.commit()
            with pytest.raises(StoreFlushError, match=r"after 2 attempt\(s\)"):
                session.close()
            # Pool is gone, session is closed, but the store is kept for retry.
            assert session.closed
            assert session._runner is None
            assert session._store is store
            assert store.stats.flush_retries == 1
            # No journal spill for a non-disk failure: the records stay pending.
            assert not store.journal_path.exists()
            assert store.pending_count == len(SLICE)
            saboteur.execute("ALTER TABLE runs_hidden RENAME TO runs")
            saboteur.commit()
        session.close()  # retry succeeds and releases the store
        assert session._store is None
        with RunStore(tmp_path / "runs.db") as reopened:
            assert sum(1 for _ in reopened.iter_records()) == len(SLICE)
