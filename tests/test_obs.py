"""Observability: metrics registry, trace sink, telemetry persistence, stats CLI.

The hard contract under test: telemetry is **descriptive, never
load-bearing**.  Traced/metered executions must produce byte-identical
run records and summaries to bare ones, on or off, serial or parallel.
Everything else here covers the instruments themselves — registry
semantics, JSONL trace structure, the persisted ``telemetry`` table and
the ``stats`` subcommand.
"""

import io
import json

import pytest

from repro.experiments.aggregate import results_to_json
from repro.experiments.cli import main
from repro.experiments.runner import Runner
from repro.jobs import (
    AnalyzeJob,
    ExecutionSession,
    FuzzJob,
    SweepJob,
    resolve_fuzz_bases,
    select_scenarios,
    specs_to_payloads,
)
from repro.obs import (
    METRICS,
    MetricsRegistry,
    RECORD_EVENT,
    RECORD_SPAN_END,
    RECORD_SPAN_START,
    TIMER_BUCKETS,
    TraceSink,
    render_markdown,
    render_prometheus,
    render_text,
    set_enabled,
    telemetry_enabled,
)
from repro.store import RunStore

SLICE = ["binary+silent+synchronous", "quad+silent+synchronous"]


def slice_payloads():
    return specs_to_payloads(select_scenarios(SLICE))


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(autouse=True)
def clean_registry():
    """Zero the process-global registry around every test in this module."""
    METRICS.reset()
    set_enabled(True)
    yield
    set_enabled(True)
    METRICS.reset()


def run_sweep(store_path=None, trace_path=None, parallel=None):
    job = SweepJob(scenario_payloads=slice_payloads(), seeds=(1, 2), collect_records=True)
    with ExecutionSession(
        parallel=parallel, store_path=store_path, trace_path=trace_path
    ) as session:
        return session.submit(job)


class TestDispatchCounters:
    @pytest.mark.parametrize(
        "warm_specs, parallel",
        [(2, None), (1, None), (1, 2)],
        ids=["fully-warm", "partly-warm-serial", "partly-warm-parallel"],
    )
    def test_cached_counts_exactly_the_store_hits(self, tmp_path, warm_specs, parallel):
        specs, seeds = select_scenarios(SLICE), (1, 2)
        with RunStore(tmp_path / "runs.db") as store, Runner() as runner:
            runner.run(specs[:warm_specs], seeds, store=store)
        METRICS.reset()
        with RunStore(tmp_path / "runs.db") as store, Runner(parallel=parallel) as runner:
            runner.run(specs, seeds, store=store)
            hits = store.stats.hits
        assert hits == warm_specs * len(seeds)
        counters = METRICS.counter_values()
        assert counters["runner.tasks.cached"] == hits
        assert counters["runner.tasks.dispatched"] == len(specs) * len(seeds) - hits


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.count")
        counter.inc()
        counter.inc(3)
        registry.gauge("x.level").set(7)
        assert counter.value == 4
        assert registry.snapshot()["gauges"]["x.level"] == 7

    def test_instruments_are_created_once_and_reused(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.timer("a.t") is registry.timer("a.t")

    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dual.use")
        with pytest.raises(ValueError, match="already exists as a counter"):
            registry.gauge("dual.use")
        with pytest.raises(ValueError, match="already exists as a counter"):
            registry.timer("dual.use")

    @pytest.mark.parametrize("name", ["", "Upper.case", "trailing.", ".leading", "sp ace"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError, match="invalid instrument name"):
            MetricsRegistry().counter(name)

    def test_timer_buckets_and_context_manager(self):
        registry = MetricsRegistry()
        timer = registry.timer("t.wall")
        timer.observe(0.0005)  # first bucket (<= 0.001)
        timer.observe(0.3)  # <= 0.5
        timer.observe(99.0)  # +inf
        with timer.time():
            pass
        assert timer.count == 4
        snapshot = registry.snapshot()["timers"]["t.wall"]
        assert snapshot["buckets"]["0.001"] >= 1
        assert snapshot["buckets"]["0.5"] == 1
        assert snapshot["buckets"]["+inf"] == 1
        assert set(snapshot["buckets"]) == {f"{b:g}" for b in TIMER_BUCKETS} | {"+inf"}

    def test_counter_delta_reports_only_movement(self):
        registry = MetricsRegistry()
        moved = registry.counter("moved")
        registry.counter("still")
        before = registry.counter_values()
        moved.inc(2)
        late = registry.counter("late.arrival")
        late.inc()
        assert registry.counter_delta(before) == {"moved": 2, "late.arrival": 1}

    def test_reset_zeroes_in_place_keeping_cached_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("kept")
        timer = registry.timer("kept.t")
        counter.inc(5)
        timer.observe(1.0)
        registry.reset()
        assert counter.value == 0 and timer.count == 0
        counter.inc()  # the cached object is still the registry's object
        assert registry.snapshot()["counters"]["kept"] == 1

    def test_disable_makes_updates_no_ops(self):
        registry = MetricsRegistry()
        counter = registry.counter("gated")
        timer = registry.timer("gated.t")
        gauge = registry.gauge("gated.g")
        set_enabled(False)
        assert not telemetry_enabled()
        counter.inc()
        timer.observe(1.0)
        gauge.set(3)
        assert counter.value == 0 and timer.count == 0 and gauge.value == 0
        set_enabled(True)
        counter.inc()
        assert counter.value == 1


class TestRenderers:
    def test_text_empty_registry(self):
        assert "(no instruments recorded)" in render_text(MetricsRegistry().snapshot())

    def test_text_lists_counters_and_timers(self):
        registry = MetricsRegistry()
        registry.counter("c.one").inc(3)
        registry.timer("t.one").observe(0.5)
        text = render_text(registry.snapshot(), title="telemetry")
        assert text.startswith("telemetry:")
        assert "c.one = 3" in text
        assert "t.one: count=1" in text

    def test_markdown_table(self):
        registry = MetricsRegistry()
        registry.counter("c.one").inc()
        registry.gauge("g.one").set(2)
        lines = render_markdown(registry.snapshot()).splitlines()
        assert lines[0] == "| instrument | kind | value |"
        assert "| c.one | counter | 1 |" in lines
        assert "| g.one | gauge | 2 |" in lines

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("runner.tasks.dispatched").inc(4)
        registry.timer("runner.task.wall").observe(0.0005)
        registry.timer("runner.task.wall").observe(99.0)
        text = render_prometheus(registry.snapshot())
        assert text.endswith("\n")
        assert "# TYPE repro_runner_tasks_dispatched_total counter" in text
        assert "repro_runner_tasks_dispatched_total 4" in text
        # Histogram buckets are cumulative and end at +inf == _count.
        assert 'repro_runner_task_wall_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_runner_task_wall_seconds_bucket{le="+inf"} 2' in text
        assert "repro_runner_task_wall_seconds_count 2" in text


# ----------------------------------------------------------------------
# Trace sink
# ----------------------------------------------------------------------
class TestTraceSink:
    def read_records(self, text):
        return [json.loads(line) for line in text.strip().splitlines()]

    def test_jsonl_structure_and_monotonic_sequence(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path)
        with sink.span("job.sweep", fingerprint="abc"):
            sink.event("task.done", scenario="s1")
            with sink.span("phase.execute"):
                sink.event("tick")
        sink.close()
        records = self.read_records(path.read_text())
        assert records[0]["name"] == "trace" and records[0]["version"] == 1
        assert [r["sequence"] for r in records] == list(range(len(records)))
        assert all(r["t"] >= 0 for r in records)
        by_kind = {}
        for record in records:
            by_kind.setdefault(record["record"], []).append(record)
        assert len(by_kind[RECORD_SPAN_START]) == len(by_kind[RECORD_SPAN_END]) == 2
        # Parent attribution: events and inner spans name the innermost span.
        task_done = next(r for r in records if r["name"] == "task.done")
        assert task_done["parent"] == "job.sweep"
        inner_start = next(
            r for r in records if r["name"] == "phase.execute" and r["record"] == RECORD_SPAN_START
        )
        assert inner_start["parent"] == "job.sweep"
        tick = next(r for r in records if r["name"] == "tick")
        assert tick["parent"] == "phase.execute"
        ends = [r for r in records if r["record"] == RECORD_SPAN_END]
        assert all("duration" in r and r["duration"] >= 0 for r in ends)

    def test_span_records_error_type_and_reraises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path)
        with pytest.raises(ValueError):
            with sink.span("job.boom"):
                raise ValueError("boom")
        sink.close()
        end = [r for r in self.read_records(path.read_text()) if r["record"] == RECORD_SPAN_END][-1]
        assert end["error"] == "ValueError"

    def test_borrowed_handle_survives_close(self):
        handle = io.StringIO()
        sink = TraceSink(handle)
        sink.event("ping")
        sink.close()
        assert not handle.closed
        records = self.read_records(handle.getvalue())
        assert [r["name"] for r in records] == ["trace", "ping"]

    def test_write_failure_silences_sink_instead_of_raising(self):
        class BrokenHandle:
            def write(self, _):
                raise OSError("disk full")

        sink = TraceSink(BrokenHandle())
        assert sink.closed  # the header write already failed
        sink.event("ignored")  # must not raise
        with sink.span("still.fine"):
            pass
        sink.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = TraceSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()
        assert sink.closed


# ----------------------------------------------------------------------
# Telemetry is descriptive, never load-bearing
# ----------------------------------------------------------------------
class TestTelemetryNeutrality:
    def test_traced_and_untraced_sweeps_are_byte_identical(self, tmp_path):
        plain = run_sweep(store_path=tmp_path / "plain.db")
        METRICS.reset()
        traced = run_sweep(store_path=tmp_path / "traced.db", trace_path=tmp_path / "t.jsonl")
        assert results_to_json(plain.records) == results_to_json(traced.records)
        assert plain.summaries == traced.summaries
        assert (tmp_path / "t.jsonl").exists()

    def test_telemetry_off_is_byte_identical_to_on(self, tmp_path):
        enabled = run_sweep(store_path=tmp_path / "on.db")
        set_enabled(False)
        METRICS.reset()
        disabled = run_sweep(store_path=tmp_path / "off.db")
        assert results_to_json(enabled.records) == results_to_json(disabled.records)
        assert enabled.summaries == disabled.summaries
        # And with telemetry off, nothing moved.
        assert all(value == 0 for value in METRICS.counter_values().values())

    def test_traced_parallel_matches_untraced_serial(self, tmp_path):
        serial = run_sweep()
        parallel = run_sweep(trace_path=tmp_path / "t.jsonl", parallel=2)
        assert results_to_json(serial.records) == results_to_json(parallel.records)
        # The real trace is well formed: a versioned header, every record
        # sequenced by its line index, and spans closed innermost first.
        records = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert records[0]["name"] == "trace" and records[0]["version"] == 1
        open_spans = []
        for index, record in enumerate(records):
            assert {"sequence", "record", "name", "parent", "t"} <= record.keys()
            assert record["sequence"] == index
            if record["record"] == RECORD_SPAN_START:
                open_spans.append(record["name"])
            elif record["record"] == RECORD_SPAN_END:
                assert open_spans.pop() == record["name"]
                assert record["duration"] >= 0
            else:
                assert record["record"] == RECORD_EVENT
        assert open_spans == []
        assert {"job.sweep", "phase.execute"} <= {r["name"] for r in records}
        # One progress event per run, counting up to the sweep's size, all
        # inside the job's span.
        runs = len(serial.records)
        progress = [i for i, r in enumerate(records) if r["name"] == "sweep.progress"]
        assert [records[i]["completed"] for i in progress] == list(range(1, runs + 1))
        assert {records[i]["total"] for i in progress} == {runs}
        job_span = [i for i, r in enumerate(records) if r["name"] == "job.sweep"]
        assert len(job_span) == 2 and job_span[0] < progress[0] and progress[-1] < job_span[1]

    def test_traced_analyze_has_one_progress_event_per_verdict(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with ExecutionSession(trace_path=trace) as session:
            outcome = session.submit(AnalyzeJob(families=("named",)))
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        progress = [r for r in records if r["name"] == "analyze.progress"]
        assert [r["message"] for r in progress] == [v.label for v in outcome.verdicts]
        assert [r["completed"] for r in progress] == list(range(1, len(outcome.verdicts) + 1))
        assert {r["total"] for r in progress} == {len(outcome.verdicts)}
        assert {r["parent"] for r in progress} == {"phase.classify"}

    def test_traced_fuzz_records_every_log_line(self, tmp_path):
        trace, lines = tmp_path / "t.jsonl", []
        job = FuzzJob(specs_to_payloads(resolve_fuzz_bases(["binary+none+partition"])), budget=6)
        with ExecutionSession(trace_path=trace) as session:
            session.submit(job, log=lines.append)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        logged = [r for r in records if r["name"] == "fuzz.log"]
        assert lines and [r["message"] for r in logged] == lines
        assert {r["parent"] for r in logged} == {"phase.campaign"}


# ----------------------------------------------------------------------
# The persisted telemetry table
# ----------------------------------------------------------------------
class TestTelemetryTable:
    def test_put_get_round_trip(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            snapshot_id = store.put_telemetry("sweep", {"registry": {"counters": {"x": 1}}})
            assert snapshot_id is not None
            record = store.get_telemetry()
            assert record.snapshot_id == snapshot_id
            assert record.label == "sweep"
            assert record.snapshot["registry"]["counters"]["x"] == 1

    def test_latest_wins_and_filters(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            first = store.put_telemetry("sweep", {"n": 1})
            store.put_telemetry("fuzz", {"n": 2})
            last = store.put_telemetry("sweep", {"n": 3})
            assert store.get_telemetry().snapshot == {"n": 3}
            assert store.get_telemetry(label="fuzz").snapshot == {"n": 2}
            assert store.get_telemetry(snapshot_id=first).snapshot == {"n": 1}
            assert store.get_telemetry(snapshot_id=last).label == "sweep"
            assert store.get_telemetry(snapshot_id=9999) is None
            assert [r.snapshot["n"] for r in store.iter_telemetry()] == [1, 2, 3]
            assert [r.snapshot["n"] for r in store.iter_telemetry(label="sweep")] == [1, 3]
            assert store.count_telemetry() == 3

    def test_put_failure_returns_none_instead_of_raising(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            assert store.put_telemetry("sweep", {"bad": object()}) is None

    def test_sweep_job_persists_a_snapshot_with_nonzero_counters(self, tmp_path):
        run_sweep(store_path=tmp_path / "runs.db")
        with RunStore(tmp_path / "runs.db") as store:
            record = store.get_telemetry(label="sweep")
        assert record is not None
        counters = record.snapshot["registry"]["counters"]
        assert counters["runner.tasks.dispatched"] == 4
        assert counters["store.stored"] == 4
        assert record.snapshot["job_counters"]["job.sweep.submitted"] == 1
        assert record.snapshot["job_counters"]["runner.tasks.dispatched"] == 4
        assert record.snapshot["status"] == "Complete"
        assert isinstance(record.snapshot["supervision"], dict)
        assert record.snapshot["store"]["stored"] == 4

    def test_pre_telemetry_store_file_is_upgraded_in_place(self, tmp_path):
        # Simulate a store created before the telemetry table existed.
        path = tmp_path / "old.db"
        with RunStore(path) as store:
            store._connection().execute("DROP TABLE telemetry")
            store._connection().commit()
        with RunStore(path) as store:
            assert store.count_telemetry() == 0
            assert store.put_telemetry("sweep", {"ok": True}) is not None


# ----------------------------------------------------------------------
# The stats subcommand
# ----------------------------------------------------------------------
class TestStatsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        db = tmp_path / "runs.db"
        assert run_cli("run", "--scenario", *SLICE, "--seeds", "2", "--store", str(db), "--quiet") == 0
        return db

    def test_live_registry_rendering(self, capsys):
        run_sweep()
        assert run_cli("stats") == 0
        out = capsys.readouterr().out
        assert "telemetry (live registry):" in out
        assert "runner.tasks.dispatched = 4" in out

    def test_persisted_snapshot_text_and_json(self, populated, capsys):
        assert run_cli("stats", "--store", str(populated)) == 0
        out = capsys.readouterr().out
        assert "telemetry snapshot" in out and "status=Complete" in out
        assert "runner.tasks.dispatched = 4" in out
        assert "supervision:" in out
        assert run_cli("stats", "--store", str(populated), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "store" and payload["label"] == "sweep"
        assert payload["registry"]["counters"]["runner.tasks.dispatched"] == 4

    def test_snapshot_id_and_label_selection(self, populated, capsys):
        with RunStore(populated) as store:
            wanted = store.put_telemetry("fuzz", {"registry": {"counters": {"only.me": 9}}})
        assert run_cli("stats", "--store", str(populated), "--label", "fuzz", "--json") == 0
        assert json.loads(capsys.readouterr().out)["registry"]["counters"]["only.me"] == 9
        assert run_cli("stats", "--store", str(populated), "--snapshot", str(wanted), "--json") == 0
        assert json.loads(capsys.readouterr().out)["snapshot_id"] == wanted

    def test_read_only_commands_leave_the_sweep_snapshot_latest(self, tmp_path, capsys):
        db, baseline = tmp_path / "runs.db", tmp_path / "baseline.json"
        assert run_cli(
            "run", "--scenario", *SLICE, "--seeds", "2", "--store", str(db), "--quiet",
            "--write-baseline", str(baseline),
        ) == 0
        assert run_cli("report", "--store", str(db), "--quiet") == 0
        assert run_cli("compare", "--store", str(db), "--against", str(baseline)) == 0
        capsys.readouterr()
        assert run_cli("stats", "--store", str(db), "--json") == 0
        assert json.loads(capsys.readouterr().out)["label"] == "sweep"

    def test_run_stats_flag_prints_the_live_registry(self, capsys):
        assert run_cli("run", "--scenario", *SLICE, "--seeds", "2", "--quiet", "--stats") == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "runner.tasks.dispatched = 4" in out

    def test_markdown_and_prometheus_outputs(self, populated, tmp_path, capsys):
        assert run_cli("stats", "--store", str(populated), "--markdown") == 0
        assert "| runner.tasks.dispatched | counter | 4 |" in capsys.readouterr().out
        prom = tmp_path / "metrics.prom"
        assert run_cli("stats", "--store", str(populated), "--prometheus", str(prom)) == 0
        assert "repro_runner_tasks_dispatched_total 4" in prom.read_text()

    def test_empty_store_exits_3(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        RunStore(db).close()
        assert run_cli("stats", "--store", str(db)) == 3
        assert "empty slice:" in capsys.readouterr().err

    def test_missing_store_and_misused_flags_exit_2(self, tmp_path, capsys):
        assert run_cli("stats", "--store", str(tmp_path / "nope.db")) == 2
        assert run_cli("stats", "--snapshot", "1") == 2
        assert run_cli("stats", "--label", "sweep") == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# report surfaces poison + supervision
# ----------------------------------------------------------------------
class TestReportSurfacesPoisonAndSupervision:
    def test_report_text_and_json_include_poison_and_supervision(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert run_cli("run", "--scenario", *SLICE, "--seeds", "2", "--store", str(db), "--quiet") == 0
        with RunStore(db) as store:
            spec = select_scenarios([SLICE[0]])[0]
            store.put_poison(spec, 99, attempts=3, reason="worker kept dying")
        capsys.readouterr()
        json_path = tmp_path / "report.json"
        assert run_cli("report", "--store", str(db), "--json-output", str(json_path)) == 0
        out = capsys.readouterr().out
        assert "poison: 1 quarantined task(s)" in out
        assert "worker kept dying (3 attempts)" in out
        assert "supervision (last sweep):" in out
        payload = json.loads(json_path.read_text())
        assert payload["poison"] == [
            {"scenario": SLICE[0], "seed": 99, "attempts": 3, "reason": "worker kept dying"}
        ]
        assert set(payload["supervision"]) == {
            "crashes_detected", "dispatched", "quarantined", "respawns", "retries",
        }
        assert "scenarios" in payload and "format_version" in payload

    def test_report_json_without_poison_is_an_empty_list(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert run_cli("run", "--scenario", SLICE[0], "--seeds", "1", "--store", str(db), "--quiet") == 0
        json_path = tmp_path / "report.json"
        assert run_cli("report", "--store", str(db), "--quiet", "--json-output", str(json_path)) == 0
        payload = json.loads(json_path.read_text())
        assert payload["poison"] == []
