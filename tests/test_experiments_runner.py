"""Golden-trace determinism tests for the experiment runner.

The repo-wide guarantee the sweeps rely on: a run is a pure function of its
``(scenario, seed)`` pair.  These tests pin that down at the byte level —
identical pairs produce byte-identical ``RunResult`` records whether the
sweep is executed serially, serially again, or fanned out over a
``multiprocessing`` pool — and cover the runner's ordering, timeout/error
records, aggregation and baseline-diff behaviour.
"""

import json

import pytest

from repro.experiments import (
    DEFAULT_SEED,
    Runner,
    RunResult,
    aggregate,
    check_baseline,
    diff_against_baseline,
    execute_run,
    load_baseline,
    make_scenario,
    summaries_to_json,
    sweep_seeds,
    write_baseline,
)
from repro.experiments.execute import TIMEOUT_ERROR_PREFIX

TIMED_OUT = f"{TIMEOUT_ERROR_PREFIX} run exceeded 0.1s wall clock"

# A deliberately heterogeneous slice of the matrix: three protocols, three
# adversaries, both delay models.
SWEEP = [
    make_scenario("universal-authenticated", "silent", "synchronous"),
    make_scenario("universal-authenticated", "crash", "eventual"),
    make_scenario("binary", "dropping", "eventual"),
    make_scenario("quad", "silent", "synchronous"),
]
SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)


def canonical_trace(results):
    return "\n".join(result.canonical_json() for result in results)


class TestDeterminism:
    def test_same_pair_reruns_byte_identical(self):
        for spec in SWEEP:
            first = execute_run(spec, DEFAULT_SEED)
            second = execute_run(spec, DEFAULT_SEED)
            assert first == second
            assert first.canonical_json() == second.canonical_json()

    def test_serial_sweep_reruns_byte_identical(self):
        first = Runner().run(SWEEP, SEEDS)
        second = Runner().run(SWEEP, SEEDS)
        assert canonical_trace(first) == canonical_trace(second)

    def test_parallel_sweep_byte_identical_to_serial(self):
        serial = Runner().run(SWEEP, SEEDS)
        parallel = Runner(parallel=3).run(SWEEP, SEEDS)
        assert canonical_trace(parallel) == canonical_trace(serial)

    def test_spawn_pool_byte_identical_to_serial(self):
        # The spawn fallback boots fresh interpreters whose hash seed would
        # otherwise be randomised per worker; the runner pins PYTHONHASHSEED
        # so the guarantee holds on spawn-only platforms too.
        sweep = SWEEP[:2]
        serial = Runner().run(sweep, SEEDS)
        spawned = Runner(parallel=2, start_method="spawn").run(sweep, SEEDS)
        assert canonical_trace(spawned) == canonical_trace(serial)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError):
            Runner(parallel=2, start_method="teleport")

    def test_different_seeds_differ(self):
        spec = SWEEP[0]
        runs = {seed: execute_run(spec, seed) for seed in sweep_seeds(4)}
        latencies = {run.decision_latency for run in runs.values()}
        assert len(latencies) > 1, "seeds must actually steer the execution"

    def test_canonical_json_is_valid_sorted_json(self):
        result = execute_run(SWEEP[0], DEFAULT_SEED)
        payload = json.loads(result.canonical_json())
        assert list(payload) == sorted(payload)
        assert payload["scenario"] == SWEEP[0].name
        assert payload["seed"] == DEFAULT_SEED


class TestRunner:
    def test_results_in_scenario_times_seed_order(self):
        results = Runner(parallel=2).run(SWEEP, SEEDS)
        expected = [(spec.name, seed) for spec in SWEEP for seed in SEEDS]
        assert [(result.scenario, result.seed) for result in results] == expected

    def test_all_runs_ok_on_the_healthy_sweep(self):
        with Runner(parallel=2) as runner:
            results = runner.run(SWEEP, SEEDS)
        assert all(result.ok for result in results)
        assert all(result.completed and result.agreement and result.validity_ok for result in results)

    def test_empty_sweep(self):
        assert Runner(parallel=4).run([], SEEDS) == []

    def test_negative_parallel_rejected(self):
        with pytest.raises(ValueError):
            Runner(parallel=-1)

    def test_exhausted_event_budget_is_an_error_record_not_a_crash(self):
        starved = SWEEP[0].with_(name="starved", max_events=5)
        serial = Runner().run([starved], SEEDS)
        parallel = Runner(parallel=2).run([starved], SEEDS)
        for result in serial:
            assert result.error is not None and "SimulationError" in result.error
            assert not result.completed and not result.ok
        assert canonical_trace(serial) == canonical_trace(parallel)

    def test_wall_clock_timeout_yields_error_record(self):
        # The signature-free backend costs O(n^4) messages, so a large system
        # takes many seconds of wall clock; the timeout must cut it short.
        spec = make_scenario(
            "universal-non-authenticated", "silent", "synchronous", n=31, t=10
        ).with_(name="slow", max_events=10**9)
        results = Runner(timeout=0.1).run([spec], (DEFAULT_SEED,))
        assert len(results) == 1
        assert results[0].error is not None
        assert "timeout" in results[0].error
        # A timed-out run has no verdict: it must not masquerade as a clean
        # fast run with agreement=True / validity_ok=True / latency=0.0.
        assert not results[0].completed
        assert results[0].agreement is None
        assert results[0].validity_ok is None
        assert results[0].decision_latency is None
        assert not results[0].ok

    def test_timeout_is_authoritative_even_if_the_alarm_is_swallowed(self, monkeypatch):
        # _RunTimeout is a BaseException, so no ``except Exception`` can eat
        # it, but a protocol/checker bug could still wrap a bare ``except`` /
        # ``except BaseException`` around the alarm and return a fabricated
        # clean record after the deadline.  The deadline re-check must report
        # the timeout anyway.
        import time as time_module

        from repro.experiments import runner as runner_module
        from repro.experiments.runner import execute_with_timeout

        spec = SWEEP[0]
        fabricated = execute_run(spec, DEFAULT_SEED)
        assert fabricated.ok

        def swallowing_execute(spec_arg, seed_arg):
            deadline = time_module.monotonic() + 0.3
            while time_module.monotonic() < deadline:
                try:
                    time_module.sleep(0.02)
                except BaseException:  # noqa: BLE001 - the bug under test
                    pass  # the broad except that eats the alarm
            return fabricated

        monkeypatch.setattr(runner_module, "execute_run", swallowing_execute)
        result = execute_with_timeout((spec, DEFAULT_SEED, 0.05))
        assert result.error is not None and result.error.startswith(TIMEOUT_ERROR_PREFIX)
        assert result.agreement is None and not result.completed

    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_serial_runs_resolve_execute_run_through_the_runner_module(self, monkeypatch, timeout):
        # The one worker entry looks execute_run up in runner's globals on
        # every call, with or without a deadline, so patching it there sees
        # every run of an in-process sweep.
        from repro.experiments import runner as runner_module

        seen = []

        def recording_execute(spec, seed):
            seen.append((spec.name, seed))
            return execute_run(spec, seed)

        monkeypatch.setattr(runner_module, "execute_run", recording_execute)
        results = Runner(timeout=timeout).run(SWEEP[:2], SEEDS)
        assert seen == [(spec.name, seed) for spec in SWEEP[:2] for seed in SEEDS]
        assert canonical_trace(results) == canonical_trace(
            [execute_run(spec, seed) for spec in SWEEP[:2] for seed in SEEDS]
        )


class TestAggregation:
    def test_summary_counts_and_determinism(self):
        results = Runner().run(SWEEP, SEEDS)
        summaries = aggregate(results)
        assert set(summaries) == {spec.name for spec in SWEEP}
        for spec in SWEEP:
            summary = summaries[spec.name]
            assert summary.runs == len(SEEDS)
            assert summary.ok
            assert summary.messages.minimum <= summary.messages.mean <= summary.messages.maximum
        assert summaries_to_json(summaries) == summaries_to_json(aggregate(Runner(parallel=2).run(SWEEP, SEEDS)))

    def test_error_runs_are_counted_not_averaged(self):
        starved = SWEEP[0].with_(name="starved", max_events=5)
        summaries = aggregate(Runner().run([starved], SEEDS))
        summary = summaries["starved"]
        assert summary.errors == len(SEEDS)
        assert not summary.ok
        assert summary.messages.mean == 0.0

    def test_timed_out_runs_excluded_from_agreement_validity_latency(self):
        healthy = execute_run(SWEEP[0], DEFAULT_SEED)
        timed_out = RunResult.no_verdict(SWEEP[0].name, DEFAULT_SEED + 1, TIMED_OUT)
        summaries = aggregate([healthy, timed_out])
        summary = summaries[SWEEP[0].name]
        assert summary.runs == 2
        assert summary.errors == 1
        assert summary.agreement_violations == 0
        assert summary.validity_violations == 0
        # The timeout's placeholder latency must not drag the mean toward 0.
        assert summary.latency.mean == healthy.decision_latency
        assert summary.latency.minimum == healthy.decision_latency

    def test_horizon_limited_runs_excluded_from_latency(self):
        stunted = SWEEP[0].with_(name="stunted", time_limit=0.05)
        summaries = aggregate(Runner().run([stunted], SEEDS))
        summary = summaries["stunted"]
        assert summary.errors == 0
        assert summary.incomplete == len(SEEDS)
        assert not summary.ok
        # No run completed, so the latency distribution is empty, not a pile
        # of fake zero-latency "fast" runs.
        assert summary.latency.mean == 0.0 and summary.latency.maximum == 0.0


class TestStreamingAggregatorEdgeCases:
    """The streaming fold must match batch ``aggregate()`` exactly, even on
    degenerate sweeps: no runs at all, runs with no verdict on any property,
    and records from many scenarios arriving interleaved."""

    def test_empty_sweep(self):
        from repro.experiments import StreamingAggregator

        aggregator = StreamingAggregator()
        assert aggregator.summaries() == {}
        assert aggregate([]) == {}
        assert summaries_to_json(aggregator.summaries()) == summaries_to_json(aggregate([]))

    def test_all_timeout_scenario_every_stat_none(self):
        from repro.experiments import StreamingAggregator

        spec = SWEEP[0]
        results = [RunResult.no_verdict(spec.name, seed, TIMED_OUT) for seed in SEEDS]
        for result in results:  # the premise: a timed-out run has no verdict
            assert result.agreement is None
            assert result.validity_ok is None
            assert result.decision_latency is None
        aggregator = StreamingAggregator()
        for result in results:
            aggregator.add(result)
        streamed = aggregator.summaries()
        assert streamed == aggregate(results)
        summary = streamed[spec.name]
        assert summary.runs == len(SEEDS)
        assert summary.errors == len(SEEDS)
        assert summary.agreement_violations == 0 and summary.validity_violations == 0
        # No finished run fed any distribution: all-zero, not fake fast runs.
        for distribution in (summary.messages, summary.words, summary.latency):
            assert (distribution.minimum, distribution.maximum, distribution.mean) == (0.0, 0.0, 0.0)

    def test_interleaved_multi_scenario_streams_match_batch(self):
        from repro.experiments import StreamingAggregator

        results = Runner().run(SWEEP, SEEDS)
        results.append(RunResult.no_verdict(SWEEP[1].name, DEFAULT_SEED + 7, TIMED_OUT))
        # Interleave across scenarios: s0-seed0, s1-seed0, ..., s0-seed1, ...
        interleaved = sorted(results, key=lambda result: (result.seed, result.scenario))
        assert [r.scenario for r in interleaved] != [r.scenario for r in results]
        aggregator = StreamingAggregator()
        for result in interleaved:
            aggregator.add(result)
        assert aggregator.summaries() == aggregate(results)
        assert summaries_to_json(aggregator.summaries()) == summaries_to_json(aggregate(results))


class TestBaseline:
    def test_roundtrip_no_regressions(self, tmp_path):
        results = Runner().run(SWEEP, SEEDS)
        summaries = aggregate(results)
        path = tmp_path / "baseline.json"
        write_baseline(path, summaries)
        assert load_baseline(path).keys() == summaries.keys()
        assert check_baseline(summaries, path) == []

    def test_complexity_regression_detected(self, tmp_path):
        summaries = aggregate(Runner().run(SWEEP, SEEDS))
        baseline = json.loads(summaries_to_json(summaries))["scenarios"]
        shrunk = dict(baseline)
        name = SWEEP[0].name
        shrunk[name] = dict(shrunk[name])
        shrunk[name]["messages"] = dict(shrunk[name]["messages"], mean=shrunk[name]["messages"]["mean"] / 2.0)
        regressions = diff_against_baseline(summaries, shrunk, relative_tolerance=0.2)
        assert any(name in regression and "messages" in regression for regression in regressions)

    def test_correctness_regression_detected(self):
        summaries = aggregate(Runner().run(SWEEP, SEEDS))
        baseline = json.loads(summaries_to_json(summaries))["scenarios"]
        summaries[SWEEP[0].name].errors += 1
        regressions = diff_against_baseline(summaries, baseline)
        assert any("errors" in regression for regression in regressions)

    def test_missing_scenario_detected(self):
        summaries = aggregate(Runner().run(SWEEP, SEEDS))
        baseline = json.loads(summaries_to_json(summaries))["scenarios"]
        del summaries[SWEEP[-1].name]
        regressions = diff_against_baseline(summaries, baseline)
        assert any("missing" in regression for regression in regressions)

    def test_improvements_are_not_regressions(self, tmp_path):
        summaries = aggregate(Runner().run(SWEEP, SEEDS))
        baseline = json.loads(summaries_to_json(summaries))["scenarios"]
        for stored in baseline.values():
            stored["messages"] = dict(stored["messages"], mean=stored["messages"]["mean"] * 10)
            stored["errors"] = 5
        assert diff_against_baseline(summaries, baseline) == []
