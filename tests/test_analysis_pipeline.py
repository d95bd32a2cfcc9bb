"""The analyze pipeline: deterministic verdicts, store caching, cross-checks."""

import json
import math

import pytest

from repro.analysis.pipeline import (
    DEFAULT_ENUMERATION_BUDGET,
    AnalysisError,
    PropertyTask,
    classify_task,
    cross_check_matrix,
    cross_check_tasks,
    dedupe_tasks,
    default_tasks,
    diff_verdicts,
    enumerated_tasks,
    enumeration_cost,
    load_verdict_baseline,
    named_tasks,
    run_analysis,
    sampled_tasks,
    verdicts_to_json,
    verdicts_to_payload,
)
from repro.core.input_config import count_input_configurations
from repro.core.system import SystemConfig
from repro.experiments.cli import main
from repro.experiments.runner import Runner
from repro.store import RunStore

# A fast slice of the default family: every family represented, both
# resilience regimes, a couple of seconds to classify serially.
FAST_TASKS = (
    named_tasks(systems=((3, 1, (0, 1)), (4, 1, (0, 1))))
    + enumerated_tasks(count=6)
    + sampled_tasks(count=4)
)


def verdict_trace(verdicts):
    return [verdict.canonical_json() for verdict in verdicts]


class TestPropertyTasks:
    def test_default_family_is_at_least_fifty_properties(self):
        tasks = default_tasks()
        assert len(tasks) >= 50
        assert {task.family for task in tasks} == {"named", "enumerated", "sampled"}

    def test_labels_are_unique_across_default_and_cross_check_tasks(self):
        tasks = default_tasks() + cross_check_tasks()
        deduped = dedupe_tasks(tasks)
        labels = [task.label for task in deduped]
        assert len(labels) == len(set(labels))

    def test_dedupe_rejects_distinct_tasks_with_one_label(self):
        task = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1))
        clash = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1), index=7)
        assert clash.label == task.label  # named labels elide the index
        with pytest.raises(AnalysisError):
            dedupe_tasks([task, clash])

    def test_fingerprint_tracks_content(self):
        task = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1))
        same = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1))
        other = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1, 2))
        assert task.fingerprint() == same.fingerprint()
        assert task.fingerprint() != other.fingerprint()


class TestClassifyTask:
    def test_verdict_roundtrips_through_canonical_json(self):
        from repro.analysis.pipeline import AnalysisVerdict

        for task in (FAST_TASKS[0], FAST_TASKS[-1]):
            verdict = classify_task(task)
            rebuilt = AnalysisVerdict.from_dict(json.loads(verdict.canonical_json()))
            assert rebuilt == verdict
            assert rebuilt.canonical_json() == verdict.canonical_json()

    # Beyond the default family's systems, every named verdict is still exact.
    LARGE_SYSTEMS = (
        (7, 2, (0, 1, 2)),
        (10, 3, (0, 1, 2)),
        (13, 4, (0, 1, 2)),
        (16, 5, (0, 1)),
        (31, 10, (0, 1)),
    )

    @pytest.mark.parametrize(
        "n, t, domain", LARGE_SYSTEMS, ids=[f"n{n}-t{t}-d{len(d)}" for n, t, d in LARGE_SYSTEMS]
    )
    def test_named_rules_hold_exactly_on_large_systems(self, n, t, domain):
        system = SystemConfig(n, t)
        for task in named_tasks(systems=((n, t, domain),)):
            verdict = classify_task(task)
            assert verdict.method == "enumeration"
            assert verdict.configurations_checked == count_input_configurations(system, len(domain))
            minimal = math.comb(n, n - t) * len(domain) ** (n - t)
            assert verdict.minimal_configurations_checked == minimal
            if task.key in ("constant", "free"):
                assert verdict.trivial and verdict.solvable, task.label
                continue
            assert not verdict.trivial, task.label
            assert verdict.quadratic_threshold == math.ceil(t / 2) ** 2
            if task.key == "correct-proposal":
                # Fitzi-Garay: a (t+1)-frequent value in every vector iff n > (|V| + 1) t.
                holds = n > (len(domain) + 1) * t
            else:
                holds = True
            assert verdict.satisfies_similarity_condition == verdict.solvable == holds, task.label
            assert ("Omega(t^2)" in verdict.message_bound) == holds
            assert (verdict.similarity_counterexample is None) == holds

    def test_fitzi_garay_bound_flips_correct_proposal_within_the_family(self):
        solvable = classify_task(
            PropertyTask(family="named", key="correct-proposal", n=4, t=1, domain=(0, 1))
        )
        unsolvable = classify_task(
            PropertyTask(family="named", key="correct-proposal", n=4, t=1, domain=(0, 1, 2))
        )
        assert solvable.solvable and not unsolvable.solvable

    def test_over_budget_non_named_task_raises(self, monkeypatch):
        task = PropertyTask(family="sampled", key="sampled", n=7, t=2, domain=(0, 1, 2))
        # Refused before its table is built.
        monkeypatch.setattr(PropertyTask, "build_property", lambda task: pytest.fail("built"))
        with pytest.raises(AnalysisError):
            classify_task(task)

    def test_without_byzantine_resilience_a_named_property_is_solvable_iff_trivial(self):
        # Theorem 1, decided exactly at (9, 3) ternary, where the table
        # enumeration would cost far over the budget.
        assert enumeration_cost(SystemConfig(9, 3), 3) > DEFAULT_ENUMERATION_BUDGET
        verdicts = [classify_task(task) for task in named_tasks(systems=((9, 3, (0, 1, 2)),))]
        assert len(verdicts) == 8
        for verdict in verdicts:
            assert verdict.solvable == verdict.trivial, verdict.label
        assert {verdict.key for verdict in verdicts if verdict.trivial} == {"constant", "free"}

    def test_enumeration_cost_is_monotone_in_system_and_domain(self):
        assert enumeration_cost(SystemConfig(4, 1), 2) < enumeration_cost(SystemConfig(4, 1), 3)
        assert enumeration_cost(SystemConfig(4, 1), 2) < enumeration_cost(SystemConfig(7, 2), 2)


class TestRunAnalysisDeterminism:
    def test_serial_equals_parallel_byte_identically(self):
        serial = run_analysis(FAST_TASKS)
        with Runner(parallel=4) as runner:
            parallel = run_analysis(FAST_TASKS, runner=runner)
        assert verdict_trace(serial.verdicts) == verdict_trace(parallel.verdicts)

    def test_warm_store_classifies_nothing_and_is_byte_identical(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            cold = run_analysis(FAST_TASKS, store=store)
            assert cold.classified == len(dedupe_tasks(FAST_TASKS)) and cold.cached == 0
        with RunStore(path) as store:
            warm = run_analysis(FAST_TASKS, store=store)
            assert warm.classified == 0 and warm.cached == len(dedupe_tasks(FAST_TASKS))
            assert store.stats.verdict_hits == warm.cached
        assert verdict_trace(cold.verdicts) == verdict_trace(warm.verdicts)

    def test_analysis_code_fingerprint_invalidates_cached_verdicts(self, tmp_path):
        path = tmp_path / "runs.db"
        tasks = FAST_TASKS[:3]
        with RunStore(path) as store:
            run_analysis(tasks, store=store)
        with RunStore(path, analysis_code_fp="analysis-changed") as store:
            rerun = run_analysis(tasks, store=store)
            assert rerun.cached == 0 and rerun.classified == len(tasks)
            # Both generations coexist under their own fingerprints.
            assert store.count_verdicts(any_code=True) == 2 * len(tasks)
            assert store.count_verdicts() == len(tasks)

    def test_rerun_reclassifies_despite_cache(self, tmp_path):
        path = tmp_path / "runs.db"
        tasks = FAST_TASKS[:3]
        with RunStore(path) as store:
            run_analysis(tasks, store=store)
        with RunStore(path) as store:
            rerun = run_analysis(tasks, store=store, rerun=True)
            assert rerun.cached == 0 and rerun.classified == len(tasks)

    def test_vacuum_stale_drops_other_analysis_fingerprints(self, tmp_path):
        path = tmp_path / "runs.db"
        tasks = FAST_TASKS[:2]
        with RunStore(path, analysis_code_fp="old-analysis") as store:
            run_analysis(tasks, store=store)
        with RunStore(path) as store:
            run_analysis(tasks, store=store)
            assert store.vacuum_stale() == len(tasks)
            assert store.count_verdicts(any_code=True) == len(tasks)


class TestVerdictBaseline:
    def test_write_load_diff_roundtrip(self, tmp_path):
        verdicts = run_analysis(FAST_TASKS[:5]).verdicts
        path = tmp_path / "verdicts.json"
        path.write_text(verdicts_to_json(verdicts) + "\n")
        baseline = load_verdict_baseline(path)
        assert diff_verdicts(verdicts, baseline) == []

    def test_diff_catches_changed_missing_and_novel_verdicts(self, tmp_path):
        verdicts = run_analysis(FAST_TASKS[:4]).verdicts
        payload = verdicts_to_payload(verdicts)
        tampered_label = verdicts[0].label
        payload["verdicts"][tampered_label]["solvable"] = not payload["verdicts"][tampered_label][
            "solvable"
        ]
        payload["verdicts"]["ghost:property:n9:t2:d0-1"] = payload["verdicts"][tampered_label]
        path = tmp_path / "verdicts.json"
        path.write_text(json.dumps(payload))
        divergences = diff_verdicts(verdicts[:-1], load_verdict_baseline(path))
        text = "\n".join(divergences)
        assert "solvable changed" in text
        assert "ghost:property:n9:t2:d0-1: verdict missing" in text
        assert f"{verdicts[-1].label}: verdict missing" in text

    def test_baseline_format_version_is_checked(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text(json.dumps({"format_version": 99, "verdicts": {}}))
        with pytest.raises(ValueError):
            load_verdict_baseline(path)


class TestCrossCheck:
    def classified_matrix_verdicts(self):
        return run_analysis(cross_check_tasks()).by_label()

    def test_committed_matrix_baseline_has_zero_divergences(self):
        from repro.experiments.aggregate import load_baseline

        summaries = load_baseline("benchmarks/baselines/scenario_matrix.json")
        result = cross_check_matrix(self.classified_matrix_verdicts(), summaries)
        assert result.divergences == []
        assert result.checked > 0
        # Every matrix scenario is either checked or explicitly skipped.
        from repro.experiments.scenario import default_matrix

        assert result.checked + len(result.skipped) == len(default_matrix())

    def test_violations_under_a_solvable_property_diverge(self):
        from repro.experiments.aggregate import load_baseline

        summaries = dict(load_baseline("benchmarks/baselines/scenario_matrix.json"))
        name = "universal-authenticated+none+synchronous"
        summaries[name] = dict(summaries[name], validity_violations=2)
        result = cross_check_matrix(self.classified_matrix_verdicts(), summaries)
        assert any(name in divergence for divergence in result.divergences)

    def test_passing_protocol_for_unsolvable_property_diverges(self):
        from repro.experiments.scenario import default_matrix

        scenario = next(
            spec for spec in default_matrix() if spec.protocol.startswith("universal")
        )
        # Pretend the scenario targeted a property the classifier rejects:
        # correct-proposal over three values at n = 4, t = 1 violates the
        # Fitzi-Garay bound, so a cleanly passing sweep must be flagged.
        impossible = scenario.with_(property_key="correct-proposal")
        verdicts = run_analysis(cross_check_tasks([impossible])).by_label()
        clean_summary = {
            impossible.name: {
                "errors": 0,
                "incomplete": 0,
                "agreement_violations": 0,
                "validity_violations": 0,
            }
        }
        result = cross_check_matrix(verdicts, clean_summary, scenarios=[impossible])
        assert len(result.divergences) == 1
        assert "unsolvable" in result.divergences[0]

    def test_missing_verdict_is_a_divergence_not_a_skip(self):
        from repro.experiments.scenario import default_matrix

        scenario = next(
            spec for spec in default_matrix() if spec.protocol.startswith("universal")
        )
        result = cross_check_matrix({}, {}, scenarios=[scenario])
        assert result.checked == 0
        assert any("no verdict classified" in divergence for divergence in result.divergences)


class TestAnalyzeCli:
    def test_analyze_family_slice_with_store_and_baseline(self, tmp_path, capsys):
        store_path = tmp_path / "runs.db"
        baseline = tmp_path / "verdicts.json"
        markdown = tmp_path / "verdicts.md"
        argv = [
            "analyze",
            "--family",
            "sampled",
            "--no-cross-check",
            "--store",
            str(store_path),
            "--write-baseline",
            str(baseline),
            "--markdown",
            str(markdown),
        ]
        assert main(argv) == 0
        assert "| property |" in markdown.read_text()
        # Second invocation: pure cache hits, and the baseline check passes.
        assert main(argv[:6] + ["--require-cached", "--check-baseline", str(baseline)]) == 0
        output = capsys.readouterr().out
        assert "16 cached, 0 classified" in output

    def test_analyze_fails_on_tampered_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "verdicts.json"
        argv = ["analyze", "--family", "sampled", "--no-cross-check", "--quiet"]
        assert main(argv + ["--write-baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        first = sorted(payload["verdicts"])[0]
        payload["verdicts"][first]["solvable"] = not payload["verdicts"][first]["solvable"]
        baseline.write_text(json.dumps(payload))
        assert main(argv + ["--check-baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_analyze_cross_checks_against_a_run_store(self, tmp_path, capsys):
        store_path = tmp_path / "runs.db"
        assert main(["run", "--seeds", "1", "--store", str(store_path), "--quiet"]) == 0
        argv = ["analyze", "--family", "named", "--cross-check-against"]
        assert main(argv + [str(store_path)]) == 0
        output = capsys.readouterr().out
        assert f"cross-check vs {store_path}: 67 scenarios consistent" in output
        assert "0 divergences" in output
        missing = tmp_path / "missing.db"
        assert main(argv + [str(missing)]) == 2
        assert f"error: cross-check reference {missing} does not exist" in capsys.readouterr().err

    def test_analyze_rejects_contradictory_flags(self, capsys):
        assert main(["analyze", "--require-cached"]) == 2
        assert main(["analyze", "--rerun"]) == 2
        capsys.readouterr()
