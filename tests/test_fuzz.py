"""The coverage-guided fuzzer: determinism, persistence, shrinking, discovery.

The campaign's contract is that one ``(bases, budget, fuzz seed, code)``
tuple names one campaign: serial and parallel runs must visit byte-identical
candidates, a warm re-fuzz against the same store must execute zero
simulations, and the two regressions the suite seeds scenario space with —
the PR 2 unhealed-partition liveness hole and the split-brain attack at the
paper's ``n <= 3t`` resilience bound — must be rediscovered and shrunk to
minimal replayable counterexamples.
"""

import json
import re

import pytest

from repro.experiments import DEFAULT_SEED, Runner, execute_run, make_scenario
from repro.experiments.cli import main
from repro.experiments.scenario import default_matrix
from repro.fuzz import (
    CoverageMap,
    apply_mutations,
    fuzz_execute,
    mutation_palette,
    run_fuzz,
    shrink_mutations,
    spec_is_fuzzable,
    violation_kinds,
)
from repro.store import RunStore

BASES = [
    make_scenario("binary", "none", "partition"),
    make_scenario("quad", "none", "synchronous"),
]


def run_cli(*argv):
    return main(list(argv))


class TestMutations:
    def test_palette_is_deterministic_and_nonempty(self):
        palette = mutation_palette()
        assert palette == mutation_palette()
        assert len(palette) > 20
        assert len(set(palette)) == len(palette)

    def test_later_mutation_wins_per_slot(self):
        spec, seed = apply_mutations(
            BASES[0],
            DEFAULT_SEED,
            [
                ("param", "release_time", 2.0),
                ("param", "release_time", 20_000.0),
                ("system", "n_t", (5, 2)),
                ("seed", "offset", 3),
            ],
        )
        assert dict(spec.params)["release_time"] == 20_000.0
        assert (spec.n, spec.t) == (5, 2)
        assert seed == DEFAULT_SEED + 3

    def test_shrunk_sublist_applies_like_the_original_minus_removals(self):
        mutations = [("delay", "", "eventual"), ("param", "gst", 80.0), ("seed", "offset", 1)]
        full_spec, _ = apply_mutations(BASES[0], DEFAULT_SEED, mutations)
        sub_spec, sub_seed = apply_mutations(BASES[0], DEFAULT_SEED, mutations[:2])
        assert sub_spec.delay == full_spec.delay == "eventual"
        assert sub_seed == DEFAULT_SEED

    def test_name_depends_on_content_not_mutation_path(self):
        via_one = apply_mutations(BASES[0], DEFAULT_SEED, [("system", "n_t", (6, 2))])
        via_two = apply_mutations(
            BASES[0], DEFAULT_SEED, [("system", "n_t", (9, 3)), ("system", "n_t", (6, 2))]
        )
        assert via_one == via_two

    def test_nonsense_combinations_are_filtered_not_crashed(self):
        spec, _ = apply_mutations(BASES[0], DEFAULT_SEED, [("adversary", "", "splitbrain")])
        assert not spec_is_fuzzable(spec)  # split-brain needs a leader-based protocol
        quad = make_scenario("quad", "none", "synchronous")
        spec, _ = apply_mutations(quad, DEFAULT_SEED, [("adversary", "", "splitbrain")])
        assert spec_is_fuzzable(spec)

    def test_unknown_mutation_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown mutation kind"):
            apply_mutations(BASES[0], DEFAULT_SEED, [("nope", "", 1)])


class TestCoverage:
    def test_novelty_counts_only_new_sites(self):
        coverage = CoverageMap()
        assert coverage.observe(["a", "b"]) == 2
        assert coverage.observe(["b", "c"]) == 1
        assert coverage.observe(["a", "b", "c"]) == 0
        assert len(coverage) == 3
        assert coverage.snapshot() == ("a", "b", "c")

    def test_probes_are_read_only(self):
        # An instrumented execution must return the byte-identical RunResult
        # of an uninstrumented one — otherwise fuzz-persisted records would
        # diverge from sweep-persisted records of the same (spec, seed).
        spec = BASES[1]
        instrumented, sites = fuzz_execute((spec, DEFAULT_SEED, None))
        plain = execute_run(spec, DEFAULT_SEED)
        assert instrumented.canonical_json() == plain.canonical_json()
        assert sites  # the probes did observe the execution

    def test_violation_kinds_strip_run_specific_detail(self):
        kinds = violation_kinds(
            [
                "termination violated: correct processes [0, 1] never decided",
                "agreement violated: decisions {0: 'a', 1: 'b'}",
                "termination violated: correct processes [2] never decided",
            ]
        )
        assert kinds == ("agreement violated", "termination violated")


class TestCampaignDeterminism:
    def test_serial_and_parallel_campaigns_are_byte_identical(self):
        serial = run_fuzz(BASES, 48, fuzz_seed=11)
        with Runner(parallel=2) as runner:
            parallel = run_fuzz(BASES, 48, fuzz_seed=11, runner=runner)
        assert serial.corpus_fingerprints == parallel.corpus_fingerprints
        assert serial.counterexamples == parallel.counterexamples
        assert serial.coverage_sites == parallel.coverage_sites
        assert serial.to_dict() == {**parallel.to_dict(), "executed": serial.executed}

    def test_warm_campaign_executes_zero_runs(self, tmp_path):
        db = tmp_path / "fuzz.db"
        with RunStore(db) as store:
            cold = run_fuzz(BASES, 48, fuzz_seed=11, store=store)
        assert cold.executed > 0 and cold.cached == 0
        with RunStore(db) as store:
            warm = run_fuzz(BASES, 48, fuzz_seed=11, store=store)
        assert warm.executed == 0
        assert warm.cached == warm.candidates == cold.candidates
        assert warm.corpus_fingerprints == cold.corpus_fingerprints
        assert warm.counterexamples == cold.counterexamples

    def test_different_fuzz_seeds_walk_differently(self):
        a = run_fuzz(BASES, 32, fuzz_seed=1)
        b = run_fuzz(BASES, 32, fuzz_seed=2)
        assert a.corpus_fingerprints != b.corpus_fingerprints

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_fuzz(BASES, 0)
        with pytest.raises(ValueError, match="at least one base"):
            run_fuzz([], 10)
        bad = make_scenario("binary", "none", "synchronous").with_(t=0)
        with pytest.raises(ValueError, match="not a valid fuzz base"):
            run_fuzz([bad], 10)


class TestShrinking:
    def test_pr2_partition_regression_shrinks_to_one_mutation(self):
        # The known liveness counterexample from the partition-healing work:
        # release_time beyond the horizon starves the correct minority.  The
        # noisy mutation list carries two incidental riders; ddmin must strip
        # both and keep exactly the causal parameter.
        base = BASES[0]
        noisy = (
            ("seed", "offset", 1),
            ("param", "release_time", 20_000.0),
            ("param", "delta", 2.0),
        )

        def evaluate(spec, seed):
            return execute_run(spec, seed)

        spec, seed = apply_mutations(base, DEFAULT_SEED, noisy)
        kinds = violation_kinds(execute_run(spec, seed).violations)
        assert kinds == ("termination violated",)
        minimal = shrink_mutations(base, DEFAULT_SEED, noisy, kinds, evaluate)
        assert minimal == (("param", "release_time", 20_000.0),)

    def test_shrinking_is_memoised_through_the_store(self, tmp_path):
        db = tmp_path / "fuzz.db"
        with RunStore(db) as store:
            cold = run_fuzz(
                [BASES[0]], 24, fuzz_seed=5, store=store
            )
        with RunStore(db) as store:
            warm = run_fuzz([BASES[0]], 24, fuzz_seed=5, store=store)
        # Warm shrinking re-evaluates every ddmin trial from the store.
        assert warm.executed == 0
        assert warm.counterexamples == cold.counterexamples


class TestResilienceBoundDiscovery:
    """The fuzzer rediscovers the paper's n <= 3t split-brain attack."""

    def test_split_brain_succeeds_exactly_at_the_bound(self):
        # Theorem 1's quantitative edge, executed: with n - t colluder-backed
        # quorums, two disjoint correct halves decide differently iff n <= 3t.
        at_bound = execute_run(
            make_scenario("quad", "splitbrain", "stalled", n=6, t=2), DEFAULT_SEED
        )
        assert any(v.startswith("agreement violated") for v in at_bound.violations)
        above_bound = execute_run(
            make_scenario("quad", "splitbrain", "stalled", n=7, t=2), DEFAULT_SEED
        )
        assert above_bound.violations == ()

    def test_campaign_finds_and_shrinks_the_agreement_violation(self):
        base = make_scenario("quad", "splitbrain", "stalled")  # n=4, t=1: holds
        assert execute_run(base, DEFAULT_SEED).violations == ()
        report = run_fuzz([base], 40, fuzz_seed=7)
        agreement = [
            ce
            for ce in report.counterexamples
            if "agreement violated" in violation_kinds(ce["violations"])
        ]
        assert agreement, "campaign failed to rediscover the split-brain violation"
        counterexample = agreement[0]
        assert len(counterexample["mutations"]) <= 3
        # The minimal counterexample replays to the same violation kinds.
        from repro.store.fingerprint import spec_from_payload

        replay = execute_run(
            spec_from_payload(counterexample["spec"]), counterexample["seed"]
        )
        assert violation_kinds(replay.violations) == violation_kinds(
            counterexample["violations"]
        )

    def test_extension_keys_stay_out_of_the_default_matrix(self):
        matrix = default_matrix()
        assert len(matrix) == 112
        assert not any(spec.adversary == "splitbrain" for spec in matrix)
        assert not any(spec.delay == "stalled" for spec in matrix)


class TestFuzzCLI:
    def test_cold_then_warm_campaign_with_artifacts(self, tmp_path, capsys):
        db = tmp_path / "fuzz.db"
        ces = tmp_path / "counterexamples"
        report_json = tmp_path / "report.json"
        assert (
            run_cli(
                "fuzz", "--budget", "30", "--seed", "11", "--quiet",
                "--store", str(db), "--counterexamples", str(ces),
                "--json-output", str(report_json),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "30 candidates" in out and "0 cached" in out
        cold_report = json.loads(report_json.read_text())
        assert cold_report["executed"] > 0

        assert (
            run_cli(
                "fuzz", "--budget", "30", "--seed", "11", "--quiet",
                "--store", str(db), "--require-cached",
                "--json-output", str(report_json),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 executed" in out
        warm_report = json.loads(report_json.read_text())
        assert warm_report["executed"] == 0
        # The campaign is identical; only the executed/cached split moves.
        for report in (cold_report, warm_report):
            del report["executed"], report["cached"]
        assert warm_report == cold_report

        # Every emitted counterexample file is replayable via run --spec and
        # reproduces its violation (exit 1 = run failure).
        files = sorted(ces.glob("counterexample-*.json"))
        assert len(files) == len(cold_report["counterexamples"])
        for path in files:
            capsys.readouterr()
            assert run_cli("run", "--spec", str(path)) == 1
            assert "FAILED" in capsys.readouterr().err

    def test_require_cached_fails_on_a_cold_store(self, tmp_path, capsys):
        db = tmp_path / "fuzz.db"
        assert (
            run_cli("fuzz", "--budget", "8", "--quiet", "--store", str(db), "--require-cached")
            == 1
        )
        assert "REQUIRE-CACHED" in capsys.readouterr().err

    def test_require_cached_requires_a_store(self, capsys):
        assert run_cli("fuzz", "--budget", "8", "--require-cached") == 2
        assert "--store" in capsys.readouterr().err

    def test_extension_base_resolves_by_registry_keys(self, capsys):
        assert run_cli("fuzz", "--budget", "4", "--quiet", "--base", "quad+splitbrain+stalled") == 0
        assert "4 candidates" in capsys.readouterr().out

    def test_round_lines_print_unless_quiet(self, capsys):
        # The campaign's per-round lines go to stdout ahead of its summary;
        # --quiet drops exactly those lines.
        assert run_cli("fuzz", "--budget", "4") == 0
        loud = capsys.readouterr().out.splitlines()
        assert run_cli("fuzz", "--budget", "4", "--quiet") == 0
        quiet = capsys.readouterr().out.splitlines()
        rounds = [line for line in loud if line.startswith("fuzz: ")]
        assert rounds and rounds[-1].startswith("fuzz: 4/4 candidates, ")
        assert all(
            re.fullmatch(r"fuzz: \d+/4 candidates, \d+ sites, \d+ violating, pool \d+", line)
            for line in rounds
        )
        assert [line for line in loud if line not in rounds] == quiet
        assert quiet[0].startswith("fuzz seed=")

    def test_no_shrink_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("fuzz", "--budget", "4", "--no-shrink")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-shrink" in capsys.readouterr().err

    def test_unknown_base_is_a_clean_error(self, capsys):
        assert run_cli("fuzz", "--budget", "4", "--base", "no-such-scenario") == 2
        assert "unknown fuzz base" in capsys.readouterr().err
        assert run_cli("fuzz", "--budget", "4", "--base", "quad+wat+stalled") == 2
        assert "unknown adversary" in capsys.readouterr().err
