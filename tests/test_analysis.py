"""Tests for the experiment drivers (classification, growth fit, lower bound, partitioning)."""

import pytest

from repro.analysis import (
    classify_standard_properties,
    dolev_reischuk_threshold,
    figure1_report,
    fit_growth_exponent,
    run_lower_bound_experiment,
    run_partitioning_attack,
    sample_validity_property_space,
)
from repro.core import SystemConfig
from repro.experiments import Runner, make_scenario


class TestClassificationExperiment:
    def test_named_properties_n_gt_3t(self):
        results = classify_standard_properties(SystemConfig(4, 1), [0, 1])
        assert results["strong"].solvable and not results["strong"].trivial
        assert results["weak"].solvable
        assert results["constant"].trivial and results["constant"].solvable
        assert results["free"].trivial

    def test_named_properties_n_le_3t_only_trivial_solvable(self):
        results = classify_standard_properties(SystemConfig(3, 1), [0, 1])
        for key, classification in results.items():
            if classification.solvable:
                assert classification.trivial, key

    def test_sampled_space_is_consistent_with_figure_1(self):
        system = SystemConfig(3, 1)
        counts = sample_validity_property_space(system, [0, 1], [0, 1], samples=25, seed=3)
        assert counts.total == 25
        assert counts.consistent_with_figure_1(system)
        assert counts.trivial <= counts.solvable <= counts.satisfying_similarity_condition

    def test_sampled_space_requires_positive_samples(self):
        with pytest.raises(ValueError):
            sample_validity_property_space(SystemConfig(3, 1), [0, 1], [0, 1], samples=0)

    def test_figure1_report_rows(self):
        report = figure1_report(SystemConfig(4, 1), domain=(0, 1), samples=5, seed=1)
        rows = report.named_rows()
        assert {row["property"] for row in rows} >= {"strong", "weak", "free"}
        assert report.sampled is not None and report.sampled.total == 5


class TestComplexityExperiment:
    def test_fit_growth_exponent_recovers_known_powers(self):
        sizes = [4, 8, 16, 32]
        assert abs(fit_growth_exponent(sizes, [n**2 for n in sizes]) - 2.0) < 1e-9
        assert abs(fit_growth_exponent(sizes, [7 * n**3 for n in sizes]) - 3.0) < 1e-9

    def test_fit_growth_exponent_validates_input(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([4], [16])
        with pytest.raises(ValueError):
            fit_growth_exponent([4, 4], [16, 16])

    def test_fit_growth_exponent_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([4, 8, 16], [16, 64])

    def test_fit_growth_exponent_reads_zero_counts_as_one(self):
        # A run that sends nothing must not take log(0).
        assert fit_growth_exponent([4, 8], [0, 0]) == 0.0
        assert abs(fit_growth_exponent([4, 8], [0, 8]) - 3.0) < 1e-9

    def test_universal_run_reports_its_costs(self):
        (result,) = Runner().run(
            [make_scenario("universal-authenticated", adversary="none", delay="synchronous")],
            seeds=(2,),
        )
        assert result.ok, (result.error, result.violations)
        assert result.agreement and result.completed and result.validity_ok
        assert result.message_complexity > 0
        assert result.communication_complexity >= result.message_complexity


class TestLowerBoundExperiment:
    def test_threshold_formula(self):
        assert dolev_reischuk_threshold(SystemConfig(10, 3)) == 4
        assert dolev_reischuk_threshold(SystemConfig(13, 4)) == 4
        assert dolev_reischuk_threshold(SystemConfig(16, 5)) == 9

    def test_cheap_protocol_is_attacked_but_universal_is_not(self):
        report = run_lower_bound_experiment(n=7, seed=2)
        assert report.cheap_agreement_violated
        assert not report.universal_agreement_violated
        assert report.universal_exceeds_threshold
        assert report.cheap_messages < report.universal_messages

    def test_victim_must_not_be_the_leader(self):
        with pytest.raises(ValueError):
            run_lower_bound_experiment(n=7, victim=0)


class TestPartitioningExperiment:
    def test_attack_succeeds_at_n_equal_3t(self):
        report = run_partitioning_attack(t=1, seed=2)
        assert report.system.n == 3
        assert report.all_correct_decided
        assert report.agreement_violated
        assert set(report.decisions_a.values()) == {0}
        assert set(report.decisions_c.values()) == {1}

    def test_attack_fails_when_n_gt_3t(self):
        report = run_partitioning_attack(t=2, system=SystemConfig(7, 2), seed=2)
        assert not report.agreement_violated
        assert report.all_correct_decided
