"""Edge cases of the classification and partitioning drivers.

The formalism draws hard boundaries — ``n >= 2``, ``0 < t < n``, non-empty
domains, the ``n = 3t`` resilience cliff — and the analysis layer must fail
loudly (or flip verdicts) exactly there, not degrade quietly.
"""

import pytest

from repro.analysis.classification import (
    classify_standard_properties,
    figure1_report,
    sample_validity_property_space,
)
from repro.analysis.partitioning import run_partitioning_attack
from repro.core.input_config import enumerate_input_configurations
from repro.core.solvability import enumerated_property
from repro.core.system import SystemConfig


class TestDegenerateSystems:
    def test_single_process_system_is_rejected(self):
        # n = 1 admits no consensus system (and no t with 0 < t < n).
        with pytest.raises(ValueError):
            SystemConfig(1, 0)
        with pytest.raises(ValueError):
            SystemConfig(1, 1)

    def test_fault_free_threshold_is_rejected(self):
        # t = 0 is outside the paper's model (0 < t < n); the classifiers
        # therefore cannot be asked about it.
        with pytest.raises(ValueError):
            SystemConfig(4, 0)
        with pytest.raises(ValueError):
            SystemConfig.without_byzantine_resilience(0)

    def test_two_process_system_is_the_smallest_classifiable(self):
        results = classify_standard_properties(SystemConfig(2, 1), [0, 1])
        # n = 2 <= 3t: the triviality dichotomy applies in its purest form.
        for key, classification in results.items():
            assert classification.solvable == classification.trivial, key


class TestResilienceBoundary:
    def test_exactly_3t_is_not_tolerant_but_3t_plus_1_is(self):
        at_boundary = classify_standard_properties(SystemConfig(3, 1), [0, 1])
        for key, classification in at_boundary.items():
            if classification.solvable:
                assert classification.trivial, key
        above = classify_standard_properties(SystemConfig(4, 1), [0, 1])
        assert above["strong"].solvable and not above["strong"].trivial

    def test_t2_boundary_spot_checks(self):
        # All eight named properties on both sides of n = 3t at t = 2, decided
        # exactly: over two values every one of them is solvable at (7, 2).
        at_boundary = classify_standard_properties(SystemConfig(6, 2), [0, 1])
        above = classify_standard_properties(SystemConfig(7, 2), [0, 1])
        assert len(at_boundary) == len(above) == 8
        for key, classification in at_boundary.items():
            assert classification.solvable == classification.trivial, key
            assert classification.trivial == (key in ("constant", "free")), key
        for key, classification in above.items():
            assert classification.solvable, key
            assert classification.trivial == (key in ("constant", "free")), key

    def test_partition_attack_only_succeeds_at_the_boundary(self):
        broken = run_partitioning_attack(t=1, seed=3)
        assert broken.system.n == 3 * broken.system.t
        assert broken.agreement_violated
        safe = run_partitioning_attack(t=1, system=SystemConfig(4, 1), seed=3)
        assert not safe.agreement_violated
        assert safe.all_correct_decided


class TestEmptyFamilies:
    def test_sampling_rejects_empty_output_domain(self):
        with pytest.raises(ValueError):
            sample_validity_property_space(SystemConfig(3, 1), [0, 1], [], samples=5)

    def test_enumeration_rejects_empty_input_domain(self):
        with pytest.raises(ValueError):
            list(enumerate_input_configurations(SystemConfig(3, 1), []))
        with pytest.raises(ValueError):
            enumerated_property(SystemConfig(3, 1), [], [0, 1], 0)

    def test_sampling_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_validity_property_space(SystemConfig(3, 1), [0, 1], [0, 1], samples=0)

    def test_figure1_report_without_samples_has_no_population(self):
        report = figure1_report(SystemConfig(4, 1), domain=(0, 1), samples=0)
        assert report.sampled is None
        assert {row["property"] for row in report.named_rows()} >= {"strong", "weak"}


class TestPartitioningShape:
    def test_groups_partition_the_correct_processes(self):
        report = run_partitioning_attack(t=1, seed=4)
        correct = set(report.group_a) | set(report.group_c)
        assert not (set(report.group_a) & set(report.group_c))
        assert len(report.byzantine_group) == report.system.t
        assert correct | set(report.byzantine_group) == set(range(report.system.n))

    def test_summary_is_json_shaped(self):
        report = run_partitioning_attack(t=1, seed=4)
        summary = report.summary()
        assert summary["n"] == report.system.n
        assert isinstance(summary["group_a_decisions"], list)
        assert summary["agreement_violated"] is True
