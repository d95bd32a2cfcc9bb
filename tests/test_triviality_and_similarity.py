"""Tests for triviality (Theorems 1-2) and the similarity condition C_S (Definition 2)."""

import pytest

from reference_classifier import similar
from repro.core import (
    ConstantValidity,
    ConvexHullValidity,
    CorrectProposalValidity,
    FreeValidity,
    InputConfiguration,
    StrongValidity,
    SystemConfig,
    TableValidity,
    WeakValidity,
    check_similarity_condition,
    check_triviality,
    enumerate_input_configurations,
)

BINARY = [0, 1]
SYSTEM_OK = SystemConfig(n=4, t=1)
SYSTEM_WEAK = SystemConfig(n=3, t=1)


class TestTriviality:
    def test_constant_validity_is_trivial(self):
        result = check_triviality(ConstantValidity(0, output_domain=BINARY), SYSTEM_OK, BINARY)
        assert result.trivial
        assert result.witness == 0
        assert result.always_admissible == frozenset({0})

    def test_free_validity_is_trivial(self):
        result = check_triviality(FreeValidity(BINARY), SYSTEM_OK, BINARY)
        assert result.trivial
        assert result.always_admissible == frozenset(BINARY)

    def test_strong_validity_is_non_trivial(self):
        result = check_triviality(StrongValidity(BINARY), SYSTEM_OK, BINARY)
        assert not result.trivial
        assert result.witness is None

    def test_weak_validity_is_non_trivial(self):
        assert not check_triviality(WeakValidity(SYSTEM_OK, BINARY), SYSTEM_OK, BINARY).trivial

    def test_correct_proposal_is_non_trivial(self):
        assert not check_triviality(CorrectProposalValidity(BINARY), SYSTEM_OK, BINARY).trivial

    def test_configuration_count_reported(self):
        result = check_triviality(FreeValidity(BINARY), SYSTEM_OK, BINARY)
        assert result.configurations_checked == len(
            list(enumerate_input_configurations(SYSTEM_OK, BINARY))
        )

    def test_output_domain_defaults_to_property_domain(self):
        prop = ConstantValidity("x", output_domain=["x", "y"])
        result = check_triviality(prop, SYSTEM_OK, input_domain=["x", "y"])
        assert result.trivial and result.witness == "x"


class TestSimilarityIntersection:
    def test_intersection_for_unanimous_configuration(self):
        result = check_similarity_condition(StrongValidity(BINARY), SYSTEM_OK, BINARY)
        config = InputConfiguration.from_mapping(dict.fromkeys([0, 1, 2], 1))
        assert result.admissible_intersections[config] == frozenset({1})

    def test_intersection_is_subset_of_own_admissible_set(self):
        prop = StrongValidity(BINARY)
        result = check_similarity_condition(prop, SYSTEM_OK, BINARY)
        assert len(result.admissible_intersections) == 4 * 2**3
        for config, intersection in result.admissible_intersections.items():
            assert intersection <= prop.admissible_values(config, BINARY)


class TestSimilarityCondition:
    def test_strong_validity_satisfies_cs_when_n_gt_3t(self):
        result = check_similarity_condition(StrongValidity(BINARY), SYSTEM_OK, BINARY)
        assert result.holds
        assert result.minimal_configurations_checked == 4 * 2**3
        assert len(result.lambda_table) == result.minimal_configurations_checked

    def test_weak_validity_satisfies_cs_even_when_n_le_3t(self):
        # The paper notes C_S is necessary for all n, t but not sufficient for n <= 3t:
        # Weak Validity satisfies C_S yet is unsolvable with n = 3t.
        assert check_similarity_condition(WeakValidity(SYSTEM_WEAK, BINARY), SYSTEM_WEAK, BINARY).holds

    def test_correct_proposal_fails_cs_with_large_domain(self):
        domain = [0, 1, 2]
        result = check_similarity_condition(CorrectProposalValidity(domain), SYSTEM_OK, domain)
        assert not result.holds
        assert result.counterexample is not None
        assert not result.lambda_table
        with pytest.raises(ValueError):
            result.lambda_function()

    def test_correct_proposal_satisfies_cs_with_binary_domain(self):
        assert check_similarity_condition(CorrectProposalValidity(BINARY), SYSTEM_OK, BINARY).holds

    def test_lambda_values_are_admissible_for_all_similar_configurations(self):
        prop = StrongValidity(BINARY)
        result = check_similarity_condition(prop, SYSTEM_OK, BINARY)
        lambda_fn = result.lambda_function()
        all_configs = list(enumerate_input_configurations(SYSTEM_OK, BINARY))
        for config, chosen in result.lambda_table.items():
            assert chosen == lambda_fn(config)
            for candidate in all_configs:
                if similar(config, candidate):
                    assert prop.is_admissible(candidate, chosen)

    def test_lambda_function_rejects_unknown_configuration(self):
        result = check_similarity_condition(StrongValidity(BINARY), SYSTEM_OK, BINARY)
        lambda_fn = result.lambda_function()
        oversized = InputConfiguration.from_mapping(dict.fromkeys([0, 1, 2, 3], 0))
        with pytest.raises(KeyError):
            lambda_fn(oversized)

    def test_convex_hull_satisfies_cs(self):
        domain = [0, 1, 2]
        assert check_similarity_condition(ConvexHullValidity(domain), SYSTEM_OK, domain).holds

    def test_table_validity_with_forced_conflict_fails_cs(self):
        # Build a pathological property: two similar minimal configurations with
        # disjoint admissible sets.
        system = SystemConfig(n=4, t=1)
        base = InputConfiguration.from_mapping({0: 0, 1: 0, 2: 0})
        overlapping = InputConfiguration.from_mapping({0: 0, 1: 0, 3: 0})
        table = {config: BINARY for config in enumerate_input_configurations(system, BINARY)}
        table.update({base: {0}, overlapping: {1}})
        prop = TableValidity(table, output_domain=BINARY, name="conflict")
        result = check_similarity_condition(prop, system, BINARY)
        assert not result.holds
