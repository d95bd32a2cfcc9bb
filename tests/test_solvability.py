"""Tests for the solvability classifier (Theorems 1, 3 and 5)."""

import pytest

from repro.core import (
    ConstantValidity,
    ConvexHullValidity,
    CorrectProposalValidity,
    FreeValidity,
    InputConfiguration,
    MedianValidity,
    StrongValidity,
    SystemConfig,
    TableValidity,
    WeakValidity,
    classify,
    count_validity_properties,
    enumerated_property,
)

BINARY = [0, 1]


class TestClassifierKnownResults:
    """The classifier must reproduce the solvability results known from the literature."""

    def test_strong_validity_solvable_iff_n_gt_3t(self):
        assert classify(StrongValidity(BINARY), SystemConfig(4, 1), BINARY).solvable
        assert not classify(StrongValidity(BINARY), SystemConfig(3, 1), BINARY).solvable
        assert not classify(StrongValidity(BINARY), SystemConfig(6, 2), BINARY).solvable

    def test_weak_validity_solvable_iff_n_gt_3t(self):
        assert classify(WeakValidity(SystemConfig(4, 1), BINARY), SystemConfig(4, 1), BINARY).solvable
        assert not classify(WeakValidity(SystemConfig(3, 1), BINARY), SystemConfig(3, 1), BINARY).solvable

    def test_trivial_properties_solvable_even_when_n_le_3t(self):
        system = SystemConfig(3, 1)
        assert classify(ConstantValidity(0, BINARY), system, BINARY).solvable
        assert classify(FreeValidity(BINARY), system, BINARY).solvable

    def test_correct_proposal_reproduces_fitzi_garay_threshold(self):
        """Strong consensus (Correct-Proposal Validity) is solvable iff n > (|V|+1)t."""
        system = SystemConfig(4, 1)
        assert classify(CorrectProposalValidity([0, 1]), system, [0, 1]).solvable
        assert not classify(CorrectProposalValidity([0, 1, 2]), system, [0, 1, 2]).solvable
        larger = SystemConfig(5, 1)
        assert classify(CorrectProposalValidity([0, 1, 2]), larger, [0, 1, 2]).solvable

    def test_convex_hull_solvable_with_n_gt_3t(self):
        assert classify(ConvexHullValidity([0, 1, 2]), SystemConfig(4, 1), [0, 1, 2]).solvable

    def test_median_validity_radius_zero_unsolvable(self):
        # Pinning the exact median cannot tolerate a Byzantine reshuffle of the
        # similarity neighbourhood: it fails C_S.
        assert not classify(MedianValidity(0, [0, 1, 2]), SystemConfig(4, 1), [0, 1, 2]).solvable


class TestClassificationStructure:
    def test_reason_mentions_relevant_theorem(self):
        trivial = classify(ConstantValidity(0, BINARY), SystemConfig(3, 1), BINARY)
        assert "Theorem 2" in trivial.reason
        unsolvable_low_resilience = classify(StrongValidity(BINARY), SystemConfig(3, 1), BINARY)
        assert "Theorem 1" in unsolvable_low_resilience.reason
        solvable = classify(StrongValidity(BINARY), SystemConfig(4, 1), BINARY)
        assert "Theorem 5" in solvable.reason
        unsolvable_cs = classify(CorrectProposalValidity([0, 1, 2]), SystemConfig(4, 1), [0, 1, 2])
        assert "Theorem 3" in unsolvable_cs.reason

    def test_trivial_implies_solvable(self):
        for system in [SystemConfig(3, 1), SystemConfig(4, 1), SystemConfig(6, 2)]:
            result = classify(ConstantValidity(0, BINARY), system, BINARY)
            assert result.trivial and result.solvable

    def test_solvable_implies_similarity_condition(self):
        """Theorem 3: C_S is necessary for solvability (for every n, t)."""
        properties = [
            StrongValidity(BINARY),
            WeakValidity(SystemConfig(4, 1), BINARY),
            ConstantValidity(0, BINARY),
            FreeValidity(BINARY),
            CorrectProposalValidity(BINARY),
        ]
        for prop in properties:
            for system in [SystemConfig(3, 1), SystemConfig(4, 1)]:
                result = classify(prop, system, BINARY)
                if result.solvable:
                    assert result.satisfies_similarity_condition

    def test_classification_carries_lambda_table_when_solvable_nontrivial(self):
        result = classify(StrongValidity(BINARY), SystemConfig(4, 1), BINARY)
        assert result.solvable and not result.trivial
        assert result.similarity.lambda_table


class TestTheorem1OverEnumeratedProperties:
    """Exhaustively sample tiny validity properties and check the paper's dichotomy."""

    def test_with_n_le_3t_every_sampled_solvable_property_is_trivial(self):
        # With n <= 3t, solvable == trivial, so every non-trivial property must be
        # classified unsolvable.  We check the contrapositive over a sample.
        system = SystemConfig(3, 1)
        for index in range(40):
            prop = enumerated_property(system, [0, 1], [0, 1], index)
            result = classify(prop, system, [0, 1])
            if result.solvable:
                assert result.trivial
            else:
                assert not result.trivial

    def test_property_count_closed_form(self):
        system = SystemConfig(3, 1)
        # |I| = C(3,2)*2^2 + 2^3 = 20 configurations, 3 non-empty subsets of a binary domain.
        assert count_validity_properties(system, 2, 2) == 3**20


class TestTableValidity:
    def test_rejects_empty_admissible_set(self):
        config = InputConfiguration.from_mapping({0: 0, 1: 0, 2: 0})
        with pytest.raises(ValueError):
            TableValidity({config: set()}, output_domain=BINARY)

    def test_missing_configuration_raises(self):
        config = InputConfiguration.from_mapping({0: 0, 1: 0, 2: 0})
        other = InputConfiguration.from_mapping({0: 1, 1: 1, 2: 1})
        prop = TableValidity({config: {0}}, output_domain=BINARY)
        assert prop.admissible_values(config) == frozenset({0})
        with pytest.raises(KeyError):
            prop.admissible_values(other)
        with pytest.raises(KeyError):
            prop.is_admissible(other, 0)
