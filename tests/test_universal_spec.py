"""Tests for the Universal decision rule (Algorithm 2, pure form)."""

import pytest

from reference_classifier import similar
from repro.core import (
    InputConfiguration,
    StrongValidity,
    SystemConfig,
    UniversalSpec,
    check_similarity_condition,
)

SYSTEM = SystemConfig(n=4, t=1)


def vec(mapping):
    return InputConfiguration.from_mapping(mapping)


def assert_lemma_8(spec, decided_vector, execution):
    """The decided vector is similar to the execution, so ``Lambda`` of it is admissible there."""
    assert similar(decided_vector, execution)
    assert spec.validity.is_admissible(execution, spec.decide(decided_vector))


class TestUniversalSpec:
    def test_decide_applies_lambda(self):
        spec = UniversalSpec.for_standard_property(SYSTEM, "strong")
        assert spec.decide(vec({0: "v", 1: "v", 2: "v"})) == "v"

    def test_decide_rejects_wrong_vector_size(self):
        spec = UniversalSpec.for_standard_property(SYSTEM, "strong")
        with pytest.raises(ValueError):
            spec.decide(vec({0: "v", 1: "v", 2: "v", 3: "v"}))

    def test_for_standard_property_rejects_unknown_key(self):
        with pytest.raises(KeyError):
            UniversalSpec.for_standard_property(SYSTEM, "nonsense")

    def test_decision_is_admissible_for_similar_execution(self):
        spec = UniversalSpec.for_standard_property(SYSTEM, "strong")
        execution = vec({0: "v", 1: "v", 2: "v", 3: "w"})
        assert_lemma_8(spec, vec({0: "v", 1: "v", 2: "v"}), execution)

    def test_spec_from_an_enumerated_lambda(self):
        validity = StrongValidity([0, 1])
        result = check_similarity_condition(validity, SYSTEM, [0, 1])
        assert result.holds
        spec = UniversalSpec(system=SYSTEM, validity=validity, decision_rule=result.lambda_function())
        assert spec.decide(vec({0: 1, 1: 1, 2: 1})) == 1

    def test_every_standard_spec_produces_admissible_decisions(self):
        # End-to-end pure check of Lemma 8's validity argument for each named variant.
        keys = ["strong", "weak", "convex-hull", "median", "free"]
        execution = vec({0: 1, 1: 1, 2: 2, 3: 3})
        decided_vector = vec({0: 1, 1: 1, 2: 2})
        for key in keys:
            spec = UniversalSpec.for_standard_property(SYSTEM, key)
            assert_lemma_8(spec, decided_vector, execution)
