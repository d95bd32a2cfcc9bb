"""Tests for the closed-form Lambda functions, cross-checked against the definition.

Every closed form must satisfy the similarity-condition requirement: for each
vector (minimal configuration) the chosen value is admissible for every
similar configuration.  We verify this both on hand-picked vectors and by the
oracle's exhaustive ``verify_lambda_function`` check over small finite domains.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_classifier import verify_lambda_function
from repro.core import (
    ConstantValidity,
    ConvexHullValidity,
    CorrectProposalValidity,
    InputConfiguration,
    LambdaUndefinedError,
    MedianValidity,
    IntervalValidity,
    StrongValidity,
    SystemConfig,
    WeakValidity,
    convex_hull_lambda,
    correct_proposal_lambda,
    free_validity_lambda,
    identity_lambda,
    interval_validity_lambda,
    median_validity_lambda,
    standard_lambda_functions,
    strong_validity_lambda,
    weak_validity_lambda,
)

SYSTEM = SystemConfig(n=4, t=1)
SYSTEM7 = SystemConfig(n=7, t=2)
BINARY = [0, 1]


def vector(mapping):
    return InputConfiguration.from_mapping(mapping)


class TestStrongValidityLambda:
    def test_unanimous_vector_returns_the_value(self):
        lam = strong_validity_lambda(SYSTEM)
        assert lam(vector({0: "v", 1: "v", 2: "v"})) == "v"

    def test_value_reaching_threshold_is_forced(self):
        lam = strong_validity_lambda(SYSTEM)
        assert lam(vector({0: "v", 1: "v", 2: "w"})) == "v"

    def test_no_threshold_value_returns_some_proposal(self):
        lam = strong_validity_lambda(SYSTEM7)
        result = lam(vector({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}))
        assert result in {1, 2, 3, 4, 5}

    def test_exhaustive_verification_against_definition(self):
        assert verify_lambda_function(StrongValidity(BINARY), strong_validity_lambda(SYSTEM), SYSTEM, BINARY) is None
        # The check does reject: {P1, P2, P3} unanimous for 1 is similar to this vector.
        assert verify_lambda_function(StrongValidity(BINARY), lambda config: 0, SYSTEM, BINARY) == vector(
            {0: 0, 1: 1, 2: 1}
        )

    def test_two_threshold_values_raise_when_n_le_3t(self):
        bad_system = SystemConfig(n=6, t=2)
        lam = strong_validity_lambda(bad_system)
        with pytest.raises(LambdaUndefinedError):
            lam(vector({0: "a", 1: "a", 2: "b", 3: "b"}))


class TestWeakValidityLambda:
    def test_unanimous_vector_returns_the_value(self):
        lam = weak_validity_lambda(SYSTEM)
        assert lam(vector({0: 9, 1: 9, 2: 9})) == 9

    def test_mixed_vector_returns_a_proposal(self):
        lam = weak_validity_lambda(SYSTEM)
        assert lam(vector({0: 1, 1: 2, 2: 3})) in {1, 2, 3}

    def test_exhaustive_verification_against_definition(self):
        prop = WeakValidity(SYSTEM, BINARY)
        assert verify_lambda_function(prop, weak_validity_lambda(SYSTEM), SYSTEM, BINARY) is None


class TestCorrectProposalLambda:
    def test_majority_value_is_chosen(self):
        lam = correct_proposal_lambda(SYSTEM)
        assert lam(vector({0: "a", 1: "a", 2: "b"})) == "a"

    def test_raises_when_no_value_is_frequent_enough(self):
        lam = correct_proposal_lambda(SYSTEM7)
        with pytest.raises(LambdaUndefinedError):
            lam(vector({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}))

    def test_exhaustive_verification_against_definition_binary(self):
        prop = CorrectProposalValidity(BINARY)
        assert verify_lambda_function(prop, correct_proposal_lambda(SYSTEM), SYSTEM, BINARY) is None


class TestConvexHullLambda:
    def test_returns_t_plus_first_smallest(self):
        lam = convex_hull_lambda(SYSTEM7)
        assert lam(vector({0: 10, 1: 20, 2: 30, 3: 40, 4: 50})) == 30

    def test_exhaustive_verification_against_definition(self):
        domain = [0, 1, 2]
        prop = ConvexHullValidity(domain)
        assert verify_lambda_function(prop, convex_hull_lambda(SYSTEM), SYSTEM, domain) is None


class TestMedianAndIntervalLambdas:
    def test_median_lambda_returns_vector_median(self):
        lam = median_validity_lambda(SYSTEM7)
        assert lam(vector({0: 1, 1: 3, 2: 5, 3: 7, 4: 9})) == 5

    def test_median_lambda_rejects_too_small_radius(self):
        with pytest.raises(LambdaUndefinedError):
            median_validity_lambda(SYSTEM, radius=1)

    def test_median_lambda_exhaustive_verification(self):
        domain = [0, 1, 2]
        prop = MedianValidity(radius=2 * SYSTEM.t, output_domain=domain)
        assert verify_lambda_function(prop, median_validity_lambda(SYSTEM), SYSTEM, domain) is None

    def test_interval_lambda_returns_kth_smallest(self):
        lam = interval_validity_lambda(SYSTEM7, k=2)
        assert lam(vector({0: 10, 1: 40, 2: 20, 3: 30, 4: 50})) == 20

    def test_interval_lambda_parameter_validation(self):
        with pytest.raises(LambdaUndefinedError):
            interval_validity_lambda(SYSTEM, k=1, radius=0)
        with pytest.raises(ValueError):
            interval_validity_lambda(SYSTEM, k=0)
        with pytest.raises(LambdaUndefinedError):
            interval_validity_lambda(SYSTEM, k=SYSTEM.n - 2 * SYSTEM.t + 1)

    def test_interval_lambda_exhaustive_verification(self):
        domain = [0, 1, 2]
        prop = IntervalValidity(k=SYSTEM.t + 1, radius=SYSTEM.t, output_domain=domain)
        lam = interval_validity_lambda(SYSTEM, k=SYSTEM.t + 1)
        assert verify_lambda_function(prop, lam, SYSTEM, domain) is None


class TestTrivialAndIdentityLambdas:
    def test_a_constant_is_a_lambda_only_for_its_own_constant(self):
        prop = ConstantValidity(0, BINARY)
        assert verify_lambda_function(prop, lambda config: 0, SYSTEM, BINARY) is None
        assert verify_lambda_function(prop, lambda config: 1, SYSTEM, BINARY) is not None

    def test_free_lambda_returns_a_proposal(self):
        lam = free_validity_lambda()
        assert lam(vector({0: 5, 1: 7, 2: 5})) in {5, 7}

    def test_identity_lambda_returns_the_vector(self):
        lam = identity_lambda()
        v = vector({0: 1, 1: 2, 2: 3})
        assert lam(v) is v


class TestStandardLambdaFactory:
    def test_contains_expected_keys(self):
        lams = standard_lambda_functions(SYSTEM)
        assert set(lams) >= {"strong", "weak", "correct-proposal", "convex-hull", "median", "interval", "free", "vector"}

    def test_all_callable_on_a_quorum_vector(self):
        lams = standard_lambda_functions(SYSTEM7)
        quorum_vector = vector({0: 1, 1: 1, 2: 1, 3: 2, 4: 2})
        for key, lam in lams.items():
            result = lam(quorum_vector)
            assert result is not None


@st.composite
def quorum_vectors(draw, system=SYSTEM7, max_value=4):
    processes = draw(
        st.sets(st.sampled_from(range(system.n)), min_size=system.quorum, max_size=system.quorum)
    )
    values = st.integers(min_value=0, max_value=max_value)
    return InputConfiguration.from_mapping({p: draw(values) for p in processes})


class TestLambdaRandomisedInvariants:
    @given(quorum_vectors())
    @settings(max_examples=100)
    def test_strong_lambda_is_admissible_for_the_vector_itself(self, vec):
        lam = strong_validity_lambda(SYSTEM7)
        assert StrongValidity().is_admissible(vec, lam(vec))

    @given(quorum_vectors())
    @settings(max_examples=100)
    def test_convex_hull_lambda_is_admissible_for_the_vector_itself(self, vec):
        lam = convex_hull_lambda(SYSTEM7)
        assert ConvexHullValidity().is_admissible(vec, lam(vec))

    @given(quorum_vectors(max_value=1))
    @settings(max_examples=100)
    def test_correct_proposal_lambda_binary_always_defined(self, vec):
        lam = correct_proposal_lambda(SYSTEM7)
        assert lam(vec) in vec.distinct_proposals()
