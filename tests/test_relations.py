"""Tests for the similarity and compatibility relations (Sections 3.4 and 4.1).

The pairwise relations are defined in the oracle, ``reference_classifier``;
the system computes ``sim(c)`` as a bitmask of the shared
:class:`~repro.core.space.ConfigurationSpace`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_classifier import compatible, similar
from repro.core import (
    InputConfiguration,
    SystemConfig,
    configuration_space,
    enumerate_input_configurations,
)


def cfg(mapping):
    return InputConfiguration.from_mapping(mapping)


class TestSimilarityExamplesFromPaper:
    """The concrete examples given in Sections 1 and 3.4 of the paper."""

    def test_intro_example_similar(self):
        c = cfg({0: 0, 1: 1})
        c_prime = cfg({0: 0, 2: 0})
        assert similar(c, c_prime)

    def test_intro_example_not_similar(self):
        c = cfg({0: 0, 1: 1})
        other = cfg({0: 0, 1: 0})
        assert not similar(c, other)

    def test_section_34_example(self):
        c = cfg({0: 0, 1: 1, 2: 0})
        assert similar(c, cfg({0: 0, 2: 0}))
        assert not similar(c, cfg({0: 0, 1: 0}))

    def test_disjoint_configurations_are_not_similar(self):
        assert not similar(cfg({0: 0}), cfg({1: 0}))


class TestCompatibilityExamplesFromPaper:
    def test_section_41_example_compatible(self):
        c = cfg({0: 0, 1: 0})
        assert compatible(c, cfg({0: 1, 2: 1}), t=1)

    def test_section_41_example_not_compatible(self):
        c = cfg({0: 0, 1: 0})
        assert not compatible(c, cfg({0: 1, 1: 1, 2: 1}), t=1)

    def test_too_many_common_processes(self):
        a = cfg({0: 0, 1: 0, 2: 0})
        b = cfg({0: 1, 1: 1, 3: 1})
        assert not compatible(a, b, t=1)
        assert compatible(a, b, t=2)

    def test_compatibility_is_irreflexive(self):
        c = cfg({0: 0, 1: 0})
        assert not compatible(c, c, t=2)

    def test_rejects_negative_t(self):
        import pytest

        with pytest.raises(ValueError):
            compatible(cfg({0: 0}), cfg({1: 1}), t=-1)


small_configs = st.builds(
    InputConfiguration.from_mapping,
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=4),
        values=st.integers(min_value=0, max_value=2),
        min_size=1,
        max_size=5,
    ),
)


class TestRelationAlgebraicProperties:
    @given(small_configs, small_configs)
    @settings(max_examples=150)
    def test_similarity_is_symmetric(self, a, b):
        assert similar(a, b) == similar(b, a)

    @given(small_configs)
    @settings(max_examples=50)
    def test_similarity_is_reflexive(self, a):
        assert similar(a, a)

    @given(small_configs, small_configs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=150)
    def test_compatibility_is_symmetric(self, a, b, t):
        assert compatible(a, b, t) == compatible(b, a, t)

    @given(small_configs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_compatibility_is_irreflexive(self, a, t):
        assert not compatible(a, a, t)


class TestSimilarityEnumeration:
    def test_sim_contains_self_when_valid_size(self):
        system = SystemConfig(n=4, t=1)
        config = cfg({0: 0, 1: 0, 2: 1})
        sims = list(configuration_space(system, [0, 1]).similar_to(config))
        assert config in sims

    def test_sim_matches_bruteforce_filter(self):
        system = SystemConfig(n=4, t=1)
        config = cfg({0: 0, 1: 1, 2: 0})
        expected = [
            candidate
            for candidate in enumerate_input_configurations(system, [0, 1])
            if similar(config, candidate)
        ]
        assert list(configuration_space(system, [0, 1]).similar_to(config)) == expected

    def test_unanimous_config_similar_to_all_unanimous_supersets(self):
        system = SystemConfig(n=4, t=1)
        config = InputConfiguration.from_mapping(dict.fromkeys([0, 1, 2], "v"))
        sims = set(configuration_space(system, ["v", "w"]).similar_to(config))
        assert InputConfiguration.from_mapping(dict.fromkeys([0, 1, 2, 3], "v")) in sims
        assert InputConfiguration.from_mapping(dict.fromkeys([1, 2, 3], "v")) in sims
