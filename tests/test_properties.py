"""Tests for the named validity properties (Section 3.3 and Section 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantValidity,
    ConvexHullValidity,
    CorrectProposalValidity,
    FreeValidity,
    InputConfiguration,
    IntervalValidity,
    MedianValidity,
    StrongValidity,
    SystemConfig,
    VectorValidity,
    WeakValidity,
    standard_properties,
)
from repro.core.ordering import canonical_key, canonical_sorted
from repro.core.space import configuration_space


def cfg(mapping):
    return InputConfiguration.from_mapping(mapping)


SYSTEM = SystemConfig(n=4, t=1)


class TestStrongValidity:
    def test_unanimous_forces_value(self):
        prop = StrongValidity()
        unanimous = cfg({0: "v", 1: "v", 2: "v"})
        assert prop.is_admissible(unanimous, "v")
        assert not prop.is_admissible(unanimous, "w")

    def test_non_unanimous_allows_everything(self):
        prop = StrongValidity()
        mixed = cfg({0: "v", 1: "w", 2: "v"})
        assert prop.is_admissible(mixed, "anything")

    def test_admissible_values_with_domain(self):
        prop = StrongValidity(output_domain=["v", "w"])
        assert prop.admissible_values(cfg({0: "v", 1: "v"})) == frozenset({"v"})
        assert prop.admissible_values(cfg({0: "v", 1: "w"})) == frozenset({"v", "w"})


class TestWeakValidity:
    def test_only_full_unanimous_configurations_constrain(self):
        prop = WeakValidity(SYSTEM)
        full_unanimous = cfg({0: 1, 1: 1, 2: 1, 3: 1})
        assert prop.is_admissible(full_unanimous, 1)
        assert not prop.is_admissible(full_unanimous, 2)

    def test_partial_unanimous_configuration_is_unconstrained(self):
        prop = WeakValidity(SYSTEM)
        partial = cfg({0: 1, 1: 1, 2: 1})
        assert prop.is_admissible(partial, 2)

    def test_full_mixed_configuration_is_unconstrained(self):
        prop = WeakValidity(SYSTEM)
        mixed = cfg({0: 1, 1: 1, 2: 1, 3: 2})
        assert prop.is_admissible(mixed, 7)

    def test_weak_is_weaker_than_strong(self):
        strong, weak = StrongValidity(), WeakValidity(SYSTEM)
        for config in [cfg({0: 1, 1: 1, 2: 1}), cfg({0: 1, 1: 1, 2: 1, 3: 1}), cfg({0: 1, 1: 2, 2: 1})]:
            for value in [1, 2, 3]:
                if strong.is_admissible(config, value):
                    assert weak.is_admissible(config, value)


class TestCorrectProposalValidity:
    def test_only_proposed_values_admissible(self):
        prop = CorrectProposalValidity()
        config = cfg({0: "a", 1: "b", 2: "a"})
        assert prop.is_admissible(config, "a")
        assert prop.is_admissible(config, "b")
        assert not prop.is_admissible(config, "c")


class TestMedianValidity:
    def test_radius_zero_pins_the_median(self):
        prop = MedianValidity(radius=0)
        config = cfg({0: 1, 1: 5, 2: 9})
        assert prop.is_admissible(config, 5)
        assert not prop.is_admissible(config, 1)
        assert not prop.is_admissible(config, 9)

    def test_radius_allows_a_rank_window(self):
        prop = MedianValidity(radius=1)
        config = cfg({0: 1, 1: 5, 2: 9})
        assert prop.is_admissible(config, 3)
        assert prop.is_admissible(config, 9)
        assert not prop.is_admissible(config, 0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            MedianValidity(radius=-1)


class TestIntervalValidity:
    def test_window_around_kth_smallest(self):
        prop = IntervalValidity(k=2, radius=1)
        config = cfg({0: 10, 1: 20, 2: 30, 3: 40})
        assert prop.is_admissible(config, 10)
        assert prop.is_admissible(config, 25)
        assert prop.is_admissible(config, 30)
        assert not prop.is_admissible(config, 45)

    def test_clamping_at_boundaries(self):
        prop = IntervalValidity(k=1, radius=0)
        config = cfg({0: 10, 1: 20, 2: 30})
        assert prop.is_admissible(config, 10)
        assert not prop.is_admissible(config, 20)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            IntervalValidity(k=0, radius=1)
        with pytest.raises(ValueError):
            IntervalValidity(k=1, radius=-1)


class TestConvexHullValidity:
    def test_values_inside_hull(self):
        prop = ConvexHullValidity()
        config = cfg({0: 10, 1: 30, 2: 20})
        assert prop.is_admissible(config, 10)
        assert prop.is_admissible(config, 25)
        assert prop.is_admissible(config, 30)
        assert not prop.is_admissible(config, 9)
        assert not prop.is_admissible(config, 31)

    def test_single_value_hull(self):
        prop = ConvexHullValidity()
        config = cfg({0: 5, 1: 5})
        assert prop.is_admissible(config, 5)
        assert not prop.is_admissible(config, 6)


class TestTrivialProperties:
    def test_constant_validity(self):
        prop = ConstantValidity(constant=42, output_domain=[41, 42, 43])
        config = cfg({0: 1, 1: 2, 2: 3})
        assert prop.is_admissible(config, 42)
        assert not prop.is_admissible(config, 41)

    def test_free_validity(self):
        prop = FreeValidity(output_domain=[0, 1])
        config = cfg({0: 1, 1: 0})
        assert prop.is_admissible(config, 0)
        assert prop.is_admissible(config, "whatever")


class TestVectorValidity:
    def test_vector_must_match_correct_proposals(self):
        prop = VectorValidity(SYSTEM)
        execution_config = cfg({0: "a", 1: "b", 2: "c"})
        good_vector = cfg({0: "a", 1: "b", 3: "z"})
        bad_vector = cfg({0: "a", 1: "WRONG", 3: "z"})
        assert prop.is_admissible(execution_config, good_vector)
        assert not prop.is_admissible(execution_config, bad_vector)

    def test_vector_must_have_quorum_size(self):
        prop = VectorValidity(SYSTEM)
        execution_config = cfg({0: "a", 1: "b", 2: "c"})
        undersized = cfg({0: "a", 1: "b"})
        assert not prop.is_admissible(execution_config, undersized)

    def test_non_configuration_values_rejected(self):
        prop = VectorValidity(SYSTEM)
        assert not prop.is_admissible(cfg({0: "a", 1: "b", 2: "c"}), "not a vector")


class TestStandardPropertiesFactory:
    def test_contains_expected_keys(self):
        props = standard_properties(SYSTEM, output_domain=[0, 1])
        for key in ["strong", "weak", "correct-proposal", "median", "interval", "convex-hull", "constant", "free"]:
            assert key in props

    def test_every_property_is_non_empty_on_sample_configs(self):
        props = standard_properties(SYSTEM, output_domain=[0, 1, 2])
        sample = [cfg({0: 0, 1: 1, 2: 2}), cfg({0: 1, 1: 1, 2: 1, 3: 1})]
        for prop in props.values():
            assert all(prop.admissible_values(config) for config in sample)


proposals = st.dictionaries(
    keys=st.integers(min_value=0, max_value=3),
    values=st.integers(min_value=0, max_value=4),
    min_size=3,
    max_size=4,
)


class TestPropertyInvariants:
    @given(proposals)
    @settings(max_examples=100)
    def test_unanimous_proposal_always_admissible_for_strong(self, mapping):
        config = InputConfiguration.from_mapping(mapping)
        prop = StrongValidity()
        unanimous = config.unanimous_value()
        if unanimous is not None:
            assert prop.is_admissible(config, unanimous)

    @given(proposals)
    @settings(max_examples=100)
    def test_every_proposal_admissible_for_convex_hull(self, mapping):
        config = InputConfiguration.from_mapping(mapping)
        prop = ConvexHullValidity()
        for value in config.distinct_proposals():
            assert prop.is_admissible(config, value)

    @given(proposals)
    @settings(max_examples=100)
    def test_correct_proposal_admits_exactly_the_proposals(self, mapping):
        config = InputConfiguration.from_mapping(mapping)
        prop = CorrectProposalValidity()
        admissible = prop.admissible_values(config, output_domain=range(0, 5))
        assert admissible == config.distinct_proposals()


# ----------------------------------------------------------------------
# Rank properties: the per-configuration bounds against the definitions
# ----------------------------------------------------------------------
def rank_bounds_by_definition(prop, config):
    """The bounding proposals of a rank property, straight from its docstring."""
    ordered = canonical_sorted(config.proposals())
    if isinstance(prop, MedianValidity):
        median = (len(ordered) - 1) // 2
        return ordered[max(0, median - prop.radius)], ordered[min(len(ordered) - 1, median + prop.radius)]
    if isinstance(prop, IntervalValidity):
        low_rank = max(1, prop.k - prop.radius)
        if low_rank > len(ordered):
            return None
        return ordered[low_rank - 1], ordered[min(len(ordered), prop.k + prop.radius) - 1]
    return ordered[0], ordered[-1]


RANK_PROPERTIES = [
    MedianValidity(radius=0),
    MedianValidity(radius=1),
    MedianValidity(radius=2),
    IntervalValidity(k=1, radius=0),
    IntervalValidity(k=2, radius=1),
    IntervalValidity(k=5, radius=0),  # unconstrained below five proposals
    ConvexHullValidity(),
]


class TestRankPropertyDifferential:
    """``admissible_values(c, D)`` is the filter of ``is_admissible`` for every ``c`` in ``I``."""

    @pytest.mark.parametrize("system", [SystemConfig(3, 1), SystemConfig(4, 1)], ids=str)
    @pytest.mark.parametrize("domain", [(0, 1), (0, 1, 2.5, "a", "b")], ids=["binary", "mixed"])
    @pytest.mark.parametrize("prop", RANK_PROPERTIES, ids=lambda prop: prop.name)
    def test_admissible_values_filter_is_admissible(self, prop, system, domain):
        for config in configuration_space(system, domain).configurations:
            admitted = prop.admissible_values(config, domain)
            assert admitted == frozenset(value for value in domain if prop.is_admissible(config, value))
            bounds = rank_bounds_by_definition(prop, config)
            if bounds is None:
                assert admitted == frozenset(domain)
            else:
                low, high = map(canonical_key, bounds)
                assert admitted == frozenset(
                    value for value in domain if low <= canonical_key(value) <= high
                )

    def test_canonical_keys_decide_a_mixed_order(self):
        # Type names order first: 2.5 (float) < 0, 1 (int) < "a", "b" (str).
        config = cfg({0: 2.5, 1: 1, 2: "b"})
        domain = (0, 1, 2.5, "a", "b")
        assert ConvexHullValidity().admissible_values(config, domain) == frozenset(domain)
        assert MedianValidity(radius=0).admissible_values(config, domain) == {1}
        assert IntervalValidity(k=3, radius=0).admissible_values(config, domain) == {"b"}
        assert IntervalValidity(k=1, radius=1).admissible_values(config, domain) == {2.5, 0, 1}

    def test_equal_values_of_different_types_keep_their_own_keys(self):
        # True, 1 and 1.0 (and 0.0, -0.0) are equal but order apart by their
        # canonical keys: bool < float < int, and -0.0 < 0.0.
        median = MedianValidity(radius=0)
        config = cfg({0: True, 1: 1.0, 2: 1})
        assert [type(v) for v in median.admissible_values(config, (1, True, 1.0))] == [float]
        assert [median.is_admissible(config, v) for v in (1, True, 1.0)] == [False, False, True]
        config = cfg({0: -0.0, 1: 0.0, 2: 0.0})
        assert [repr(v) for v in median.admissible_values(config, (-0.0,))] == []
        assert [repr(v) for v in median.admissible_values(config, (0.0,))] == ["0.0"]
        assert not median.is_admissible(config, -0.0)
