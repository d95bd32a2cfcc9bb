"""Unit and property-based tests for :mod:`repro.core.input_config`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InputConfiguration,
    ProcessProposal,
    SystemConfig,
    count_input_configurations,
    enumerate_input_configurations,
)


def make_config(mapping):
    return InputConfiguration.from_mapping(mapping)


class TestProcessProposal:
    def test_rejects_negative_process(self):
        with pytest.raises(ValueError):
            ProcessProposal(process=-1, proposal=0)

    def test_is_hashable_and_comparable(self):
        assert ProcessProposal(0, "a") == ProcessProposal(0, "a")
        assert ProcessProposal(0, "a") != ProcessProposal(1, "a")
        assert hash(ProcessProposal(0, "a")) == hash(ProcessProposal(0, "a"))


class TestInputConfigurationBasics:
    def test_rejects_duplicate_processes(self):
        with pytest.raises(ValueError):
            InputConfiguration([ProcessProposal(0, 1), ProcessProposal(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InputConfiguration([])

    def test_pairs_are_sorted_by_process(self):
        config = InputConfiguration([ProcessProposal(2, "c"), ProcessProposal(0, "a")])
        assert [pair.process for pair in config.pairs] == [0, 2]

    def test_accessors(self):
        config = make_config({0: "x", 2: "y", 3: "x"})
        assert config.size == 3
        assert len(config) == 3
        assert config.processes == frozenset({0, 2, 3})
        assert config[0] == "x"
        assert 0 in config and 1 not in config
        assert config.proposals() == ("x", "y", "x")
        assert config.distinct_proposals() == frozenset({"x", "y"})

    def test_getitem_raises_for_missing_process(self):
        config = make_config({0: "x"})
        with pytest.raises(KeyError):
            config[5]

    def test_unanimity(self):
        assert make_config({0: 1, 1: 1, 2: 1}).unanimous_value() == 1
        assert make_config({0: 1, 1: 2}).unanimous_value() is None

    def test_equality_and_hash(self):
        a = make_config({0: 1, 1: 2})
        b = InputConfiguration([ProcessProposal(1, 2), ProcessProposal(0, 1)])
        c = make_config({0: 1, 1: 3})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a configuration"

    def test_repr_mentions_processes(self):
        assert "P0" in repr(make_config({0: 1}))

    def test_as_mapping_returns_copy(self):
        config = make_config({0: "a"})
        mapping = config.as_mapping()
        mapping[5] = "z"
        assert 5 not in config


def fits(config, system):
    """The paper's constraints: size in ``[n - t, n]`` and process indices below ``n``."""
    in_size = system.min_configuration_size <= config.size <= system.max_configuration_size
    return in_size and all(0 <= process < system.n for process in config.processes)


class TestValidation:
    def test_enumerated_configurations_are_valid_only_for_their_system(self):
        system = SystemConfig(n=5, t=1)
        configs = list(enumerate_input_configurations(system, [0, 1]))
        assert all(fits(config, system) for config in configs)
        # A larger t admits smaller configurations; a smaller n drops process 4.
        assert all(fits(config, SystemConfig(n=5, t=2)) for config in configs)
        assert not all(fits(config, SystemConfig(n=4, t=1)) for config in configs)


class TestEnumeration:
    def test_counts_match_closed_form(self):
        system = SystemConfig(n=4, t=1)
        configs = list(enumerate_input_configurations(system, [0, 1]))
        assert len(configs) == count_input_configurations(system, 2)
        assert len(configs) == len(set(configs)), "enumeration must not produce duplicates"

    def test_sizes_within_bounds(self):
        system = SystemConfig(n=4, t=2)
        for config in enumerate_input_configurations(system, ["a", "b"]):
            assert system.min_configuration_size <= config.size <= system.max_configuration_size

    def test_minimal_and_full_slices(self):
        system = SystemConfig(n=4, t=1)
        configs = list(enumerate_input_configurations(system, [0, 1]))
        # Sizes ascend, so I_{n-t} is a prefix of I and I_n its suffix.
        minimal, full = configs[: 4 * 2**3], configs[4 * 2**3 :]
        assert all(config.size == 3 for config in minimal)
        assert all(config.size == 4 for config in full)
        assert len(full) == 2**4

    def test_sizes_ascend_from_quorum_to_n(self):
        system = SystemConfig(n=5, t=2)
        sizes = [config.size for config in enumerate_input_configurations(system, [0, 1])]
        assert sizes == sorted(sizes)
        assert sorted(set(sizes)) == list(system.valid_configuration_sizes())

    def test_duplicate_domain_values_are_enumerated_once(self):
        system = SystemConfig(n=4, t=1)
        assert list(enumerate_input_configurations(system, [1, 0, 1])) == list(
            enumerate_input_configurations(system, [0, 1])
        )

    def test_rejects_empty_domain(self):
        system = SystemConfig(n=4, t=1)
        with pytest.raises(ValueError):
            list(enumerate_input_configurations(system, []))

    def test_enumeration_is_deterministic(self):
        system = SystemConfig(n=4, t=1)
        first = list(enumerate_input_configurations(system, [1, 0]))
        second = list(enumerate_input_configurations(system, [0, 1]))
        assert first == second


@st.composite
def configurations(draw, max_n=6, values=st.integers(min_value=0, max_value=3)):
    n = draw(st.integers(min_value=1, max_value=max_n))
    processes = draw(
        st.sets(st.integers(min_value=0, max_value=max_n - 1), min_size=1, max_size=n)
    )
    return InputConfiguration.from_mapping({p: draw(values) for p in processes})


class TestInputConfigurationProperties:
    @given(configurations())
    @settings(max_examples=100)
    def test_multiplicities_sum_to_size(self, config):
        proposals = config.proposals()
        assert sum(proposals.count(v) for v in config.distinct_proposals()) == config.size

    @given(configurations())
    @settings(max_examples=100)
    def test_unanimous_value_is_the_only_distinct_proposal(self, config):
        distinct = config.distinct_proposals()
        if len(distinct) == 1:
            assert config.unanimous_value() in distinct
            assert config == InputConfiguration.from_mapping(dict.fromkeys(config.processes, config.unanimous_value()))
        else:
            assert config.unanimous_value() is None

    @given(configurations())
    @settings(max_examples=100)
    def test_roundtrip_through_mapping(self, config):
        assert InputConfiguration.from_mapping(config.as_mapping()) == config
