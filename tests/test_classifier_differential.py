"""Differential tests: the bitmask classifier against the brute-force oracle.

:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition` are
reductions over the shared :class:`~repro.core.space.ConfigurationSpace`
(``I`` enumerated once per system, every ``sim(c)`` a bitmask, ``val(c)``
evaluated once per configuration).  The procedures they replaced are retained
beside this file as ``reference_classifier.py``, and this suite pins the
production path to them: every neighbourhood mask against the pairwise
``similar()`` filter, every result object field by field (dict iteration
order included) for the named properties and for seeded and
hypothesis-drawn table properties, the enumeration unranking against the
``itertools.product`` walk, and the purity of the classifier under the
per-system memo.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_classifier as reference
from repro.analysis.pipeline import (
    DEFAULT_NAMED_SYSTEMS,
    AnalysisError,
    PropertyTask,
    classify_task,
    enumerated_tasks,
    enumeration_cost,
    named_tasks,
    sampled_tasks,
)
from repro.core.input_config import (
    InputConfiguration,
    count_input_configurations,
    enumerate_input_configurations,
)
from repro.core.properties import standard_properties
from repro.core.similarity_condition import check_similarity_condition
from repro.core.solvability import classify, enumerated_property
from repro.core.space import configuration_space
from repro.core.system import SystemConfig
from repro.core.triviality import check_triviality
from repro.core.validity import TableValidity, non_empty_subsets

ORACLE_BUDGET = 150_000
SYSTEMS = [
    (SystemConfig(n, t), domain)
    for n, t in ((2, 1), (3, 1), (4, 1), (5, 1), (5, 2), (6, 2))
    for domain in ((0, 1), (0, 1, 2))
    if enumeration_cost(SystemConfig(n, t), len(domain)) <= ORACLE_BUDGET
]
SYSTEM_IDS = [f"n{system.n}-t{system.t}-d{len(domain)}" for system, domain in SYSTEMS]


def sampled_tables(system, domain, count, seed=2023):
    rng = random.Random(seed)
    configurations = configuration_space(system, domain).configurations
    subsets = non_empty_subsets(domain)
    for index in range(count):
        table = {config: rng.choice(subsets) for config in configurations}
        yield TableValidity(table, domain, name=f"table-{index}")


def assert_same_results(prop, system, domain):
    """Both decision procedures agree with the oracle on every field."""
    domain = list(domain)
    assert check_triviality(prop, system, domain) == reference.check_triviality(
        prop, system, domain
    )
    measured = check_similarity_condition(prop, system, domain)
    expected = reference.check_similarity_condition(prop, system, domain)
    assert measured == expected
    # Dataclass equality compares the dicts as mappings; their order is pinned too.
    assert list(measured.lambda_table.items()) == list(expected.lambda_table.items())
    assert list(measured.admissible_intersections.items()) == list(
        expected.admissible_intersections.items()
    )
    return measured


class TestNeighbourhoodMasks:
    @pytest.mark.parametrize("system, domain", SYSTEMS, ids=SYSTEM_IDS)
    def test_every_mask_is_the_similar_filter(self, system, domain):
        space = configuration_space(system, domain)
        assert space.minimal_configurations == tuple(
            reference.enumerate_minimal_configurations(system, domain)
        )
        assert space.configurations == tuple(enumerate_input_configurations(system, domain))
        assert space.everything == (1 << len(space.configurations)) - 1
        # Every member of I, not only the minimal prefix: neighbourhood()
        # accepts any configuration.
        for index, config in enumerate(space.configurations):
            expected = sum(
                1 << position
                for position, candidate in enumerate(space.configurations)
                if reference.similar(config, candidate)
            )
            assert space.neighbourhood(config) == expected
            if index < space.minimal_count:
                assert space.neighbourhoods[index] == expected

    def test_configurations_outside_the_space(self):
        system, domain = SystemConfig(4, 1), [0, 1]
        everything = list(enumerate_input_configurations(system, domain))
        for foreign in (
            InputConfiguration.from_mapping({0: 0, 1: 7, 2: 1}),  # a value outside V_I
            InputConfiguration.from_mapping({0: 1, 9: 0}),  # a process outside the system
            InputConfiguration.from_mapping({7: 0, 8: 0, 9: 0}),  # nothing in common
            InputConfiguration.from_mapping({3: 1}),  # smaller than any member of I
        ):
            expected = [candidate for candidate in everything if reference.similar(foreign, candidate)]
            assert list(configuration_space(system, domain).similar_to(foreign)) == expected


class TestResultsMatchTheOracle:
    @pytest.mark.parametrize("system, domain", SYSTEMS, ids=SYSTEM_IDS)
    def test_named_properties(self, system, domain):
        for prop in standard_properties(system, output_domain=list(domain)).values():
            assert_same_results(prop, system, domain)

    @pytest.mark.parametrize("system, domain", SYSTEMS, ids=SYSTEM_IDS)
    def test_sampled_tables(self, system, domain):
        for prop in sampled_tables(system, domain, 40):
            assert_same_results(prop, system, domain)

    def test_output_domain_defaults_and_overrides(self):
        system, domain = SystemConfig(4, 1), [0, 1]
        strong = standard_properties(system)["strong"]  # no output domain of its own
        for output_domain in (None, [0], [1, 0], [0, 1, 2]):
            assert check_triviality(
                strong, system, domain, output_domain
            ) == reference.check_triviality(strong, system, domain, output_domain)
            assert check_similarity_condition(
                strong, system, domain, output_domain
            ) == reference.check_similarity_condition(strong, system, domain, output_domain)

    @given(data=st.data(), system=st.sampled_from([SystemConfig(3, 1), SystemConfig(4, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_random_tables(self, data, system):
        domain = [0, 1]
        configurations = configuration_space(system, domain).configurations
        subsets = non_empty_subsets(domain)
        choices = data.draw(
            st.lists(
                st.sampled_from(subsets),
                min_size=len(configurations),
                max_size=len(configurations),
            )
        )
        prop = TableValidity(dict(zip(configurations, choices)), domain)
        assert_same_results(prop, system, domain)


class TestEnumerationUnranking:
    SYSTEM = SystemConfig(2, 1)
    DOMAIN = [0, 1]

    def assert_same_property(self, measured, expected):
        assert measured.name == expected.name
        assert measured.output_domain == expected.output_domain
        assert list(measured.table.items()) == list(expected.table.items())

    def test_unranking_matches_the_product_walk(self):
        walk = reference.enumerate_validity_properties(self.SYSTEM, self.DOMAIN, self.DOMAIN)
        spots = (5_000, 6_000, 6_560)
        for index, expected in enumerate(walk):
            if index < 300 or index in spots:
                self.assert_same_property(
                    enumerated_property(self.SYSTEM, self.DOMAIN, self.DOMAIN, index), expected
                )
        assert index == 6_560  # the walk was exhaustive: 3^8 properties

    def test_out_of_range_ranks(self):
        for index in (-1, 3**8):
            with pytest.raises(IndexError):
                enumerated_property(self.SYSTEM, self.DOMAIN, self.DOMAIN, index)
        task = PropertyTask(family="enumerated", key="enumerated", n=2, t=1, domain=(0, 1), index=3**8)
        with pytest.raises(AnalysisError, match="out of range"):
            task.build_property()
        assert enumerated_tasks(1)[0].build_property().name == "enumerated-1"


class TestPurityUnderTheMemo:
    TASKS = named_tasks([(4, 1, (0, 1))]) + enumerated_tasks(3) + sampled_tasks(3)

    def test_cold_and_warm_verdicts_are_equal(self):
        configuration_space.cache_clear()
        cold = [classify_task(task).canonical_json() for task in self.TASKS]
        assert configuration_space.cache_info().currsize > 0
        warm = [classify_task(task).canonical_json() for task in self.TASKS]
        configuration_space.cache_clear()
        assert cold == warm == [classify_task(task).canonical_json() for task in self.TASKS]

    def test_a_mutated_property_is_evaluated_again(self):
        system, domain = SystemConfig(3, 1), [0, 1]
        prop = next(sampled_tables(system, domain, 1))
        for config in prop.table:
            prop._table[config] = frozenset({0})
        before = classify(prop, system, domain)
        assert before.trivial and before.triviality.witness == 0
        victim = configuration_space(system, domain).configurations[5]
        prop._table[victim] = frozenset({1})
        after = classify(prop, system, domain)
        assert not after.trivial
        assert after.similarity == reference.check_similarity_condition(prop, system, domain)
        assert after.similarity.admissible_intersections[victim] == frozenset()

    def test_equal_domains_of_different_types_do_not_share_a_space(self):
        system = SystemConfig(2, 1)
        integers = configuration_space(system, [0, 1])
        booleans = configuration_space(system, [False, True])
        assert repr(integers.configurations[0]) == "InputConfiguration[(P0, 0)]"
        assert repr(booleans.configurations[0]) == "InputConfiguration[(P0, False)]"
        assert configuration_space(system, (1, 0, 1)) is integers


# ----------------------------------------------------------------------
# The counted metric: what one analyze_cold unit evaluates and constructs
# ----------------------------------------------------------------------
_COUNTING_SCRIPT = """
import collections, importlib, inspect, json, pkgutil, sys
import repro.core
from repro.analysis import pipeline
from repro.core import ordering
from repro.core.input_config import InputConfiguration, ProcessProposal

counted = {
    ordering.canonical_key.__code__: "canonical_key",
    ordering.canonical_sorted.__code__: "canonical_sorted",
    ProcessProposal.__hash__.__code__: "process_proposal_hash",
    InputConfiguration.__init__.__code__: "configurations",
}
# val(c) is admissible_values on whichever class of repro.core defines it.
for module in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
    members = vars(importlib.import_module(module.name)).values()
    for owner in filter(inspect.isclass, members):
        if "admissible_values" in vars(owner):
            counted[vars(owner)["admissible_values"].__code__] = "admissible_values"

counts = collections.Counter()

def profile(frame, event, arg):
    if event == "call" and frame.f_code in counted:
        counts[counted[frame.f_code]] += 1

tasks = (
    pipeline.named_tasks([pipeline.DEFAULT_NAMED_SYSTEMS[index] for index in (0, 1, 3)])
    + pipeline.enumerated_tasks(24)
    + pipeline.sampled_tasks(16)
)
passes = []
for _ in range(2):
    counts.clear()
    sys.setprofile(profile)
    verdicts = [pipeline.classify_task(task) for task in tasks]
    sys.setprofile(None)
    passes.append(dict(counts))
print(json.dumps({
    "tasks": len(tasks),
    "configurations_checked": sum(verdict.configurations_checked for verdict in verdicts),
    "admissible_values_owners": sorted(
        code.co_qualname for code, name in counted.items() if name == "admissible_values"
    ),
    "cold": passes[0],
    "warm": passes[1],
}))
"""


class TestAnalyzeColdCounts:
    """The 64 tasks of ``bench/run.py --workload analyze_cold``, counted."""

    def count(self, hash_seed):
        source = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(source))
        completed = subprocess.run(
            [sys.executable, "-c", _COUNTING_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(completed.stdout)

    def test_counts_are_exact_and_repeat_across_hash_seeds(self):
        first, second = self.count(1), self.count(2)
        assert first == second
        assert first["tasks"] == 64
        assert first["configurations_checked"] == 2_400  # sum of |I| over the tasks
        assert first["admissible_values_owners"] == [
            "TableValidity.admissible_values",
            "ValidityProperty.admissible_values",
            "_RankValidity.admissible_values",
        ]
        systems = [SystemConfig(n, t) for n, t in ((2, 1), (3, 1), (4, 1), (5, 1))]
        distinct_spaces = sum(count_input_configurations(system, 2) for system in systems)
        pairs = sum(
            config.size for system in systems for config in enumerate_input_configurations(system, (0, 1))
        )
        # val(c) once per configuration per task (there is no pairwise similar()
        # in repro to call), and I constructed once per system, then not at all.
        # A configuration hashes its pairs at most once, on first use, so the
        # warm pass hashes none; a rank property keys each output value once
        # per configuration (a proposal that is one of those values is not
        # keyed again), and Lambda reads V_O sorted once per property.
        assert first["cold"] == {
            "admissible_values": 2_400,
            "configurations": distinct_spaces,
            "canonical_key": 1_534,
            "canonical_sorted": 184,
            "process_proposal_hash": 516,
        }
        assert first["warm"] == {
            "admissible_values": 2_400,
            "canonical_key": 1_526,
            "canonical_sorted": 180,
        }
        assert "process_proposal_hash" not in first["warm"]
        assert first["warm"]["canonical_key"] <= 3_440
        assert first["warm"]["canonical_sorted"] <= 208
        assert first["cold"]["process_proposal_hash"] <= pairs
        assert distinct_spaces <= 400
        assert DEFAULT_NAMED_SYSTEMS[3] == (5, 1, (0, 1))
