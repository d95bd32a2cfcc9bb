"""Differential tests: the bitmask classifier against the brute-force oracle.

:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition` are
reductions over the shared :class:`~repro.core.space.ConfigurationSpace`
(``I`` enumerated once per system, every ``sim(c)`` a bitmask, ``val(c)``
evaluated once per proposal multiset for an anonymous property and once per
configuration otherwise).  The procedures they replaced are retained
beside this file as ``reference_classifier.py``, and this suite pins the
production path to them: every neighbourhood mask against the pairwise
``similar()`` filter, every result object field by field (dict iteration
order included) for the named properties and for seeded and
hypothesis-drawn table properties, the enumeration unranking against the
``itertools.product`` walk, and the purity of the classifier under the
per-system memo.
"""

import collections
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_classifier as reference
import repro.core
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
from repro.core import validity
from repro.core.input_config import (
    InputConfiguration,
    count_input_configurations,
    enumerate_input_configurations,
)
from repro.core.properties import (
    ConstantValidity,
    IntervalValidity,
    MedianValidity,
    standard_properties,
)
from repro.core.similarity_condition import check_similarity_condition
from repro.core.solvability import classify, enumerated_property
from repro.core.space import configuration_space, evaluate_property
from repro.core.system import SystemConfig
from repro.core.triviality import check_triviality
from repro.core.validity import TableValidity, ValidityProperty, non_empty_subsets

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
# The anonymity contract: val(c) evaluated once per proposal multiset
# ----------------------------------------------------------------------
def declared_anonymous():
    """Every class of ``repro.core`` that itself declares ``anonymous = True``."""
    found = set()
    for module in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
        for owner in vars(importlib.import_module(module.name)).values():
            if inspect.isclass(owner) and vars(owner).get("anonymous") is True:
                found.add(owner)
    return sorted(found, key=lambda owner: owner.__qualname__)


def contract_properties(system, domain):
    """The named properties, plus rank and constant corners they do not reach."""
    return list(standard_properties(system, output_domain=list(domain)).values()) + [
        MedianValidity(radius=0, output_domain=domain),
        IntervalValidity(k=1, radius=0, output_domain=domain),
        IntervalValidity(k=system.n, radius=0, output_domain=domain),
        ConstantValidity(constant=domain[-1], output_domain=domain),
    ]


def anonymity_violations(prop, system, domain):
    """Where ``prop`` breaks the contract its ``anonymous = True`` claims.

    Two checks: ``val(c)`` is equal throughout every multiset group, and the
    grouped evaluation yields the masks of a per-configuration one.
    """
    space = configuration_space(system, domain)
    violations = []
    for first, mask in space.multisets:
        expected = prop.admissible_values(first, domain)
        violations.extend(
            config for config in space.select(mask)
            if prop.admissible_values(config, domain) != expected
        )
    per_configuration = {
        value: sum(
            1 << index
            for index, config in enumerate(space.configurations)
            if value in prop.admissible_values(config, domain)
        )
        for value in domain
    }
    if evaluate_property(prop, system, domain).masks != per_configuration:
        violations.append("masks")
    return violations


class TestAnonymousProperties:
    SPACES = [(SystemConfig(n, t), domain) for n, t, domain in DEFAULT_NAMED_SYSTEMS]
    SPACE_IDS = [f"n{system.n}-t{system.t}-d{len(domain)}" for system, domain in SPACES]

    class ProcessZeroValidity(ValidityProperty):
        """Only P0's proposal, when P0 is correct — which reads a process identity."""

        anonymous = True  # wrongly
        name = "process-zero-validity"

        def is_admissible(self, config, value):
            return 0 not in config or config[0] == value

    def test_the_named_systems_include_the_wide_and_the_ternary_space(self):
        assert (4, 1, (0, 1, 2)) in DEFAULT_NAMED_SYSTEMS
        assert (6, 2, (0, 1)) in DEFAULT_NAMED_SYSTEMS

    @pytest.mark.parametrize("system, domain", SPACES, ids=SPACE_IDS)
    def test_multisets_partition_the_space(self, system, domain):
        space = configuration_space(system, domain)
        seen, union = set(), 0
        for first, mask in space.multisets:
            members = list(space.select(mask))
            assert members[0] is first
            multiset = collections.Counter(first.proposals())
            assert all(collections.Counter(config.proposals()) == multiset for config in members)
            assert frozenset(multiset.items()) not in seen
            seen.add(frozenset(multiset.items()))
            assert not union & mask
            union |= mask
        assert union == space.everything

    @pytest.mark.parametrize("system, domain", SPACES, ids=SPACE_IDS)
    def test_every_declared_class_keeps_the_contract(self, system, domain):
        declared = declared_anonymous()
        assert [owner.__name__ for owner in declared] == [
            "ConstantValidity",
            "CorrectProposalValidity",
            "FreeValidity",
            "StrongValidity",
            "WeakValidity",
            "_RankValidity",
        ]
        properties = contract_properties(system, domain)
        for owner in declared:
            assert any(isinstance(prop, owner) for prop in properties), owner
        for prop in properties:
            assert prop.anonymous, prop
            assert anonymity_violations(prop, system, domain) == [], prop

    @pytest.mark.parametrize("system, domain", SPACES, ids=SPACE_IDS)
    def test_a_property_reading_a_process_is_rejected(self, system, domain):
        violations = anonymity_violations(self.ProcessZeroValidity(), system, domain)
        # Both checks fire: a group with unequal val(c), and the wrong masks.
        assert violations[:-1] and violations[-1] == "masks"


class TestTableDomainMemo:
    def test_one_domain_set_per_evaluation(self, monkeypatch):
        system, domain = SystemConfig(3, 1), [0, 1]
        prop = next(sampled_tables(system, domain, 1))
        built = []

        def counting_frozenset(*args):
            built.append(args)
            return frozenset(*args)

        monkeypatch.setattr(validity, "frozenset", counting_frozenset, raising=False)
        # classify_task hands over a list of its own, and each evaluation copies
        # it into a new tuple: one build per evaluation, not per configuration.
        first = evaluate_property(prop, system, domain, domain)
        assert len(built) == 1
        assert evaluate_property(prop, system, domain, domain).masks == first.masks
        assert len(built) == 2
        # The property's own domain is one tuple for good.
        assert evaluate_property(prop, system, domain).masks == first.masks
        assert evaluate_property(prop, system, domain).masks == first.masks
        assert len(built) == 3

    def test_a_list_is_never_remembered(self):
        system = SystemConfig(3, 1)
        config = configuration_space(system, [0, 1]).configurations[0]
        prop = TableValidity({config: {0, 1}}, [0, 1])
        domain = [0, 1]
        assert prop.admissible_values(config, domain) == {0, 1}
        domain.remove(1)
        assert prop.admissible_values(config, domain) == {0}
        fixed = (1,)
        assert prop.admissible_values(config, fixed) == prop.admissible_values(config, fixed) == {1}
        assert prop._last_domain[0] is fixed


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
        # val(c) once per proposal multiset for each of the 24 named tasks
        # (27 multisets over the three systems: 216) and once per configuration
        # for each of the 40 table tasks (960); there is no pairwise similar()
        # in repro to call, and I is constructed once per system, then not at
        # all.  A configuration hashes its pairs at most once, on first use, so
        # the warm pass hashes none; a rank property keys each output value
        # once per multiset (a proposal that is one of those values is not
        # keyed again), and Lambda reads V_O sorted once per property.
        multisets = sum(
            len(configuration_space(system, (0, 1)).multisets) for system in systems[1:]
        )
        assert multisets == 27
        assert first["cold"] == {
            "admissible_values": 8 * multisets + 960,
            "configurations": distinct_spaces,
            "canonical_key": 616,
            "canonical_sorted": 184,
            "process_proposal_hash": 516,
        }
        assert first["warm"] == {
            "admissible_values": 1_176,
            "canonical_key": 608,
            "canonical_sorted": 180,
        }
        assert "process_proposal_hash" not in first["warm"]
        assert first["warm"]["canonical_key"] <= 3_440
        assert first["warm"]["canonical_sorted"] <= 208
        assert first["cold"]["process_proposal_hash"] <= pairs
        assert distinct_spaces <= 400
        assert DEFAULT_NAMED_SYSTEMS[3] == (5, 1, (0, 1))
