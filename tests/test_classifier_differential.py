"""Differential tests: the bitmask classifier against the brute-force oracle.

:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition` are
reductions over a shared space, built once per system with every ``sim`` a
bitmask: the :class:`~repro.core.space.MultisetSpace` of proposal multisets
for an anonymous property, the :class:`~repro.core.space.ConfigurationSpace`
of all of ``I`` for any other.  The procedures they replaced are retained
beside this file as ``reference_classifier.py``, and this suite pins the
production path to them: every neighbourhood mask against the pairwise
``similar()`` filter, every result object field by field (dict iteration
order included) for the named properties and for seeded and
hypothesis-drawn table properties, the enumeration unranking against the
``itertools.product`` walk, and the purity of the classifier under the
per-system memo.  Beyond the oracle's reach, the multiset space is pinned to
the configuration space: each anonymous property against the same ``val``
as a table, exhaustively over two small families.
"""

import collections
import importlib
import inspect
import itertools
import json
import os
import pathlib
import pickle
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
from repro.core import properties, validity
from repro.core import space as space_module
from repro.core.input_config import (
    InputConfiguration,
    count_input_configurations,
    enumerate_input_configurations,
)
from repro.core.properties import (
    ConstantValidity,
    IntervalValidity,
    MedianValidity,
    StrongValidity,
    standard_properties,
)
from repro.core.ordering import canonical_key
from repro.core.similarity_condition import check_similarity_condition
from repro.core.solvability import classify, enumerated_property
from repro.core.space import configuration_space, evaluate_property, multiset_space
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

    def test_the_same_tuple_is_served_from_one_slot(self, monkeypatch):
        system, domain = SystemConfig(3, 1), (0, 1)
        space = configuration_space(system, domain)
        keyed = []

        def counting_key(value):
            keyed.append(value)
            return canonical_key(value)

        monkeypatch.setattr(space_module, "canonical_key", counting_key)
        assert configuration_space(system, domain) is space
        assert configuration_space(SystemConfig(3, 1), domain) is space
        assert keyed == []
        # A list is keyed on every call, and never takes the slot: it may
        # change under the same id.
        listed = list(domain)
        assert configuration_space(system, listed) is space
        assert configuration_space(system, listed) is space
        assert len(keyed) == 4
        listed.append(2)
        assert configuration_space(system, listed).domain == (0, 1, 2)
        assert configuration_space(SystemConfig(4, 1), domain) is not space
        assert configuration_space(system, domain) is space
        assert len(keyed) == 11
        # Clearing the memo empties the slot too.
        configuration_space.cache_clear()
        rebuilt = configuration_space(system, domain)
        assert rebuilt is not space and rebuilt.configurations == space.configurations


class TestTablesOnRead:
    """Deciding C_S builds no table; reading one builds both, equal to the oracle's."""

    PROPERTIES = [
        PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1)),
        # A sampled table that satisfies C_S without being trivial.
        PropertyTask(family="sampled", key="sampled", n=2, t=1, domain=(0, 1), index=14),
    ]

    @pytest.mark.parametrize("task", PROPERTIES, ids=lambda task: task.label)
    def test_lambda_read_after_classification_is_the_oracles(self, task):
        prop, system, domain = task.build_property(), task.system(), task.domain
        classification = classify(prop, system, domain, domain)
        similarity = classification.similarity
        assert not classification.trivial and similarity.holds
        assert "lambda_table" not in vars(similarity)
        assert "admissible_intersections" not in vars(similarity)
        expected = reference.check_similarity_condition(prop, system, domain, domain)
        assert list(similarity.lambda_table.items()) == list(expected.lambda_table.items())
        assert len(similarity.lambda_table) == similarity.minimal_configurations_checked
        assert list(similarity.admissible_intersections.items()) == list(
            expected.admissible_intersections.items()
        )
        assert similarity == expected
        assert similarity.lambda_function()(next(iter(expected.lambda_table))) == next(
            iter(expected.lambda_table.values())
        )

    def test_a_missing_attribute_is_still_missing(self):
        similarity = check_similarity_condition(StrongValidity(), SystemConfig(4, 1), (0, 1))
        with pytest.raises(AttributeError):
            similarity.lambda_tables
        # A pickle carries both tables and leaves the space behind.
        clone = pickle.loads(pickle.dumps(similarity))
        assert "lambda_table" in vars(similarity) and "_evaluated" not in vars(clone)
        assert clone == similarity and len(clone.lambda_table) == 32


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


def multiset(config):
    return frozenset(collections.Counter(config.proposals()).items())


def anonymity_violations(prop, system, domain):
    """Where ``prop`` breaks the contract its ``anonymous = True`` claims.

    Two checks over the configurations of ``I``: ``val(c)`` is equal for all
    configurations with one proposal multiset, and it is what the masks of
    the multiset space give ``c``'s cell.
    """
    configurations = configuration_space(system, domain).configurations
    evaluated = evaluate_property(prop, system, domain)
    cells = {multiset(member): cell for cell, member in enumerate(evaluated.space.configurations)}
    first_seen, violations, masks_differ = {}, [], False
    for config in configurations:
        admissible = prop.admissible_values(config, domain)
        if first_seen.setdefault(multiset(config), admissible) != admissible:
            violations.append(config)
        bit = 1 << cells[multiset(config)]
        read = {value for value, mask in evaluated.masks.items() if mask & bit}
        masks_differ |= admissible != read
    return violations + ["masks"] * masks_differ


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
        cells = multiset_space(system, domain)
        members = [multiset(member) for member in cells.configurations]
        # Each multiset of size n - t .. n is exactly one cell, and its member
        # is the multiset's last configuration of I.
        last = {multiset(config): config for config in space.configurations}
        assert len(members) == len(set(members)) == len(last)
        assert list(cells.configurations) == [last[member] for member in members]
        assert cells.configuration_count == len(space.configurations)
        assert cells.minimal_count == space.minimal_count
        assert cells.everything == (1 << len(members)) - 1
        # sim(c) for every minimal c, the structural oracle of the
        # neighbourhood rule: its multisets are those of c's cell.
        listed = list(cells.minimal_members())
        assert [config for config, _ in listed] == list(space.minimal_configurations)
        for config, cell in listed:
            assert members[cell] == multiset(config)
            similar = {multiset(candidate) for candidate in space.similar_to(config)}
            neighbourhood = cells.neighbourhoods[cell]
            assert similar == {
                member for index, member in enumerate(members) if neighbourhood >> index & 1
            }

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


class TestGroupedSimilarityDecision:
    """C_S decided per minimal multiset equals the decision per configuration.

    Both spaces lie beyond the oracle's budget.  The same ``val`` wrapped as a
    table is not anonymous, so it is decided over the configuration space.
    """

    SPACES = [(SystemConfig(5, 1), (0, 1, 2)), (SystemConfig(7, 2), (0, 1))]

    @pytest.mark.parametrize("system, domain", SPACES, ids=["n5-t1-d3", "n7-t2-d2"])
    def test_every_contract_property_equals_its_table(self, system, domain):
        assert enumeration_cost(system, len(domain)) > ORACLE_BUDGET
        space = configuration_space(system, domain)
        outcomes = set()
        for prop in contract_properties(system, domain):
            table = TableValidity(
                {config: prop.admissible_values(config, domain) for config in space.configurations},
                domain,
                name=prop.name,
            )
            assert prop.anonymous and not table.anonymous
            grouped = check_similarity_condition(prop, system, domain)
            per_configuration = check_similarity_condition(table, system, domain)
            assert grouped.holds == per_configuration.holds, prop
            assert grouped.counterexample == per_configuration.counterexample, prop
            assert grouped.minimal_configurations_checked == space.minimal_count
            assert per_configuration.minimal_configurations_checked == space.minimal_count
            assert list(grouped.admissible_intersections.items()) == list(
                per_configuration.admissible_intersections.items()
            ), prop
            assert list(grouped.lambda_table.items()) == list(
                per_configuration.lambda_table.items()
            ), prop
            outcomes.add(grouped.holds)
        assert outcomes == {True, False}


class CountValidity(ValidityProperty):
    """A binary ``val`` given as a table over (number of 1s, size): anonymous by construction."""

    anonymous = True
    name = "count-validity"
    output_domain = (0, 1)

    def __init__(self, rows):
        self.rows = rows

    def is_admissible(self, config, value):
        return value in self.rows[config.proposals().count(1), config.size]


class TestExhaustiveAnonymousFamilies:
    """Every anonymous binary property of a small system, over both spaces.

    Each is classified through the multiset space and again as a table with
    the same ``val``, which is decided over the configuration space.
    """

    @pytest.mark.parametrize(
        "system, tally",
        [
            (SystemConfig(3, 1), (2_187, 255, 281, 0)),
            (SystemConfig(4, 1), (19_683, 1_023, 1_219, 196)),
        ],
        ids=["n3-t1", "n4-t1"],
    )
    def test_every_property_is_classified_alike(self, system, tally):
        domain = (0, 1)
        configurations = configuration_space(system, domain).configurations
        sizes = system.valid_configuration_sizes()
        shapes = [(ones, size) for size in sizes for ones in range(size + 1)]
        shape_of = [(config.proposals().count(1), config.size) for config in configurations]
        counted = dict.fromkeys(("properties", "trivial", "c_s", "solvable_non_trivial"), 0)
        for choice in itertools.product(non_empty_subsets(domain), repeat=len(shapes)):
            rows = dict(zip(shapes, choice))
            grouped = classify(CountValidity(rows), system, domain)
            table = TableValidity(dict(zip(configurations, map(rows.get, shape_of))), domain)
            expected = classify(table, system, domain)
            assert grouped.trivial == expected.trivial, rows
            assert grouped.triviality.always_admissible == expected.triviality.always_admissible
            assert grouped.satisfies_similarity_condition == expected.satisfies_similarity_condition
            assert grouped.similarity.counterexample == expected.similarity.counterexample, rows
            counted["properties"] += 1
            counted["trivial"] += grouped.trivial
            counted["c_s"] += grouped.satisfies_similarity_condition
            counted["solvable_non_trivial"] += grouped.solvable and not grouped.trivial
        assert tuple(counted.values()) == tally


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

    def test_a_rank_property_keys_a_tuple_domain_once(self, monkeypatch):
        system, domain = SystemConfig(4, 1), (0, 1, 2)
        configurations = configuration_space(system, domain).configurations
        prop = MedianValidity(radius=0, output_domain=domain)
        expected = [
            frozenset(value for value in domain if prop.is_admissible(config, value))
            for config in configurations
        ]
        keyed = []

        def counting_key(value):
            keyed.append(value)
            return canonical_key(value)

        monkeypatch.setattr(properties, "canonical_key", counting_key)
        assert [prop.admissible_values(config, domain) for config in configurations] == expected
        # Every proposal is one of the domain's own objects.
        assert keyed == list(domain)
        # The property's own domain is that very tuple.
        assert prop.output_domain is domain
        assert [prop.admissible_values(config) for config in configurations] == expected
        assert keyed == list(domain)
        # A list is keyed on every call, and never takes the slot.
        listed = list(domain)
        assert prop.admissible_values(configurations[0], listed) == expected[0]
        assert prop.admissible_values(configurations[0], listed) == expected[0]
        assert len(keyed) == 3 * len(domain)
        assert prop._last_domain[0] is domain
        # The slot's ids mean nothing in another interpreter: it is not pickled.
        clone = pickle.loads(pickle.dumps(prop))
        assert "_last_domain" not in vars(clone)
        assert [clone.admissible_values(config) for config in configurations] == expected


# ----------------------------------------------------------------------
# The counted metric: what one analyze_cold unit evaluates and constructs
# ----------------------------------------------------------------------
_COUNTING_SCRIPT = """
import collections, importlib, inspect, json, pkgutil, sys
import repro.core
from repro.analysis import pipeline
from repro.core import ordering, similarity_condition
from repro.core.input_config import InputConfiguration, ProcessProposal

counted = {
    ordering.canonical_key.__code__: "canonical_key",
    ordering.canonical_sorted.__code__: "canonical_sorted",
    ProcessProposal.__hash__.__code__: "process_proposal_hash",
    InputConfiguration.__hash__.__code__: "configuration_hash",
    InputConfiguration.__init__.__code__: "configurations",
}
# val(c) is admissible_values on whichever class of repro.core defines it.
for module in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
    members = vars(importlib.import_module(module.name)).values()
    for owner in filter(inspect.isclass, members):
        if "admissible_values" in vars(owner):
            counted[vars(owner)["admissible_values"].__code__] = "admissible_values"

def line_of(function, text):
    lines, start = inspect.getsourcelines(function)
    [offset] = [offset for offset, line in enumerate(lines) if line.strip() == text]
    return function.__code__, start + offset

# Statements counted each time they run: one C_S decision (a minimal cell's
# neighbourhood checked), and one intersection or Lambda entry built.
counted_lines = dict([
    (line_of(similarity_condition.check_similarity_condition,
             "if all(map(neighbourhood.__and__, excluding)):"), "similarity_decisions"),
    (line_of(similarity_condition.SimilarityConditionResult._build_tables,
             "self.admissible_intersections[config] = intersections[cell]"), "intersections"),
    (line_of(similarity_condition.SimilarityConditionResult._build_tables,
             "self.lambda_table[config] = admitted[cell][0]"), "lambda_entries"),
])
traced_codes = {code for code, _ in counted_lines}

counts = collections.Counter()

def profile(frame, event, arg):
    if event == "call" and frame.f_code in counted:
        counts[counted[frame.f_code]] += 1

def trace_lines(frame, event, arg):
    if event == "line":
        name = counted_lines.get((frame.f_code, frame.f_lineno))
        if name is not None:
            counts[name] += 1
    return trace_lines

def trace(frame, event, arg):
    return trace_lines if frame.f_code in traced_codes else None

tasks = (
    pipeline.named_tasks([pipeline.DEFAULT_NAMED_SYSTEMS[index] for index in (0, 1, 3)])
    + pipeline.enumerated_tasks(24)
    + pipeline.sampled_tasks(16)
)
passes = []
for _ in range(2):
    counts.clear()
    sys.settrace(trace)
    sys.setprofile(profile)
    verdicts = [pipeline.classify_task(task) for task in tasks]
    sys.setprofile(None)
    sys.settrace(None)
    passes.append(dict(counts))
# The tables are built when read, and then by the same counted statements.
task = tasks[8]
similarity = pipeline.classify(
    task.build_property(), task.system(), task.domain, task.domain
).similarity
counts.clear()
sys.settrace(trace)
entries = [len(similarity.lambda_table), len(similarity.admissible_intersections)]
sys.settrace(None)
print(json.dumps({
    "tasks": len(tasks),
    "configurations_checked": sum(verdict.configurations_checked for verdict in verdicts),
    "minimal_configurations_checked": sum(
        verdict.minimal_configurations_checked for verdict in verdicts
    ),
    "admissible_values_owners": sorted(
        code.co_qualname for code, name in counted.items() if name == "admissible_values"
    ),
    "cold": passes[0],
    "warm": passes[1],
    "read_after": [task.label, entries, dict(counts)],
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
        pairs = sum(
            config.size for system in systems for config in enumerate_input_configurations(system, (0, 1))
        )
        # val(c) once per proposal multiset for each of the 24 named tasks
        # (27 multisets over the three systems: 216) and once per configuration
        # for each of the 40 table tasks (960); there is no pairwise similar()
        # in repro to call.
        multisets = [multiset_space(system, (0, 1)) for system in systems[1:]]
        assert sum(len(space.configurations) for space in multisets) == 27
        # Constructed cold: the tables' configuration spaces, (2,1) and (4,1),
        # and one member per multiset of the named tasks' three multiset
        # spaces; warm, none.
        constructed = sum(
            count_input_configurations(system, 2) for system in (systems[0], systems[2])
        ) + 27
        # C_S is decided once per minimal multiset for a named task (3 + 4 + 5
        # over the three systems) and once per minimal configuration for a
        # table (4 at (2,1), 32 at (4,1)): 704 of the 1,600 neighbourhoods.
        # Deciding builds no intersection and no Lambda entry.
        minimal_multisets = sum(len(space.neighbourhoods) for space in multisets)
        assert minimal_multisets == 12
        assert first["minimal_configurations_checked"] == 1_600
        decisions = 8 * minimal_multisets + 24 * 4 + 16 * 32
        # canonical_key (warm): each table sorts its domain (40 x 2), each rank
        # property keys its domain once (9 x 2), the trivial tasks' witness and
        # always-admissible values are sorted (15 + 15), and each space keys a
        # domain only when the tuple or system changes (5 x 2); cold adds the
        # two configuration spaces' enumeration (2 x 2).  canonical_sorted: 40
        # tables, 12 witnesses, 64 verdicts, and 2 enumerations cold.  Every
        # configuration hash is a table's: built (960), copied (960) and read
        # (960); a configuration hashes its pairs at most once, on first use,
        # so the warm pass hashes none.
        assert first["cold"] == {
            "admissible_values": 8 * 27 + 960,
            "configurations": constructed,
            "similarity_decisions": decisions,
            "canonical_key": 142,
            "canonical_sorted": 118,
            "configuration_hash": 2_880,
            "process_proposal_hash": 172,
        }
        assert first["warm"] == {
            "admissible_values": 1_176,
            "similarity_decisions": decisions,
            "canonical_key": 138,
            "canonical_sorted": 116,
            "configuration_hash": 2_880,
        }
        assert decisions == 704
        assert first["warm"]["canonical_key"] <= 3_440
        assert first["warm"]["canonical_sorted"] <= 208
        assert first["cold"]["process_proposal_hash"] <= pairs
        # Read after classification, the tables are built once, in full.
        assert first["read_after"] == [
            "named:strong:n4:t1:d0-1", [32, 32], {"intersections": 32, "lambda_entries": 32}
        ]
        assert constructed == 83
        assert DEFAULT_NAMED_SYSTEMS[3] == (5, 1, (0, 1))
