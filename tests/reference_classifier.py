"""Reference (brute-force) similarity, triviality and similarity-condition procedures.

This module is the definition the production classifier is checked against.
It holds the paper's two relations between input configurations as plain
pairwise functions: :func:`similar` (Section 3.4) and :func:`compatible`
(Section 4.1).  It also holds the decision procedures of
:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition`
exactly as they were before they were re-expressed over the shared
:class:`~repro.core.space.ConfigurationSpace`: every call re-enumerates ``I``,
every neighbourhood is a filter of pairwise :func:`similar` calls, and every
``val(c)`` is re-evaluated wherever it is needed; the property enumeration is
the plain ``itertools.product`` walk that
:func:`~repro.core.solvability.enumerated_property` unranks.  It lives beside
the tests, outside the ``repro`` import path and the store's code
fingerprints, because nothing in the system uses it: the production
procedures are the bitmask reductions, and the differential suite asserts
they return equal result objects, field by field, dict order included.  From
``repro`` it imports only value and result types, the enumeration of ``I``
(it walks ``I_{n-t}`` itself) and the canonical order of values: what both sides share by design (the
dict orders and the ``Lambda`` choice are defined over them), not what the
suite compares.

Being the oracle, this module should stay boring.  Fix bugs in both places;
do not optimize this one.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, Optional, Sequence

from repro.core.input_config import InputConfiguration, Value, enumerate_input_configurations
from repro.core.ordering import canonical_sorted
from repro.core.similarity_condition import LambdaFunction, SimilarityConditionResult
from repro.core.system import SystemConfig
from repro.core.triviality import TrivialityResult
from repro.core.validity import TableValidity, ValidityProperty


def similar(first: InputConfiguration, second: InputConfiguration) -> bool:
    """``c1 ~ c2``: at least one common process, and every common process agrees.

    The relation is symmetric and reflexive but *not* transitive.
    """
    common = first.processes & second.processes
    if not common:
        return False
    return all(first[process] == second[process] for process in common)


def compatible(first: InputConfiguration, second: InputConfiguration, t: int) -> bool:
    """``c1 <> c2``: at most ``t`` common processes, and neither contains the other.

    The relation is symmetric and irreflexive.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    common = first.processes & second.processes
    if len(common) > t:
        return False
    if not (first.processes - second.processes):
        return False
    if not (second.processes - first.processes):
        return False
    return True


def enumerate_minimal_configurations(
    system: SystemConfig, input_domain: Sequence[Value]
) -> Iterator[InputConfiguration]:
    """``I_{n-t}``: the configurations with exactly ``n - t`` pairs, in enumeration order.

    Process subsets in lexicographic order, values in canonical order: the
    order in which ``I`` starts.
    """
    domain = canonical_sorted(set(input_domain))
    for processes in itertools.combinations(range(system.n), system.min_configuration_size):
        for values in itertools.product(domain, repeat=len(processes)):
            yield InputConfiguration.from_mapping(dict(zip(processes, values)))


def similarity_intersection(
    prop: ValidityProperty,
    config: InputConfiguration,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Sequence[Value],
) -> FrozenSet[Value]:
    remaining = set(output_domain)
    for candidate in enumerate_input_configurations(system, input_domain):
        if not remaining:
            break
        if similar(config, candidate):
            remaining &= prop.admissible_values(candidate, output_domain)
    return frozenset(remaining)


def check_similarity_condition(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> SimilarityConditionResult:
    domain = output_domain if output_domain is not None else prop.output_domain
    if domain is None:
        domain = input_domain

    result = SimilarityConditionResult(holds=True)
    for config in enumerate_minimal_configurations(system, input_domain):
        result.minimal_configurations_checked += 1
        intersection = similarity_intersection(prop, config, system, input_domain, domain)
        result.admissible_intersections[config] = intersection
        if not intersection:
            result.holds = False
            result.counterexample = config
            result.lambda_table = {}
            continue
        if result.holds:
            result.lambda_table[config] = canonical_sorted(intersection)[0]
    if not result.holds:
        result.lambda_table = {}
    return result


def check_triviality(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> TrivialityResult:
    domain = output_domain if output_domain is not None else prop.output_domain
    if domain is None:
        domain = input_domain
    remaining = set(domain)
    checked = 0
    for config in enumerate_input_configurations(system, input_domain):
        checked += 1
        if not remaining:
            continue
        remaining &= prop.admissible_values(config, domain)
    always = frozenset(remaining)
    witness = canonical_sorted(always)[0] if always else None
    return TrivialityResult(
        trivial=bool(always),
        always_admissible=always,
        witness=witness,
        configurations_checked=checked,
    )


def verify_lambda_function(
    prop: ValidityProperty,
    lambda_fn: LambdaFunction,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> Optional[InputConfiguration]:
    domain = output_domain if output_domain is not None else prop.output_domain
    if domain is None:
        domain = input_domain
    for config in enumerate_minimal_configurations(system, input_domain):
        chosen = lambda_fn(config)
        for candidate in enumerate_input_configurations(system, input_domain):
            if similar(config, candidate) and not prop.is_admissible(candidate, chosen):
                return config
    return None


def enumerate_validity_properties(
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Sequence[Value],
    max_properties: Optional[int] = None,
) -> Iterator[TableValidity]:
    configurations = list(enumerate_input_configurations(system, input_domain))
    non_empty_subsets = [
        frozenset(subset)
        for size in range(1, len(output_domain) + 1)
        for subset in itertools.combinations(output_domain, size)
    ]
    produced = 0
    for assignment in itertools.product(non_empty_subsets, repeat=len(configurations)):
        if max_properties is not None and produced >= max_properties:
            return
        table = dict(zip(configurations, assignment))
        produced += 1
        yield TableValidity(table, output_domain, name=f"enumerated-{produced}")
