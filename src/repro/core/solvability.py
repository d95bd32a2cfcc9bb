"""Solvability classification of validity properties (the paper's main characterization).

The paper's necessary and sufficient conditions are:

* ``n <= 3t`` (Theorems 1 and 2): a validity property is solvable iff it is
  trivial (there is an always-admissible value, extractable by a finite
  procedure).
* ``n > 3t`` (Theorems 3 and 5): a validity property is solvable iff it
  satisfies the similarity condition ``C_S``.

This module combines the decision procedures of
:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition`
into a single classifier, which is what the Figure 1 experiment exercises.

Examples
--------

The same non-trivial property flips from solvable to unsolvable at the
``n = 3t`` resilience boundary:

>>> from repro.core.properties import StrongValidity
>>> from repro.core.system import SystemConfig
>>> classify(StrongValidity(), SystemConfig(4, 1), [0, 1]).solvable
True
>>> classify(StrongValidity(), SystemConfig(3, 1), [0, 1]).solvable
False

The space of *all* validity properties over finite domains is finite and
enumerable (here ``(2^2 - 1)^8`` for the smallest system over two values),
and each of its members can be built from its rank alone:

>>> count_validity_properties(SystemConfig(2, 1), 2, 2)
6561
>>> enumerated_property(SystemConfig(2, 1), [0, 1], [0, 1], 0).name
'enumerated-1'
>>> enumerated_property(SystemConfig(2, 1), [0, 1], [0, 1], 6560).name
'enumerated-6561'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .input_config import Value, count_input_configurations
from .similarity_condition import SimilarityConditionResult, check_similarity_condition
from .space import configuration_space, evaluate_property
from .system import SystemConfig
from .triviality import TrivialityResult, check_triviality
from .validity import TableValidity, ValidityProperty, non_empty_subsets


@dataclass(frozen=True)
class Classification:
    """The verdict of the solvability classifier for one validity property.

    Attributes:
        property_name: Name of the classified property.
        system: The system parameters used.
        trivial: Whether an always-admissible value exists.
        satisfies_similarity_condition: Whether ``C_S`` holds.
        solvable: The paper's characterization applied to the two facts above.
        reason: Human-readable explanation citing the relevant theorem.
        triviality: Full triviality result (with witness).
        similarity: Full similarity-condition result (with ``Lambda`` table).
    """

    property_name: str
    system: SystemConfig
    trivial: bool
    satisfies_similarity_condition: bool
    solvable: bool
    reason: str
    triviality: TrivialityResult
    similarity: SimilarityConditionResult


def classify(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> Classification:
    """Classify a validity property as solvable or unsolvable.

    The classification applies the paper's characterization exactly:

    * if the property is trivial it is solvable regardless of ``n`` and ``t``
      (decide the always-admissible value without communication);
    * if ``n <= 3t`` and the property is non-trivial it is unsolvable
      (Theorem 1);
    * if ``n > 3t`` the property is solvable iff it satisfies ``C_S``
      (Theorems 3 and 5).
    """
    evaluated = evaluate_property(prop, system, input_domain, output_domain)
    triviality = check_triviality(
        prop, system, input_domain, output_domain, evaluated=evaluated
    )
    similarity = check_similarity_condition(
        prop, system, input_domain, output_domain, evaluated=evaluated
    )

    if triviality.trivial:
        solvable = True
        reason = (
            "trivial: value "
            f"{triviality.witness!r} is admissible for every input configuration, so every "
            "process can decide it immediately (Theorem 2)"
        )
    elif not system.tolerates_byzantine_faults():
        solvable = False
        reason = (
            f"n={system.n} <= 3t={3 * system.t} and the property is non-trivial, hence "
            "unsolvable (Theorem 1)"
        )
    elif similarity.holds:
        solvable = True
        reason = (
            "non-trivial, n > 3t, and the similarity condition holds, hence solvable by the "
            "Universal algorithm (Theorem 5)"
        )
    else:
        solvable = False
        reason = (
            "the similarity condition fails (no common admissible value for all configurations "
            f"similar to {similarity.counterexample}), hence unsolvable (Theorem 3)"
        )

    return Classification(
        property_name=prop.name,
        system=system,
        trivial=triviality.trivial,
        satisfies_similarity_condition=similarity.holds,
        solvable=solvable,
        reason=reason,
        triviality=triviality,
        similarity=similarity,
    )


# ----------------------------------------------------------------------
# Exhaustive enumeration of validity properties (Figure 1 experiment)
# ----------------------------------------------------------------------
def enumerated_property(
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Sequence[Value],
    index: int,
) -> TableValidity:
    """The property of rank ``index`` (0-based) among *all* validity properties.

    A validity property assigns to each of the ``|I|`` input configurations a
    non-empty subset of ``V_O``, so there are ``(2^{|V_O|} - 1)^{|I|}`` of
    them (:func:`count_validity_properties`).  They are ranked as the
    Cartesian product of the non-empty subsets of ``V_O`` over ``I`` with the
    last configuration varying fastest, so the rank written in base
    ``2^{|V_O|} - 1`` has one digit per configuration, most significant
    first; unranking reads the property off directly instead of walking the
    enumeration up to it.

    Raises:
        IndexError: if ``index`` is outside the enumeration.
    """
    configurations = configuration_space(system, input_domain).configurations
    subsets = non_empty_subsets(output_domain)
    if not 0 <= index < len(subsets) ** len(configurations):
        raise IndexError(f"no validity property of rank {index} over these domains")
    digits = []
    rank = index
    for _ in configurations:
        rank, digit = divmod(rank, len(subsets))
        digits.append(subsets[digit])
    table = dict(zip(configurations, reversed(digits)))
    return TableValidity(table, output_domain, name=f"enumerated-{index + 1}")


def count_validity_properties(system: SystemConfig, input_domain_size: int, output_domain_size: int) -> int:
    """Closed-form count of all validity properties over finite domains."""
    configurations = count_input_configurations(system, input_domain_size)
    return (2**output_domain_size - 1) ** configurations
