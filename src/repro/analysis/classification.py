"""The Figure 1 experiment: classifying the landscape of validity properties.

Figure 1 of the paper summarises the main characterization: among all
validity properties, the solvable ones are exactly those satisfying the
similarity condition (for ``n > 3t``), the trivial ones are a strict subset
of the solvable ones, and for ``n <= 3t`` the solvable and trivial sets
coincide.  This module regenerates that picture computationally:

* the named properties from the literature are classified for several
  resilience regimes;
* the space of *all* validity properties over a tiny system is sampled
  uniformly and each sample is classified, producing the trivial / solvable /
  unsolvable population counts that the figure depicts qualitatively.

Examples
--------

Classify every named property over one system and read off a verdict:

>>> from repro.core.system import SystemConfig
>>> results = classify_standard_properties(SystemConfig(4, 1), [0, 1])
>>> (results["strong"].solvable, results["strong"].trivial)
(True, False)

Sampling the full property space reproduces Figure 1's structural facts
(trivial ⊆ solvable ⊆ satisfying ``C_S``):

>>> counts = sample_validity_property_space(SystemConfig(3, 1), [0, 1], [0, 1], samples=10, seed=1)
>>> counts.total
10
>>> counts.consistent_with_figure_1(SystemConfig(3, 1))
True
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.input_config import Value
from ..core.properties import standard_properties
from ..core.solvability import Classification, classify
from ..core.space import configuration_space
from ..core.system import SystemConfig
from ..core.validity import TableValidity, non_empty_subsets


@dataclass
class ClassificationCounts:
    """Population counts of a classified set of validity properties."""

    total: int = 0
    trivial: int = 0
    solvable: int = 0
    solvable_non_trivial: int = 0
    unsolvable: int = 0
    satisfying_similarity_condition: int = 0
    examples: Dict[str, str] = field(default_factory=dict)

    def record(self, name: str, classification: Classification) -> None:
        self.total += 1
        if classification.trivial:
            self.trivial += 1
        if classification.satisfies_similarity_condition:
            self.satisfying_similarity_condition += 1
        if classification.solvable:
            self.solvable += 1
            if not classification.trivial:
                self.solvable_non_trivial += 1
                self.examples.setdefault("solvable-non-trivial", name)
            else:
                self.examples.setdefault("trivial", name)
        else:
            self.unsolvable += 1
            self.examples.setdefault("unsolvable", name)

    def consistent_with_figure_1(self, system: SystemConfig) -> bool:
        """Check the structural facts Figure 1 depicts.

        * trivial properties are always solvable (trivial <= solvable);
        * solvable properties always satisfy the similarity condition;
        * with ``n <= 3t`` there are no solvable non-trivial properties.
        """
        if self.trivial > self.solvable:
            return False
        if self.solvable > self.satisfying_similarity_condition:
            return False
        if not system.tolerates_byzantine_faults() and self.solvable_non_trivial > 0:
            return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "trivial": self.trivial,
            "solvable": self.solvable,
            "solvable_non_trivial": self.solvable_non_trivial,
            "unsolvable": self.unsolvable,
            "satisfying_C_S": self.satisfying_similarity_condition,
        }


def classify_standard_properties(
    system: SystemConfig, domain: Sequence[Value]
) -> Dict[str, Classification]:
    """Classify every named property from the literature over a finite domain."""
    results: Dict[str, Classification] = {}
    for key, prop in standard_properties(system, output_domain=domain).items():
        results[key] = classify(prop, system, domain, domain)
    return results


def sample_validity_property_space(
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Sequence[Value],
    samples: int = 200,
    seed: int = 0,
) -> ClassificationCounts:
    """Uniformly sample validity properties and classify each one.

    A validity property over finite domains is an arbitrary assignment of a
    non-empty subset of ``V_O`` to each input configuration; sampling assigns
    each configuration an independently chosen random non-empty subset.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not output_domain:
        raise ValueError(
            "output domain must be non-empty: a validity property assigns a non-empty "
            "subset of V_O to every configuration, so an empty V_O admits no properties"
        )
    rng = random.Random(seed)
    configurations = configuration_space(system, input_domain).configurations
    subsets = non_empty_subsets(output_domain)
    counts = ClassificationCounts()
    for index in range(samples):
        table = {config: rng.choice(subsets) for config in configurations}
        prop = TableValidity(table, output_domain, name=f"sampled-{index}")
        counts.record(prop.name, classify(prop, system, input_domain, output_domain))
    return counts


@dataclass
class Figure1Report:
    """Everything needed to regenerate Figure 1's qualitative content."""

    system: SystemConfig
    domain: Sequence[Value]
    named: Dict[str, Classification]
    sampled: Optional[ClassificationCounts]

    def named_rows(self) -> List[Dict[str, Any]]:
        return [
            {
                "property": key,
                "trivial": result.trivial,
                "satisfies_C_S": result.satisfies_similarity_condition,
                "solvable": result.solvable,
            }
            for key, result in sorted(self.named.items())
        ]


def figure1_report(
    system: SystemConfig,
    domain: Sequence[Value] = (0, 1),
    samples: int = 0,
    seed: int = 0,
) -> Figure1Report:
    """Classify the named properties (and optionally a random sample of the space)."""
    named = classify_standard_properties(system, list(domain))
    sampled = (
        sample_validity_property_space(system, list(domain), list(domain), samples=samples, seed=seed)
        if samples > 0
        else None
    )
    return Figure1Report(system=system, domain=tuple(domain), named=named, sampled=sampled)
