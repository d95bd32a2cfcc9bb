"""The decision rule of the Universal algorithm (Algorithm 2), in pure form.

Universal solves consensus with *any* validity property satisfying the
similarity condition, by (1) running vector consensus to agree on an input
configuration ``vector`` of exactly ``n - t`` process-proposal pairs, and
(2) deciding ``Lambda(vector)``.

The network protocol lives in
:mod:`repro.consensus.universal_protocol`; this module contains the
protocol-independent piece: the pairing of a validity property with its
``Lambda`` function.  The decided value is admissible for the execution's
input configuration because the decided vector is similar to it (Lemma 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .input_config import InputConfiguration, Value
from .lambda_functions import standard_lambda_functions
from .properties import standard_properties
from .similarity_condition import LambdaFunction
from .system import SystemConfig
from .validity import ValidityProperty


@dataclass
class UniversalSpec:
    """A consensus variant Universal can solve: a validity property plus its ``Lambda``.

    Attributes:
        system: System parameters.
        validity: The validity property the variant must satisfy.
        decision_rule: A ``Lambda`` function witnessing the similarity
            condition for that property.
    """

    system: SystemConfig
    validity: ValidityProperty
    decision_rule: LambdaFunction

    def decide(self, vector: InputConfiguration) -> Value:
        """Apply the Universal decision rule to a decided vector (line 6 of Algorithm 2)."""
        if vector.size != self.system.quorum:
            raise ValueError(
                f"Universal decides from vectors of exactly n - t = {self.system.quorum} "
                f"process-proposal pairs, got {vector.size}"
            )
        return self.decision_rule(vector)

    @classmethod
    def for_standard_property(cls, system: SystemConfig, key: str) -> "UniversalSpec":
        """Build the spec for one of the named properties (``strong``, ``weak``, ...)."""
        properties = standard_properties(system)
        rules = standard_lambda_functions(system)
        if key not in properties or key not in rules:
            raise KeyError(
                f"unknown standard property {key!r}; available: {sorted(set(properties) & set(rules))}"
            )
        return cls(system=system, validity=properties[key], decision_rule=rules[key])
