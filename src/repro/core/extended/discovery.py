"""The extended formalism of Appendix C: discovery functions and adversary pools.

The original formalism assumes that processes know the full input and output
spaces.  Blockchain-style validity properties (External Validity) break that
assumption: a server cannot fabricate a client-signed transaction, so the
value spaces are only *discoverable* from observed inputs.  Appendix C
sketches an extension with:

* membership predicates ``valid_input`` / ``valid_output`` for the two spaces;
* a monotone *discovery function* ``discover : 2^{V_I} -> 2^{V_O}`` mapping a
  set of observed proposals to the decisions they make learnable;
* *extended input configurations* that also carry the adversary pool — the
  set of input values the Byzantine processes know;
* two execution assumptions: decisions must be discoverable from the correct
  proposals together with the adversary pool (Assumption 1), and in canonical
  executions from the correct proposals alone (Assumption 2).

This module implements those notions so the blockchain example and the E9
experiment can exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, FrozenSet, Iterable, Optional

from ..input_config import InputConfiguration, Value

MembershipFunction = Callable[[Any], bool]
DiscoverFunction = Callable[[AbstractSet[Value]], AbstractSet[Value]]


@dataclass(frozen=True)
class ExtendedInputConfiguration:
    """An input configuration plus the adversary pool (Appendix C.3).

    Attributes:
        configuration: The assignment of proposals to correct processes.
        adversary_pool: The input values known to the faulty processes
            (``rho`` in the paper); must be empty when every process is
            correct.
    """

    configuration: InputConfiguration
    adversary_pool: FrozenSet[Value]

    @classmethod
    def build(
        cls,
        configuration: InputConfiguration,
        adversary_pool: Iterable[Value] = (),
        n: Optional[int] = None,
    ) -> "ExtendedInputConfiguration":
        pool = frozenset(adversary_pool)
        if n is not None and configuration.size == n and pool:
            raise ValueError("when all processes are correct the adversary pool must be empty")
        return cls(configuration=configuration, adversary_pool=pool)

    def correct_proposals(self) -> FrozenSet[Value]:
        """``correct_proposals(c)``: the set of values proposed by correct processes."""
        return self.configuration.distinct_proposals()

    def known_inputs(self) -> FrozenSet[Value]:
        """All input values present in the execution (correct proposals plus adversary pool)."""
        return self.correct_proposals() | self.adversary_pool


class DiscoveryModel:
    """The knowledge model of Appendix C: membership predicates plus a discovery function."""

    def __init__(
        self,
        valid_input: MembershipFunction,
        valid_output: MembershipFunction,
        discover: DiscoverFunction,
    ):
        self.valid_input = valid_input
        self.valid_output = valid_output
        self._discover = discover

    def discover(self, observed_inputs: AbstractSet[Value]) -> FrozenSet[Value]:
        """Return the output values learnable from ``observed_inputs``.

        Only valid inputs contribute, and only valid outputs are returned, so
        a malformed observation can never "unlock" a decision.
        """
        filtered = frozenset(value for value in observed_inputs if self.valid_input(value))
        discovered = frozenset(value for value in self._discover(filtered) if self.valid_output(value))
        return discovered

    # ------------------------------------------------------------------
    # The two execution assumptions of Appendix C.3
    # ------------------------------------------------------------------
    def assumption_1_holds(self, extended: ExtendedInputConfiguration, decision: Value) -> bool:
        """Decisions are discoverable from correct proposals plus the adversary pool."""
        return decision in self.discover(extended.known_inputs())

    def assumption_2_holds(self, extended: ExtendedInputConfiguration, decision: Value) -> bool:
        """In canonical executions, decisions are discoverable from correct proposals alone."""
        return decision in self.discover(extended.correct_proposals())


class ExtendedValidityProperty:
    """A validity property over extended input configurations (Appendix C.3)."""

    def __init__(
        self,
        name: str,
        admissible: Callable[[ExtendedInputConfiguration, Value], bool],
        discovery: DiscoveryModel,
    ):
        self.name = name
        self._admissible = admissible
        self.discovery = discovery

    def is_admissible(self, extended: ExtendedInputConfiguration, value: Value) -> bool:
        """``value in val(extended)`` — admissibility under the extended formalism."""
        return self._admissible(extended, value)

    def execution_respects_assumptions(
        self,
        extended: ExtendedInputConfiguration,
        decision: Value,
        canonical: bool,
    ) -> bool:
        """Check Assumptions 1 and 2 for one execution's decision."""
        if not self.discovery.assumption_1_holds(extended, decision):
            return False
        if canonical and not self.discovery.assumption_2_holds(extended, decision):
            return False
        return True

    def __repr__(self) -> str:
        return f"ExtendedValidityProperty(name={self.name!r})"
