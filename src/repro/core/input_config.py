"""Input configurations: assignments of proposals to correct processes.

Section 3.3 of the paper defines a *process-proposal pair* ``(P, v)`` and an
*input configuration* as a tuple of ``x`` process-proposal pairs with
``n - t <= x <= n``, every pair naming a distinct process.  An input
configuration describes one execution's assignment of proposals to the
processes that are correct in that execution.

This module implements both notions as immutable value objects, together
with the enumeration of the full set ``I`` of input configurations over a
finite proposal domain, which the decision procedures in
:mod:`repro.core.triviality` and :mod:`repro.core.similarity_condition` rely
on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .ordering import canonical_sorted
from .system import SystemConfig

Value = Any


@dataclass(frozen=True, order=False)
class ProcessProposal:
    """A process-proposal pair ``(P, v)``.

    Attributes:
        process: Index of the process (``0 <= process < n``).
        proposal: The value proposed by that process.
    """

    process: int
    proposal: Value

    def __post_init__(self) -> None:
        if self.process < 0:
            raise ValueError(f"process index must be non-negative, got {self.process}")


class InputConfiguration:
    """An immutable assignment of proposals to a set of (correct) processes.

    The class is deliberately independent of a particular
    :class:`~repro.core.system.SystemConfig`: protocols produce and consume
    configurations of exactly ``n - t`` pairs (vector-consensus decisions),
    while the formalism also manipulates configurations of every size between
    ``n - t`` and ``n``.
    """

    __slots__ = ("_assignment", "_pairs", "_processes", "_hash")

    def __init__(self, pairs: Iterable[ProcessProposal]):
        assignment: Dict[int, Value] = {}
        for pair in pairs:
            if pair.process in assignment:
                raise ValueError(f"duplicate process {pair.process} in input configuration")
            assignment[pair.process] = pair.proposal
        if not assignment:
            raise ValueError("an input configuration must contain at least one process-proposal pair")
        ordered = tuple(
            ProcessProposal(process, assignment[process]) for process in sorted(assignment)
        )
        object.__setattr__(self, "_assignment", assignment)
        object.__setattr__(self, "_pairs", ordered)
        object.__setattr__(self, "_processes", frozenset(assignment))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, assignment: Mapping[int, Value]) -> "InputConfiguration":
        """Build a configuration from a ``process -> proposal`` mapping."""
        return cls(ProcessProposal(process, value) for process, value in assignment.items())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[ProcessProposal, ...]:
        """The process-proposal pairs, sorted by process index."""
        return self._pairs

    @property
    def processes(self) -> FrozenSet[int]:
        """The set ``pi(c)`` of processes included in the configuration."""
        return self._processes

    @property
    def size(self) -> int:
        """Number of process-proposal pairs (the paper's ``x``)."""
        return len(self._pairs)

    def __getitem__(self, process: int) -> Value:
        try:
            return self._assignment[process]
        except KeyError:
            raise KeyError(f"process {process} is not part of this input configuration") from None

    def __contains__(self, process: int) -> bool:
        return process in self._assignment

    def __iter__(self) -> Iterator[ProcessProposal]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def proposals(self) -> Tuple[Value, ...]:
        """All proposals, ordered by process index (duplicates preserved)."""
        return tuple(pair.proposal for pair in self._pairs)

    def distinct_proposals(self) -> FrozenSet[Value]:
        """The set of distinct values proposed in this configuration."""
        return frozenset(pair.proposal for pair in self._pairs)

    def as_mapping(self) -> Dict[int, Value]:
        """Return a fresh ``process -> proposal`` dictionary."""
        return dict(self._assignment)

    def unanimous_value(self) -> Optional[Value]:
        """Return the common proposal if the configuration is unanimous, else ``None``."""
        distinct = self.distinct_proposals()
        if len(distinct) == 1:
            return next(iter(distinct))
        return None

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, InputConfiguration):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        # Computed on first use and kept: the classifier hashes every
        # configuration of I over and over, a protocol's vector rarely.
        try:
            return self._hash
        except AttributeError:
            value = hash(self._pairs)
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuild from the pairs: the cached hash depends on the process's
        # PYTHONHASHSEED (for str proposals) and must not cross a pickle.
        return (type(self), (self._pairs,))

    def __repr__(self) -> str:
        body = ", ".join(f"(P{pair.process}, {pair.proposal!r})" for pair in self._pairs)
        return f"InputConfiguration[{body}]"


# ----------------------------------------------------------------------
# Enumeration of the input-configuration space I
# ----------------------------------------------------------------------
def enumerate_input_configurations(
    system: SystemConfig, input_domain: Sequence[Value]
) -> Iterator[InputConfiguration]:
    """Enumerate the set ``I`` of input configurations over a finite domain.

    Args:
        system: The system parameters (``n``, ``t``).
        input_domain: The finite proposal domain ``V_I`` to enumerate over.

    Yields:
        Every input configuration of every size ``n - t <= x <= n``, in a
        deterministic order (sizes ascending, process subsets in
        lexicographic order, values in canonical order).
    """
    if not input_domain:
        raise ValueError("input domain must be non-empty")
    domain = canonical_sorted(set(input_domain))
    for size in system.valid_configuration_sizes():
        for process_subset in itertools.combinations(range(system.n), size):
            for values in itertools.product(domain, repeat=size):
                yield InputConfiguration(
                    ProcessProposal(process, value)
                    for process, value in zip(process_subset, values)
                )


def count_input_configurations(system: SystemConfig, domain_size: int) -> int:
    """Closed-form count of ``|I|`` for a domain of the given size.

    The multiset space's ``|I|``, and the tests' check that enumeration is
    exhaustive and duplicate-free.
    """
    import math

    total = 0
    for size in system.valid_configuration_sizes():
        total += math.comb(system.n, size) * domain_size**size
    return total
