"""The validity-property formalism (Section 3.3 of the paper).

A validity property is a function ``val : I -> 2^{V_O}`` mapping every input
configuration to a non-empty set of admissible decisions.  An algorithm
satisfies the property iff, in every execution, correct processes only
decide values admissible for the execution's input configuration.

This module provides the abstract interface (:class:`ValidityProperty`) and
a concrete table-backed implementation for exhaustively enumerated properties
(:class:`TableValidity`).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from .input_config import InputConfiguration, Value
from .ordering import canonical_sorted


class ValidityProperty(ABC):
    """Abstract validity property ``val : I -> 2^{V_O}``.

    Concrete subclasses implement :meth:`is_admissible`.  Subclasses that can
    do better than filtering a finite output domain may also override
    :meth:`admissible_values`.

    Attributes:
        name: Human-readable name used in reports and experiment output.
        output_domain: Optional finite output domain ``V_O``.  When present,
            :meth:`admissible_values` can be called without an explicit
            domain argument and the property can be fed to the decision
            procedures (triviality, similarity condition, classification).
        anonymous: ``True`` iff ``val(c)`` depends only on the multiset of
            ``c``'s proposals (and so on its size), not on which process
            proposed what; :func:`~repro.core.space.evaluate_property` then
            decides it over proposal multisets
            (:func:`~repro.core.space.multiset_space`) instead of
            configurations.  A subclass that reads process identities must
            leave it ``False``.
    """

    name: str = "validity"
    output_domain: Optional[Sequence[Value]] = None
    anonymous: bool = False

    @abstractmethod
    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        """Return ``True`` iff ``value`` is admissible for ``config`` (``value in val(config)``)."""

    def admissible_values(
        self, config: InputConfiguration, output_domain: Optional[Sequence[Value]] = None
    ) -> FrozenSet[Value]:
        """Return ``val(config)`` restricted to a finite output domain.

        Args:
            config: The input configuration.
            output_domain: Finite domain to intersect with; defaults to the
                property's own :attr:`output_domain`.

        Raises:
            ValueError: if no finite output domain is available.
        """
        domain = self._finite_domain(output_domain)
        return frozenset(value for value in domain if self.is_admissible(config, value))

    def _finite_domain(self, output_domain: Optional[Sequence[Value]]) -> Sequence[Value]:
        """``output_domain``, else the property's own; raises if neither is finite."""
        domain = output_domain if output_domain is not None else self.output_domain
        if domain is None:
            raise ValueError(
                f"validity property {self.name!r} has no finite output domain; "
                "pass output_domain explicitly"
            )
        return domain

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class TableValidity(ValidityProperty):
    """A validity property given extensionally as a table ``config -> set of values``.

    This is the representation produced when enumerating *all* validity
    properties over a small system (the Figure 1 experiment) and when
    restricting a symbolic property to a finite domain.
    """

    def __init__(
        self,
        table: Mapping[InputConfiguration, Iterable[Value]],
        output_domain: Sequence[Value],
        name: str = "table-validity",
    ):
        """Create a table-backed validity property.

        Args:
            table: Mapping from input configurations to admissible values.
            output_domain: The finite output domain ``V_O``.
            name: Display name.

        A lookup of a configuration missing from the table raises
        ``KeyError``.
        """
        self._table: Dict[InputConfiguration, FrozenSet[Value]] = {
            config: frozenset(values) for config, values in table.items()
        }
        for config, values in self._table.items():
            if not values:
                raise ValueError(f"validity property must be non-empty for every configuration; empty for {config}")
        self.output_domain = tuple(canonical_sorted(set(output_domain)))
        self._domain = frozenset(self.output_domain)
        # The last tuple domain read, as ``(domain, frozenset(domain))``.  A hit
        # requires ``is``, and the strong reference keeps the tuple's id from
        # being reused.
        self._last_domain = (self.output_domain, self._domain)
        self.name = name

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        row = self._table.get(config)
        if row is not None:
            return value in row
        raise KeyError(f"configuration {config} not covered by table validity {self.name!r}")

    def admissible_values(
        self, config: InputConfiguration, output_domain: Optional[Sequence[Value]] = None
    ) -> FrozenSet[Value]:
        if output_domain is None:
            domain = self._domain
        else:
            last, domain = self._last_domain
            if last is not output_domain:
                domain = frozenset(output_domain)
                # Only a tuple is remembered: a list may change under the same id.
                if type(output_domain) is tuple:
                    self._last_domain = (output_domain, domain)
        row = self._table.get(config)
        if row is not None:
            return row if row <= domain else row & domain
        raise KeyError(f"configuration {config} not covered by table validity {self.name!r}")

    @property
    def table(self) -> Dict[InputConfiguration, FrozenSet[Value]]:
        """A copy of the underlying admissibility table."""
        return dict(self._table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableValidity):
            return NotImplemented
        return self._table == other._table and set(self.output_domain) == set(other.output_domain)

    def __hash__(self) -> int:
        return hash((frozenset(self._table.items()), frozenset(self.output_domain)))


def non_empty_subsets(output_domain: Sequence[Value]) -> List[FrozenSet[Value]]:
    """Every set ``val(c)`` may take over a finite ``V_O``, smallest first.

    The order (by size, then by position in ``output_domain``) is what the
    property enumeration ranks by and what the samplers draw from, so it is
    part of every enumerated and sampled property's identity.
    """
    return [
        frozenset(subset)
        for size in range(1, len(output_domain) + 1)
        for subset in itertools.combinations(output_domain, size)
    ]
