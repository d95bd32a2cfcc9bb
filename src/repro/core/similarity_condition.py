"""The similarity condition ``C_S`` (Definition 2) and the ``Lambda`` function.

A validity property satisfies ``C_S`` iff there is a computable function
``Lambda : I_{n-t} -> V_O`` such that, for every configuration ``c`` with
exactly ``n - t`` process-proposal pairs, ``Lambda(c)`` is admissible for
*every* configuration similar to ``c``.  Theorem 3 proves ``C_S`` necessary
for solvability; Theorem 5 (via the Universal algorithm) proves it
sufficient when ``n > 3t``.

Over finite domains the condition is decidable by enumeration; this module
implements that decision procedure and materialises the resulting ``Lambda``
as an explicit table, which the Universal protocol can then execute.  The
procedure is a reduction over the space
:func:`~repro.core.space.evaluate_property` picks for the property, which
holds each minimal cell's similarity neighbourhood as a bitmask: with
``val`` evaluated into one mask per output value, a value lies in a cell's
intersection iff ``sim & ~mask == 0``, and the cell fails iff no value does.
The decision builds no table: the intersections and ``Lambda`` are read off
the same masks on first read of the result's fields.

Examples
--------

Strong Validity satisfies ``C_S`` exactly when ``n > 3t`` — the boundary
Theorems 3 and 5 draw:

>>> from repro.core.properties import StrongValidity
>>> from repro.core.system import SystemConfig
>>> check_similarity_condition(StrongValidity(), SystemConfig(4, 1), [0, 1]).holds
True
>>> check_similarity_condition(StrongValidity(), SystemConfig(3, 1), [0, 1]).holds
False

When the condition holds, the materialised ``Lambda`` maps every minimal
(``n - t`` sized) configuration to a value admissible across its whole
similarity neighbourhood — a unanimous vector forces the unanimous value:

>>> from repro.core.input_config import InputConfiguration
>>> result = check_similarity_condition(StrongValidity(), SystemConfig(4, 1), [0, 1])
>>> result.lambda_function()(InputConfiguration.from_mapping({0: 1, 1: 1, 2: 1}))
1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from .input_config import InputConfiguration, Value
from .ordering import canonical_sorted
from .space import AdmissibilityTable, evaluate_property
from .system import SystemConfig
from .validity import ValidityProperty

LambdaFunction = Callable[[InputConfiguration], Value]


@dataclass
class SimilarityConditionResult:
    """Outcome of the ``C_S`` decision procedure.

    Attributes:
        holds: ``True`` iff every minimal configuration has a common
            admissible value across its similarity neighbourhood.
        lambda_table: When the condition holds, an explicit table realising
            one valid ``Lambda`` (the canonical minimum of each intersection).
        admissible_intersections: For every minimal configuration, the full
            intersection of admissible sets over its similarity neighbourhood
            (useful for diagnostics and for proving that *any* choice rule
            within the intersection yields a correct ``Lambda``).
        counterexample: A minimal configuration whose intersection is empty,
            when the condition fails.
        minimal_configurations_checked: Number of ``I_{n-t}`` configurations examined.

    A result of :func:`check_similarity_condition` leaves the two tables
    unset and keeps the evaluated property instead: both are built from its
    masks on first read, so deciding ``C_S`` costs nothing for them.
    """

    holds: bool
    lambda_table: Dict[InputConfiguration, Value] = field(default_factory=dict)
    admissible_intersections: Dict[InputConfiguration, FrozenSet[Value]] = field(default_factory=dict)
    counterexample: Optional[InputConfiguration] = None
    minimal_configurations_checked: int = 0

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: a table not built yet.
        if name in ("lambda_table", "admissible_intersections") and "_evaluated" in self.__dict__:
            self._build_tables()
            return self.__dict__[name]
        raise AttributeError(name)

    def __getstate__(self) -> dict:
        # A pickle carries the tables, not the space they are read from.
        if "_evaluated" in self.__dict__:
            self._build_tables()
        return self.__dict__

    def _build_tables(self) -> None:
        """Both tables from the kept masks, in the order of ``I_{n-t}``."""
        evaluated = self.__dict__.pop("_evaluated")
        space = evaluated.space
        # V_O in canonical order once, each value with the cells that exclude
        # it: a cell's intersection is then read off in order, and Lambda is
        # its first value.
        excluding = [(value, ~evaluated.masks[value]) for value in canonical_sorted(evaluated.masks)]
        admitted = [
            [value for value, excluded in excluding if not neighbourhood & excluded]
            for neighbourhood in space.neighbourhoods
        ]
        intersections = [frozenset(values) for values in admitted]
        self.admissible_intersections, self.lambda_table = {}, {}
        for config, cell in space.minimal_members():
            self.admissible_intersections[config] = intersections[cell]
            if self.holds:
                self.lambda_table[config] = admitted[cell][0]

    def lambda_function(self) -> LambdaFunction:
        """Return the ``Lambda`` realised by this result as a callable.

        Raises:
            ValueError: if the similarity condition does not hold.
        """
        if not self.holds:
            raise ValueError("the similarity condition does not hold: no Lambda function exists")
        table = dict(self.lambda_table)

        def lambda_fn(config: InputConfiguration) -> Value:
            try:
                return table[config]
            except KeyError:
                raise KeyError(
                    f"configuration {config} is not a minimal configuration of the checked system"
                ) from None

        return lambda_fn


def check_similarity_condition(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
    *,
    evaluated: Optional[AdmissibilityTable] = None,
) -> SimilarityConditionResult:
    """Decide ``C_S`` over finite domains and build an explicit ``Lambda`` table.

    Args:
        prop: The validity property under test.
        system: System parameters (``n``, ``t``).
        input_domain: Finite proposal domain ``V_I``.
        output_domain: Finite decision domain ``V_O``; defaults to the
            property's own domain, or to ``input_domain``.
        evaluated: The property already evaluated over these very arguments
            (:func:`~repro.core.space.evaluate_property`), when the caller
            has it; evaluated here otherwise.

    Returns:
        A :class:`SimilarityConditionResult`.  When ``holds`` is ``True`` the
        ``lambda_table`` maps every configuration of ``I_{n-t}`` to an
        admissible-for-all-similar value (the canonical minimum of the
        intersection, so that the function is deterministic).  The
        counterexample is the last failing configuration of ``I_{n-t}``.
    """
    if evaluated is None:
        evaluated = evaluate_property(prop, system, input_domain, output_domain)
    space = evaluated.space
    excluding = [~mask for mask in evaluated.masks.values()]
    # A cell fails when its neighbourhood meets every value's exclusion; the
    # last failing minimal cell's member is I_{n-t}'s last failing configuration.
    failing = -1
    for cell, neighbourhood in enumerate(space.neighbourhoods):
        if all(map(neighbourhood.__and__, excluding)):
            failing = cell
    result = SimilarityConditionResult(
        holds=failing < 0,
        counterexample=space.configurations[failing] if failing >= 0 else None,
        minimal_configurations_checked=space.minimal_count,
    )
    del result.lambda_table, result.admissible_intersections
    result._evaluated = evaluated
    return result
