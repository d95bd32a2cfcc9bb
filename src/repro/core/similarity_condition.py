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
procedure is a reduction over the shared
:class:`~repro.core.space.ConfigurationSpace`, which holds every similarity
neighbourhood ``sim(c)`` as a bitmask over ``I``: with ``val`` evaluated once
per configuration into one mask per output value, a value lies in the
intersection for ``c`` iff ``sim(c) & ~mask == 0``.

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
    """

    holds: bool
    lambda_table: Dict[InputConfiguration, Value] = field(default_factory=dict)
    admissible_intersections: Dict[InputConfiguration, FrozenSet[Value]] = field(default_factory=dict)
    counterexample: Optional[InputConfiguration] = None
    minimal_configurations_checked: int = 0

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
        intersection, so that the function is deterministic).
    """
    if evaluated is None:
        evaluated = evaluate_property(prop, system, input_domain, output_domain)
    space = evaluated.space
    result = SimilarityConditionResult(
        holds=True, minimal_configurations_checked=space.minimal_count
    )
    # V_O in canonical order once, each value with the configurations that
    # exclude it: an intersection is then read off in order, and Lambda is
    # its first value.
    excluding = [(value, ~evaluated.masks[value]) for value in canonical_sorted(evaluated.masks)]
    for config, neighbourhood in zip(space.minimal_configurations, space.neighbourhoods):
        admitted = [value for value, excluded in excluding if not neighbourhood & excluded]
        result.admissible_intersections[config] = frozenset(admitted)
        if not admitted:
            result.holds = False
            result.counterexample = config
        elif result.holds:
            result.lambda_table[config] = admitted[0]
    if not result.holds:
        result.lambda_table = {}
    return result
