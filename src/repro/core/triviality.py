"""Triviality of validity properties (Theorems 1 and 2).

A validity property is *trivial* when some value is admissible for every
input configuration; solving consensus with a trivial property is immediate
(every process decides the always-admissible value without communicating).
Theorem 1 of the paper shows that when ``n <= 3t`` *every* solvable validity
property is trivial, and Theorem 2 strengthens this to the existence of a
finite ``always_admissible`` procedure.

This module provides the exact decision procedure over finite domains and
the ``always_admissible`` witness extraction.  The procedure is a reduction
over the property's :class:`~repro.core.space.AdmissibilityTable`: ``val`` is
evaluated once per cell of the space
:func:`~repro.core.space.evaluate_property` picks for the property into one
bitmask per output value, and a value is always admissible iff its mask is
all ones.

Examples
--------

Strong Validity is non-trivial (two unanimous configurations already force
disjoint admissible sets), while Free Validity admits everything and is the
canonical trivial property:

>>> from repro.core.properties import FreeValidity, StrongValidity
>>> from repro.core.system import SystemConfig
>>> system = SystemConfig(n=3, t=1)
>>> check_triviality(StrongValidity(), system, [0, 1]).trivial
False
>>> result = check_triviality(FreeValidity(), system, [0, 1])
>>> (result.trivial, result.witness, sorted(result.always_admissible))
(True, 0, [0, 1])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence

from .input_config import Value
from .ordering import canonical_sorted
from .space import AdmissibilityTable, evaluate_property
from .system import SystemConfig
from .validity import ValidityProperty


@dataclass(frozen=True)
class TrivialityResult:
    """Outcome of the triviality decision procedure.

    Attributes:
        trivial: ``True`` iff some output value is admissible for every
            enumerated input configuration.
        always_admissible: The set of always-admissible values (empty when
            the property is non-trivial).
        witness: A deterministic representative of ``always_admissible`` (the
            value the paper's Theorem 2 ``always_admissible`` procedure would
            return), or ``None``.
        configurations_checked: ``|I|``, the number of input configurations decided.
    """

    trivial: bool
    always_admissible: FrozenSet[Value]
    witness: Optional[Value]
    configurations_checked: int


def check_triviality(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
    *,
    evaluated: Optional[AdmissibilityTable] = None,
) -> TrivialityResult:
    """Decide whether a validity property is trivial over finite domains.

    Args:
        prop: The validity property.
        system: System parameters (``n``, ``t``); determines the enumerated
            configuration sizes ``n - t .. n``.
        input_domain: Finite proposal domain ``V_I``.
        output_domain: Finite decision domain ``V_O``; defaults to the
            property's own domain, or to ``input_domain`` when absent.
        evaluated: The property already evaluated over these very arguments
            (:func:`~repro.core.space.evaluate_property`), when the caller
            has it; evaluated here otherwise.

    Returns:
        A :class:`TrivialityResult` with the witness value when trivial.
    """
    if evaluated is None:
        evaluated = evaluate_property(prop, system, input_domain, output_domain)
    space = evaluated.space
    always = evaluated.admitted_throughout(space.everything)
    witness = canonical_sorted(always)[0] if always else None
    return TrivialityResult(
        trivial=bool(always),
        always_admissible=always,
        witness=witness,
        configurations_checked=space.configuration_count,
    )
