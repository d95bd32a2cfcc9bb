"""The configuration space of one system, as data (Sections 3.3-3.4).

Every decision procedure of the theory layer quantifies over the same three
objects: the set ``I`` of input configurations of a system over a finite
proposal domain, its slice ``I_{n-t}`` of minimal configurations, and the
similarity neighbourhood ``sim(c)`` of each minimal configuration.  None of
them depends on the validity property being judged, so they are built once
per ``(n, t, domain)`` and shared: :func:`configuration_space` returns an
immutable :class:`ConfigurationSpace` holding ``I`` as a tuple and every
``sim(c)`` as a Python-int bitmask over indices into that tuple.

The similarity relation of Section 3.4 (``c ~ c'`` iff the two share a
process and agree on every shared process) has no pairwise implementation
here: the neighbourhoods are built structurally, and the pairwise definition
lives in ``tests/reference_classifier.py`` as the oracle they are checked
against.  With ``B[p][v]`` the mask of configurations in which process ``p``
proposes ``v`` and ``P[p]`` the mask of configurations containing ``p``,

    ``sim(c) = (OR_p B[p][c[p]]) & ~(OR_p (P[p] & ~B[p][c[p]]))``

over the processes ``p`` of ``c``: some shared process agrees, and no shared
process disagrees — ``O(n)`` big-integer operations per configuration.

A property enters only through :func:`evaluate_property`, which evaluates
``val(c)`` into an :class:`AdmissibilityTable` (one mask per output value):
once per proposal multiset for an anonymous property (one whose ``val(c)``
reads only how many processes propose each value; every named property of
the paper is one), once per configuration for any other.  "``v`` is
admissible throughout a region of ``I``" is then one AND: triviality asks it
of the whole space, the similarity condition of a neighbourhood — of one per
minimal multiset (:attr:`ConfigurationSpace.minimal_multisets`) for an
anonymous property, of each for any other.

>>> from repro.core.system import SystemConfig
>>> space = configuration_space(SystemConfig(3, 1), [0, 1])
>>> (len(space.configurations), space.minimal_count)
(20, 12)
>>> list(space.similar_to(space.configurations[0]))[:2]
[InputConfiguration[(P0, 0), (P1, 0)], InputConfiguration[(P0, 0), (P2, 0)]]
>>> bin(space.neighbourhoods[0])
'0b11001100110001'
>>> len(space.multisets)
7
>>> space.minimal_multisets  # {0, 0}, {0, 1} and {1, 1}
((0, 8), (1, 10), (3, 11))
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .input_config import InputConfiguration, Value, enumerate_input_configurations
from .ordering import canonical_key
from .system import SystemConfig
from .validity import ValidityProperty


@dataclass(frozen=True, eq=False)
class ConfigurationSpace:
    """``I``, ``I_{n-t}`` and every ``sim(c)`` of one system over one proposal domain.

    Attributes:
        system: The system parameters (``n``, ``t``).
        domain: The proposal domain ``V_I`` in canonical order.
        configurations: ``I`` in the order of
            :func:`~repro.core.input_config.enumerate_input_configurations`,
            which puts the minimal configurations first; bit ``i`` of every
            mask stands for ``configurations[i]``.
        neighbourhoods: ``sim(c)`` as a mask, for each minimal configuration.
        multisets: ``I`` grouped by proposal multiset, as ``(first
            configuration, mask of the group)`` pairs in enumeration order.
        minimal_multisets: ``I_{n-t}`` grouped the same way, as ``(first
            index, last index)`` pairs into ``configurations``, in
            enumeration order.
    """

    system: SystemConfig
    domain: Tuple[Value, ...]
    configurations: Tuple[InputConfiguration, ...]
    neighbourhoods: Tuple[int, ...]
    multisets: Tuple[Tuple[InputConfiguration, int], ...]
    minimal_multisets: Tuple[Tuple[int, int], ...]
    _containing: Dict[int, int]
    _proposing: Dict[Tuple[int, Value], int]

    @property
    def minimal_count(self) -> int:
        """``|I_{n-t}|``."""
        return len(self.neighbourhoods)

    @property
    def minimal_configurations(self) -> Tuple[InputConfiguration, ...]:
        """``I_{n-t}`` in enumeration order: the first entries of ``configurations``."""
        return self.configurations[: self.minimal_count]

    @property
    def everything(self) -> int:
        """The mask of all of ``I``."""
        return (1 << len(self.configurations)) - 1

    def neighbourhood(self, config: InputConfiguration) -> int:
        """The mask of ``sim(config)`` for any configuration, minimal or not."""
        return _neighbourhood(config, self._containing, self._proposing)

    def select(self, mask: int) -> Iterator[InputConfiguration]:
        """The configurations a mask stands for, in enumeration order."""
        configurations = self.configurations
        while mask:
            lowest = mask & -mask
            yield configurations[lowest.bit_length() - 1]
            mask ^= lowest

    def similar_to(self, config: InputConfiguration) -> Iterator[InputConfiguration]:
        """Enumerate ``sim(config)`` in enumeration order."""
        return self.select(self.neighbourhood(config))


def configuration_space(system: SystemConfig, input_domain: Sequence[Value]) -> ConfigurationSpace:
    """The shared :class:`ConfigurationSpace` of ``system`` over ``input_domain``.

    Built on first use and memoised (bounded) on the content of its two
    arguments, so it holds no state of any property or caller.  In front of
    that memo, the last tuple domain read is remembered by identity: a caller
    that hands over the same tuple again (every task of a family does) skips
    keying the domain.
    """
    last_system, last_domain, last_space = _last_space
    if input_domain is last_domain and system == last_system:
        return last_space
    if not input_domain:
        raise ValueError("input domain must be non-empty")
    keyed = sorted(
        ((canonical_key(value), value) for value in set(input_domain)), key=lambda pair: pair[0]
    )
    # One canonical key per value both orders the domain and keys the memo:
    # equal values of different types (1, True, 1.0) hash alike but print
    # differently, and their keys keep such domains in separate entries.
    space = _build_space(
        system, tuple(value for _, value in keyed), tuple(key for key, _ in keyed)
    )
    # Only a tuple is remembered, and held strongly so that its id is not
    # reused: a list may change under the same id.
    if type(input_domain) is tuple:
        _last_space[:] = system, input_domain, space
    return space


_last_space: list = [None, None, None]


@functools.lru_cache(maxsize=16)
def _build_space(
    system: SystemConfig, domain: Tuple[Value, ...], _identity: Tuple[Tuple[str, str, str], ...]
) -> ConfigurationSpace:
    configurations = tuple(enumerate_input_configurations(system, domain))
    containing: Dict[int, int] = dict.fromkeys(system.processes, 0)
    proposing: Dict[Tuple[int, Value], int] = {
        (process, value): 0 for process in system.processes for value in domain
    }
    position = {value: index for index, value in enumerate(domain)}
    # Per multiset: [first configuration, mask, first index, last index].
    multisets: Dict[Tuple[int, ...], List] = {}
    for index, config in enumerate(configurations):
        bit = 1 << index
        counts = [0] * len(domain)
        for pair in config.pairs:
            containing[pair.process] |= bit
            proposing[pair.process, pair.proposal] |= bit
            counts[position[pair.proposal]] += 1
        group = multisets.setdefault(tuple(counts), [config, 0, index, index])
        group[1] |= bit
        group[3] = index
    minimal = [config for config in configurations if config.size == system.quorum]
    return ConfigurationSpace(
        system=system,
        domain=domain,
        configurations=configurations,
        neighbourhoods=tuple(_neighbourhood(config, containing, proposing) for config in minimal),
        multisets=tuple((config, mask) for config, mask, _, _ in multisets.values()),
        # I lists the minimal configurations first, and a multiset fixes the size.
        minimal_multisets=tuple(
            (first, last) for _, _, first, last in multisets.values() if first < len(minimal)
        ),
        _containing=containing,
        _proposing=proposing,
    )


def _cache_clear() -> None:
    _last_space[:] = None, None, None
    _build_space.cache_clear()


configuration_space.cache_clear = _cache_clear  # type: ignore[attr-defined]
configuration_space.cache_info = _build_space.cache_info  # type: ignore[attr-defined]


def _neighbourhood(
    config: InputConfiguration,
    containing: Dict[int, int],
    proposing: Dict[Tuple[int, Value], int],
) -> int:
    """``sim(config)`` from the membership masks (the module docstring's formula)."""
    agreeing = disagreeing = 0
    for pair in config.pairs:
        same = proposing.get((pair.process, pair.proposal), 0)
        agreeing |= same
        disagreeing |= containing.get(pair.process, 0) & ~same
    return agreeing & ~disagreeing


@dataclass(frozen=True, eq=False)
class AdmissibilityTable:
    """One property's ``val`` over a whole space: a mask of configurations per output value.

    Attributes:
        space: The configuration space the masks index into.
        masks: For each value of the finite output domain (in the domain's
            order), the mask of configurations for which it is admissible.
    """

    space: ConfigurationSpace
    masks: Dict[Value, int]

    def admitted_throughout(self, region: int) -> FrozenSet[Value]:
        """The output values admissible for *every* configuration in ``region``."""
        return frozenset(value for value, mask in self.masks.items() if not region & ~mask)


def evaluate_property(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> AdmissibilityTable:
    """Evaluate ``val(c)`` over all of ``I``.

    An anonymous property is evaluated once per proposal multiset, on the
    first configuration of each, and any other once per configuration.
    ``output_domain`` defaults to the property's own domain, or to
    ``input_domain`` when it has none.
    """
    domain = output_domain if output_domain is not None else prop.output_domain
    # One tuple for the whole evaluation: a table property remembers its set by identity.
    domain = tuple(domain if domain is not None else input_domain)
    space = configuration_space(system, input_domain)
    masks: Dict[Value, int] = dict.fromkeys(domain, 0)
    groups = space.multisets if prop.anonymous else (
        (config, 1 << index) for index, config in enumerate(space.configurations)
    )
    for config, group in groups:
        admissible = prop.admissible_values(config, domain)
        for value in masks:
            if value in admissible:
                masks[value] |= group
    return AdmissibilityTable(space=space, masks=masks)
