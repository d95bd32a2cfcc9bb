"""The spaces a property is decided over, as data (Sections 3.3-3.4).

Every decision procedure of the theory layer quantifies over the set ``I`` of
input configurations of a system over a finite proposal domain, its slice
``I_{n-t}`` of minimal configurations, and the similarity neighbourhood
``sim(c)`` of each minimal configuration.  None of them depends on the
property judged, so a space is built once per ``(n, t, domain)`` and shared.
It splits ``I`` into *cells*, minimal cells first, and holds each minimal
cell's neighbourhood as a Python-int bitmask over the cells:

* in a :class:`ConfigurationSpace` (:func:`configuration_space`) each
  configuration of ``I`` is a cell.  The similarity relation of Section 3.4
  (``c ~ c'`` iff the two share a process and agree on every shared one) is
  built structurally: with ``B[p][v]`` the mask of configurations in which
  process ``p`` proposes ``v`` and ``P[p]`` the mask of those containing ``p``,
  ``sim(c) = (OR_p B[p][c[p]]) & ~(OR_p (P[p] & ~B[p][c[p]]))`` over the
  processes ``p`` of ``c``.  The pairwise definition lives in
  ``tests/reference_classifier.py``, the oracle these masks are checked against;
* in a :class:`MultisetSpace` (:func:`multiset_space`) each proposal multiset
  of size ``n - t .. n`` is a cell.  A configuration similar to a minimal
  ``c`` keeps a non-empty part of ``c``'s pairs and adds at most ``t`` pairs
  of the processes outside ``c``, so multiset ``X`` lies in the
  neighbourhood of minimal multiset ``M`` iff ``|X ∩ M| >= 1`` and
  ``|X| - |X ∩ M| <= t``.

A property enters only through :func:`evaluate_property`, which evaluates
``val`` once per cell into an :class:`AdmissibilityTable` (one mask per
output value); "``v`` is admissible throughout a region" is then one AND.  An
anonymous property (its ``val(c)`` reads only how many processes propose each
value, as every named property's does) gets the multiset space: a renaming
of processes maps one member's neighbourhood onto another's and keeps every
multiset.  This is symmetry reduction (Ip and Dill, FMSD 1996): at
``n = 31, t = 10`` over two values, 297 cells stand for about ``3.3 * 10^14``
configurations.

>>> from repro.core.system import SystemConfig
>>> space = configuration_space(SystemConfig(3, 1), [0, 1])
>>> (len(space.configurations), space.minimal_count)
(20, 12)
>>> list(space.similar_to(space.configurations[0]))[:2]
[InputConfiguration[(P0, 0), (P1, 0)], InputConfiguration[(P0, 0), (P2, 0)]]
>>> bin(space.neighbourhoods[0])
'0b11001100110001'
>>> cells = multiset_space(SystemConfig(3, 1), [0, 1])
>>> (cells.configuration_count, cells.minimal_count, len(cells.configurations))
(20, 12, 7)
>>> cells.configurations[1]  # {0, 1}: its last configuration in I
InputConfiguration[(P1, 1), (P2, 0)]
>>> bin(cells.neighbourhoods[0])  # {0, 0}, {0, 1}, {0, 0, 0} and {0, 0, 1}
'0b11011'
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Sequence, Tuple, Union

from .input_config import (
    InputConfiguration,
    ProcessProposal,
    Value,
    count_input_configurations,
    enumerate_input_configurations,
)
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
    """

    system: SystemConfig
    domain: Tuple[Value, ...]
    configurations: Tuple[InputConfiguration, ...]
    neighbourhoods: Tuple[int, ...]
    _containing: Dict[int, int]
    _proposing: Dict[Tuple[int, Value], int]

    @property
    def configuration_count(self) -> int:
        """``|I|``."""
        return len(self.configurations)

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

    def minimal_members(self) -> Iterator[Tuple[InputConfiguration, int]]:
        """Each configuration of ``I_{n-t}`` in enumeration order, with its cell (its own index)."""
        return zip(self.minimal_configurations, range(self.minimal_count))

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


@dataclass(frozen=True, eq=False)
class MultisetSpace:
    """The proposal multisets of one system over one domain, as cells of ``I``.

    Attributes:
        system: The system parameters (``n``, ``t``).
        domain: The proposal domain ``V_I`` in canonical order.
        configurations: One member per multiset, bit ``i`` of every mask
            standing for ``configurations[i]``: the multiset's last
            configuration in ``I``, processes ``n - k .. n - 1`` proposing
            its ``k`` values in descending domain order.  Minimal multisets
            come first, and each size's are ordered by these value tuples,
            so the last failing minimal cell's member is the last failing
            configuration of ``I_{n-t}``.
        neighbourhoods: For each minimal multiset, the mask of the
            multisets of ``sim(c)`` for any ``c`` with that multiset.
    """

    system: SystemConfig
    domain: Tuple[Value, ...]
    configurations: Tuple[InputConfiguration, ...]
    neighbourhoods: Tuple[int, ...]
    # A minimal multiset's descending domain positions -> its cell.
    _cells: Dict[Tuple[int, ...], int]

    @property
    def configuration_count(self) -> int:
        """``|I|``, counted in closed form."""
        return count_input_configurations(self.system, len(self.domain))

    @property
    def minimal_count(self) -> int:
        """``|I_{n-t}|``, counted in closed form."""
        quorum = self.system.quorum
        return math.comb(self.system.n, quorum) * len(self.domain) ** quorum

    @property
    def everything(self) -> int:
        """The mask of every multiset."""
        return (1 << len(self.configurations)) - 1

    def minimal_members(self) -> Iterator[Tuple[InputConfiguration, int]]:
        """Each configuration of ``I_{n-t}`` in enumeration order, with its multiset's cell."""
        position = {value: index for index, value in enumerate(self.domain)}
        members = enumerate_input_configurations(self.system, self.domain)
        for config in itertools.islice(members, self.minimal_count):
            key = sorted((position[value] for value in config.proposals()), reverse=True)
            yield config, self._cells[tuple(key)]


Space = Union[ConfigurationSpace, MultisetSpace]


def configuration_space(system: SystemConfig, input_domain: Sequence[Value]) -> ConfigurationSpace:
    """The shared :class:`ConfigurationSpace` of ``system`` over ``input_domain``.

    Built on first use and memoised (bounded) on the content of its two
    arguments, so it holds no state of any property or caller.  In front of
    that memo, the last tuple domain read is remembered by identity: a caller
    that hands over the same tuple again (every task of a family does) skips
    keying the domain.
    """
    return _shared(_build_space, system, input_domain)


def multiset_space(system: SystemConfig, input_domain: Sequence[Value]) -> MultisetSpace:
    """The shared :class:`MultisetSpace` of ``system`` over ``input_domain``.

    Memoised exactly as :func:`configuration_space` is, with a slot of its own.
    """
    return _shared(_build_multiset_space, system, input_domain)


# Per builder, the last tuple domain read, as ``(system, domain, space)``.
_last_spaces: Dict[Callable, tuple] = {}


def _shared(build: Callable, system: SystemConfig, input_domain: Sequence[Value]) -> Space:
    last_system, last_domain, last_space = _last_spaces.get(build, (None, None, None))
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
    space = build(system, tuple(value for _, value in keyed), tuple(key for key, _ in keyed))
    # Only a tuple is remembered, and held strongly so that its id is not
    # reused: a list may change under the same id.
    if type(input_domain) is tuple:
        _last_spaces[build] = system, input_domain, space
    return space


@functools.lru_cache(maxsize=16)
def _build_space(
    system: SystemConfig, domain: Tuple[Value, ...], _identity: Tuple[Tuple[str, str, str], ...]
) -> ConfigurationSpace:
    configurations = tuple(enumerate_input_configurations(system, domain))
    containing: Dict[int, int] = dict.fromkeys(system.processes, 0)
    proposing: Dict[Tuple[int, Value], int] = {
        (process, value): 0 for process in system.processes for value in domain
    }
    for index, config in enumerate(configurations):
        bit = 1 << index
        for pair in config.pairs:
            containing[pair.process] |= bit
            proposing[pair.process, pair.proposal] |= bit
    minimal = [config for config in configurations if config.size == system.quorum]
    return ConfigurationSpace(
        system=system,
        domain=domain,
        configurations=configurations,
        neighbourhoods=tuple(_neighbourhood(config, containing, proposing) for config in minimal),
        _containing=containing,
        _proposing=proposing,
    )


@functools.lru_cache(maxsize=16)
def _build_multiset_space(
    system: SystemConfig, domain: Tuple[Value, ...], _identity: Tuple[Tuple[str, str, str], ...]
) -> MultisetSpace:
    # A multiset as its values' domain positions in descending order.
    keys = [
        key
        for size in system.valid_configuration_sizes()
        for key in sorted(
            tuple(reversed(ascending))
            for ascending in itertools.combinations_with_replacement(range(len(domain)), size)
        )
    ]
    counts = [[key.count(position) for position in range(len(domain))] for key in keys]
    minimal = [key for key in keys if len(key) == system.quorum]
    neighbourhoods = []
    for anchor in counts[: len(minimal)]:
        mask = 0
        for index, (key, count) in enumerate(zip(keys, counts)):
            shared = sum(map(min, anchor, count))
            if shared and len(key) - shared <= system.t:
                mask |= 1 << index
        neighbourhoods.append(mask)
    n = system.n
    return MultisetSpace(
        system=system,
        domain=domain,
        configurations=tuple(
            InputConfiguration(
                ProcessProposal(process, domain[position])
                for process, position in zip(range(n - len(key), n), key)
            )
            for key in keys
        ),
        neighbourhoods=tuple(neighbourhoods),
        _cells={key: cell for cell, key in enumerate(minimal)},
    )


def _cache_clear() -> None:
    _last_spaces.clear()
    _build_space.cache_clear()
    _build_multiset_space.cache_clear()


configuration_space.cache_clear = _cache_clear  # type: ignore[attr-defined]
multiset_space.cache_clear = _cache_clear  # type: ignore[attr-defined]
configuration_space.cache_info = _build_space.cache_info  # type: ignore[attr-defined]
multiset_space.cache_info = _build_multiset_space.cache_info  # type: ignore[attr-defined]


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
    """One property's ``val`` over a whole space: a mask of cells per output value.

    Attributes:
        space: The space the masks index into.
        masks: For each value of the finite output domain (in the domain's
            order), the mask of cells for which it is admissible.
    """

    space: Space
    masks: Dict[Value, int]

    def admitted_throughout(self, region: int) -> FrozenSet[Value]:
        """The output values admissible for *every* cell in ``region``."""
        return frozenset(value for value, mask in self.masks.items() if not region & ~mask)


def evaluate_property(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> AdmissibilityTable:
    """Evaluate ``val`` once per cell of the property's space.

    An anonymous property is evaluated over :func:`multiset_space`, any
    other over :func:`configuration_space`.  ``output_domain`` defaults to
    the property's own domain, or to ``input_domain`` when it has none.
    """
    domain = output_domain if output_domain is not None else prop.output_domain
    # One tuple for the whole evaluation: a table property remembers its set by identity.
    domain = tuple(domain if domain is not None else input_domain)
    space = (multiset_space if prop.anonymous else configuration_space)(system, input_domain)
    masks: Dict[Value, int] = dict.fromkeys(domain, 0)
    for index, config in enumerate(space.configurations):
        admissible = prop.admissible_values(config, domain)
        for value in masks:
            if value in admissible:
                masks[value] |= 1 << index
    return AdmissibilityTable(space=space, masks=masks)
