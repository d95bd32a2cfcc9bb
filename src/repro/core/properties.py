"""Named validity properties from the literature, in the paper's formalism.

Section 3.3 of the paper shows how classical validity properties are
expressed as functions ``val : I -> 2^{V_O}``; Section 2 surveys several
more.  This module implements them all:

* :class:`StrongValidity` — if all correct processes propose the same value,
  only that value may be decided.
* :class:`WeakValidity` — if *all* processes are correct and propose the same
  value, that value must be decided.
* :class:`CorrectProposalValidity` — the decision must be the proposal of a
  correct process (Fitzi–Garay "strong consensus").
* :class:`MedianValidity` — the decision must be a correct proposal close (in
  rank) to the median of the correct proposals (Stolz–Wattenhofer).
* :class:`IntervalValidity` — the decision must lie close (in rank) to the
  ``k``-th smallest correct proposal (Melnyk–Wattenhofer).
* :class:`ConvexHullValidity` — the decision must lie between the smallest
  and largest correct proposal.
* :class:`ConstantValidity` — a fixed value is always (and only) admissible;
  the canonical *trivial* property.
* :class:`FreeValidity` — every output value is always admissible; the other
  canonical trivial property (and the degenerate consensus with no validity).
* :class:`VectorValidity` — the validity property of vector consensus
  (Section 5.2.1): a decided vector may only attribute to a correct process
  the value that process actually proposed.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .input_config import InputConfiguration, Value
from .ordering import canonical_key
from .system import SystemConfig
from .validity import ValidityProperty


class StrongValidity(ValidityProperty):
    """If all correct processes propose ``v``, only ``v`` can be decided."""

    anonymous = True

    def __init__(self, output_domain: Optional[Sequence[Value]] = None):
        self.name = "strong-validity"
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        unanimous = config.unanimous_value()
        if unanimous is None:
            return True
        return value == unanimous


class WeakValidity(ValidityProperty):
    """If all ``n`` processes are correct and propose ``v``, ``v`` must be decided."""

    anonymous = True

    def __init__(self, system: SystemConfig, output_domain: Optional[Sequence[Value]] = None):
        self.name = "weak-validity"
        self.system = system
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        if config.size != self.system.n:
            return True
        unanimous = config.unanimous_value()
        if unanimous is None:
            return True
        return value == unanimous


class CorrectProposalValidity(ValidityProperty):
    """A decided value must have been proposed by a correct process."""

    anonymous = True

    def __init__(self, output_domain: Optional[Sequence[Value]] = None):
        self.name = "correct-proposal-validity"
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        return value in config.distinct_proposals()


class _RankValidity(ValidityProperty):
    """A decision must lie between two ranks of the sorted correct proposals.

    Subclasses give the rank arithmetic (:meth:`_ranks`); the canonical keys of
    the two bounding proposals are computed once per configuration, however
    many output values are then checked against them.
    """

    anonymous = True
    # The last tuple domain read, as ``(domain, [(key, value)], {id(value): key})``.
    _last_domain: Tuple = (None, None, None)

    @abstractmethod
    def _ranks(self, count: int) -> Optional[Tuple[int, int]]:
        """The 0-based (low, high) ranks among ``count`` proposals, or ``None`` if unconstrained."""

    def _bounds(
        self, config: InputConfiguration, known: Dict[int, tuple]
    ) -> Optional[Tuple[tuple, tuple]]:
        """The canonical keys of the bounding proposals, or ``None`` if unconstrained.

        ``known`` maps ``id(value)`` to the key of a value the caller holds;
        a proposal that is one of those very objects is not keyed again.
        """
        keys = sorted(
            known.get(id(proposal)) or canonical_key(proposal) for proposal in config.proposals()
        )
        ranks = self._ranks(len(keys))
        if ranks is None:
            return None
        return keys[ranks[0]], keys[ranks[1]]

    def __getstate__(self) -> dict:
        # The slot's ids mean nothing in another interpreter.
        state = dict(self.__dict__)
        state.pop("_last_domain", None)
        return state

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        key = canonical_key(value)
        bounds = self._bounds(config, {id(value): key})
        return bounds is None or bounds[0] <= key <= bounds[1]

    def admissible_values(
        self, config: InputConfiguration, output_domain: Optional[Sequence[Value]] = None
    ) -> FrozenSet[Value]:
        domain = self._finite_domain(output_domain)
        last, keyed, known = self._last_domain
        if last is not domain:
            # Proposals are usually the domain's own objects, so each is keyed once.
            keyed = [(canonical_key(value), value) for value in domain]
            known = {id(value): key for key, value in keyed}
            # Only a tuple is remembered, and held strongly so that neither its
            # id nor its values' ids are reused: a list may change under the same id.
            if type(domain) is tuple:
                self._last_domain = (domain, keyed, known)
        bounds = self._bounds(config, known)
        if bounds is None:
            return frozenset(value for _, value in keyed)
        low, high = bounds
        return frozenset(value for key, value in keyed if low <= key <= high)


class MedianValidity(_RankValidity):
    """The decision must lie within ``radius`` ranks of the median of the correct proposals.

    Stolz and Wattenhofer define median validity for synchronous consensus:
    the decision must be close to the median of the sorted correct proposals.
    Here the admissible set is the (inclusive) value range between the
    ``(m - radius)``-th and ``(m + radius)``-th smallest correct proposals,
    where ``m`` is the median rank.  The rank radius is configurable so the
    classifier experiments can explore when the property becomes (un)solvable
    in partial synchrony.
    """

    def __init__(self, radius: int, output_domain: Optional[Sequence[Value]] = None):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.name = f"median-validity(radius={radius})"
        self.radius = radius
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def _ranks(self, count: int) -> Tuple[int, int]:
        median_index = (count - 1) // 2
        return max(0, median_index - self.radius), min(count - 1, median_index + self.radius)


class IntervalValidity(_RankValidity):
    """The decision must lie close in rank to the ``k``-th smallest correct proposal.

    Following Melnyk and Wattenhofer, the admissible values are those lying
    (inclusively) between the ``(k - radius)``-th and ``(k + radius)``-th
    smallest correct proposals, with ranks clamped to the valid range.
    Ranks are 1-based, matching the paper's "k-th smallest" phrasing.
    """

    def __init__(self, k: int, radius: int, output_domain: Optional[Sequence[Value]] = None):
        if k < 1:
            raise ValueError("k must be at least 1 (1-based rank)")
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.name = f"interval-validity(k={k}, radius={radius})"
        self.k = k
        self.radius = radius
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def _ranks(self, count: int) -> Optional[Tuple[int, int]]:
        low_rank = max(1, self.k - self.radius)
        if low_rank > count:
            return None
        return low_rank - 1, min(count, self.k + self.radius) - 1


class ConvexHullValidity(_RankValidity):
    """The decision must lie between the minimum and maximum correct proposal."""

    def __init__(self, output_domain: Optional[Sequence[Value]] = None):
        self.name = "convex-hull-validity"
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def _ranks(self, count: int) -> Tuple[int, int]:
        return 0, count - 1


class ConstantValidity(ValidityProperty):
    """Only one fixed value is ever admissible (the canonical trivial property)."""

    anonymous = True

    def __init__(self, constant: Value, output_domain: Optional[Sequence[Value]] = None):
        self.name = f"constant-validity({constant!r})"
        self.constant = constant
        if output_domain is not None:
            self.output_domain = tuple(output_domain)
        else:
            self.output_domain = (constant,)

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        return value == self.constant


class FreeValidity(ValidityProperty):
    """Every output value is always admissible (consensus without validity)."""

    anonymous = True

    def __init__(self, output_domain: Optional[Sequence[Value]] = None):
        self.name = "free-validity"
        self.output_domain = tuple(output_domain) if output_domain is not None else None

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        return True


class VectorValidity(ValidityProperty):
    """Vector Validity (Section 5.2.1): the validity property of vector consensus.

    Here the *output* values are themselves input configurations with exactly
    ``n - t`` process-proposal pairs.  A decided vector is admissible for an
    execution's input configuration ``c`` iff every process that appears in
    both the vector and ``c`` (i.e. every *correct* process named by the
    vector) is attributed the proposal it actually made in ``c``.  This is
    precisely the similarity of the vector with ``c`` restricted to the
    requirement on common processes — the paper's observation that a decided
    vector is always similar to the execution's input configuration.
    """

    def __init__(self, system: SystemConfig):
        self.name = "vector-validity"
        self.system = system
        self.output_domain = None

    def is_admissible(self, config: InputConfiguration, value: Value) -> bool:
        if not isinstance(value, InputConfiguration):
            return False
        if value.size != self.system.quorum:
            return False
        common = value.processes & config.processes
        return all(value[process] == config[process] for process in common)


def standard_properties(
    system: SystemConfig, output_domain: Optional[Sequence[Value]] = None
) -> dict:
    """Return the named validity properties keyed by a short identifier.

    Convenience used by the classification experiments and examples.
    """
    return {
        "strong": StrongValidity(output_domain),
        "weak": WeakValidity(system, output_domain),
        "correct-proposal": CorrectProposalValidity(output_domain),
        "median": MedianValidity(radius=2 * system.t, output_domain=output_domain),
        "interval": IntervalValidity(k=system.t + 1, radius=system.t, output_domain=output_domain),
        "convex-hull": ConvexHullValidity(output_domain),
        "constant": ConstantValidity(
            constant=(output_domain[0] if output_domain else 0), output_domain=output_domain
        ),
        "free": FreeValidity(output_domain),
    }
