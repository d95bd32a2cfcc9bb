"""Closed-form ``Lambda`` functions for the standard validity properties.

The generic construction in :mod:`repro.core.similarity_condition` decides
``C_S`` exactly over any finite domain (for a named property, over proposal
multisets at any ``n`` and ``t``) and builds ``Lambda`` as a table over
``I_{n-t}``.  Protocol executions, however, run over unbounded value domains
(integers, strings, transaction batches, ...), which no table can list, so
the Universal algorithm needs *closed-form* ``Lambda`` functions there.  This
module derives them for the named properties:

* Strong Validity: any value proposed by at least ``n - 2t`` processes of the
  decided vector must be chosen (such a value is unique when ``n > 3t``);
  otherwise every value is safe.
* Weak Validity: the unanimous value of the vector when it exists, otherwise
  anything.
* Correct-Proposal Validity: a value proposed at least ``t + 1`` times in
  the vector (guaranteed to exist iff ``n > (|V_I| + 1) t``, the
  Fitzi–Garay bound that the classifier experiment re-derives).
* Convex-Hull Validity: the ``(t + 1)``-th smallest proposal of the vector —
  it lies inside the convex hull of the correct proposals of every similar
  configuration.
* Median Validity (radius >= t): the median of the vector.
* Interval Validity (k, radius >= t): the ``k``-th smallest proposal of the
  vector, clamped to the vector's length.

Every closed form is cross-checked against the enumerative construction in
the test-suite (``tests/test_lambda_functions.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .input_config import InputConfiguration, Value
from .ordering import canonical_choice, canonical_sorted
from .similarity_condition import LambdaFunction
from .system import SystemConfig


class LambdaUndefinedError(ValueError):
    """Raised when a closed-form ``Lambda`` has no valid output for a vector.

    This only happens when the corresponding validity property does not
    satisfy the similarity condition for the given system parameters (for
    example Correct-Proposal Validity with ``n <= (|V_I| + 1) t``).
    """


def strong_validity_lambda(system: SystemConfig) -> LambdaFunction:
    """``Lambda`` for Strong Validity.

    A similar configuration can be unanimous for ``w`` only if at least
    ``n - 2t`` members of the vector already propose ``w``; with ``n > 3t``
    at most one such value exists and it must be chosen.  When no value
    reaches the threshold, no similar configuration is unanimous and every
    value is admissible, so the canonical choice among the vector's proposals
    is returned.
    """
    threshold = system.n - 2 * system.t

    def lambda_fn(vector: InputConfiguration) -> Value:
        counts = Counter(vector.proposals())
        forced = [value for value, count in counts.items() if count >= threshold]
        if len(forced) > 1:
            raise LambdaUndefinedError(
                "two values reach the n - 2t threshold; strong validity is not solvable "
                f"for n={system.n}, t={system.t}"
            )
        if forced:
            return forced[0]
        return canonical_choice(counts)

    return lambda_fn


def weak_validity_lambda(system: SystemConfig) -> LambdaFunction:
    """``Lambda`` for Weak Validity: the unanimous value of the vector, else any proposal."""

    def lambda_fn(vector: InputConfiguration) -> Value:
        unanimous = vector.unanimous_value()
        if unanimous is not None:
            return unanimous
        return canonical_choice(vector.distinct_proposals())

    return lambda_fn


def correct_proposal_lambda(system: SystemConfig) -> LambdaFunction:
    """``Lambda`` for Correct-Proposal Validity.

    The chosen value must be a proposal of a correct process in *every*
    similar configuration, which requires it to appear at least ``t + 1``
    times in the vector (so that at least one occurrence survives in every
    common subset of size ``n - 2t`` and the t Byzantine slots cannot erase
    it).  When no value is that frequent the property violates ``C_S`` and
    :class:`LambdaUndefinedError` is raised.
    """
    threshold = system.t + 1

    def lambda_fn(vector: InputConfiguration) -> Value:
        counts = Counter(vector.proposals())
        frequent = [value for value, count in counts.items() if count >= threshold]
        if not frequent:
            raise LambdaUndefinedError(
                "no value is proposed by more than t processes; correct-proposal validity "
                f"does not satisfy the similarity condition for n={system.n}, t={system.t} "
                "over this proposal spread"
            )
        ordered = canonical_sorted(frequent)
        return max(ordered, key=lambda value: counts[value])

    return lambda_fn


def convex_hull_lambda(system: SystemConfig) -> LambdaFunction:
    """``Lambda`` for Convex-Hull Validity: the ``(t + 1)``-th smallest proposal.

    For every configuration similar to the vector, the common processes form
    at least ``n - 2t`` members of the vector, so the similar configuration's
    maximum is at least the vector's ``(n - 2t)``-th smallest proposal and its
    minimum is at most the vector's ``(t + 1)``-th smallest proposal.  The
    ``(t + 1)``-th smallest proposal therefore lies inside every similar
    configuration's convex hull (using ``t + 1 <= n - 2t``, i.e. ``n > 3t``).
    """

    def lambda_fn(vector: InputConfiguration) -> Value:
        ordered = canonical_sorted(vector.proposals())
        index = min(system.t, len(ordered) - 1)
        return ordered[index]

    return lambda_fn


def median_validity_lambda(system: SystemConfig, radius: Optional[int] = None) -> LambdaFunction:
    """``Lambda`` for Median Validity with rank radius at least ``2t``.

    A similar configuration's multiset of correct proposals is obtained from
    the vector by removing at most ``t`` elements and adding at most ``t``
    others, and its size differs by at most ``t``; each of those moves shifts
    the median rank by at most one, so the vector's median stays within
    ``2t`` ranks of the similar configuration's median.
    """
    effective_radius = 2 * system.t if radius is None else radius
    if effective_radius < 2 * system.t:
        raise LambdaUndefinedError(
            f"median validity with radius {effective_radius} < 2t={2 * system.t} is not covered "
            "by the closed-form Lambda; use the enumerative construction instead"
        )

    def lambda_fn(vector: InputConfiguration) -> Value:
        ordered = canonical_sorted(vector.proposals())
        return ordered[(len(ordered) - 1) // 2]

    return lambda_fn


def interval_validity_lambda(
    system: SystemConfig, k: int, radius: Optional[int] = None
) -> LambdaFunction:
    """``Lambda`` for Interval Validity: the ``k``-th smallest proposal of the vector.

    Requires the rank radius to be at least ``t`` and ``k <= n - 2t``
    (otherwise the closed form is not guaranteed to be admissible for every
    similar configuration); the returned value is the vector's ``k``-th
    smallest proposal, clamped to the vector length.
    """
    effective_radius = system.t if radius is None else radius
    if effective_radius < system.t:
        raise LambdaUndefinedError(
            f"interval validity with radius {effective_radius} < t={system.t} does not satisfy "
            "the similarity condition; no closed-form Lambda exists"
        )
    if k < 1:
        raise ValueError("k must be a 1-based rank")
    if k > system.n - 2 * system.t:
        raise LambdaUndefinedError(
            f"interval validity with k={k} > n - 2t = {system.n - 2 * system.t} is not covered "
            "by the closed-form Lambda; use the enumerative construction instead"
        )

    def lambda_fn(vector: InputConfiguration) -> Value:
        ordered = canonical_sorted(vector.proposals())
        index = min(k, len(ordered)) - 1
        return ordered[index]

    return lambda_fn


def free_validity_lambda() -> LambdaFunction:
    """``Lambda`` for Free Validity: any proposal of the vector is admissible."""

    def lambda_fn(vector: InputConfiguration) -> Value:
        return canonical_choice(vector.distinct_proposals())

    return lambda_fn


def identity_lambda() -> LambdaFunction:
    """``Lambda`` for Vector Validity: the decided vector itself.

    Used when Universal is asked to solve vector consensus — the paper's
    observation that Vector Validity is a "strongest" validity property.
    """

    def lambda_fn(vector: InputConfiguration) -> Value:
        return vector

    return lambda_fn


def standard_lambda_functions(system: SystemConfig) -> dict:
    """Closed-form ``Lambda`` functions for the standard properties, keyed like
    :func:`repro.core.properties.standard_properties`.

    Entries whose closed form is undefined for the given system parameters
    (for example Interval Validity when ``n <= 3t``) are simply omitted.
    """
    functions = {
        "strong": strong_validity_lambda(system),
        "weak": weak_validity_lambda(system),
        "correct-proposal": correct_proposal_lambda(system),
        "median": median_validity_lambda(system),
        "convex-hull": convex_hull_lambda(system),
        "free": free_validity_lambda(),
        "vector": identity_lambda(),
    }
    try:
        functions["interval"] = interval_validity_lambda(system, k=system.t + 1)
    except LambdaUndefinedError:
        pass
    return functions
