"""Canonical, deterministic ordering of arbitrary proposal values.

The paper's value spaces ``V_I`` and ``V_O`` are arbitrary sets.  Several
places in the library must make a *deterministic* choice among a set of
admissible values (for instance when constructing the ``Lambda`` function of
the similarity condition, or when a validity property admits every value and
an algorithm must still pick one).  Python values of mixed types are not
directly comparable, so this module provides a total order that works for
any hashable value: values are first compared by type name, then by their
natural order when available, and finally by ``repr``.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple


def canonical_key(value: Any) -> Tuple[str, str, str]:
    """Return a sort key defining a total order over arbitrary values.

    The key is deterministic across runs (it never uses ``hash`` or ``id``)
    so that experiments and the ``Lambda`` construction are reproducible.
    """
    type_name = type(value).__name__
    try:
        natural = format_sortable(value)
    except TypeError:
        natural = ""
    return (type_name, natural, repr(value))


def format_sortable(value: Any) -> str:
    """Render numeric values in a fixed-width form so string order matches numeric order."""
    if isinstance(value, bool):
        return f"bool:{int(value)}"
    if isinstance(value, int):
        return f"{value:+032d}"
    if isinstance(value, float):
        return f"{value:+040.12f}"
    if isinstance(value, str):
        return value
    raise TypeError(f"no natural ordering for {type(value).__name__}")


def canonical_sorted(values: Iterable[Any]) -> list:
    """Sort arbitrary values deterministically using :func:`canonical_key`."""
    return sorted(values, key=canonical_key)


def canonical_min(values: Iterable[Any]) -> Any:
    """Return the canonical minimum of a non-empty iterable of values."""
    ordered = canonical_sorted(values)
    if not ordered:
        raise ValueError("canonical_min of an empty collection")
    return ordered[0]


def canonical_choice(values: Iterable[Any]) -> Any:
    """Deterministically pick one value out of a non-empty collection.

    Alias of :func:`canonical_min`; exists so call sites read as "pick any
    admissible value" rather than "pick the minimum".
    """
    return canonical_min(values)
