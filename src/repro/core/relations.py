"""The similarity and compatibility relations between input configurations.

Section 3.4 of the paper defines the *similarity* relation: ``c1 ~ c2`` iff
the two configurations share at least one process and agree on the proposal
of every shared process.  Section 4.1 defines the *compatibility* relation:
``c1 <> c2`` iff they share at most ``t`` processes and neither is contained
in the other.  Both relations drive the paper's core results (canonical
similarity, the triviality theorem for ``n <= 3t``, and the similarity
condition ``C_S``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from .input_config import InputConfiguration, Value
from .space import configuration_space
from .system import SystemConfig


def similar(first: InputConfiguration, second: InputConfiguration) -> bool:
    """Return ``True`` iff the two input configurations are similar (``c1 ~ c2``).

    Two configurations are similar iff (1) they have at least one process in
    common and (2) every common process has the same proposal in both.
    The relation is symmetric and reflexive but *not* transitive.
    """
    common = first.processes & second.processes
    if not common:
        return False
    return all(first[process] == second[process] for process in common)


def compatible(first: InputConfiguration, second: InputConfiguration, t: int) -> bool:
    """Return ``True`` iff the two configurations are compatible (``c1 <> c2``).

    Compatibility (Section 4.1) requires (1) at most ``t`` common processes,
    (2) a process in ``c1`` that is not in ``c2``, and (3) a process in
    ``c2`` that is not in ``c1``.  The relation is symmetric and irreflexive.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    common = first.processes & second.processes
    if len(common) > t:
        return False
    if not (first.processes - second.processes):
        return False
    if not (second.processes - first.processes):
        return False
    return True


def similar_configurations(
    config: InputConfiguration,
    system: SystemConfig,
    input_domain: Sequence[Value],
) -> Iterator[InputConfiguration]:
    """Enumerate ``sim(c)``: every input configuration similar to ``config``.

    Reads the neighbourhood off the shared
    :class:`~repro.core.space.ConfigurationSpace` of the system: the members
    of ``I`` that :func:`similar` relates to ``config``, in enumeration
    order.  Protocols never need this enumeration (they use closed-form
    ``Lambda`` functions).
    """
    yield from configuration_space(system, input_domain).similar_to(config)


def similarity_classes(
    configurations: Iterable[InputConfiguration],
) -> List[List[InputConfiguration]]:
    """Group configurations into connected components of the similarity graph.

    Similarity is not transitive, so these are components of the graph whose
    edges are similarity pairs, not equivalence classes.  Useful for
    visualising the structure that canonical similarity (Lemma 1) imposes.
    """
    nodes = list(configurations)
    parent = list(range(len(nodes)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for i, left in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            if similar(left, nodes[j]):
                union(i, j)

    groups: dict[int, List[InputConfiguration]] = {}
    for index, node in enumerate(nodes):
        groups.setdefault(find(index), []).append(node)
    return list(groups.values())


def is_similarity_witness(
    config: InputConfiguration, other: InputConfiguration, process: int
) -> bool:
    """Check that ``process`` witnesses the similarity of two configurations.

    A witness is a common process with identical proposals; the existence of
    at least one witness (plus agreement on all common processes) is exactly
    the similarity relation.  Exposed for tests and teaching examples.
    """
    return (
        process in config.processes
        and process in other.processes
        and config[process] == other[process]
        and similar(config, other)
    )
