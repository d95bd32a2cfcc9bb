"""Runnable documentation: every documented theory module carries doctests.

This is the only place the examples run, with ``python -m doctest``
semantics; it enforces the documentation contract — each module must state
its theorem *and* show at least three runnable examples.
"""

import doctest

import pytest

import repro.analysis.classification
import repro.analysis.complexity
import repro.analysis.lower_bound
import repro.analysis.partitioning
import repro.analysis.pipeline
import repro.core.similarity_condition
import repro.core.solvability
import repro.core.space
import repro.core.triviality

DOCUMENTED_MODULES = [
    repro.analysis.classification,
    repro.analysis.complexity,
    repro.analysis.lower_bound,
    repro.analysis.partitioning,
    repro.analysis.pipeline,
    repro.core.similarity_condition,
    repro.core.solvability,
    repro.core.space,
    repro.core.triviality,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=[module.__name__ for module in DOCUMENTED_MODULES]
)
def test_module_doctests_pass_and_are_substantial(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__} has failing doctests"
    assert results.attempted >= 3, (
        f"{module.__name__} documents only {results.attempted} runnable examples; "
        "the documentation contract requires at least 3"
    )


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=[module.__name__ for module in DOCUMENTED_MODULES]
)
def test_module_docstring_names_its_paper_anchor(module):
    # Every documented module must tie itself back to the paper: a theorem,
    # definition, figure or section reference in the module docstring.
    docstring = module.__doc__ or ""
    anchors = ("Theorem", "Definition", "Figure", "Section", "Lemma")
    assert any(anchor in docstring for anchor in anchors), (
        f"{module.__name__} does not cite the paper result it implements"
    )
