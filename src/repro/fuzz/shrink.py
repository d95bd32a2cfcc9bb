"""Counterexample shrinking: delta-debug a violating mutation list.

A violating input found by the campaign usually carries incidental
mutations — seed shifts and parameter tweaks that rode along but do not
cause the violation.  :func:`shrink_mutations` removes one mutation at a
time, re-evaluating after each removal, until no single removal preserves
the violation: the result is a locally minimal (1-minimal) mutation list,
the standard ddmin guarantee.  Evaluation goes through a caller-supplied
``evaluate(spec, seed)`` so the campaign can memoise every probe through the
run store — a warm re-shrink executes nothing.

"Still fails" means the trial still exhibits every violation *kind* of the
original (the text before the first ``:`` — ``"agreement violated"``,
``"termination violated"`` — not the full message, which embeds decided
values and process sets that legitimately change as mutations fall away).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from ..experiments.execute import RunResult
from ..experiments.scenario import ScenarioSpec
from .mutation import Mutation, apply_mutations, spec_is_fuzzable

Evaluator = Callable[[ScenarioSpec, int], RunResult]


def violation_kinds(violations: Sequence[str]) -> Tuple[str, ...]:
    """The sorted set of violation kinds (message text before the first colon)."""
    return tuple(sorted({violation.split(":", 1)[0] for violation in violations}))


def shrink_mutations(
    base_spec: ScenarioSpec,
    base_seed: int,
    mutations: Sequence[Mutation],
    kinds: Sequence[str],
    evaluate: Evaluator,
) -> Tuple[Mutation, ...]:
    """Remove mutations one at a time while the violation kinds persist.

    Deterministic: removal is attempted left to right and restarts from the
    front after every successful removal, so the result depends only on the
    inputs and the (pure) evaluator.  Returns a list from which no single
    mutation can be dropped without losing one of the required ``kinds``.
    """
    required = set(kinds)
    current = list(mutations)
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            trial = current[:index] + current[index + 1 :]
            spec, seed = apply_mutations(base_spec, base_seed, trial)
            if not spec_is_fuzzable(spec):
                continue
            result = evaluate(spec, seed)
            if required <= set(violation_kinds(result.violations)):
                current = trial
                changed = True
                break
    return tuple(current)
