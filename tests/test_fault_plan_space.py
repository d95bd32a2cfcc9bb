"""Every small-scope fault plan: each crash and poison position × batch size.

An 8-task sweep at ``parallel=2`` is run under every single-fault plan —
a one-shot worker crash at each dispatch position and a poison task at
each position — for batch sizes 1, 3 and auto, the poison plans both with
two retries and with none: 72 sweeps.  Under every plan, every session
terminates (Fair Termination of Sessions, arXiv 2307.05539) in the form
the supervisor promises:

* every task reaches exactly one terminal outcome — a result, or, for the
  poisoned task only, quarantine;
* a crash sweep is byte-identical to the serial sweep;
* a poison sweep quarantines exactly the poisoned index, and every other
  record is byte-identical to the serial sweep;
* the runner's ``close()`` returns.
"""

import pytest

from repro.experiments.execute import POISON_ERROR_PREFIX
from repro.experiments.runner import Runner, execute_with_timeout, quarantine_run
from repro.experiments.scenario import find_scenarios
from repro.resilience import FaultPlan, RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)
NO_RETRIES = RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_max=0.0)

SLICE = [
    "binary+silent+synchronous",
    "quad+silent+synchronous",
    "binary+crash+synchronous",
    "quad+crash+synchronous",
]
ITEMS = [(spec, seed, None) for spec in find_scenarios(SLICE) for seed in (1, 2)]
POSITIONS = range(len(ITEMS))
BATCH_SIZES = [1, 3, None]


@pytest.fixture(scope="module")
def serial():
    return [result.canonical_json() for result in Runner().iter_tasks(execute_with_timeout, ITEMS)]


def sweep(plan, batch_size, policy=FAST_RETRY):
    """Run ``ITEMS`` under ``plan``; return the outcomes and the runner's stats."""
    results, poisoned = {}, []

    def on_result(index, result):
        assert index not in results, f"task {index} reached a second terminal outcome"
        results[index] = result.canonical_json()

    def on_poison(index, record):
        poisoned.append(index)
        return quarantine_run(ITEMS[index], record, store=None)

    runner = Runner(parallel=2, batch_size=batch_size, retry_policy=policy, fault_plan=plan)
    try:
        yielded = list(
            runner.iter_tasks(execute_with_timeout, ITEMS, on_result=on_result, on_poison=on_poison)
        )
    finally:
        runner.close()
    assert sorted(results) == list(POSITIONS)
    assert [result.canonical_json() for result in yielded] == [results[i] for i in POSITIONS]
    return results, poisoned, runner.supervision


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=lambda size: f"batch={size or 'auto'}")
@pytest.mark.parametrize("position", POSITIONS)
def test_a_crash_anywhere_is_invisible(position, batch_size, serial):
    results, poisoned, stats = sweep(FaultPlan(worker_crash=(position,)), batch_size)
    assert [results[index] for index in POSITIONS] == serial
    assert poisoned == []
    assert stats.crashes_detected == 1 and stats.quarantined == 0


@pytest.mark.parametrize("policy", [FAST_RETRY, NO_RETRIES], ids=["retries=2", "retries=0"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=lambda size: f"batch={size or 'auto'}")
@pytest.mark.parametrize("position", POSITIONS)
def test_poison_anywhere_quarantines_exactly_that_task(position, batch_size, policy, serial):
    # With no retries, a crash that loses the whole window must still
    # quarantine only the task that then crashes again running alone.
    results, poisoned, stats = sweep(FaultPlan(poison=(position,)), batch_size, policy)
    assert poisoned == [position]
    assert stats.quarantined == 1
    assert f'"error":"{POISON_ERROR_PREFIX}' in results[position]
    for index in POSITIONS:
        if index != position:
            assert results[index] == serial[index], f"task {index} changed under poison {position}"

