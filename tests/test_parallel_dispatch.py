"""The parallel path keeps every worker busy, and its teardown is bounded.

Three contracts of the runner's supervised dispatch:

* **the window** — fresh batches fill ``2 × workers`` in-flight dispatches,
  so each worker has its next batch queued while it runs the current one;
  a retried task still dispatches only into an empty window and nothing
  joins it while it runs (crash attribution); only a crash that loses a
  lone single-item task quarantines it; a batch's deadline clock starts
  when the pool runs it, not while it is queued;
* **the batch plan** — auto sizing is guided self-scheduling: batches of
  ``remaining // (2 × workers)`` items, capped by ``Runner.MAX_AUTO_BATCH``,
  shrinking towards the end of the sweep; an explicit ``batch_size`` keeps
  fixed chunks;
* **teardown** — ``Runner.close()`` returns within its grace even when a
  worker died holding the pool's result-queue lock, which wedges
  ``Pool.terminate`` for good.

The window is checked against a fake pool whose results complete only
when the test says so, and the deadline against a fake clock the test
advances: no sleeps, no timing.
"""

import threading
import time

import pytest

from repro.experiments.runner import Runner
from repro.experiments.scenario import find_scenarios
from repro.resilience import FaultState, PoisonRecord, RetryPolicy, Supervisor
from repro.resilience import supervisor as supervisor_module

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)

SLICE = [
    "binary+silent+synchronous",
    "quad+silent+synchronous",
    "binary+crash+synchronous",
    "quad+crash+synchronous",
]
SEEDS = [1, 2]


def _double(value):
    return 2 * value


# ----------------------------------------------------------------------
# A pool the test drives by hand
# ----------------------------------------------------------------------
class _FakeWorker:
    def __init__(self, pid):
        self.pid = pid
        self.exitcode = None


class _FakeResult:
    def __init__(self, runner, fn, args, retry):
        self._runner = runner
        self._fn, self._args = fn, args
        self.indices = tuple(index for index, _item in args[3])
        self.retry = retry
        self.done = False

    def ready(self):
        return self.done

    def get(self):
        self._runner.in_flight.remove(self)
        return self._fn(*self._args)

    def wait(self, _timeout=None):
        # The supervisor blocks here only when nothing it holds is ready:
        # the test's step decides what happens next.
        self._runner.steps += 1
        assert self._runner.steps < 1000, "the supervisor stopped making progress"
        self._runner.step(self._runner)


class _FakePool:
    def __init__(self, runner, generation):
        self._runner = runner
        self._pool = [_FakeWorker(generation * 100 + k) for k in range(runner.parallel)]

    def apply_async(self, fn, args):
        runner = self._runner
        indices = tuple(index for index, _item in args[3])
        result = _FakeResult(runner, fn, args, retry=bool(runner.seen & set(indices)))
        runner.seen.update(indices)
        runner.dispatches.append((result, list(runner.in_flight)))
        runner.in_flight.append(result)
        runner.peak = max(runner.peak, len(runner.in_flight))
        return result


class _FakeRunner:
    """Stands in for the ``Runner`` a :class:`Supervisor` dispatches through."""

    def __init__(self, workers, step):
        self.parallel = workers
        self.step = step
        self.pool = None
        self.generation = 0
        self.in_flight = []
        self.dispatches = []  # (result, what was in flight when it was dispatched)
        self.seen = set()
        self.peak = 0
        self.steps = 0

    def _ensure_pool(self):
        if self.pool is None:
            self.generation += 1
            self.pool = _FakePool(self, self.generation)
        return self.pool

    def close(self):
        # The respawn: whatever the dead pool held is lost.
        self.pool = None
        self.in_flight.clear()

    def run(self, batches, policy=FAST_RETRY, deadline=None):
        supervisor = Supervisor(self, policy, FaultState(plan=None), deadline=deadline)
        results = sorted(supervisor.map_unordered(_double, batches))
        return results, supervisor.stats


class _Clock:
    """Stands in for the supervisor's ``time``: only the test moves it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def complete_oldest(fake):
    next(result for result in fake.in_flight if not result.done).done = True


def singles(count):
    return [[(index, index)] for index in range(count)]


class TestDispatchWindow:
    @pytest.mark.parametrize("workers,batches", [(2, 10), (2, 3), (3, 12), (4, 5)])
    def test_fresh_batches_fill_the_window(self, workers, batches):
        fake = _FakeRunner(workers, complete_oldest)
        results, stats = fake.run(singles(batches))
        assert results == [(index, 2 * index) for index in range(batches)]
        assert fake.peak == min(2 * workers, batches)
        assert stats.dispatched == batches and stats.crashes_detected == 0

    def test_a_retry_dispatches_alone_into_an_empty_window(self):
        def kill_on_second_step(fake):
            if fake.steps == 2:
                fake.pool._pool[0].exitcode = -9
            else:
                complete_oldest(fake)

        fake = _FakeRunner(2, kill_on_second_step)
        batches = [[(2 * k, 2 * k), (2 * k + 1, 2 * k + 1)] for k in range(10)]
        results, stats = fake.run(batches)
        assert results == [(index, 2 * index) for index in range(20)]
        assert stats.crashes_detected == 1
        # Four batches of two were in flight when the worker died; each
        # member is re-run as its own retry.
        retries = [result for result, _before in fake.dispatches if result.retry]
        assert stats.retries == len(retries) == 8
        assert all(len(result.indices) == 1 for result in retries)
        for result, before in fake.dispatches:
            if result.retry:
                assert before == [], f"retry {result.indices} joined {len(before)} in flight"
            assert not any(other.retry for other in before), (
                f"{result.indices} was dispatched while a retry was running"
            )
        assert fake.peak == 4
        # Once the retries are done, fresh batches fill the window again.
        last_retry = max(k for k, (result, _b) in enumerate(fake.dispatches) if result.retry)
        assert max(len(before) + 1 for _r, before in fake.dispatches[last_retry + 1 :]) == 4
        assert stats.dispatched == 20 + 8

    def test_only_a_lone_lost_task_is_quarantined(self):
        # No retries allowed.  The first death loses four single-item tasks
        # at once, so it is pinned on none of them; the second hits task 0
        # re-running alone, so task 0 is quarantined and nothing else is.
        def kill_on_first_two_steps(fake):
            if fake.steps <= 2:
                fake.pool._pool[0].exitcode = -9
            else:
                complete_oldest(fake)

        fake = _FakeRunner(2, kill_on_first_two_steps)
        no_retries = RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_max=0.0)
        results, stats = fake.run(singles(6), policy=no_retries)
        assert stats.crashes_detected == 2
        assert stats.quarantined == 1 and stats.retries == 4
        (index, record), *rest = results
        assert index == 0 and isinstance(record, PoisonRecord) and record.attempts == 2
        assert rest == [(index, 2 * index) for index in range(1, 6)]


class TestSupervisionDeadline:
    def test_a_queued_batch_waits_without_spending_its_deadline(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(supervisor_module, "time", clock)

        # One worker runs each batch for 8 s against a 10 s deadline; the
        # batch queued behind it waits 8 s first, 16 s from its dispatch.
        def run_for_eight_seconds(fake):
            clock.now += 4
            if fake.steps % 2 == 0:
                complete_oldest(fake)

        fake = _FakeRunner(1, run_for_eight_seconds)
        results, stats = fake.run(singles(6), deadline=10.0)
        assert results == [(index, 2 * index) for index in range(6)]
        assert fake.peak == 2
        assert stats.crashes_detected == 0 and stats.retries == 0

    def test_a_running_batch_past_its_deadline_is_reclaimed(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(supervisor_module, "time", clock)

        # The first batch hangs for 12 s, then every batch takes 4 s.
        def hang_then_run(fake):
            clock.now += 4
            if fake.steps > 3:
                complete_oldest(fake)

        fake = _FakeRunner(1, hang_then_run)
        results, stats = fake.run(singles(6), deadline=10.0)
        assert results == [(index, 2 * index) for index in range(6)]
        # The hung batch and the one queued behind it were both lost.
        assert stats.crashes_detected == 1 and stats.retries == 2


# ----------------------------------------------------------------------
# The batch plan
# ----------------------------------------------------------------------
GUIDED = {
    336: [16] * 18 + [12, 9, 6, 5, 4, 3, 2] + [1] * 7,
    112: [16] * 4 + [12, 9, 6, 5, 4, 3, 2] + [1] * 7,
}


class TestBatchPlan:
    @pytest.mark.parametrize("misses", sorted(GUIDED))
    def test_auto_plan_is_guided_self_scheduling(self, misses):
        runner = Runner(parallel=2)
        items = [(index, f"item-{index}") for index in range(misses)]
        plan = runner._plan_batches(items)
        sizes = [len(batch) for batch in plan]
        assert sizes == GUIDED[misses]
        assert sum(sizes) == misses
        assert [pair for batch in plan for pair in batch] == items
        assert max(sizes) <= Runner.MAX_AUTO_BATCH

    @pytest.mark.parametrize("misses", sorted(GUIDED))
    def test_explicit_batch_size_gives_fixed_chunks(self, misses):
        runner = Runner(parallel=2, batch_size=3)
        items = [(index, index) for index in range(misses)]
        plan = runner._plan_batches(items)
        assert [len(batch) for batch in plan] == [3] * (misses // 3) + (
            [misses % 3] if misses % 3 else []
        )
        assert [pair for batch in plan for pair in batch] == items


# ----------------------------------------------------------------------
# Bounded teardown
# ----------------------------------------------------------------------
class TestBoundedTeardown:
    def test_close_returns_when_a_worker_died_holding_the_result_lock(self):
        scenarios = find_scenarios(SLICE)
        serial = [result.canonical_json() for result in Runner().iter_runs(scenarios, SEEDS)]
        logs = []
        runner = Runner(parallel=2, on_log=logs.append)
        try:
            assert list(runner.iter_tasks(abs, [-1, -2])) == [1, 2]  # boots the pool
            pool = runner._pool
            workers = list(pool._pool)
            # Holding the lock stands in for a worker killed mid-result:
            # Pool.terminate can then never finish.
            lock = pool._outqueue._wlock
            lock.acquire()
            try:
                closer = threading.Thread(target=runner.close, daemon=True)
                started = time.monotonic()
                closer.start()
                closer.join(Runner.TEARDOWN_GRACE + 1.0)
                assert not closer.is_alive(), (
                    f"close() still blocked after {time.monotonic() - started:.1f}s"
                )
            finally:
                lock.release()
            assert all(worker.exitcode is not None for worker in workers)
            assert len(logs) == 1 and "teardown" in logs[0]
            assert runner._pool is None
            again = [result.canonical_json() for result in runner.iter_runs(scenarios, SEEDS)]
            assert again == serial
        finally:
            runner.close()
