"""A stateful model of :class:`~repro.store.RunStore` (ROADMAP 4(i)).

Hypothesis drives the store's public API — buffered puts on all four keyed
tables, clean and fault-injected flushes, a close that spills to the JSONL
journal, reopen with replay (optionally under a different code fingerprint,
optionally with damaged journal lines), ``vacuum_stale`` — against a
plain-dict model, and after every step checks that

* every point read (``get`` / ``get_verdict`` / ``get_corpus``) equals the
  model, whichever of cache, pending buffer or SQLite serves it;
* ``pending_count`` equals the model's unflushed set;
* nothing put is ever lost or duplicated across flush failure, spill,
  replay and reopen (row counts and bulk iteration match the model).

Public API only: the test pins behaviour, not the store's layout.  The
batch-size threshold is kept out of reach here (it has its own test in
``test_run_store.py``) so every flush in the model is an explicit one.
"""

import json
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.pipeline import classify_task, named_tasks
from repro.experiments import DEFAULT_SEED, execute_run, make_scenario
from repro.experiments.execute import TIMEOUT_ERROR_PREFIX, RunResult
from repro.resilience import FaultPlan, RetryPolicy
from repro.store import CorpusRecord, PoisonEntry, RunStore

SPECS = [
    make_scenario("binary", "silent", "synchronous"),
    make_scenario("binary", "silent", "synchronous").with_(name="renamed"),
    make_scenario("quad", "silent", "synchronous"),
]
SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)
# Two distinct records per seed, so overwriting a key is observable.
RESULTS = {
    seed: (execute_run(SPECS[0], seed), execute_run(SPECS[0].with_(max_events=5), seed))
    for seed in SEEDS
}
TASKS = named_tasks()[:3]
VERDICTS = [classify_task(task) for task in TASKS]
ENTRY_FPS = ("a" * 64, "b" * 64, "c" * 64)
CODE_FPS = ("code-a", "code-b")
ANALYSIS_FPS = ("analysis-a", "analysis-b")
MAX_ATTEMPTS = 2
# Which flush attempts of a session fail: none, one a retry absorbs, and runs
# long enough to exhaust the retry budget (so close() spills to the journal).
FLUSH_ERROR_PLANS = st.sampled_from(((), (2,), (1, 2), (1, 2, 3, 4)))
# One parseable, right-arity journal line the schema rejects (NOT NULL), one
# with the wrong arity, one that is not JSON: replay must skip exactly these.
DAMAGED_LINES = (
    json.dumps({"table": "runs", "row": [None] * 11}),
    json.dumps({"table": "runs", "row": [1, 2, 3]}),
    "{not json",
)


def corpus_record(entry_fp, score):
    return CorpusRecord(
        entry_fp=entry_fp,
        scenario="fuzz:binary+none+partition+n4t1",
        seed=DEFAULT_SEED,
        novel=True,
        violation=False,
        score=score,
        entry={"mutations": [["param", "gst", 5.0]], "coverage": ["site:a"]},
    )


class RunStoreModel(RuleBasedStateMachine):
    """Model state: ``disk``/``pending``/``journal`` hold ``(table, key) -> value``.

    Every key carries the code fingerprint it was written under (the
    analysis fingerprint for verdicts), exactly as the tables do, so stale
    rows, ``any_code`` counts and ``vacuum_stale`` are modelled for free.
    """

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="run-store-model-")
        self.path = f"{self.directory}/runs.db"
        self.disk = {}
        self.pending = {}
        self.journal = []  # spilled (key, value) lines, in file order
        self.store = None

    @initialize(flush_errors=FLUSH_ERROR_PLANS)
    def first_open(self, flush_errors):
        self.open_store(CODE_FPS[0], ANALYSIS_FPS[0], flush_errors)

    def teardown(self):
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers ---------------------------------------------------------
    def open_store(self, code_fp, analysis_fp, flush_errors):
        self.code_fp, self.analysis_fp = code_fp, analysis_fp
        self.flush_errors = set(flush_errors)
        self.flush_attempts = 0
        self.store = RunStore(
            self.path,
            code_fp=code_fp,
            analysis_code_fp=analysis_fp,
            batch_size=10_000,
            cache_size=2,
            retry_policy=RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_base=0.0),
            fault_plan=FaultPlan(flush_errors=tuple(flush_errors)),
        )

    def model_flush(self):
        """One flush attempt in the model; returns whether it committed."""
        if not self.pending:
            return True
        self.flush_attempts += 1
        if self.flush_attempts in self.flush_errors:
            return False
        self.disk.update(self.pending)
        self.pending.clear()
        return True

    def flush_store(self):
        """``store.flush()`` against the model; returns whether it committed."""
        if self.model_flush():
            self.store.flush()
            return True
        with pytest.raises(OSError, match="injected flush failure"):
            self.store.flush()
        return False

    def lookup(self, table, key):
        return self.pending.get((table, key), self.disk.get((table, key)))

    def fingerprint_of(self, table):
        return self.analysis_fp if table == "verdicts" else self.code_fp

    def rows(self, table, current_only=True):
        return {
            key: value
            for (name, key), value in self.disk.items()
            if name == table and (not current_only or key[-1] == self.fingerprint_of(table))
        }

    is_open = precondition(lambda self: self.store is not None)
    is_closed = precondition(lambda self: self.store is None)

    # -- puts ------------------------------------------------------------
    @is_open
    @rule(spec=st.sampled_from(SPECS), seed=st.sampled_from(SEEDS), variant=st.sampled_from((0, 1)))
    def put_run(self, spec, seed, variant):
        result = RESULTS[seed][variant]
        assert self.store.put(spec, result)
        self.pending[("runs", (spec.name, seed, self.code_fp))] = result

    @is_open
    @rule(spec=st.sampled_from(SPECS), seed=st.sampled_from(SEEDS))
    def put_timeout_is_skipped(self, spec, seed):
        timed_out = RunResult.no_verdict(spec.name, seed, f"{TIMEOUT_ERROR_PREFIX} test")
        assert not self.store.put(spec, timed_out)

    @is_open
    @rule(index=st.sampled_from(range(len(TASKS))), other=st.booleans())
    def put_verdict(self, index, other):
        # ``other`` stores a different task's verdict under this task's key:
        # the store treats the record as opaque, and the overwrite is visible.
        verdict = VERDICTS[(index + 1) % len(TASKS)] if other else VERDICTS[index]
        self.store.put_verdict(TASKS[index], verdict)
        self.pending[("verdicts", (index, self.analysis_fp))] = verdict

    @is_open
    @rule(entry_fp=st.sampled_from(ENTRY_FPS), score=st.integers(0, 3))
    def put_corpus(self, entry_fp, score):
        record = corpus_record(entry_fp, score)
        self.store.put_corpus(record)
        self.pending[("corpus", (entry_fp, self.code_fp))] = record

    @is_open
    @rule(spec=st.sampled_from(SPECS), seed=st.sampled_from(SEEDS), attempts=st.integers(1, 4))
    def put_poison(self, spec, seed, attempts):
        self.store.put_poison(spec, seed, attempts=attempts, reason=f"died {attempts}x")
        self.pending[("poison", (spec.name, seed, self.code_fp))] = PoisonEntry(
            scenario=spec.name, seed=seed, attempts=attempts, reason=f"died {attempts}x"
        )

    # -- flushes ---------------------------------------------------------
    @is_open
    @rule()
    def flush(self):
        self.flush_store()

    @is_open
    @rule()
    def flush_retrying(self):
        committed = any(self.model_flush() for _ in range(MAX_ATTEMPTS))
        assert self.store.flush_retrying(raise_on_failure=False) == committed

    # -- bulk reads (each flushes first, so flush explicitly and model it) --
    @is_open
    @rule()
    def bulk_reads_match(self):
        if not self.flush_store():
            return
        store = self.store
        assert store.count() == len(self.rows("runs"))
        assert store.count(any_code=True) == len(self.rows("runs", current_only=False))
        assert store.count_verdicts() == len(self.rows("verdicts"))
        assert store.count_verdicts(any_code=True) == len(self.rows("verdicts", current_only=False))
        assert store.count_corpus() == len(self.rows("corpus"))
        current = self.rows("runs")
        assert list(store.iter_records()) == [current[key] for key in sorted(current)]
        corpus = self.rows("corpus")
        assert list(store.iter_corpus()) == [corpus[key] for key in sorted(corpus)]
        poison = self.rows("poison")
        assert list(store.iter_poison()) == [poison[key] for key in sorted(poison)]
        # any_code: one record per (scenario, seed), the current-code one
        # preferred, else the first code fingerprint in lexicographic order.
        merged = {}
        for (name, seed, code_fp), result in sorted(self.rows("runs", current_only=False).items()):
            if (name, seed) not in merged or code_fp == self.code_fp:
                merged[(name, seed)] = result
        assert list(store.iter_records(any_code=True)) == [merged[key] for key in sorted(merged)]

    @is_open
    @rule()
    def vacuum_stale(self):
        if not self.flush_store():
            return
        stale = [
            (table, key) for (table, key) in self.disk if key[-1] != self.fingerprint_of(table)
        ]
        assert self.store.vacuum_stale() == len(stale)
        for entry in stale:
            del self.disk[entry]

    # -- close / journal / reopen ------------------------------------------
    @is_open
    @rule()
    def close(self):
        if not any(self.model_flush() for _ in range(MAX_ATTEMPTS)):
            self.journal.extend(self.pending.items())  # disk-full: spill
            self.pending.clear()
        self.store.close()
        assert self.store.pending_count == 0
        assert self.store.journal_path.exists() == bool(self.journal)
        self.store = None

    @is_closed
    @rule(
        code_fp=st.sampled_from(CODE_FPS),
        analysis_fp=st.sampled_from(ANALYSIS_FPS),
        flush_errors=FLUSH_ERROR_PLANS,
        damage=st.sampled_from((None,) + DAMAGED_LINES),
    )
    def reopen(self, code_fp, analysis_fp, flush_errors, damage):
        if damage is not None:
            with open(self.path + ".journal.jsonl", "a", encoding="utf-8") as handle:
                handle.write(damage + "\n")
        self.open_store(code_fp, analysis_fp, flush_errors)
        # Replay: every spilled row lands exactly once, damaged lines are
        # skipped without taking their neighbours with them.
        assert self.store.journal_replayed == len(self.journal)
        assert not self.store.journal_path.exists()
        self.disk.update(self.journal)
        self.journal = []
        assert self.store.recovery is None

    # -- checked after every step --------------------------------------------
    @invariant()
    def reads_equal_the_model(self):
        store = self.store
        if store is None:
            return
        assert store.pending_count == len(self.pending)
        for spec in SPECS:
            for seed in SEEDS:
                expected = self.lookup("runs", (spec.name, seed, self.code_fp))
                assert store.get(spec, seed) == expected
        for index, task in enumerate(TASKS):
            assert store.get_verdict(task) == self.lookup("verdicts", (index, self.analysis_fp))
        for entry_fp in ENTRY_FPS:
            assert store.get_corpus(entry_fp) == self.lookup("corpus", (entry_fp, self.code_fp))


RunStoreModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestRunStoreModel = RunStoreModel.TestCase
