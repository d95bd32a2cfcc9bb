"""Persistent run store: fingerprints, SQLite cache, incremental sweeps.

The store's contract is the repo-wide determinism guarantee turned into
persistence: a ``RunResult`` is a pure function of
``(scenario fingerprint, seed, code fingerprint)``, so a stored record can
stand in for the execution byte-for-byte.  These tests pin that down —
cache hits are byte-identical to cold runs, interrupted sweeps resume from
the store, semantics changes invalidate via the code fingerprint — plus the
runner lifecycle fixes that ride along (idempotent ``close``, pool release
on abandoned generators).
"""

import ast
import collections
import contextlib
import dataclasses
import hashlib
import inspect
import json
import shutil
import sqlite3
import time
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    DEFAULT_SEED,
    Runner,
    RunResult,
    aggregate,
    default_matrix,
    execute_run,
    make_scenario,
    summaries_to_json,
    sweep_seeds,
)
from repro.experiments.execute import TIMEOUT_ERROR_PREFIX
from repro.experiments.runner import execute_with_timeout
from repro.experiments.scenario import PROTOCOLS
from repro.jobs.spec import specs_to_payloads
from repro.store import (
    CorpusRecord,
    RunStore,
    StoreFormatError,
    code_fingerprint,
    scenario_fingerprint,
    spec_payload,
)
from repro.store.fingerprint import (
    _REPRO_ROOT,
    _builder_source,
    _module_tree_digest,
    _semantic_paths,
    canonical_form,
)

SWEEP = [
    make_scenario("binary", "silent", "synchronous"),
    make_scenario("binary", "crash", "eventual"),
    make_scenario("quad", "silent", "synchronous"),
    make_scenario("universal-authenticated", "silent", "synchronous"),
]
SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)


@dataclasses.dataclass(frozen=True)
class _Knob:
    """A dataclass-valued param: ``dataclasses.asdict`` turns it into a dict."""

    label: str
    setting: Any


_PARAM_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), children, max_size=3),
        st.builds(_Knob, st.text(max_size=3), children),
    ),
    max_leaves=12,
)


def _delete_all_rows(path, table):
    """Delete a table's rows through a second connection (not the store's)."""
    with contextlib.closing(sqlite3.connect(str(path))) as conn:
        conn.execute(f"DELETE FROM {table}")
        conn.commit()


def canonical_trace(results):
    return "\n".join(result.canonical_json() for result in results)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_scenario_fingerprint_is_stable(self):
        spec = SWEEP[0]
        assert scenario_fingerprint(spec) == scenario_fingerprint(spec)
        rebuilt = make_scenario("binary", "silent", "synchronous")
        assert scenario_fingerprint(rebuilt) == scenario_fingerprint(spec)

    def test_every_field_steers_the_fingerprint(self):
        spec = SWEEP[0]
        base = scenario_fingerprint(spec)
        for changed in (
            spec.with_(n=7, t=2),
            spec.with_(name="renamed"),
            spec.with_(property_key="weak"),
            spec.with_(params=(("delta", 2.0),)),
            spec.with_(time_limit=5_000.0),
            spec.with_(max_events=1_000),
        ):
            assert scenario_fingerprint(changed) != base, changed

    def test_matrix_fingerprints_are_unique(self):
        from repro.experiments import default_matrix

        matrix = default_matrix()
        fingerprints = {scenario_fingerprint(spec) for spec in matrix}
        assert len(fingerprints) == len(matrix)

    def test_spec_payload_is_json_serialisable(self):
        spec = SWEEP[0].with_(params=(("proposals", ((0, 1), (1, 0), (2, 1), (3, 0))),))
        payload = spec_payload(spec)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_code_fingerprint_tracks_registry_changes(self, monkeypatch):
        base = code_fingerprint()
        assert base == code_fingerprint(), "must be stable within one process"

        def _different_builder(spec, system, seed):  # pragma: no cover - never run
            raise NotImplementedError

        monkeypatch.setitem(PROTOCOLS, "binary", _different_builder)
        assert code_fingerprint() != base
        monkeypatch.undo()
        assert code_fingerprint() == base

    def test_a_builder_outside_the_hashed_files_is_hashed_by_its_source(self):
        def _local_builder(spec, system, seed):  # pragma: no cover - never run
            raise NotImplementedError

        assert _builder_source(_local_builder) == inspect.getsource(_local_builder)

    def test_a_registered_builder_is_hashed_by_its_location(self):
        # Its file is in the tree digest, so the location stands in for the source.
        builder = PROTOCOLS["binary"]
        named = _builder_source(builder)
        assert "experiments/scenario.py" in named and builder.__qualname__ in named
        assert inspect.getsource(builder) not in named

    def test_registering_a_builder_under_another_key_moves_the_fingerprint(self, monkeypatch):
        base = code_fingerprint()
        monkeypatch.setitem(PROTOCOLS, "binary", PROTOCOLS["quad"])
        assert code_fingerprint() != base

    def test_default_matrix_fingerprints_are_pinned(self):
        # Every key a user's store already holds for the paper's matrix.
        joined = "".join(scenario_fingerprint(spec) for spec in default_matrix())
        assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == (
            "b1e309114d73ebbd155959e183026893601ccdd67a4f897cfa3b23879d640ad2"
        )
        # And every payload string a SweepJob carries for it.
        payloads = "\n".join(specs_to_payloads(default_matrix()))
        assert hashlib.sha256(payloads.encode("utf-8")).hexdigest() == (
            "ab9a589eb76e874e56131fd9d88d663b79c6c6bab79b70166f4798d3f29c003b"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        params=st.lists(st.tuples(st.text(max_size=4), _PARAM_VALUES), max_size=4).map(tuple),
        time_limit=st.one_of(st.integers(1, 10**6), st.floats(1.0, 1e6)),
    )
    def test_spec_payload_matches_the_asdict_reference(self, params, time_limit):
        # The definition: canonical_form over dataclasses.asdict, which also
        # turns a dataclass nested in a param into a dict.  Compared as the
        # hashed JSON text too, since == alone says 1 == True == 1.0.
        spec = SWEEP[0].with_(params=params, time_limit=time_limit)
        reference = canonical_form(dataclasses.asdict(spec))
        payload = spec_payload(spec)
        assert payload == reference
        assert json.dumps(payload, sort_keys=True) == json.dumps(reference, sort_keys=True)
        # Already canonical: a second canonical_form pass changes nothing, so
        # specs_to_payloads encodes spec_payload directly.
        again = canonical_form(payload)
        assert again == payload
        assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True)

    def test_hashed_files_are_closed_under_repro_imports(self):
        # "code" in the content key must be everything that can change a
        # result: if a hashed file imported an unhashed ``repro`` module, an
        # edit there could change stored results without moving the key.
        hashed = set(_semantic_paths(_REPRO_ROOT))
        assert {_REPRO_ROOT / "experiments" / name for name in ("scenario.py", "execute.py")} < hashed
        escapes = []
        for path in sorted(hashed):
            package = path.relative_to(_REPRO_ROOT).parts[:-1]
            for node in ast.walk(ast.parse(path.read_text())):
                for target in _repro_import_targets(node, package):
                    if _module_file(target) not in hashed:
                        escapes.append(f"{path.relative_to(_REPRO_ROOT)} imports repro.{'.'.join(target)}")
        assert escapes == []

    def test_run_semantics_know_nothing_of_the_engines_alarm_or_pool(self):
        tree = ast.parse((_REPRO_ROOT / "experiments" / "execute.py").read_text())
        absolute = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                absolute.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                absolute.add(node.module.split(".")[0])
        assert not absolute & {"multiprocessing", "signal"}

    def test_engine_edits_leave_the_tree_digest_alone(self, tmp_path):
        # The user-visible promise of the runner/execute split: editing the
        # engine never cold-starts a store; editing run semantics always does.
        root = tmp_path / "repro"
        shutil.copytree(_REPRO_ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
        digest = _module_tree_digest.__wrapped__  # the uncached function
        assert digest(root) == _module_tree_digest()
        for engine_file in ("experiments/runner.py", "resilience/supervisor.py"):
            with open(root / engine_file, "a") as handle:
                handle.write("# an engine edit\n")
            assert digest(root) == _module_tree_digest(), engine_file
        with open(root / "experiments/execute.py", "a") as handle:
            handle.write("# a semantics edit\n")
        assert digest(root) != _module_tree_digest()


def _module_file(dotted):
    """The file a ``repro``-relative dotted module path names, or ``None``."""
    base = _REPRO_ROOT.joinpath(*dotted)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _repro_import_targets(node, package):
    """``repro``-relative module paths an import statement in ``package`` names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [name[1:] for name in names if name[0] == "repro"]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module.split(".") if node.module else []
    if node.level:
        module = list(package[: len(package) - node.level + 1]) + module
    elif module[:1] == ["repro"]:
        module = module[1:]
    else:
        return []
    # ``from pkg import name`` may name a submodule or an attribute of pkg.
    return [
        module + [alias.name] if _module_file(module + [alias.name]) else module
        for alias in node.names
    ]


def test_kernels_never_import_the_session_layer_above_them():
    # repro.jobs owns pools and store connections and calls *down* into the
    # kernels; a kernel importing it back (the old nested-session fallback in
    # run_analysis/run_fuzz) is a cycle that hides who closes what.
    experiments = _REPRO_ROOT / "experiments"
    kernels = [
        *(_REPRO_ROOT / "analysis").rglob("*.py"),
        *(_REPRO_ROOT / "fuzz").rglob("*.py"),
        *(experiments / name for name in ("execute.py", "runner.py", "scenario.py", "aggregate.py")),
    ]
    # The store sits below the session as well.
    kernels += (_REPRO_ROOT / "store").rglob("*.py")
    checks = [(path, ["jobs"]) for path in kernels]
    upward = [
        str(path.relative_to(_REPRO_ROOT))
        for path, forbidden in checks
        for node in ast.walk(ast.parse(path.read_text()))
        for target in _repro_import_targets(node, path.relative_to(_REPRO_ROOT).parts[:-1])
        if target[: len(forbidden)] == forbidden
    ]
    assert upward == []


class TestRunResultRoundtrip:
    def test_from_dict_inverts_canonical_json(self):
        for spec in SWEEP:
            result = execute_run(spec, DEFAULT_SEED)
            rebuilt = RunResult.from_dict(json.loads(result.canonical_json()))
            assert rebuilt == result
            assert rebuilt.canonical_json() == result.canonical_json()

    def test_error_record_roundtrip(self):
        starved = SWEEP[0].with_(name="starved", max_events=5)
        result = execute_run(starved, DEFAULT_SEED)
        assert result.error is not None
        rebuilt = RunResult.from_dict(json.loads(result.canonical_json()))
        assert rebuilt == result


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
class TestRunStore:
    def test_put_get_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "runs.db"
        spec = SWEEP[0]
        result = execute_run(spec, DEFAULT_SEED)
        with RunStore(path) as store:
            assert store.get(spec, DEFAULT_SEED) is None
            assert store.put(spec, result)
            assert store.get(spec, DEFAULT_SEED) == result
        with RunStore(path) as store:  # survives reopen (flushed on close)
            assert store.get(spec, DEFAULT_SEED) == result
            assert store.count() == 1

    def test_batched_writes_flush_at_threshold(self, tmp_path):
        path = tmp_path / "runs.db"
        spec = SWEEP[0]
        with RunStore(path, batch_size=2) as store:
            store.put(spec, execute_run(spec, DEFAULT_SEED))
            assert store.pending_count == 1  # buffered, not yet written
            store.put(spec.with_(name="other"), execute_run(spec, DEFAULT_SEED + 1))
            assert store.pending_count == 0  # threshold reached -> one transaction
            assert store.count() == 2

    def test_flush_threshold_counts_every_table(self, tmp_path):
        # One rule for every put_*: flush once the buffered records of all
        # tables together reach batch_size, whichever table the put was for.
        spec = SWEEP[0]
        result = execute_run(spec, DEFAULT_SEED)
        corpus = CorpusRecord("a" * 64, "fuzz:x", DEFAULT_SEED, True, False, 1, {})
        puts = {
            "run": lambda store: store.put(spec, result),
            "corpus": lambda store: store.put_corpus(corpus),
            "poison": lambda store: store.put_poison(spec, DEFAULT_SEED, attempts=3, reason="x"),
        }
        for first in puts:
            for second in puts:
                if first == second:
                    continue
                db = tmp_path / f"{first}-{second}.db"
                with RunStore(db, batch_size=2) as store:
                    puts[first](store)
                    assert store.pending_count == 1, (first, second)
                    puts[second](store)
                    assert store.pending_count == 0, (first, second)

    def test_pending_records_visible_before_flush(self, tmp_path):
        spec = SWEEP[0]
        result = execute_run(spec, DEFAULT_SEED)
        with RunStore(tmp_path / "runs.db", batch_size=1000) as store:
            store.put(spec, result)
            assert store.get(spec, DEFAULT_SEED) == result

    def test_lru_eviction_still_serves_from_disk(self, tmp_path):
        specs = [SWEEP[0].with_(name=f"s{i}") for i in range(4)]
        with RunStore(tmp_path / "runs.db", cache_size=2) as store:
            for spec in specs:
                store.put(spec, execute_run(SWEEP[0], DEFAULT_SEED))
            store.flush()
            for spec in specs:  # evicted entries fall back to SQLite
                assert store.get(spec, DEFAULT_SEED) is not None
            # Empty the table behind the store's back: whatever it still
            # answers comes from its cache, which holds the cache_size most
            # recently read records and no more.
            _delete_all_rows(store.path, "runs")
            served = [spec for spec in specs if store.get(spec, DEFAULT_SEED) is not None]
            assert served == specs[-2:]

    def test_cache_size_bounds_every_read_cache(self, tmp_path):
        records = [CorpusRecord(c * 64, "fuzz:x", DEFAULT_SEED, True, False, 1, {}) for c in "abc"]
        with RunStore(tmp_path / "runs.db", cache_size=1) as store:
            for record in records:
                store.put_corpus(record)
            store.flush()
            for record in records:
                assert store.get_corpus(record.entry_fp) == record
            _delete_all_rows(store.path, "corpus")
            served = [r for r in records if store.get_corpus(r.entry_fp) is not None]
            assert served == records[-1:]

    def test_timeout_records_are_never_persisted(self, tmp_path):
        spec = SWEEP[0]
        timed_out = RunResult.no_verdict(
            spec.name, DEFAULT_SEED, f"{TIMEOUT_ERROR_PREFIX} run exceeded 0.1s wall clock"
        )
        with RunStore(tmp_path / "runs.db") as store:
            assert not store.put(spec, timed_out)
            assert store.count() == 0
            assert store.get(spec, DEFAULT_SEED) is None

    def test_deterministic_failures_are_persisted(self, tmp_path):
        starved = SWEEP[0].with_(name="starved", max_events=5)
        result = execute_run(starved, DEFAULT_SEED)
        assert result.error is not None
        with RunStore(tmp_path / "runs.db") as store:
            assert store.put(starved, result)
            assert store.get(starved, DEFAULT_SEED) == result

    @pytest.mark.parametrize(
        "changes",
        [
            ({"time_limit": 10000}, {"time_limit": 10000.0}),
            ({"params": (("knob", 1),)}, {"params": (("knob", True),)}),
        ],
        ids=["int-vs-float-horizon", "int-vs-bool-param"],
    )
    def test_equal_specs_with_different_payloads_keep_their_own_rows(self, tmp_path, changes):
        # ScenarioSpec equality says 10000 == 10000.0 and 1 == True, but the
        # canonical payloads (and so the content keys) differ: the store's
        # memo must not hand one spec the other's key.
        base = make_scenario("binary", "silent", "synchronous")
        a, b = (base.with_(**change) for change in changes)
        assert a == b and scenario_fingerprint(a) != scenario_fingerprint(b)
        with RunStore(tmp_path / "runs.db") as store, Runner() as runner:
            assert store.fingerprint(a) == scenario_fingerprint(a)
            assert store.fingerprint(b) == scenario_fingerprint(b)
            runner.run([a, b], (DEFAULT_SEED,), store=store)
        with RunStore(tmp_path / "runs.db") as store:
            assert store.count() == 2

    def test_code_fingerprint_partitions_the_store(self, tmp_path):
        path = tmp_path / "runs.db"
        spec = SWEEP[0]
        result = execute_run(spec, DEFAULT_SEED)
        with RunStore(path, code_fp="old-code") as store:
            store.put(spec, result)
        with RunStore(path, code_fp="new-code") as store:
            assert store.get(spec, DEFAULT_SEED) is None  # stale entry invisible
            assert store.count() == 0
            assert store.count(any_code=True) == 1
            store.put(spec, result)
            assert [count for _, count in store.code_fingerprints()] == [1, 1]
            assert store.vacuum_stale() == 1
            assert store.count(any_code=True) == 1

    def test_any_code_prefers_current_and_never_double_counts(self, tmp_path):
        from repro.store import summarize_store

        path = tmp_path / "runs.db"
        healthy = SWEEP[0]
        starved_result = execute_run(healthy.with_(max_events=5), DEFAULT_SEED)
        healthy_result = execute_run(healthy, DEFAULT_SEED)
        with RunStore(path, code_fp="old-code") as store:
            store.put(healthy, starved_result)  # what "the old code" computed
        with RunStore(path) as store:
            store.put(healthy, healthy_result)
            assert store.count(any_code=True) == 2  # raw rows: both versions kept
            merged = list(store.iter_records(any_code=True))
            # ...but a (scenario, seed) pair aggregates exactly once, and the
            # current-code record wins over the stale one.
            assert merged == [healthy_result]
            summary = summarize_store(store, any_code=True)[healthy.name]
            assert summary.runs == 1 and summary.errors == 0
        # Without a current-code record the stale one is still readable.
        with RunStore(path, code_fp="new-code") as store:
            stale = list(store.iter_records(any_code=True))
            assert len(stale) == 1

    def test_any_code_dedups_same_named_scenarios_across_spec_versions(self, tmp_path):
        # The same scenario *name* can exist under different scenario
        # fingerprints (a param evolved between sweeps); any_code must still
        # aggregate one record per (name, seed), preferring current code.
        from repro.store import summarize_store

        path = tmp_path / "runs.db"
        spec_v1 = SWEEP[0].with_(time_limit=9_000.0)  # different scenario_fp, same name
        spec_v2 = SWEEP[0]
        assert scenario_fingerprint(spec_v1) != scenario_fingerprint(spec_v2)
        with RunStore(path, code_fp="old-code") as store:
            store.put(spec_v1, execute_run(spec_v1, DEFAULT_SEED))
        with RunStore(path) as store:
            current = execute_run(spec_v2, DEFAULT_SEED)
            store.put(spec_v2, current)
            assert store.count(any_code=True) == 2
            assert list(store.iter_records(any_code=True)) == [current]
            assert summarize_store(store, any_code=True)[spec_v2.name].runs == 1

    def test_iter_records_filters_and_order(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            with Runner() as runner:
                runner.run(SWEEP, SEEDS, store=store)
            everything = list(store.iter_records())
            assert len(everything) == len(SWEEP) * len(SEEDS)
            keys = [(record.scenario, record.seed) for record in everything]
            assert keys == sorted(keys)
            binary_only = list(store.iter_records(protocols=["binary"]))
            assert {record.scenario for record in binary_only} == {
                spec.name for spec in SWEEP if spec.protocol == "binary"
            }
            named = list(store.iter_records(scenarios=[SWEEP[0].name]))
            assert len(named) == len(SEEDS)

    def test_rejects_non_store_files(self, tmp_path):
        bogus = tmp_path / "not_a_store.db"
        bogus.write_text("definitely not sqlite\n" * 10)
        with pytest.raises(StoreFormatError):
            RunStore(bogus)

    def test_closed_store_raises_cleanly(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(RuntimeError):
            store.get(SWEEP[0], DEFAULT_SEED)


# ----------------------------------------------------------------------
# Incremental sweeps through the runner
# ----------------------------------------------------------------------
class TestIncrementalSweeps:
    def test_warm_sweep_executes_zero_runs_and_is_byte_identical(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.db"
        with RunStore(path) as store, Runner() as runner:
            cold = runner.run(SWEEP, SEEDS, store=store)
            assert store.stats.misses == len(cold) and store.stats.hits == 0

        # Any execution attempt during the warm sweep is a test failure.
        def _forbidden(item):  # pragma: no cover - would mean a cache miss
            raise AssertionError(f"warm sweep executed {item}")

        monkeypatch.setattr("repro.experiments.runner.execute_with_timeout", _forbidden)
        with RunStore(path) as store, Runner() as runner:
            warm = runner.run(SWEEP, SEEDS, store=store)
            assert store.stats.hits == len(warm) and store.stats.misses == 0
        assert canonical_trace(warm) == canonical_trace(cold)
        assert summaries_to_json(aggregate(warm)) == summaries_to_json(aggregate(cold))

    def test_warm_resweep_pays_only_for_its_reads(self, tmp_path, monkeypatch):
        # Counted per warm pass: no builder source re-read at open, no spec
        # deep-copied to fingerprint it, one fingerprint per spec object.
        matrix = default_matrix()
        path = tmp_path / "runs.db"
        with RunStore(path) as store, Runner() as runner:
            runner.run(matrix, SEEDS, store=store)

        calls = collections.Counter()
        fingerprinted = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(inspect, "getsource", counted("getsource", inspect.getsource))
        monkeypatch.setattr(dataclasses, "asdict", counted("asdict", dataclasses.asdict))
        monkeypatch.setattr(
            "repro.store.store.scenario_fingerprint",
            lambda spec: fingerprinted.append(spec) or scenario_fingerprint(spec),
        )
        with RunStore(path) as store, Runner() as runner:
            warm = runner.run(matrix, SEEDS, store=store)
            assert store.stats.hits == len(warm) == len(matrix) * len(SEEDS)
        assert calls == {}
        assert sorted(map(id, fingerprinted)) == sorted(map(id, matrix))

    def test_interrupted_sweep_resumes_from_the_store(self, tmp_path):
        path = tmp_path / "runs.db"
        total = len(SWEEP) * len(SEEDS)
        consumed = 3
        with RunStore(path) as store:
            runner = Runner()
            iterator = runner.iter_runs(SWEEP, SEEDS, store=store)
            partial = [next(iterator) for _ in range(consumed)]
            iterator.close()  # the "kill": abandon the sweep mid-matrix
        with RunStore(path) as store:
            assert store.count() == consumed
            with Runner() as runner:
                resumed = runner.run(SWEEP, SEEDS, store=store)
            assert store.stats.hits == consumed
            assert store.stats.misses == total - consumed
        assert canonical_trace(resumed[:consumed]) == canonical_trace(partial)
        assert canonical_trace(resumed) == canonical_trace(Runner().run(SWEEP, SEEDS))

    def test_rerun_recomputes_despite_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.db"
        with RunStore(path) as store, Runner() as runner:
            cold = runner.run(SWEEP[:1], SEEDS, store=store)
        executions = []
        from repro.experiments import runner as runner_module

        original = runner_module.execute_with_timeout

        def _counting(item):
            executions.append(item)
            return original(item)

        monkeypatch.setattr(runner_module, "execute_with_timeout", _counting)
        with RunStore(path) as store, Runner() as runner:
            rerun = runner.run(SWEEP[:1], SEEDS, store=store, rerun=True)
            assert store.stats.hits == 0 and store.stats.stored == len(rerun)
        assert len(executions) == len(SEEDS)
        assert canonical_trace(rerun) == canonical_trace(cold)

    def test_parallel_mixed_hit_miss_sweep_keeps_order(self, tmp_path):
        path = tmp_path / "runs.db"
        half = SWEEP[::2]
        with RunStore(path) as store, Runner() as runner:
            runner.run(half, SEEDS, store=store)
        with RunStore(path) as store, Runner(parallel=2) as runner:
            mixed = runner.run(SWEEP, SEEDS, store=store)
            assert store.stats.hits == len(half) * len(SEEDS)
            assert store.stats.misses == (len(SWEEP) - len(half)) * len(SEEDS)
        expected = [(spec.name, seed) for spec in SWEEP for seed in SEEDS]
        assert [(result.scenario, result.seed) for result in mixed] == expected
        assert canonical_trace(mixed) == canonical_trace(Runner().run(SWEEP, SEEDS))

    def test_hits_before_the_first_miss_stream_immediately(self, tmp_path, monkeypatch):
        # With items [hit, hit, miss, miss] the two hits must be yielded as
        # soon as the parallel sweep starts, not buffered until the first
        # pool result lands; the misses are artificially slowed to prove it.
        from repro.experiments import runner as runner_module

        path = tmp_path / "runs.db"
        with RunStore(path) as store, Runner() as runner:
            runner.run(SWEEP[:2], (DEFAULT_SEED,), store=store)
        monkeypatch.setattr(runner_module, "execute_with_timeout", _slow_execute)
        with RunStore(path) as store:
            runner = Runner(parallel=2)
            iterator = runner.iter_runs(SWEEP, (DEFAULT_SEED,), store=store)
            started = time.perf_counter()
            first = next(iterator)
            second = next(iterator)
            elapsed = time.perf_counter() - started
            assert {first.scenario, second.scenario} == {spec.name for spec in SWEEP[:2]}
            assert elapsed < 1.0, "cache hits waited on the slowed misses"
            iterator.close()  # abandon the slow misses; pool is terminated

    def test_trailing_cache_hits_are_yielded(self, tmp_path):
        # Hits *after* the last miss exercise the drain loop behind the pool.
        path = tmp_path / "runs.db"
        tail = SWEEP[2:]
        with RunStore(path) as store, Runner() as runner:
            runner.run(tail, SEEDS, store=store)
        with RunStore(path) as store, Runner(parallel=2) as runner:
            results = runner.run(SWEEP, SEEDS, store=store)
        assert [(r.scenario, r.seed) for r in results] == [
            (spec.name, seed) for spec in SWEEP for seed in SEEDS
        ]


def _slow_execute(item):
    """Worker stand-in (module-level so the pool can pickle it): a real run,
    delayed enough that a buffered cache hit would be caught waiting on it.
    Calls the entry this module imported *before* the monkeypatch — a forked
    worker sees the patched ``runner_module`` attribute, i.e. this function."""
    time.sleep(2.0)
    return execute_with_timeout(item)


# ----------------------------------------------------------------------
# Runner lifecycle (satellite fixes)
# ----------------------------------------------------------------------
class TestRunnerLifecycle:
    def test_close_is_idempotent_without_a_pool(self):
        runner = Runner(parallel=4)
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_close_is_idempotent_after_a_sweep(self):
        runner = Runner(parallel=2)
        runner.run(SWEEP[:1], (DEFAULT_SEED,) * 1)
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_close_survives_a_failed_pool_setup(self, monkeypatch):
        import multiprocessing

        runner = Runner(parallel=2)

        class _BrokenContext:
            def Pool(self, processes=None):
                raise OSError("no more processes")

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: _BrokenContext())
        with pytest.raises(OSError):
            runner._ensure_pool()
        assert runner._pool is None
        runner.close()  # must not raise
        monkeypatch.undo()
        assert runner.run(SWEEP[:1], (DEFAULT_SEED,)) != []

    def test_abandoned_parallel_iterator_releases_the_pool(self):
        runner = Runner(parallel=2)
        iterator = runner.iter_runs(SWEEP, tuple(sweep_seeds(3)))
        next(iterator)
        assert runner._pool is not None
        iterator.close()
        assert runner._pool is None
        # The runner stays usable: the next sweep recreates the pool.
        results = runner.run(SWEEP[:1], (DEFAULT_SEED,))
        assert results and results[0].ok
        runner.close()


# ----------------------------------------------------------------------
# Fuzz corpus persistence
# ----------------------------------------------------------------------
class TestCorpus:
    RECORD = None  # built lazily: CorpusRecord import stays local to the test

    def _record(self, entry_fp="a" * 64, scenario="fuzz:binary+none+partition+n4t1"):
        from repro.store import CorpusRecord

        return CorpusRecord(
            entry_fp=entry_fp,
            scenario=scenario,
            seed=DEFAULT_SEED,
            novel=True,
            violation=False,
            score=3,
            entry={"mutations": [["param", "gst", 5.0]], "coverage": ["site:a", "site:b"]},
        )

    def test_put_get_roundtrip_and_persistence(self, tmp_path):
        db = tmp_path / "runs.db"
        record = self._record()
        with RunStore(db) as store:
            assert store.get_corpus(record.entry_fp) is None
            store.put_corpus(record)
            assert store.get_corpus(record.entry_fp) == record  # pre-flush
        with RunStore(db) as store:
            assert store.get_corpus(record.entry_fp) == record  # from disk
            assert store.count_corpus() == 1
            assert list(store.iter_corpus()) == [record]
            assert list(store.iter_corpus(scenario=record.scenario)) == [record]
            assert list(store.iter_corpus(scenario="other")) == []
            assert store.stats.corpus_hits == 1 and store.stats.corpus_misses == 0

    def test_corpus_is_partitioned_by_code_fingerprint(self, tmp_path):
        db = tmp_path / "runs.db"
        record = self._record()
        with RunStore(db, code_fp="older-code") as store:
            store.put_corpus(record)
        with RunStore(db) as store:
            assert store.get_corpus(record.entry_fp) is None
            assert store.count_corpus() == 0

    def test_vacuum_stale_drops_stale_corpus_rows(self, tmp_path):
        db = tmp_path / "runs.db"
        with RunStore(db, code_fp="older-code") as store:
            store.put_corpus(self._record(entry_fp="b" * 64))
        with RunStore(db) as store:
            store.put_corpus(self._record(entry_fp="c" * 64))
            store.vacuum_stale()
            assert store.count_corpus() == 1
        with RunStore(db, code_fp="older-code") as store:
            assert store.count_corpus() == 0


# ----------------------------------------------------------------------
# Close-time flush failures are surfaced, not swallowed
# ----------------------------------------------------------------------
class TestCloseFlushFailure:
    def test_close_surfaces_flush_failure_and_stays_open(self, tmp_path):
        from repro.store import StoreFlushError

        db = tmp_path / "runs.db"
        store = RunStore(db)
        store.put(SWEEP[0], execute_run(SWEEP[0], DEFAULT_SEED))
        assert store.pending_count == 1
        # Sabotage the schema out from under the final flush.
        store._conn.execute("ALTER TABLE runs RENAME TO runs_hidden")
        with pytest.raises(StoreFlushError, match="failed to flush 1 pending"):
            store.close()
        # The store is NOT closed and the record is still pending: the caller
        # owns the data and may repair and retry instead of losing the tail.
        assert store.pending_count == 1
        store._conn.execute("ALTER TABLE runs_hidden RENAME TO runs")
        store.close()  # the retry flushes and really closes
        with RunStore(db) as reopened:
            assert reopened.get(SWEEP[0], DEFAULT_SEED) is not None

    def test_clean_close_is_still_idempotent(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.put(SWEEP[0], execute_run(SWEEP[0], DEFAULT_SEED))
        store.close()
        store.close()  # no error, no double flush
        # The in-memory cache may still answer, but anything needing the
        # connection reports the closed store instead of resurrecting it.
        with pytest.raises(RuntimeError):
            store.get(SWEEP[1], DEFAULT_SEED)
