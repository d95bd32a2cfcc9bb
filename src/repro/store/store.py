"""The SQLite-backed persistent run store.

:class:`RunStore` keeps every :class:`~repro.experiments.execute.RunResult`
ever computed, keyed by ``(scenario fingerprint, seed, code fingerprint)``
(see :mod:`repro.store.fingerprint`).  Because a run is a pure function of
that triple, a stored record *is* the run — re-executing it can only
reproduce the same bytes — so sweeps become incremental: the runner serves
hits straight from the store and only executes (then persists) the misses.

Storage layout and concurrency:

* one SQLite file in **WAL mode** with a generous busy timeout, so several
  sweep processes can share a store file (readers never block the writer);
* under the multiprocessing :class:`~repro.experiments.runner.Runner` only
  the **parent** process touches the store — workers just compute — so the
  store needs no cross-process write coordination of its own;
* writes are **batched**: ``put`` buffers records and flushes them in one
  transaction every ``batch_size`` records (and on ``flush``/``close``/exit,
  including when a sweep generator is abandoned);
* reads go through an in-memory **LRU cache**, so re-aggregating the same
  slice (report, compare, a warm sweep) does not re-parse JSON rows.

Timed-out runs are **never persisted**: a wall-clock timeout depends on the
host, not on the ``(scenario, seed, code)`` triple, so caching it would
freeze a transient condition as truth.  Deterministic failures (protocol
exceptions, violated properties, exhausted event budgets) are results like
any other and are stored.

The store also caches **analysis verdicts**
(:class:`~repro.analysis.pipeline.AnalysisVerdict` records from the
``analyze`` pipeline) in a sibling ``verdicts`` table keyed by
``(task fingerprint, analysis code fingerprint)``: a verdict is a pure
function of the property task and the :mod:`repro.core`/:mod:`repro.analysis`
source, so the same content-addressing argument applies — and because the
two fingerprints are independent, editing a protocol stack invalidates runs
but not verdicts, and vice versa.

Every keyed table — ``runs``, ``verdicts``, the fuzzer's ``corpus``, the
``poison`` quarantine list — is one :class:`_Table` description (key,
columns, index, row encoder, record decoder, partitioning fingerprint).
The schema, the insert statement, the pending buffer, the read cache and
the flush / journal / salvage paths are derived from that list, and the
public ``get_*``/``put_*``/``iter_*``/``count_*`` methods are thin wrappers
over one cached get, one buffered put and one filtered select.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..experiments.execute import POISON_ERROR_PREFIX, TIMEOUT_ERROR_PREFIX, RunResult
from ..experiments.scenario import ScenarioSpec
from ..obs.registry import METRICS
from ..resilience.faults import FaultPlan, FaultState
from ..resilience.retry import RetryPolicy
from .fingerprint import analysis_code_fingerprint, code_fingerprint, scenario_fingerprint

STORE_FORMAT_VERSION = 1

# Telemetry instruments (descriptive only — see repro.obs).  They mirror the
# per-session StoreStats into the process-local registry so a campaign's
# store behaviour shows up in the same snapshot as dispatch and supervision.
_OBS_FLUSH_ATTEMPTS = METRICS.counter("store.flush.attempts")
_OBS_FLUSH_RETRIES = METRICS.counter("store.flush.retries")
_OBS_JOURNAL_SPILLED = METRICS.counter("store.journal.spilled")
_OBS_JOURNAL_REPLAYED = METRICS.counter("store.journal.replayed")
_OBS_FLUSH_WALL = METRICS.timer("store.flush.wall")


@dataclass(frozen=True)
class CorpusRecord:
    """One fuzzer corpus entry: a mutated input worth keeping.

    The record is pure data derived from the fuzz campaign's deterministic
    walk: the mutated scenario (as its canonical payload), the run seed, the
    mutation list that produced it, and the canonical coverage it exercised.
    ``entry_fp`` content-addresses the ``(scenario payload, seed)`` pair
    through :func:`~repro.store.fingerprint.payload_fingerprint`, so a warm
    re-fuzz recognises an already-explored input and serves its coverage
    (and its cached :class:`~repro.experiments.execute.RunResult` from the
    ``runs`` table) without executing anything.

    Defined here rather than in :mod:`repro.fuzz` so the store does not
    import the fuzz engine (the engine imports the store).
    """

    entry_fp: str
    scenario: str
    seed: int
    novel: bool
    violation: bool
    score: int
    entry: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_fp": self.entry_fp,
            "scenario": self.scenario,
            "seed": self.seed,
            "novel": self.novel,
            "violation": self.violation,
            "score": self.score,
            "entry": self.entry,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusRecord":
        return cls(
            entry_fp=data["entry_fp"],
            scenario=data["scenario"],
            seed=data["seed"],
            novel=bool(data["novel"]),
            violation=bool(data["violation"]),
            score=data["score"],
            entry=data["entry"],
        )


@dataclass(frozen=True)
class PoisonEntry:
    """One quarantined task: a ``(scenario, seed)`` that kept killing workers.

    Persisted in the ``poison`` table so a resumed campaign knows which
    runs were given up on (and why) — they are *not* run records: a poison
    verdict is a host condition, so the pair stays a cache miss and a
    healthier host will simply re-execute it.
    """

    scenario: str
    seed: int
    attempts: int
    reason: str


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One persisted telemetry snapshot (a row of the ``telemetry`` table).

    ``snapshot`` is the JSON payload the session persisted at the end of a
    job: the process-local metrics registry, the job's own counter deltas,
    the store/supervision stats.  Descriptive only — nothing reads a
    snapshot to make an execution decision.
    """

    snapshot_id: int
    label: str
    created: float
    snapshot: Dict[str, Any]


@dataclass(frozen=True)
class StoreRecovery:
    """What corrupt-store recovery did on open (see :class:`RunStore`)."""

    quarantined_path: str
    salvaged_rows: int
    reason: str


@dataclass
class StoreStats:
    """Counters for one store session (reset when the store is opened).

    ``hits``/``misses``/``stored`` count run records;
    ``verdict_hits``/``verdict_misses``/``verdicts_stored`` count analysis
    verdicts — kept separate so "a warm sweep executes 0 runs" and "a warm
    analysis classifies 0 properties" stay independently checkable.
    """

    hits: int = 0
    misses: int = 0
    stored: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    verdicts_stored: int = 0
    corpus_hits: int = 0
    corpus_misses: int = 0
    corpus_stored: int = 0
    poison_stored: int = 0
    flush_retries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class StoreFormatError(RuntimeError):
    """The file exists but is not a compatible run store."""


class StoreFlushError(RuntimeError):
    """Flushing failed even after the bounded retry; nothing was dropped.

    Raised by :meth:`RunStore.close` only once the retry budget is spent
    *and* the records could not be spilled to the JSONL side-journal.  The
    store stays open (the connection is kept) so the caller can retry
    :meth:`RunStore.flush` or inspect :attr:`RunStore.pending_count` — a
    close that silently dropped buffered results would let an interrupted
    sweep masquerade as fully persisted.
    """


class _StoreCorruption(StoreFormatError):
    """Internal marker: the file is a run store, but its content is corrupt.

    Subclasses :class:`StoreFormatError` so that, should recovery itself
    fail and the error escape, callers still see the public type.
    """


_CORRUPTION_MARKERS = ("malformed", "corrupt", "not a database", "disk image")


def _looks_corrupt(exc: sqlite3.Error) -> bool:
    message = str(exc).lower()
    return any(marker in message for marker in _CORRUPTION_MARKERS)


def _spillworthy(exc: BaseException) -> bool:
    """Whether a flush failure is the disk-full family the journal can absorb.

    Only environmental write failures degrade to the side-journal: an
    ``OSError`` or an sqlite disk/I-O complaint.  Anything else (a schema
    problem, a programming error) would just replay into the same failure,
    so it surfaces as :class:`StoreFlushError` instead.
    """
    if isinstance(exc, OSError):
        return True
    if isinstance(exc, sqlite3.OperationalError):
        message = str(exc).lower()
        return "disk" in message or "i/o" in message or "readonly" in message
    return False


class _Table:
    """The description of one keyed table; everything else is derived from it.

    Args:
        name: The SQL table name.
        key: The primary-key columns (``"column TYPE, ..."``), which lead
            every row; the last one is always ``code_fp``, the fingerprint
            that partitions the table.
        columns: The remaining columns, in row order — what ``encode``
            returns.  The last one holds the record's canonical JSON when
            the table has a ``decode``.
        encode: ``(record, *context) -> tuple`` of the non-key columns.
        decode: Rebuilds a record from its parsed JSON column, or ``None``
            for a table that is never read back by key (no read cache).
        index: ``(index name, column)`` of the secondary
            ``(column, code_fp)`` index, if any.
        fingerprint: The :class:`RunStore` attribute whose value fills
            ``code_fp`` — which code fingerprint partitions the table.
        hit, miss, stored: The :class:`StoreStats` fields the generic
            get/put tally (``hit``/``miss`` only matter with a ``decode``).

    From these the constructor derives the schema DDL, the ``INSERT OR
    REPLACE`` statement, the point ``SELECT`` and the row arity that salvage
    and journal replay validate against; :class:`RunStore` sizes its pending
    buffers and read caches from the same list.  A new keyed table is one
    more description plus its public wrappers.
    """

    def __init__(
        self,
        name: str,
        key: str,
        columns: str,
        encode: Callable[..., Tuple],
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
        index: Optional[Tuple[str, str]] = None,
        fingerprint: str = "code_fp",
        hit: str = "",
        miss: str = "",
        stored: str = "",
    ):
        self.name = name
        self.encode = encode
        self.decode = decode
        self.fingerprint = fingerprint
        self.hit = hit
        self.miss = miss
        self.stored = stored
        keys = [column.split()[0] for column in key.split(", ")]
        typed = [column.split() for column in f"{key}, {columns}".split(", ")]
        names = [column for column, _type in typed]
        self.arity = len(names)
        self.insert = (
            f"INSERT OR REPLACE INTO {name} ({', '.join(names)}) "
            f"VALUES ({', '.join('?' * self.arity)})"
        )
        self.select = f"SELECT {names[-1]} FROM {name} WHERE " + " AND ".join(
            f"{column}=?" for column in keys
        )
        width = max(map(len, names))
        self.ddl = f"CREATE TABLE IF NOT EXISTS {name} (\n" + "".join(
            f"    {column:<{width}} {sql_type:<7} NOT NULL,\n" for column, sql_type in typed
        ) + f"    PRIMARY KEY ({', '.join(keys)})\n);\n"
        if index is not None:
            self.ddl += f"CREATE INDEX IF NOT EXISTS {index[0]} ON {name} ({index[1]}, code_fp);\n"


def _verdict_from_dict(data: Dict[str, Any]) -> Any:
    from ..analysis.pipeline import AnalysisVerdict  # deferred: sweeps never import analysis

    return AnalysisVerdict.from_dict(data)


_RUNS = _Table(
    "runs",
    key="scenario_fp TEXT, seed INTEGER, code_fp TEXT",
    columns="scenario TEXT, protocol TEXT, adversary TEXT, delay TEXT, "
    "n INTEGER, t INTEGER, ok INTEGER, result_json TEXT",
    encode=lambda result, spec: (
        spec.name,
        spec.protocol,
        spec.adversary,
        spec.delay,
        spec.n,
        spec.t,
        1 if result.ok else 0,
        result.canonical_json(),
    ),
    decode=RunResult.from_dict,
    index=("runs_by_name", "scenario"),
    hit="hits",
    miss="misses",
    stored="stored",
)
_VERDICTS = _Table(
    "verdicts",
    key="task_fp TEXT, code_fp TEXT",
    columns="label TEXT, family TEXT, n INTEGER, t INTEGER, solvable INTEGER, verdict_json TEXT",
    encode=lambda verdict: (
        verdict.label,
        verdict.family,
        verdict.n,
        verdict.t,
        1 if verdict.solvable else 0,
        verdict.canonical_json(),
    ),
    decode=_verdict_from_dict,
    index=("verdicts_by_label", "label"),
    fingerprint="analysis_code_fp",
    hit="verdict_hits",
    miss="verdict_misses",
    stored="verdicts_stored",
)
_CORPUS = _Table(
    "corpus",
    key="entry_fp TEXT, code_fp TEXT",
    columns="scenario TEXT, seed INTEGER, novel INTEGER, violation INTEGER, "
    "score INTEGER, entry_json TEXT",
    encode=lambda record: (
        record.scenario,
        record.seed,
        1 if record.novel else 0,
        1 if record.violation else 0,
        record.score,
        record.canonical_json(),
    ),
    decode=CorpusRecord.from_dict,
    index=("corpus_by_scenario", "scenario"),
    hit="corpus_hits",
    miss="corpus_misses",
    stored="corpus_stored",
)
_POISON = _Table(
    "poison",
    key="scenario_fp TEXT, seed INTEGER, code_fp TEXT",
    columns="scenario TEXT, attempts INTEGER, reason TEXT",
    encode=lambda entry: (entry.scenario, entry.attempts, entry.reason),
    stored="poison_stored",
)
_TABLES: Dict[str, _Table] = {table.name: table for table in (_RUNS, _VERDICTS, _CORPUS, _POISON)}
# Every keyed table is batched, journalled on a disk-full close, replayed
# on open and salvaged out of a quarantined corrupt file, all by iterating
# this one mapping.

_SCHEMA = (
    """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""
    + "".join(table.ddl for table in _TABLES.values())
    + """CREATE TABLE IF NOT EXISTS telemetry (
    snapshot_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    label         TEXT NOT NULL,
    created       REAL NOT NULL,
    snapshot_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS telemetry_by_label ON telemetry (label, snapshot_id);
"""
)
# The telemetry table is *descriptive*: snapshots are observations about an
# execution (metrics registry state, per-job counter deltas, supervision
# stats), never inputs to one.  It is deliberately additive — created by
# IF NOT EXISTS on open, absent from _TABLES (no batch/journal/salvage
# path), and outside the format version, so old stores gain it silently and
# telemetry rows never compete with run records for flush durability.

# StoreStats fields that are mirrored into the process-local registry.
_OBS_BY_STAT = {
    "hits": METRICS.counter("store.hits"),
    "misses": METRICS.counter("store.misses"),
    "stored": METRICS.counter("store.stored"),
    "poison_stored": METRICS.counter("store.poison.stored"),
}


class RunStore:
    """Content-addressed persistent cache of :class:`RunResult` records.

    Args:
        path: SQLite file (created if missing, parents must exist).
        code_fp: Override the code fingerprint — tests use this to simulate
            a semantics change; normal callers leave it to
            :func:`~repro.store.fingerprint.code_fingerprint`.
        batch_size: Buffered records (of every table together) per write
            transaction.
        cache_size: Entries held by each table's in-memory read LRU.
        analysis_code_fp: Override the analysis code fingerprint (same
            testing escape hatch, for the ``verdicts`` table).
        retry_policy: Bounds and paces flush retries (on :meth:`close` and
            :meth:`flush_retrying`); defaults to
            :class:`~repro.resilience.retry.RetryPolicy`'s defaults.
        fault_plan: Deterministic fault injection for chaos tests (flush
            failures, corrupt-on-reopen); defaults to the plan in the
            ``REPRO_FAULT_PLAN`` environment variable, else none.

    Opening is resilient:

    * the file's integrity is verified (``PRAGMA quick_check``); a corrupt
      store — valid SQLite header, damaged content — is renamed to a
      ``.corrupt`` quarantine file, a fresh store is built, and every row
      that survives in the quarantined file is salvaged into it (recorded
      in :attr:`recovery`).  A file that was never SQLite still raises
      :class:`StoreFormatError` — that is a caller mistake, not damage;
    * a JSONL side-journal left behind by a disk-full :meth:`close` (see
      below) is replayed into the store and deleted (counted in
      :attr:`journal_replayed`).

    Closing is resilient too: the final flush is retried under
    ``retry_policy``; if every attempt fails with a disk-full-family error,
    the pending rows are spilled to the side-journal (``<path>.journal.jsonl``)
    so the data survives for the next open.  Only when even the spill fails
    does :meth:`close` raise :class:`StoreFlushError` and keep the
    connection for a caller-driven retry.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        code_fp: Optional[str] = None,
        batch_size: int = 128,
        cache_size: int = 4096,
        analysis_code_fp: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.path = pathlib.Path(path)
        self.code_fp = code_fp if code_fp is not None else code_fingerprint()
        self.analysis_code_fp = (
            analysis_code_fp if analysis_code_fp is not None else analysis_code_fingerprint()
        )
        self.batch_size = batch_size
        self.cache_size = cache_size
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(seed=fault_plan.seed if fault_plan is not None else 0)
        )
        self._fault_state = FaultState(plan=fault_plan)
        self.stats = StoreStats()
        self.recovery: Optional[StoreRecovery] = None
        self.journal_replayed = 0
        # Per table: key -> (record, *encode context), and the read LRU.
        self._pending: Dict[str, Dict[Tuple, Tuple]] = {name: {} for name in _TABLES}
        self._cache: Dict[str, "OrderedDict[Tuple, Any]"] = {
            name: OrderedDict() for name in _TABLES
        }
        # id(spec) -> (spec, fingerprint).  A hit requires ``is``: equal specs
        # can hash differently (10000 == 10000.0, 1 == True), and the strong
        # reference keeps the spec's id from being reused.
        self._fp_cache: Dict[int, Tuple[ScenarioSpec, str]] = {}
        self._conn: Optional[sqlite3.Connection] = None
        if fault_plan is not None and fault_plan.corrupt_on_reopen:
            _inject_corruption(self.path)
        try:
            self._conn = self._open_verified()
        except _StoreCorruption as exc:
            quarantined = self._quarantine_corrupt_file()
            self._conn = self._open_verified()
            salvaged = self._salvage_rows(quarantined)
            self.recovery = StoreRecovery(
                quarantined_path=str(quarantined), salvaged_rows=salvaged, reason=str(exc)
            )
        self.journal_replayed = self._replay_journal()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> pathlib.Path:
        """The JSONL side-journal (disk-full spill target, replayed on open)."""
        return pathlib.Path(str(self.path) + ".journal.jsonl")

    def _open_verified(self) -> sqlite3.Connection:
        """Connect, verify integrity, ensure the schema, check the format.

        Raises :class:`_StoreCorruption` when the file carries a valid
        SQLite header but its content fails verification — the signal the
        constructor turns into quarantine-and-rebuild — and plain
        :class:`StoreFormatError` for everything else (not SQLite at all,
        unopenable path, format-version mismatch).
        """
        try:
            conn = sqlite3.connect(str(self.path))
        except sqlite3.Error as exc:
            raise StoreFormatError(f"cannot open run store {self.path}: {exc}") from exc
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            row = conn.execute("PRAGMA quick_check(1)").fetchone()
            if row is None or row[0] != "ok":
                raise _StoreCorruption(
                    f"run store {self.path} failed its integrity check: "
                    f"{row[0] if row else 'no result'}"
                )
            conn.executescript(_SCHEMA)
            self._check_format(conn)
            conn.commit()
            return conn
        except _StoreCorruption:
            conn.close()
            raise
        except sqlite3.Error as exc:
            conn.close()
            if _looks_corrupt(exc) and is_run_store(self.path):
                raise _StoreCorruption(
                    f"run store {self.path} is corrupt: {exc}"
                ) from exc
            raise StoreFormatError(f"cannot open run store {self.path}: {exc}") from exc

    def _check_format(self, conn: sqlite3.Connection) -> None:
        row = conn.execute("SELECT value FROM meta WHERE key='format_version'").fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('format_version', ?)",
                (str(STORE_FORMAT_VERSION),),
            )
        elif row[0] != str(STORE_FORMAT_VERSION):
            raise sqlite3.DatabaseError(
                f"store format_version {row[0]!r}, this code reads {STORE_FORMAT_VERSION!r}"
            )

    def _quarantine_corrupt_file(self) -> pathlib.Path:
        """Move the corrupt store (and its WAL droppings) out of the way."""
        quarantined = pathlib.Path(str(self.path) + ".corrupt")
        counter = 1
        while quarantined.exists():
            quarantined = pathlib.Path(f"{self.path}.corrupt.{counter}")
            counter += 1
        os.replace(self.path, quarantined)
        for suffix in ("-wal", "-shm"):
            sidecar = pathlib.Path(str(self.path) + suffix)
            if sidecar.exists():
                os.replace(sidecar, pathlib.Path(str(quarantined) + suffix))
        return quarantined

    def _salvage_rows(self, quarantined: pathlib.Path) -> int:
        """Copy every readable row from the quarantined file into the fresh store.

        Best effort by design: a corrupt database may yield all, some, or
        none of its rows — whatever sqlite can still read is preserved,
        and the quarantined file is kept on disk for manual inspection.
        """
        try:
            source = sqlite3.connect(f"file:{quarantined}?mode=ro", uri=True)
        except sqlite3.Error:
            return 0
        salvaged = 0
        try:
            for table in _TABLES.values():
                try:
                    rows = source.execute(f"SELECT * FROM {table.name}").fetchall()
                except sqlite3.Error:
                    continue
                good = [row for row in rows if len(row) == table.arity]
                if good:
                    self._conn.executemany(table.insert.replace("OR REPLACE", "OR IGNORE"), good)
                    salvaged += len(good)
            self._conn.commit()
        except sqlite3.Error:
            pass
        finally:
            source.close()
        return salvaged

    def _replay_journal(self) -> int:
        """Replay (then delete) the JSONL side-journal a degraded close left.

        Rows were journalled in their table-row form, so replay is the same
        idempotent ``INSERT OR REPLACE`` a flush would have issued, one row
        at a time so that a bad line costs only itself.  Lines that do not
        parse, name no table, have the wrong arity or are rejected by the
        schema are skipped rather than blocking the open — the journal was
        written while the disk was failing.  A row the database could not
        take for an *environmental* reason (the disk is still full, the
        file is locked) is a different matter: the journal is then the only
        copy, so it stays on disk, whole, for the next open to replay again.
        """
        journal = self.journal_path
        try:
            lines = journal.read_text(encoding="utf-8").splitlines()
        except OSError:  # no journal (the normal case), or an unreadable one
            return 0
        replayed = unwritten = 0
        for line in lines:
            try:
                entry = json.loads(line)
                table, row = _TABLES[entry["table"]], tuple(entry["row"])
            except (ValueError, KeyError, TypeError):
                continue
            if len(row) != table.arity:
                continue
            try:
                self._conn.execute(table.insert, row)
                replayed += 1
            except sqlite3.OperationalError:
                unwritten += 1
            except (sqlite3.Error, ValueError, OverflowError):
                pass  # malformed: the schema or the binding rejects the row
        try:
            self._conn.commit()
        except sqlite3.Error:
            self._conn.rollback()
            return 0
        if not unwritten:
            try:
                journal.unlink()
            except OSError:
                pass
        _OBS_JOURNAL_REPLAYED.inc(replayed)
        return replayed

    @property
    def pending_count(self) -> int:
        """Buffered records (of every table together) not yet committed."""
        return sum(map(len, self._pending.values()))

    def _flush_with_retry(self) -> Optional[BaseException]:
        """Flush under :attr:`retry_policy`'s bounded, seeded backoff.

        The one retry loop: returns ``None`` once a flush commits, else the
        last attempt's error with the records still pending — what happens
        then (raise, report, spill) is the caller's half.
        """
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                self.flush()
                return None
            except (sqlite3.Error, OSError) as exc:
                error = exc
                if attempt < policy.max_attempts:
                    self.stats.flush_retries += 1
                    _OBS_FLUSH_RETRIES.inc()
                    time.sleep(policy.backoff(attempt, token="flush"))
        return error

    def _flush_error(self, error: BaseException, detail: str = "") -> StoreFlushError:
        return StoreFlushError(
            f"run store {self.path} failed to flush {self.pending_count} pending record(s) "
            f"after {self.retry_policy.max_attempts} attempt(s): {error}{detail}"
        )

    def flush_retrying(self, raise_on_failure: bool = True) -> bool:
        """Flush with the bounded retry of :attr:`retry_policy`.

        Returns True when everything committed.  On total failure, raises
        :class:`StoreFlushError` (default) or returns False — the pending
        records stay buffered either way.  This is the flush the session's
        error paths use: salvaging completed records is best-effort there,
        and a second failure must not mask the original job error.
        """
        error = self._flush_with_retry()
        if error is not None and raise_on_failure:
            raise self._flush_error(error) from error
        return error is None

    def close(self) -> None:
        """Flush pending writes (with retry) and release the connection.

        Idempotent.  The final flush is retried under :attr:`retry_policy`
        with seeded backoff.  If every attempt fails with a disk-full-family
        error, the pending rows are spilled to the JSONL side-journal and
        the close still succeeds — the records are replayed into the store
        on its next open.  Only when the spill fails too (or the failure is
        not environmental, e.g. a schema problem) does close raise
        :class:`StoreFlushError`, keep the connection, and leave the records
        pending for a caller-driven retry.
        """
        if self._conn is None:
            return
        error = self._flush_with_retry()
        if error is not None:
            if not _spillworthy(error):
                raise self._flush_error(error) from error
            try:
                self._spill_to_journal()
            except OSError as spill_error:
                raise self._flush_error(
                    error, f"; the journal spill failed too: {spill_error}"
                ) from error
        conn, self._conn = self._conn, None
        conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown is untestable
        try:
            self.close()
        except Exception:
            pass

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError(f"run store {self.path} is closed")
        return self._conn

    # ------------------------------------------------------------------
    # The keyed-table idiom: one cached get, one buffered put, one flush
    # ------------------------------------------------------------------
    def _tally(self, stat: str) -> None:
        vars(self.stats)[stat] += 1
        counter = _OBS_BY_STAT.get(stat)
        if counter is not None:
            counter.inc()

    def _remember(self, table: _Table, key: Tuple, record: Any) -> None:
        cache = self._cache[table.name]
        cache[key] = record
        cache.move_to_end(key)
        while len(cache) > self.cache_size:
            cache.popitem(last=False)

    def _get(self, table: _Table, key: Tuple) -> Optional[Any]:
        """The record under ``key``: from the LRU, the pending buffer, or SQLite."""
        cache = self._cache[table.name]
        record = cache.get(key)
        if record is not None:
            cache.move_to_end(key)
        else:
            pending = self._pending[table.name].get(key)
            if pending is not None:
                record = pending[0]
            else:
                row = self._connection().execute(table.select, key).fetchone()
                if row is None:
                    self._tally(table.miss)
                    return None
                record = table.decode(json.loads(row[0]))
                self._remember(table, key, record)
        self._tally(table.hit)
        return record

    def _put(self, table: _Table, key: Tuple, record: Any, *context: Any) -> None:
        """Buffer ``record`` (flushed every ``batch_size`` puts, whatever the table)."""
        self._pending[table.name][key] = (record, *context)
        if table.decode is not None:
            self._remember(table, key, record)
        self._tally(table.stored)
        if self.pending_count >= self.batch_size:
            self.flush_retrying(raise_on_failure=False)

    def _pending_rows(self) -> Dict[str, List[Tuple]]:
        """The buffered records as table rows (shared by flush and journal spill)."""
        return {
            name: [key + _TABLES[name].encode(*value) for key, value in pending.items()]
            for name, pending in self._pending.items()
            if pending
        }

    def _clear_pending(self) -> None:
        for pending in self._pending.values():
            pending.clear()

    def flush(self) -> None:
        """Write every buffered record in one transaction."""
        conn = self._connection()
        rows_by_table = self._pending_rows()
        if not rows_by_table:
            return
        _OBS_FLUSH_ATTEMPTS.inc()
        if self._fault_state.next_flush_fails():
            # Counted per flush *with pending rows*, so a plan's "fail
            # attempt 2" means the second real write, deterministically.
            raise OSError(28, "injected flush failure (REPRO_FAULT_PLAN)")
        with _OBS_FLUSH_WALL.time(), conn:  # commits, or rolls back a failed attempt
            for name, rows in rows_by_table.items():
                conn.executemany(_TABLES[name].insert, rows)
        self._clear_pending()

    def _spill_to_journal(self) -> int:
        """Append every pending record to the JSONL side-journal.

        The disk-full degradation: when the database itself cannot accept
        the rows, their table-row form is appended to ``<path>.journal.jsonl``
        (a plain-text append needs far less free space and no sqlite
        machinery) and replayed by the next open.  Returns rows spilled.
        """
        rows_by_table = self._pending_rows()
        if not rows_by_table:
            return 0
        spilled = 0
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            for table, rows in rows_by_table.items():
                for row in rows:
                    handle.write(json.dumps({"table": table, "row": list(row)}) + "\n")
                    spilled += 1
            handle.flush()
            os.fsync(handle.fileno())
        self._clear_pending()
        _OBS_JOURNAL_SPILLED.inc(spilled)
        return spilled

    def _select(
        self,
        table: _Table,
        columns: str,
        tail: str = "",
        any_code: bool = False,
        **filters: Optional[Sequence[Any]],
    ) -> sqlite3.Cursor:
        """Flush, then query ``table`` — by default only its current partition.

        ``any_code=True`` lifts the fingerprint restriction; each keyword in
        ``filters`` restricts a column to the given values (``None``/empty:
        unrestricted); ``tail`` is the ``ORDER BY``/``GROUP BY`` suffix.
        """
        self.flush()
        clauses: List[str] = []
        params: List[Any] = []
        if not any_code:
            clauses.append("code_fp = ?")
            params.append(getattr(self, table.fingerprint))
        for column, values in filters.items():
            if values:
                clauses.append(f"{column} IN ({', '.join('?' * len(values))})")
                params.extend(values)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return self._connection().execute(
            f"SELECT {columns} FROM {table.name}{where}{tail}", params
        )

    def _count(self, table: _Table, any_code: bool = False) -> int:
        return self._select(table, "COUNT(*)", any_code=any_code).fetchone()[0]

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------
    def fingerprint(self, spec: ScenarioSpec) -> str:
        """The scenario fingerprint, memoised per spec object."""
        cached = self._fp_cache.get(id(spec))
        if cached is None or cached[0] is not spec:
            cached = self._fp_cache[id(spec)] = (spec, scenario_fingerprint(spec))
        return cached[1]

    def _key(self, spec: ScenarioSpec, seed: int) -> Tuple[str, int, str]:
        return (self.fingerprint(spec), int(seed), self.code_fp)

    def get(self, spec: ScenarioSpec, seed: int) -> Optional[RunResult]:
        """The stored record for ``(spec, seed)`` under the current code, or None."""
        return self._get(_RUNS, self._key(spec, seed))

    def put(self, spec: ScenarioSpec, result: RunResult) -> bool:
        """Buffer one record for persistence; returns False when skipped.

        Wall-clock timeouts and poison quarantines are skipped: they are
        host conditions, not functions of the content key, and persisting
        them would freeze a transient condition as truth.  (Poison verdicts
        are recorded separately, via :meth:`put_poison`.)
        """
        if result.error is not None and result.error.startswith(
            (TIMEOUT_ERROR_PREFIX, POISON_ERROR_PREFIX)
        ):
            return False
        self._put(_RUNS, self._key(spec, result.seed), result, spec)
        return True

    def iter_records(
        self,
        scenarios: Optional[Sequence[str]] = None,
        protocols: Optional[Sequence[str]] = None,
        adversaries: Optional[Sequence[str]] = None,
        delays: Optional[Sequence[str]] = None,
        any_code: bool = False,
    ) -> Iterator[RunResult]:
        """Stored records of a slice, in deterministic (scenario, seed) order.

        By default only records under the *current* code fingerprint are
        returned — stale entries from before a semantics change stay
        invisible.  With ``any_code=True`` stale entries are included, but
        each ``(scenario name, seed)`` still yields exactly **one** record —
        the current-code one when it exists, else the record under the first
        ``(scenario_fp, code_fp)`` in lexicographic order — so an aggregate
        never double-counts a pair or blends code/param versions of the same
        named scenario.
        """
        cursor = self._select(
            _RUNS,
            "scenario, seed, code_fp, result_json",
            " ORDER BY scenario, seed, scenario_fp, code_fp",
            any_code,
            scenario=scenarios,
            protocol=protocols,
            adversary=adversaries,
            delay=delays,
        )
        if not any_code:  # the primary key already guarantees one row per pair
            for _scenario, _seed, _code_fp, result_json in cursor:
                yield RunResult.from_dict(json.loads(result_json))
            return
        chosen: "OrderedDict[Tuple[str, int], Tuple[bool, str]]" = OrderedDict()
        for scenario, seed, code_fp, result_json in cursor:
            current = code_fp == self.code_fp
            if (scenario, seed) not in chosen or (current and not chosen[scenario, seed][0]):
                chosen[scenario, seed] = (current, result_json)
        for _current, result_json in chosen.values():
            yield RunResult.from_dict(json.loads(result_json))

    def count(self, any_code: bool = False) -> int:
        return self._count(_RUNS, any_code)

    def scenario_names(self, any_code: bool = False) -> List[str]:
        cursor = self._select(_RUNS, "DISTINCT scenario", " ORDER BY scenario", any_code)
        return [name for (name,) in cursor]

    def code_fingerprints(self) -> List[Tuple[str, int]]:
        """Every code fingerprint in the store with its record count."""
        return list(
            self._select(
                _RUNS, "code_fp, COUNT(*)", " GROUP BY code_fp ORDER BY code_fp", any_code=True
            )
        )

    def vacuum_stale(self) -> int:
        """Delete records from other code fingerprints; returns rows removed.

        Covers every keyed table, each against its own fingerprint: runs,
        the fuzz corpus and the poison list against the run-semantics code,
        verdicts against the analysis code.
        """
        self.flush()
        conn = self._connection()
        removed = sum(
            conn.execute(
                f"DELETE FROM {table.name} WHERE code_fp != ?", (getattr(self, table.fingerprint),)
            ).rowcount
            for table in _TABLES.values()
        )
        conn.commit()
        return removed

    # ------------------------------------------------------------------
    # Poison quarantine (tasks that kept killing their workers)
    # ------------------------------------------------------------------
    def put_poison(self, spec: ScenarioSpec, seed: int, attempts: int, reason: str) -> None:
        """Record that ``(spec, seed)`` was quarantined as a poison task."""
        entry = PoisonEntry(spec.name, int(seed), int(attempts), str(reason))
        self._put(_POISON, self._key(spec, seed), entry)

    def iter_poison(self) -> Iterator[PoisonEntry]:
        """Quarantined tasks under the current code, in (scenario, seed) order."""
        for row in self._select(
            _POISON, "scenario, seed, attempts, reason", " ORDER BY scenario, seed"
        ):
            yield PoisonEntry(*row)

    # ------------------------------------------------------------------
    # Analysis verdicts (the ``analyze`` pipeline's cache)
    # ------------------------------------------------------------------
    def get_verdict(self, task: Any) -> Optional[Any]:
        """The cached verdict for a property task under the current analysis code."""
        return self._get(_VERDICTS, (task.fingerprint(), self.analysis_code_fp))

    def put_verdict(self, task: Any, verdict: Any) -> None:
        """Buffer one verdict for persistence (flushed with the run batch)."""
        self._put(_VERDICTS, (task.fingerprint(), self.analysis_code_fp), verdict)

    def count_verdicts(self, any_code: bool = False) -> int:
        return self._count(_VERDICTS, any_code)

    # ------------------------------------------------------------------
    # Fuzzer corpus (the ``fuzz`` campaign's persisted seed pool)
    # ------------------------------------------------------------------
    def get_corpus(self, entry_fp: str) -> Optional[CorpusRecord]:
        """The corpus entry for a content fingerprint under the current code."""
        return self._get(_CORPUS, (entry_fp, self.code_fp))

    def put_corpus(self, record: CorpusRecord) -> None:
        """Buffer one corpus entry for persistence (flushed with the run batch)."""
        self._put(_CORPUS, (record.entry_fp, self.code_fp), record)

    def iter_corpus(self, scenario: Optional[str] = None) -> Iterator[CorpusRecord]:
        """Stored corpus entries under the current code, in ``entry_fp`` order."""
        for (entry_json,) in self._select(
            _CORPUS,
            "entry_json",
            " ORDER BY entry_fp",
            scenario=None if scenario is None else [scenario],
        ):
            yield CorpusRecord.from_dict(json.loads(entry_json))

    def count_corpus(self) -> int:
        return self._count(_CORPUS)

    # ------------------------------------------------------------------
    # Telemetry snapshots (descriptive only — never read to decide anything)
    # ------------------------------------------------------------------
    def put_telemetry(self, label: str, snapshot: Dict[str, Any]) -> Optional[int]:
        """Persist one telemetry snapshot; returns its id, or None on failure.

        Written immediately (one row, committed) rather than through the
        batched flush: telemetry must never compete with run records for
        flush durability, and a failure to record an observation is itself
        only an observation — it is swallowed, never raised.
        """
        try:
            conn = self._connection()
            cursor = conn.execute(
                "INSERT INTO telemetry (label, created, snapshot_json) VALUES (?, ?, ?)",
                (str(label), time.time(), json.dumps(snapshot, sort_keys=True)),
            )
            conn.commit()
            return cursor.lastrowid
        except (sqlite3.Error, OSError, RuntimeError, TypeError, ValueError):
            return None

    def _telemetry(self, where: str, params: Tuple[Any, ...]) -> Iterator[TelemetrySnapshot]:
        cursor = self._connection().execute(
            f"SELECT snapshot_id, label, created, snapshot_json FROM telemetry{where}", params
        )
        for snapshot_id, label, created, snapshot_json in cursor:
            try:
                snapshot = json.loads(snapshot_json)
            except json.JSONDecodeError:
                continue
            yield TelemetrySnapshot(snapshot_id, label, created, snapshot)

    def get_telemetry(
        self, snapshot_id: Optional[int] = None, label: Optional[str] = None
    ) -> Optional[TelemetrySnapshot]:
        """The snapshot with ``snapshot_id``, or the latest (matching ``label``)."""
        where, params = "", ()
        if snapshot_id is not None:
            where, params = " WHERE snapshot_id=?", (snapshot_id,)
        elif label is not None:
            where, params = " WHERE label=?", (label,)
        return next(self._telemetry(where + " ORDER BY snapshot_id DESC LIMIT 1", params), None)

    def iter_telemetry(self, label: Optional[str] = None) -> Iterator[TelemetrySnapshot]:
        """Every stored snapshot (optionally for one label), oldest first."""
        where, params = (" WHERE label=?", (label,)) if label is not None else ("", ())
        return self._telemetry(where + " ORDER BY snapshot_id", params)

    def count_telemetry(self) -> int:
        return self._connection().execute("SELECT COUNT(*) FROM telemetry").fetchone()[0]


def is_run_store(path: Union[str, pathlib.Path]) -> bool:
    """True when the file looks like an SQLite database (vs a JSON baseline)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(16) == b"SQLite format 3\x00"
    except OSError:
        return False


def _inject_corruption(path: Union[str, pathlib.Path]) -> None:
    """Scribble over a store file's interior (the corrupt-on-reopen fault).

    The SQLite header magic is left intact on purpose: recovery only
    triggers for files that *are* stores (:func:`is_run_store`), so the
    injected damage must look like a corrupted store, not like a file that
    was never SQLite.  No-op when the file is missing or too small to
    damage meaningfully.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size <= 512:
        return
    # A blind mid-file scribble can land on a free page, which quick_check
    # happily ignores.  Target a table root page instead: it is always in
    # use, so the damage is guaranteed to be detected.  The victim is the
    # highest-numbered root (the most recently created table), which keeps
    # the older tables' rows salvageable.
    page_size = 4096
    root_page = 0
    try:
        probe = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            page_size = probe.execute("PRAGMA page_size").fetchone()[0]
            row = probe.execute(
                "SELECT max(rootpage) FROM sqlite_master WHERE type = 'table' AND rootpage > 1"
            ).fetchone()
            root_page = row[0] or 0
        finally:
            probe.close()
    except sqlite3.Error:
        pass
    offsets = [max(512, size // 2)]
    if root_page:
        offsets.append((root_page - 1) * page_size)
    with open(path, "r+b") as handle:
        for offset in offsets:
            length = min(256, size - offset)
            if length <= 0 or offset < 512:
                continue
            handle.seek(offset)
            handle.write(b"\xff" * length)
