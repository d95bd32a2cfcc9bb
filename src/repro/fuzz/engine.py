"""The fuzz campaign loop: deterministic, batched, store-backed.

One campaign is a pure function of ``(base scenarios, budget, fuzz seed,
code)``.  Candidates are drawn from the seeded mutation walk in fixed-size
batches (the batch size is a constant, *not* the worker count, so the walk
is identical serially and in parallel), executed on the persistent
:class:`~repro.experiments.runner.Runner` pool with coverage probes armed,
then scored in candidate order against the campaign-wide
:class:`~repro.fuzz.coverage.CoverageMap`.  Inputs that reach new coverage
or violate a property join the mutation pool; every executed candidate is
persisted — its :class:`~repro.experiments.execute.RunResult` in the ``runs``
table, its coverage in the content-addressed ``corpus`` table — so a warm
re-run of the same campaign serves every candidate from the store and
executes zero simulations.

Violating inputs are deduplicated by ``(base scenario, violation kinds)``
and shrunk (:mod:`repro.fuzz.shrink`) to minimal replayable counterexamples;
``run --spec`` replays the emitted spec JSON to the same violation.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments.execute import RunResult
from ..experiments.runner import DEFAULT_SEED, Runner, execute_with_timeout, quarantine_run
from ..experiments.scenario import ScenarioSpec
from ..obs.registry import METRICS
from ..sim import instrument
from ..store.fingerprint import payload_fingerprint, spec_payload
from ..store.store import CorpusRecord, RunStore
from .coverage import CoverageMap, proximity_score
from .mutation import Mutation, apply_mutations, mutation_palette, spec_is_fuzzable
from .shrink import shrink_mutations, violation_kinds

_BATCH_SIZE = 8
"""Candidates generated (then executed) per round.  A constant by design:
the walk advances on batch boundaries, so tying this to the worker count
would make parallel campaigns diverge from serial ones."""

_MAX_STACK = 8
"""Mutation stack depth cap; beyond it the oldest mutation is dropped."""

_MAX_SHRINK_TARGETS = 5
"""Distinct violations shrunk per campaign (deduplicated first)."""

_FRESH_BASE_PROBABILITY = 0.25
"""Chance a candidate restarts from a bare base instead of extending the pool."""

# Telemetry instruments (descriptive only — see repro.obs): campaign-shape
# counters bumped once per round/candidate, plus a gauge for the coverage
# frontier.  None of them feed back into the walk.
_OBS_ROUNDS = METRICS.counter("fuzz.rounds")
_OBS_CANDIDATES = METRICS.counter("fuzz.candidates")
_OBS_NOVEL = METRICS.counter("fuzz.novel")
_OBS_VIOLATING = METRICS.counter("fuzz.violating")
_OBS_COVERAGE_SITES = METRICS.gauge("fuzz.coverage.sites")


def fuzz_execute(
    item: Tuple[ScenarioSpec, int, Optional[float]],
) -> Tuple[RunResult, Tuple[str, ...]]:
    """Execute one candidate with coverage probes armed.

    Top-level and picklable so it can ride :meth:`Runner.iter_tasks` into
    pool workers.  The probes are read-only observers, so the returned
    :class:`RunResult` is byte-identical to an uninstrumented run of the
    same ``(spec, seed)`` — instrumented results are safe to persist in the
    shared ``runs`` table.
    """
    instrument.begin_collection()
    try:
        result = execute_with_timeout(item)
    finally:
        sites = instrument.end_collection()
    return result, instrument.canonical_coverage(sites)


def entry_fingerprint(spec: ScenarioSpec, seed: int) -> str:
    """Content address of one corpus entry: the mutated ``(spec, seed)`` pair."""
    return payload_fingerprint({"kind": "fuzz-corpus", "spec": spec_payload(spec), "seed": seed})


@dataclass
class FuzzReport:
    """Outcome of one campaign — pure data, JSON-ready.

    ``executed`` counts real simulations (campaign + shrinking); a warm
    re-run of an already-persisted campaign reports ``executed == 0``.
    ``corpus_fingerprints`` lists every candidate's content address in
    campaign order: two campaigns with equal seed/budget/base must produce
    byte-identical sequences, which the determinism tests pin down.
    """

    fuzz_seed: int
    budget: int
    candidates: int = 0
    executed: int = 0
    cached: int = 0
    skipped_invalid: int = 0
    novel: int = 0
    violating: int = 0
    pool_size: int = 0
    coverage_sites: int = 0
    corpus_fingerprints: Tuple[str, ...] = ()
    counterexamples: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fuzz_seed": self.fuzz_seed,
            "budget": self.budget,
            "candidates": self.candidates,
            "executed": self.executed,
            "cached": self.cached,
            "skipped_invalid": self.skipped_invalid,
            "novel": self.novel,
            "violating": self.violating,
            "pool_size": self.pool_size,
            "coverage_sites": self.coverage_sites,
            "corpus_fingerprints": list(self.corpus_fingerprints),
            "counterexamples": self.counterexamples,
        }


class _PoolEntry:
    __slots__ = ("base_index", "mutations", "weight")

    def __init__(self, base_index: int, mutations: Tuple[Mutation, ...], weight: int):
        self.base_index = base_index
        self.mutations = mutations
        self.weight = weight


def run_fuzz(
    base_specs: Sequence[ScenarioSpec],
    budget: int,
    fuzz_seed: int = DEFAULT_SEED,
    *,
    store: Optional[RunStore] = None,
    runner: Optional[Runner] = None,
    base_seed: int = DEFAULT_SEED,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
    fail_fast: bool = False,
) -> FuzzReport:
    """Run one coverage-guided campaign; returns its :class:`FuzzReport`.

    Args:
        base_specs: Seed scenarios the mutation walk starts from (each is
            also the campaign's first candidates, unmutated).
        budget: Number of candidates to process (cache hits count — the
            walk, not the CPU, is what the budget meters).
        fuzz_seed: Seed of the mutation walk; same seed, same campaign.
        store: Optional :class:`RunStore` for results + corpus persistence.
        runner: Optional shared :class:`Runner` (its ``timeout`` bounds
            every candidate); a serial, unbounded one is used otherwise.
        base_seed: The per-run seed mutations perturb from.
        shrink: Whether to delta-debug violating inputs before reporting.
        log: Optional progress sink (one line per round).
        fail_fast: Stop the walk at the end of the first batch that found
            a violation (batch-granular so the deterministic walk is cut
            at a deterministic point) instead of spending the whole budget.
    """
    if budget < 1:
        raise ValueError("fuzz budget must be at least 1")
    if not base_specs:
        raise ValueError("fuzzing needs at least one base scenario")
    for spec in base_specs:
        if not spec_is_fuzzable(spec):
            raise ValueError(f"base scenario {spec.name!r} is not a valid fuzz base")

    if runner is None:
        runner = Runner()  # serial: owns no pool, needs no teardown
    effective_timeout = runner.timeout

    rng = random.Random(fuzz_seed)
    palette = mutation_palette()
    coverage = CoverageMap()
    report = FuzzReport(fuzz_seed=fuzz_seed, budget=budget)
    pool: List[_PoolEntry] = []
    seen_entries: set = set()
    raw_violations: List[Tuple[int, Tuple[Mutation, ...], ScenarioSpec, int, RunResult]] = []
    corpus_fps: List[str] = []
    # Seed the walk with the bare bases, then draw mutated candidates.
    queued: List[Tuple[int, Tuple[Mutation, ...]]] = [
        (index, ()) for index in range(len(base_specs))
    ]
    attempts = 0
    max_attempts = budget * 25 + 100

    def draw() -> Tuple[int, Tuple[Mutation, ...]]:
        if queued:
            return queued.pop(0)
        mutation = palette[rng.randrange(len(palette))]
        if pool and rng.random() >= _FRESH_BASE_PROBABILITY:
            weights = [entry.weight for entry in pool]
            entry = pool[rng.choices(range(len(pool)), weights=weights)[0]]
            stack = entry.mutations
            if len(stack) >= _MAX_STACK:
                stack = stack[1:]
            return entry.base_index, stack + (mutation,)
        return rng.randrange(len(base_specs)), (mutation,)

    while report.candidates < budget and attempts < max_attempts:
        batch: List[Tuple[int, Tuple[Mutation, ...], ScenarioSpec, int, str]] = []
        while (
            len(batch) < _BATCH_SIZE
            and report.candidates + len(batch) < budget
            and attempts < max_attempts
        ):
            attempts += 1
            base_index, mutations = draw()
            spec, seed = apply_mutations(base_specs[base_index], base_seed, mutations)
            if not spec_is_fuzzable(spec):
                report.skipped_invalid += 1
                continue
            fp = entry_fingerprint(spec, seed)
            if fp in seen_entries:
                continue
            seen_entries.add(fp)
            batch.append((base_index, mutations, spec, seed, fp))
        if not batch:
            break
        # Warm path: a candidate whose result AND coverage are already
        # stored is served without touching a worker.
        cached: Dict[int, Tuple[RunResult, Tuple[str, ...]]] = {}
        if store is not None:
            for position, (_bi, _muts, spec, seed, fp) in enumerate(batch):
                record = store.get_corpus(fp)
                if record is None:
                    continue
                result = store.get(spec, seed)
                if result is not None:
                    cached[position] = (result, tuple(record.entry["coverage"]))
        items = [(spec, seed, effective_timeout) for _bi, _muts, spec, seed, _fp in batch]

        # A candidate that kept killing its worker yields a typed poison
        # result with no coverage — it joins neither the pool nor the
        # store's runs table, but is quarantined by name.
        outcomes = list(
            runner.iter_tasks(
                fuzz_execute,
                items,
                cached=cached,
                on_poison=lambda index, record: (quarantine_run(items[index], record, store), ()),
            )
        )
        # Score strictly in candidate order: the pool and coverage map
        # evolve identically no matter how execution was scheduled.
        for position, ((base_index, mutations, spec, seed, fp), (result, cov)) in enumerate(
            zip(batch, outcomes)
        ):
            was_cached = position in cached
            report.candidates += 1
            report.cached += 1 if was_cached else 0
            report.executed += 0 if was_cached else 1
            _OBS_CANDIDATES.inc()
            corpus_fps.append(fp)
            new_sites = coverage.observe(cov)
            is_violating = bool(result.violations)
            if new_sites > 0:
                _OBS_NOVEL.inc()
            if is_violating:
                _OBS_VIOLATING.inc()
            if store is not None and not was_cached:
                if store.put(spec, result):  # timeouts are host conditions: skipped
                    store.put_corpus(
                        CorpusRecord(
                            entry_fp=fp,
                            scenario=spec.name,
                            seed=seed,
                            novel=new_sites > 0,
                            violation=is_violating,
                            score=new_sites,
                            entry={
                                "base": base_specs[base_index].name,
                                "mutations": [list(m) for m in mutations],
                                "spec": spec_payload(spec),
                                "seed": seed,
                                "coverage": list(cov),
                                "violations": list(result.violations),
                            },
                        )
                    )
            if new_sites > 0:
                report.novel += 1
            if is_violating:
                report.violating += 1
                raw_violations.append((base_index, mutations, spec, seed, result))
            if new_sites > 0 or is_violating:
                pool.append(
                    _PoolEntry(
                        base_index,
                        mutations,
                        weight=1 + proximity_score(cov) + (4 if is_violating else 0),
                    )
                )
        _OBS_ROUNDS.inc()
        _OBS_COVERAGE_SITES.set(len(coverage))
        if log is not None:
            log(
                f"fuzz: {report.candidates}/{budget} candidates, "
                f"{len(coverage)} sites, {report.violating} violating, "
                f"pool {len(pool)}"
            )
        if fail_fast and report.violating:
            if log is not None:
                log("fuzz: stopping at first violating batch (fail-fast)")
            break

    report.pool_size = len(pool)
    report.coverage_sites = len(coverage)
    report.corpus_fingerprints = tuple(corpus_fps)

    def evaluate(spec: ScenarioSpec, seed: int) -> RunResult:
        if store is not None:
            hit = store.get(spec, seed)
            if hit is not None:
                return hit
        result = execute_with_timeout((spec, seed, effective_timeout))
        report.executed += 1
        if store is not None:
            store.put(spec, result)
        return result

    # One shrink target per distinct (base, violation kinds) pair.
    targets: "OrderedDict[Tuple[str, Tuple[str, ...]], Tuple[int, Tuple[Mutation, ...], ScenarioSpec, int, RunResult]]" = OrderedDict()
    for base_index, mutations, spec, seed, result in raw_violations:
        key = (base_specs[base_index].name, violation_kinds(result.violations))
        if key not in targets:
            targets[key] = (base_index, mutations, spec, seed, result)
    for key, (base_index, mutations, spec, seed, result) in list(targets.items())[
        :_MAX_SHRINK_TARGETS
    ]:
        kinds = violation_kinds(result.violations)
        minimal = (
            shrink_mutations(base_specs[base_index], base_seed, mutations, kinds, evaluate)
            if shrink
            else tuple(mutations)
        )
        final_spec, final_seed = apply_mutations(base_specs[base_index], base_seed, minimal)
        final_result = evaluate(final_spec, final_seed)
        report.counterexamples.append(
            {
                "entry_fp": entry_fingerprint(final_spec, final_seed),
                "base": base_specs[base_index].name,
                "scenario": final_spec.name,
                "seed": final_seed,
                "mutations": [list(m) for m in minimal],
                "violations": list(final_result.violations),
                "spec": spec_payload(final_spec),
            }
        )
        if log is not None:
            log(
                f"fuzz: shrunk {key[1]} on {key[0]} to "
                f"{len(minimal)} mutation(s)"
            )
    if store is not None:
        store.flush_retrying(raise_on_failure=False)
    return report
