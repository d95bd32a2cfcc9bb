"""Content fingerprints: what makes a stored run result addressable.

A :class:`~repro.experiments.execute.RunResult` is a pure function of three
inputs, and the store keys every record by exactly those three:

* **scenario fingerprint** — a SHA-256 over the *canonical* form of every
  :class:`~repro.experiments.scenario.ScenarioSpec` field (name, registry
  keys, ``n``/``t``, validity property, sorted params, horizon limits).
  Two specs that would build the same execution hash identically no matter
  how they were constructed; changing any knob changes the hash.
* **seed** — stored as-is (it is already a stable integer).
* **code fingerprint** — a SHA-256 over the source of the semantic layers a
  run flows through: every module of the packages in
  :data:`SEMANTIC_PACKAGES`, the two ``repro.experiments`` modules that
  define a run (``scenario.py``: what is composed; ``execute.py``: how it is
  run and recorded), and the source of every *currently registered*
  protocol / adversary / delay-model builder.  When any of that changes,
  the fingerprint changes and every cached record is automatically
  invisible (stale entries stay in the database under their old
  fingerprint; ``--rerun`` or a vacuum can refresh them).  Hashing builder sources separately from the module tree
  means even a builder monkeypatched at runtime invalidates the cache.

The fingerprints deliberately exclude execution *infrastructure* — worker
count, timeouts, pool start method, and the engine that implements them
(``experiments/runner.py``, ``repro.resilience``, ``repro.jobs``) — because
those do not change what a run computes (a timed-out run is never
persisted, see :meth:`~repro.store.store.RunStore.put`).  The hashed files
import nothing from ``repro`` outside themselves (pinned by a test), so an
engine edit cannot reach a run's result without also editing a hashed file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import pathlib
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Tuple

from ..experiments.scenario import ADVERSARIES, DELAY_MODELS, PROTOCOLS, ScenarioSpec

FINGERPRINT_VERSION = 1
"""Bump to invalidate every existing fingerprint (format/semantics change)."""

SEMANTIC_PACKAGES: Tuple[str, ...] = (
    "core",
    "crypto",
    "sim",
    "broadcast",
    "coding",
    "consensus",
)
"""``repro`` sub-packages whose source participates in the code fingerprint.

These are the layers a run's events actually flow through.  Presentation
layers (``analysis``, ``experiments.cli``, ``experiments.aggregate``, this
``store`` package) are excluded: editing a report formatter must not throw
away a database of results.
"""

_SEMANTIC_MODULES: Tuple[str, ...] = ("experiments/scenario.py", "experiments/execute.py")

_REPRO_ROOT = pathlib.Path(__file__).resolve().parent.parent  # src/repro

ANALYSIS_PACKAGES: Tuple[str, ...] = ("core", "analysis")
"""``repro`` sub-packages whose source participates in the *analysis* code
fingerprint: the exact decision procedures live in ``core`` and the batch
classifier (plus the closed-form oracles it dispatches to) in ``analysis``.
An :class:`~repro.analysis.pipeline.AnalysisVerdict` is a pure function of
``(property task, analysis code)`` only — no simulator, no protocol stacks —
so cached verdicts survive edits to ``sim``/``consensus``/``coding`` that
would invalidate every cached *run*."""


def canonical_form(value: Any) -> Any:
    """Reduce a value to a JSON-serialisable canonical shape.

    Tuples become lists, mapping keys become strings (JSON sorts them), and
    anything exotic falls back to ``repr`` — the same convention
    :func:`~repro.experiments.execute.canonical_value` uses for decisions.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(key): canonical_form(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_form(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    return repr(value)


def spec_payload(spec: ScenarioSpec) -> Dict[str, Any]:
    """Every spec field in canonical, JSON-ready form (the hashed payload)."""
    return canonical_form(dataclasses.asdict(spec))


def _digest(payload: Any) -> str:
    import json

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_from_payload(payload: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its :func:`spec_payload` form.

    The inverse used by counterexample replay (``run --spec file.json``) and
    the fuzz corpus: a spec whose param values are plain JSON scalars round-
    trips exactly (``spec_from_payload(spec_payload(s)) == s``), which covers
    every spec the registries and the fuzzer produce.  Exotic param values
    were already reduced to ``repr`` strings by :func:`canonical_form`, so
    they cannot round-trip — by construction no registered builder needs
    them.
    """
    params = tuple(sorted((str(key), value) for key, value in payload.get("params", [])))
    return ScenarioSpec(
        name=payload["name"],
        protocol=payload["protocol"],
        adversary=payload["adversary"],
        delay=payload["delay"],
        n=int(payload["n"]),
        t=int(payload["t"]),
        property_key=payload["property_key"],
        params=params,
        time_limit=float(payload["time_limit"]),
        max_events=int(payload["max_events"]),
    )


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Stable content hash of one scenario specification."""
    return _digest({"fingerprint_version": FINGERPRINT_VERSION, "spec": spec_payload(spec)})


def payload_fingerprint(payload: Any) -> str:
    """Stable content hash of an arbitrary canonical payload.

    The versioned sibling of :func:`scenario_fingerprint` for non-scenario
    content keys — the analysis pipeline hashes its
    :meth:`~repro.analysis.pipeline.PropertyTask.payload` through this, so
    every fingerprint in the store shares one digest convention and the
    version bump story.
    """
    return _digest({"fingerprint_version": FINGERPRINT_VERSION, "payload": canonical_form(payload)})


def _builder_source(builder: Any) -> str:
    """Source text of a registered builder, or a stable stand-in.

    ``repr`` would embed a memory address (different every process), so the
    fallback names the function instead — stable, at the cost of missing a
    semantic change in a source-less builder (C extension, exec'd code).
    """
    try:
        return inspect.getsource(builder)
    except (OSError, TypeError):
        module = getattr(builder, "__module__", "?")
        qualname = getattr(builder, "__qualname__", repr(type(builder)))
        return f"<no-source {module}.{qualname}>"


def _semantic_paths(root: pathlib.Path) -> List[pathlib.Path]:
    """The files of the ``src/repro`` tree at ``root`` that the run fingerprint hashes."""
    return sorted(
        path
        for package in SEMANTIC_PACKAGES
        for path in (root / package).rglob("*.py")
    ) + [root / relative for relative in _SEMANTIC_MODULES]


@lru_cache(maxsize=1)
def _module_tree_digest(root: pathlib.Path = _REPRO_ROOT) -> str:
    """Hash of every semantic module file (computed once per process)."""
    digest = hashlib.sha256()
    for path in _semantic_paths(root):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def analysis_code_fingerprint() -> str:
    """Hash of the code a property classification flows through.

    Covers the :data:`ANALYSIS_PACKAGES` module trees (``repro.core`` for the
    formalism and decision procedures, ``repro.analysis`` for the batch
    pipeline and closed-form oracles).  Cached verdicts in a
    :class:`~repro.store.store.RunStore` become invisible the moment any of
    that source changes, exactly like run records under
    :func:`code_fingerprint`.
    """
    digest = hashlib.sha256()
    digest.update(f"fingerprint_version={FINGERPRINT_VERSION}\n".encode("utf-8"))
    for path in sorted(
        path for package in ANALYSIS_PACKAGES for path in (_REPRO_ROOT / package).rglob("*.py")
    ):
        digest.update(str(path.relative_to(_REPRO_ROOT)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def code_fingerprint() -> str:
    """Hash of the current run-semantics code: module tree + live registries.

    Cheap enough to call per store open (the module tree digest is cached;
    only the ~15 registered builder sources are re-read), yet it tracks
    runtime registry mutations — a test that swaps a protocol builder in
    gets a different fingerprint and therefore a cold cache.
    """
    digest = hashlib.sha256()
    digest.update(f"fingerprint_version={FINGERPRINT_VERSION}\n".encode("utf-8"))
    digest.update(_module_tree_digest().encode("utf-8"))
    for label, registry in (
        ("protocol", PROTOCOLS),
        ("adversary", ADVERSARIES),
        ("delay", DELAY_MODELS),
    ):
        for key in sorted(registry):
            digest.update(f"\x00{label}:{key}\x00".encode("utf-8"))
            digest.update(_builder_source(registry[key]).encode("utf-8"))
    return digest.hexdigest()
