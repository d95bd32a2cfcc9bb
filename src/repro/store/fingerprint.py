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
  run and recorded), and every *currently registered* protocol / adversary /
  delay-model builder under its registry key.  When any of that changes,
  the fingerprint changes and every cached record is automatically
  invisible (stale entries stay in the database under their old
  fingerprint; ``--rerun`` or a vacuum can refresh them).  Hashing the
  registries separately from the module tree means even a builder
  monkeypatched at runtime invalidates the cache.

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
from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

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
classifier in ``analysis``.
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


_ATOMIC_TYPES = frozenset({bool, int, float, str, type(None)})
"""Exact types that :func:`canonical_form` and ``dataclasses.asdict`` both pass through."""


def _holds_dataclass(value: Any) -> bool:
    """Whether :func:`dataclasses.asdict` would turn part of ``value`` into a dict.

    Follows ``asdict``'s own recursion into lists, tuples and dict values
    (it deep-copies any other container as it is, and raises on a dict key
    holding a dataclass, which would become an unhashable dict).
    """
    if isinstance(value, (list, tuple)):
        return any(map(_holds_dataclass, value))
    if isinstance(value, dict):
        return any(map(_holds_dataclass, value.values()))
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


@lru_cache(maxsize=None)  # one entry per spec class
def _field_names(spec_type: type) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(spec_type))


def spec_payload(spec: ScenarioSpec) -> Dict[str, Any]:
    """Every spec field in canonical, JSON-ready form (the hashed payload).

    Defined as ``canonical_form(dataclasses.asdict(spec))`` and byte-identical
    to it, but without ``asdict``'s deep copy of every field; only a spec
    holding a dataclass instance (which ``asdict`` turns into a dict) still
    goes through ``asdict``.
    """
    payload = {}
    for name in _field_names(type(spec)):
        value = getattr(spec, name)
        if type(value) in _ATOMIC_TYPES:
            payload[name] = value
        elif _holds_dataclass(value):
            return canonical_form(dataclasses.asdict(spec))
        else:
            payload[name] = canonical_form(value)
    return payload


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
    """What stands for a registered builder in the code fingerprint.

    A builder defined in a file the module tree digest hashes (every builder
    the registries ship with) is named by where it is — path, first line,
    qualified name — since any edit to it already moves that digest, and
    re-reading its source would tokenize the file again on every call.  Any
    other builder (test-local, from another module) is hashed by its source
    text.  ``repr`` would embed a memory address (different every process),
    so a source-less builder is named instead — stable, at the cost of
    missing a semantic change in it (C extension, exec'd code).
    """
    code = getattr(builder, "__code__", None)
    if code is not None:
        hashed = _hashed_relative_path(code.co_filename)
        if hashed is not None:
            return f"<hashed {hashed}:{code.co_firstlineno} {builder.__qualname__}>"
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


@lru_cache(maxsize=None)  # one entry per distinct builder file
def _hashed_relative_path(filename: str) -> Optional[str]:
    """``filename`` relative to ``src/repro`` if the tree digest hashes it, else None."""
    path = pathlib.Path(filename).resolve()
    if path in _semantic_paths(_REPRO_ROOT):
        return path.relative_to(_REPRO_ROOT).as_posix()
    return None


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
    pipeline).  Cached verdicts in a
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

    Every registry key is hashed with its builder, each builder by location
    when its file is in the (cached) module tree digest and by source
    otherwise (see :func:`_builder_source`).  So it tracks runtime registry
    mutations — a test that swaps a protocol builder in gets a different
    fingerprint and therefore a cold cache — yet reads no source file after
    the first call.  Measured on a 2-core Xeon: 2–4 ms for the first call in
    a process, 0.015–0.03 ms for each later one (every store open calls it).
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
