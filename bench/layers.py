"""The layer vocabulary: one flat name per package, shared by every metric.

A layer metric is named ``<layer>.<what>``; a span is named the same way.
The constants are plain strings so that ROADMAP item 5(a) can import them
(or copy them) into ``repro.obs`` without dragging the harness along.
"""

from __future__ import annotations

from typing import Tuple

CORE = "core"
SIM = "sim"
CRYPTO = "crypto"
BROADCAST = "broadcast"
CONSENSUS = "consensus"
CODING = "coding"
ANALYSIS = "analysis"
EXPERIMENTS = "experiments"
STORE = "store"
JOBS = "jobs"
RESILIENCE = "resilience"
OBS = "obs"
CLI = "cli"
FUZZ = "fuzz"  # no workload exercises it yet: listed so the map is total
BENCH = "bench"  # the harness itself

PY_HASHLIB = "py.hashlib"
PY_PICKLE = "py.pickle"
PY_SQLITE3 = "py.sqlite3"
PY_OTHER = "py.other"

# Longest prefix wins, so ``experiments/cli`` is listed before ``experiments``.
PATH_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("experiments/cli", CLI),
    ("experiments", EXPERIMENTS),
    ("core", CORE),
    ("sim", SIM),
    ("crypto", CRYPTO),
    ("broadcast", BROADCAST),
    ("consensus", CONSENSUS),
    ("coding", CODING),
    ("analysis", ANALYSIS),
    ("store", STORE),
    ("jobs", JOBS),
    ("resilience", RESILIENCE),
    ("obs", OBS),
    ("fuzz", FUZZ),
)

# Layers that get a ``<layer>.self_share`` metric from the profile pass.
SHARE_LAYERS: Tuple[str, ...] = (
    CORE, SIM, CRYPTO, BROADCAST, CONSENSUS, CODING, ANALYSIS, EXPERIMENTS,
    STORE, JOBS, RESILIENCE, OBS, CLI, PY_HASHLIB, PY_PICKLE, PY_SQLITE3, PY_OTHER,
)

_PY_MARKERS: Tuple[Tuple[str, str], ...] = (
    ("hashlib", PY_HASHLIB),
    ("hmac", PY_HASHLIB),
    ("sha256", PY_HASHLIB),
    ("pickle", PY_PICKLE),
    ("sqlite3", PY_SQLITE3),
)


def layer_of_path(relative: str) -> str:
    """Layer of a path relative to ``src/repro`` (``""`` when unmapped)."""
    relative = relative.replace("\\", "/")
    for prefix, layer in PATH_LAYERS:
        if relative == prefix or relative.startswith(prefix + "/"):
            return layer
    return ""


def layer_of_function(filename: str, function: str) -> str:
    """Layer of one profiled function, from its source path and name.

    Source under ``src/repro/<package>/`` belongs to that package's layer.
    Everything else is interpreter or stdlib time: built-ins carry their
    module in the function name (``<built-in method _pickle.dumps>``) and
    stdlib files in the filename, so both are searched for the markers.
    """
    normalised = filename.replace("\\", "/")
    marker = "/repro/"
    if marker in normalised and normalised.endswith(".py"):
        layer = layer_of_path(normalised.rsplit(marker, 1)[1])
        if layer:
            return layer
    haystack = normalised.rsplit("/", 1)[-1] + " " + function
    for needle, layer in _PY_MARKERS:
        if needle in haystack:
            return layer
    return PY_OTHER
