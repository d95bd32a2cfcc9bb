"""An input configuration's hash is cached on the object and never pickled.

``InputConfiguration.__hash__`` computes ``hash(pairs)`` once, on first use.
The hash of a ``str`` proposal depends on the interpreter's
``PYTHONHASHSEED``, so a configuration pickled by one process (a pool
worker, say) and loaded by another must hash afresh in the loader.
"""

import base64
import json
import os
import pickle
import subprocess
import sys

from repro.core import InputConfiguration

ASSIGNMENT = {0: "alpha", 1: "beta", 3: "gamma"}

_PICKLING_SCRIPT = """
import base64, json, pickle
from repro.core import InputConfiguration

config = InputConfiguration.from_mapping({assignment!r})
lookup = {{config: "found"}}  # hashes the configuration before it is pickled
print(json.dumps({{
    "pickle": base64.b64encode(pickle.dumps(config)).decode(),
    "hash": hash(config),
    "str_hash": hash("alpha"),
}}))
"""


def pickled_under_another_seed():
    """Pickle a hashed configuration in a child interpreter with a different hash seed."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _PICKLING_SCRIPT.format(assignment=ASSIGNMENT)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(completed.stdout)


class TestCachedHashNeverCrossesAPickle:
    def test_a_configuration_loaded_under_another_seed_hashes_afresh(self):
        child = pickled_under_another_seed()
        # The two interpreters really do hash strings differently.
        assert child["str_hash"] != hash("alpha")
        loaded = pickle.loads(base64.b64decode(child["pickle"]))
        fresh = InputConfiguration.from_mapping(ASSIGNMENT)
        assert hash(fresh) != child["hash"]
        assert loaded == fresh
        assert hash(loaded) == hash(fresh)
        assert {fresh: "found"}[loaded] == "found"
        assert loaded in {fresh}

    def test_a_round_trip_keeps_value_and_hash(self):
        config = InputConfiguration.from_mapping({0: 1, 2: "b"})
        before = hash(config)
        loaded = pickle.loads(pickle.dumps(config))
        assert loaded == config and hash(loaded) == before
        assert loaded.pairs == config.pairs and loaded.processes == config.processes
