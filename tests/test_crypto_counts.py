"""Counts before clocks: the crypto and coding work of fixed signed runs, pinned exactly.

``universal-authenticated`` under ``equivocation`` and ``eventual`` delays at
seed 2023, run beneath counting wrappers.  The counts are a property of the
code, not of the host: they repeat across interpreters and
``PYTHONHASHSEED``s (CI runs this file under two), so a change that makes a
receiver recompute a tag, or a decided Quad process verify its mail again,
fails here whatever the wall-clock says.  At n = 7 the run ends before any
relayed ``DECIDE`` reaches a decided process; n = 10 is there so that the
"nothing is handled after deciding" pin is not vacuous.  One
``universal-compact`` run pins ADD's Reed-Solomon work the same way.
"""

import hashlib
import hmac

import pytest

from repro.coding import add, reed_solomon
from repro.coding.reed_solomon import Fragment, ReedSolomonCode
from repro.consensus.quad import Quad
from repro.crypto import KeyAuthority
from repro.experiments.execute import execute_run
from repro.experiments.scenario import make_scenario

# ``result_sha256`` is the sha256 of ``RunResult.canonical_json()`` recorded at
# commit 775cc1b, before the tag memo, the encoding memo and the decided-Quad
# early return existed; that commit evaluated 207 and 448 HMACs on these runs.
PINNED = {
    (7, 2): {
        "result_sha256": "d1f8dbbdf8048403aa1b7bceb10848a63df4371bf706a1ef2303affc71a7e0a6",
        "sign": 34,
        "hmac": 34,
        "verify": 173,
        "mail": 45,
        "mail_after_deciding": 0,
        "handled": 45,
        "handled_after_deciding": 0,
    },
    (10, 3): {
        "result_sha256": "c5f7c45d8e1e4ea66404aa934590f9c1d4ee5c29a7c0b5d2241ac7976a178ffd",
        "sign": 58,
        "hmac": 58,
        "verify": 327,
        "mail": 72,
        "mail_after_deciding": 9,
        "handled": 63,
        "handled_after_deciding": 0,
    },
}


@pytest.mark.parametrize("system", sorted(PINNED))
def test_one_signed_run_counted(monkeypatch, system):
    counts = dict.fromkeys(PINNED[system], 0)

    def counted(function, name, after_deciding=None):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            if after_deciding is not None:
                counts[after_deciding] += self.decided_value is not None
            return function(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(hmac.HMAC, "hexdigest", counted(hmac.HMAC.hexdigest, "hmac"))
    monkeypatch.setattr(KeyAuthority, "sign", counted(KeyAuthority.sign, "sign"))
    monkeypatch.setattr(KeyAuthority, "verify", counted(KeyAuthority.verify, "verify"))
    monkeypatch.setattr(Quad, "on_message", counted(Quad.on_message, "mail", "mail_after_deciding"))
    for name, _ in Quad.MESSAGES.values():
        handler = counted(getattr(Quad, name), "handled", "handled_after_deciding")
        monkeypatch.setattr(Quad, name, handler)

    n, t = system
    spec = make_scenario("universal-authenticated", "equivocation", "eventual", n=n, t=t)
    result = execute_run(spec, 2023)

    assert result.ok
    counts["result_sha256"] = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    assert counts == PINNED[system]
    # The two claims the numbers carry: every verify reused a tag that a sign
    # had already computed, and a decided Quad process handled nothing.
    assert counts["hmac"] == counts["sign"]
    assert counts["handled_after_deciding"] == 0


# ``universal-compact`` at (10, 3): Quad agrees on a hash, then ADD codes the
# decided vector.  The seven correct processes input the same blob object, so
# it is encoded once (10 fragments, not 70), and each correct receiver checks
# the one dispersed fragment object it is sent once (7 ``_well_formed`` calls,
# not 48).  The decodes and interpolation bases are one per reconstruction
# attempt and did not move; ``result_sha256`` is the one commit 9f17312
# recorded when it built 70 fragments and checked 48.
COMPACT_PINNED = {
    "result_sha256": "8220bf17bf6daee99ec4ca14f65d5ab52c78f340bfa474030871ade740505c41",
    "fragments": 10,
    "well_formed": 7,
    "decode": 10,
    "interpolation_basis": 7,
}


def test_one_compact_run_codes_each_blob_once(monkeypatch):
    counts = dict.fromkeys(COMPACT_PINNED, 0)

    def counted(function, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reed_solomon, "_LAST_ENCODED", (None, 0, 0, ()))
    monkeypatch.setattr(Fragment, "__init__", counted(Fragment.__init__, "fragments"))
    monkeypatch.setattr(add, "_well_formed", counted(add._well_formed, "well_formed"))
    monkeypatch.setattr(ReedSolomonCode, "decode", counted(ReedSolomonCode.decode, "decode"))
    basis = counted(ReedSolomonCode._interpolation_basis, "interpolation_basis")
    monkeypatch.setattr(ReedSolomonCode, "_interpolation_basis", basis)

    spec = make_scenario("universal-compact", "equivocation", "eventual", n=10, t=3)
    result = execute_run(spec, 2023)

    assert result.ok
    counts["result_sha256"] = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    assert counts == COMPACT_PINNED
