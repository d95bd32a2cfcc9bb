"""Counts before clocks: the crypto work of a fixed signed run, pinned exactly.

``universal-authenticated`` under ``equivocation`` and ``eventual`` delays at
seed 2023, run beneath counting wrappers.  The counts are a property of the
code, not of the host: they repeat across interpreters and
``PYTHONHASHSEED``s (CI runs this file under two), so a change that makes a
receiver recompute a tag, or a decided Quad process verify its mail again,
fails here whatever the wall-clock says.  At n = 7 the run ends before any
relayed ``DECIDE`` reaches a decided process; n = 10 is there so that the
"nothing is handled after deciding" pin is not vacuous.
"""

import hashlib
import hmac

import pytest

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
