"""Counts before clocks: the send path of a fixed unsigned run, pinned exactly.

``universal-non-authenticated`` under ``equivocation`` and ``eventual`` delays
at n = 10, seed 2023, run beneath counting wrappers.  Almost every message of
this protocol is a broadcast, so the pins say how sends are built: one
``Envelope`` and one ``Simulation.transmit`` per ``broadcast`` call, per
point-to-point ``send`` and per adversary ``send_raw``, never one per
receiver.  ``queued`` counts message entries pushed on the event heap: the
three equivocating processes never listen, so the 1,584 messages addressed
to them (3 of each broadcast's 10, and 9 of the 30 ``send_raw``s) are
recorded but never queued and never become events.  The counts repeat across
interpreters and ``PYTHONHASHSEED``s (CI runs this file under two).

The receive path is pinned on the same run.  A queued message is the tuple
``(time, sequence, kind, receiver, sender, envelope)`` and nothing else is
built per delivery; the loop hands each one to the addressed module's
``on_message`` (``on_message``: every queued message the run popped, plus
the Bracha deliveries dispatched against the ``DELIVERED`` table), which
calls one handler per well-formed message (``handled``).  Bracha digests each
message object once per module (``digest``), and a send asks the delay model
for all its receivers' delays in one ``_candidate_delays`` call.
"""

import hashlib
import sys

from repro.experiments.execute import execute_run
from repro.experiments.scenario import make_scenario
from repro.broadcast.reliable import ByzantineReliableBroadcast
from repro.consensus.binary import BinaryConsensus
from repro.consensus.vector_non_authenticated import NonAuthenticatedVectorConsensus
from repro.crypto import hashing
from repro.sim import DelayModel, Envelope, Event, Process, Simulation
from repro.sim import events as events_module
from repro.sim import simulation as simulation_module
from repro.sim.process import ProtocolModule

# ``result_sha256`` is the sha256 of ``RunResult.canonical_json()`` recorded at
# commit 762eb76, where every receiver of a broadcast got its own Envelope
# and its own transmit (5,280 of them on this run), every message was queued
# and every transmit re-checked its receiver.
PINNED = {
    "result_sha256": "a4576fd993c979d4d8fe3fdb0cec3ed3250a025f6caaf2d252f2f1b85c24e1df",
    "events_processed": 3578,
    "total_messages": 5280,
    "queued": 3696,
    "transmit": 555,
    "envelopes": 555,
    "broadcast": 525,
    "send": 0,
    "send_raw": 30,
}

# The receive path of the same run.  Every message of it is well formed, so
# each ``on_message`` runs one handler.  Before the heap carried sender and
# envelope, the run made the same ``on_message`` and handler calls, 903
# ``digest`` calls and one ``_candidate_delay`` call per message (5,280).
RECEIVE_PINNED = {
    "on_message": 3617,
    "handled": 3617,
    "digest": 196,
    "candidate_delays": 555,
}

HANDLER_TABLES = (
    (BinaryConsensus, BinaryConsensus.MESSAGES),
    (ByzantineReliableBroadcast, ByzantineReliableBroadcast.MESSAGES),
    (NonAuthenticatedVectorConsensus, NonAuthenticatedVectorConsensus.DELIVERED),
)


def test_one_unsigned_run_counted(monkeypatch):
    counts = dict.fromkeys(PINNED, 0)
    received = dict.fromkeys(RECEIVE_PINNED, 0)
    simulations = []

    def counted(owner, name, key, tally=counts):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            tally[key] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Envelope, "__init__", "envelopes")
    counted(ProtocolModule, "broadcast", "broadcast")
    counted(ProtocolModule, "send", "send")
    counted(Process, "send_raw", "send_raw")
    counted(Simulation, "transmit", "transmit")
    # Handlers are bound when a module is built, so patching the classes first counts them.
    counted(ProtocolModule, "on_message", "on_message", received)
    for cls, table in HANDLER_TABLES:
        for name, _types in table.values():
            counted(cls, name, "handled", received)
    counted(DelayModel, "_candidate_delays", "candidate_delays", received)
    digest = hashing.digest  # every module that imported it by name
    for module in [module for name, module in sys.modules.items() if name.startswith("repro")]:
        if getattr(module, "digest", None) is digest:
            counted(module, "digest", "digest", received)
    original_run = Simulation.run_until_all_correct_decide

    def run(self, *args, **kwargs):
        simulations.append(self)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run_until_all_correct_decide", run)
    heappush = simulation_module._heappush

    def push(queue, entry):
        if entry[2] == Event.MESSAGE:
            counts["queued"] += 1
            # (time, sequence, kind, receiver, sender, envelope): no delivery object.
            assert len(entry) == 6 and type(entry[4]) is int and type(entry[5]) is Envelope, entry
        heappush(queue, entry)

    monkeypatch.setattr(simulation_module, "_heappush", push)

    spec = make_scenario("universal-non-authenticated", "equivocation", "eventual", n=10, t=3)
    result = execute_run(spec, 2023)

    assert result.ok
    (simulation,) = simulations
    counts["result_sha256"] = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    counts["events_processed"] = simulation.events_processed
    counts["total_messages"] = simulation.metrics.total_messages
    assert counts == PINNED
    # The claims the numbers carry: a send builds one envelope and makes one
    # simulator call for all its receivers, and messages to processes that
    # never listen are counted but not queued.
    sends = counts["broadcast"] + counts["send"] + counts["send_raw"]
    assert counts["envelopes"] == counts["transmit"] == sends
    # The receive path: one delay-model call per send, and no delivery class at all.
    assert received == RECEIVE_PINNED
    assert received["candidate_delays"] == counts["transmit"]
    assert not hasattr(events_module, "MessageDelivery")
