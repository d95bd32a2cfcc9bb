"""Every declared message table, attacked from its own schema.

Each protocol module declares the messages it accepts once, as a class-level
table ``kind -> (handler name, field types)``, and ``ProtocolModule.on_message``
is the only dispatcher.  This file reads every such table and derives, per
kind, the malformed neighbours of a well-formed payload: one field short, one
field long, and each field replaced in turn by ``[]``, ``{}``, ``None`` and a
scalar of the wrong type (for a class kind: each dataclass field).  Per table
it adds an unknown kind, the unhashable kind ``[1]`` and the bare payloads
``7``, ``{1: 2}`` and ``b""``.  A Byzantine process sends one variant to the
module's path on every correct process, at start and again after everyone
decided.  No exception may escape, and the run's own correctness check
(agreement, validity, termination) must come back clean.

It also pins the shape of the message path: no class but the base and the
pass-through best-effort broadcast defines ``on_message``.
"""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import repro
from repro.analysis.lower_bound import CheapLeaderConsensus, CheapLeaderProcess
from repro.broadcast import ByzantineReliableBroadcast, SlowBroadcast
from repro.coding import AsynchronousDataDissemination
from repro.coding.reed_solomon import Fragment
from repro.consensus import BinaryConsensus, Quad, VectorDissemination
from repro.consensus.quad import PrepareCertificate
from repro.consensus.vector_authenticated import AuthenticatedVectorConsensus, SignedProposal
from repro.consensus.vector_compact import CompactVectorConsensus
from repro.consensus.vector_non_authenticated import NonAuthenticatedVectorConsensus
from repro.core import SystemConfig
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.experiments.scenario import DELAY_MODELS, PROTOCOLS, make_scenario
from repro.sim import Envelope, Process, Simulation, SynchronousDelayModel
from repro.sim.process import ProtocolModule

SEED = 2023
BYZANTINE = 3  # n = 4, t = 1: the last index, as every scenario adversary
VEC = ("universal", "vec_cons")


def _send(payload):
    return ("send", payload)


# (class, table attribute) -> (scenario protocol, injection path, wrap).  A
# ``wrap`` carries the variant to a table that only a child's delivery reaches.
TARGETS = {
    (Quad, "MESSAGES"): ("quad", ("quad",), None),
    (BinaryConsensus, "MESSAGES"): ("binary", ("binary",), None),
    (ByzantineReliableBroadcast, "MESSAGES"): ("universal-non-authenticated", VEC + ("brb",), None),
    (NonAuthenticatedVectorConsensus, "DELIVERED"): ("universal-non-authenticated", VEC + ("brb",), _send),
    (AuthenticatedVectorConsensus, "MESSAGES"): ("universal-authenticated", VEC, None),
    (CompactVectorConsensus, "MESSAGES"): ("universal-compact", VEC + ("beb",), None),
    (VectorDissemination, "MESSAGES"): ("universal-compact", VEC + ("disseminator",), None),
    (SlowBroadcast, "MESSAGES"): ("universal-compact", VEC + ("disseminator", "slow"), None),
    (AsynchronousDataDissemination, "MESSAGES"): ("universal-compact", VEC + ("add",), None),
    (CheapLeaderConsensus, "MESSAGES"): ("cheap", ("cheap",), None),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _is_table(value):
    """A class attribute shaped like a message table: kind -> (handler name, field types)."""
    return (
        isinstance(value, dict)
        and bool(value)
        and all(
            isinstance(entry, tuple) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], tuple)
            for entry in value.values()
        )
    )


def declared_tables():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return {
        (cls, name)
        for cls in _all_subclasses(ProtocolModule)
        for name, value in vars(cls).items()
        if _is_table(value)
    }


def _samples(process):
    """One well-formed value per declared field type or class kind, signed with the sender's own key."""
    signature = process.authority.sign(process.pid, ("proposal", "x"))
    empty = ThresholdSignature(message_digest="x", signers=frozenset(), threshold=0)
    return {
        int: 1,
        str: "x",
        object: "x",
        tuple: ("x",),
        type(None): None,
        Fragment: Fragment(process.pid, (1,), 1),
        PartialSignature: PartialSignature(signer=process.pid, signature=signature),
        ThresholdSignature: empty,
        PrepareCertificate: PrepareCertificate(view=1, value_digest="x", signature=empty),
        SignedProposal: SignedProposal(sender=process.pid, value="x", signature=signature),
    }


def _first(expected):
    return expected[0] if isinstance(expected, tuple) else expected


def _wrong_scalar(expected):
    types = expected if isinstance(expected, tuple) else (expected,)
    return "x" if int in types else 7


def variants(table, process):
    """``(label, payload)`` for every malformed neighbour ``table`` admits, built by ``process``."""
    samples = _samples(process)
    out = [
        ("unknown kind", ("gossip", 1)),
        ("kind [1]", ([1], 1)),
        ("bare 7", 7),
        ("bare dict", {1: 2}),
        ("bare bytes", b""),
    ]
    for kind, (_handler, types) in table.items():
        if isinstance(kind, str):
            base = [kind] + [samples[_first(expected)] for expected in types]
            out.append((f"{kind} short", tuple(base[:-1])))
            out.append((f"{kind} long", tuple(base) + ("x",)))
            for index, expected in enumerate(types, start=1):
                for junk in ([], {}, None, _wrong_scalar(expected)):
                    payload = tuple(base[:index] + [junk] + base[index + 1:])
                    out.append((f"{kind} field {index} = {junk!r}", payload))
        else:
            for field in dataclasses.fields(kind):
                for junk in ([], {}, None, 7):
                    payload = dataclasses.replace(samples[kind], **{field.name: junk})
                    out.append((f"{kind.__name__}.{field.name} = {junk!r}", payload))
    return out


class Injector(Process):
    """Byzantine: sends one payload to ``path`` on every process, at start and on demand."""

    def __init__(self, pid, simulation, path, payload):
        super().__init__(pid, simulation)
        self.path = path
        self.payload = payload

    def on_start(self):
        self.inject()

    def inject(self):
        for receiver in range(self.n):
            self.send_raw(receiver, Envelope(self.path, self.payload))


def _cases():
    cases = []
    probe = Simulation(SystemConfig(4, 1), seed=SEED)
    sender = Process(BYZANTINE, probe)
    for (cls, attribute), (protocol, path, wrap) in TARGETS.items():
        for label, payload in variants(getattr(cls, attribute), sender):
            payload = wrap(payload) if wrap else payload
            cases.append(pytest.param(protocol, path, payload, id=f"{cls.__name__}.{attribute}: {label}"))
    return cases


def _cheap_setup():
    """The strawman of Theorem 4 under a friendly schedule: everyone decides the leader's value."""
    proposals = {pid: f"own-{pid}" for pid in range(4)}

    def check(simulation, _proposals):
        decided = set(simulation.decisions().values())
        if simulation.all_correct_decided() and decided == {proposals[CheapLeaderConsensus.LEADER]}:
            return []
        return [f"cheap protocol decided {decided}"]

    def factory(pid, simulation):
        return CheapLeaderProcess(pid, simulation, proposals[pid])

    return factory, proposals, check


@pytest.mark.parametrize("protocol, path, payload", _cases())
def test_a_malformed_payload_changes_nothing(protocol, path, payload):
    system = SystemConfig(4, 1)
    if protocol == "cheap":
        factory, proposals, check = _cheap_setup()
        delay_model = SynchronousDelayModel(seed=SEED)
    else:
        spec = make_scenario(protocol, "none", "synchronous", n=4, t=1)
        setup = PROTOCOLS[protocol](spec, system, SEED)
        factory, proposals, check = setup.factory, setup.proposals, setup.check
        delay_model = DELAY_MODELS[spec.delay](spec, SEED)
    sim = Simulation(system, delay_model=delay_model, seed=SEED)
    sim.populate(
        factory, faulty=[BYZANTINE], faulty_factory=lambda pid, s: Injector(pid, s, path, payload)
    )
    sim.run_until_all_correct_decide(until=10_000)
    assert check(sim, proposals) == []
    decisions = sim.decisions()
    sim.processes[BYZANTINE].inject()  # once more, now that everyone has decided
    sim.run(until=sim.time + 50)
    assert sim.decisions() == decisions
    assert check(sim, proposals) == []


def test_every_declared_table_is_attacked():
    assert declared_tables() == set(TARGETS)


def test_only_the_base_class_and_best_effort_broadcast_define_on_message():
    source = pathlib.Path(repro.__file__).parent
    definers = sorted(
        f"{path.relative_to(source)}::{node.name}"
        for path in source.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "on_message" for item in node.body)
    )
    assert definers == ["broadcast/best_effort.py::BestEffortBroadcast", "sim/process.py::ProtocolModule"]
