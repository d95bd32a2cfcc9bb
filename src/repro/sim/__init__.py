"""Partially synchronous discrete-event simulator: the execution substrate."""

from .adversary import (
    CrashProcess,
    EquivocatingProposer,
    MessageDroppingProcess,
    QuadSplitBrainLeader,
    SilentProcess,
    crash_factory,
    dropping_factory,
    equivocating_factory,
    silent_factory,
)
from .events import Envelope, Event, TimerExpiry
from .metrics import MetricsCollector, word_size
from .network import (
    DelayModel,
    HeldLinksDelayModel,
    JitteredDelayModel,
    SynchronousDelayModel,
)
from .process import Process, ProtocolModule
from .simulation import Simulation, SimulationError

__all__ = [
    "Simulation",
    "SimulationError",
    "Process",
    "ProtocolModule",
    "Envelope",
    "Event",
    "TimerExpiry",
    "DelayModel",
    "SynchronousDelayModel",
    "HeldLinksDelayModel",
    "JitteredDelayModel",
    "MetricsCollector",
    "word_size",
    "SilentProcess",
    "CrashProcess",
    "MessageDroppingProcess",
    "EquivocatingProposer",
    "QuadSplitBrainLeader",
    "silent_factory",
    "crash_factory",
    "dropping_factory",
    "equivocating_factory",
]
