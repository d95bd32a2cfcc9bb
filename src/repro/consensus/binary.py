"""Signature-free binary Byzantine consensus (the paper's "binary DBFT" building block).

Algorithm 3 (non-authenticated vector consensus) uses one binary Byzantine
consensus instance per process, citing binary DBFT (Crain et al., 2018).
This module provides a signature-free binary consensus in the
Mostefaoui-Raynal style that DBFT builds on:

* a *BV-broadcast* phase filters out values proposed only by Byzantine
  processes: a value enters ``bin_values`` only after ``2t + 1`` processes
  echoed it, and a correct process echoes a value only after ``t + 1``
  processes sent it, so every value in ``bin_values`` was proposed by at
  least one correct process (non-intrusion);
* an *AUX* phase collects ``n - t`` auxiliary announcements whose values all
  lie inside ``bin_values``;
* if the collected values are a single ``{v}`` the estimate becomes ``v`` and
  the process decides when ``v`` equals the round's fallback value; otherwise
  the estimate adopts the fallback value.

DBFT replaces the randomised common coin with a weak rotating coordinator.
Here the fallback value is the deterministic, common-to-all ``round mod 2``
(the derandomisation also used in DBFT's deterministic instantiation), which
preserves Agreement and binary Strong Validity unconditionally, and
guarantees Termination within two rounds of every correct process holding
the same estimate — which the shipped adversaries (silent, crash, message
dropping, equivocating proposers) cannot prevent.  A fully adaptive
scheduler could delay (never violate) termination.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..sim import instrument
from ..sim.process import Process, ProtocolModule
from .interfaces import ConsensusModule, DecisionCallback

_BVAL = "bval"
_AUX = "aux"
_ROUNDS_AFTER_DECISION = 2


class BinaryConsensus(ConsensusModule):
    """One instance of signature-free binary Byzantine consensus."""

    def __init__(
        self,
        process: Process,
        name: str = "binary",
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
    ):
        super().__init__(process, name, parent, on_decide)
        self.round = 0
        self.estimate: Optional[int] = None
        self._halt_round: Optional[int] = None
        # Per-round message state.
        self._bval_senders: Dict[int, Dict[int, Set[int]]] = {}
        self._bval_sent: Dict[int, Set[int]] = {}
        self._bin_values: Dict[int, Set[int]] = {}
        self._aux_sent: Set[int] = set()
        self._aux_received: Dict[int, Dict[int, int]] = {}  # round -> sender -> its latest AUX value
        self._aux_counts: Dict[int, List[int]] = {}  # round -> [senders at 0, senders at 1], kept with it
        self._round_done: Set[int] = set()
        t = self.system.t
        self._echo_threshold = t + 1
        self._bin_threshold = 2 * t + 1
        self._quorum = self.system.quorum

    # ------------------------------------------------------------------
    def _handle_proposal(self, value: Any) -> None:
        if value not in (0, 1):
            raise ValueError(f"binary consensus proposals must be 0 or 1, got {value!r}")
        self.estimate = int(value)
        self._start_round(1)

    def fallback_value(self, round_number: int) -> int:
        """The common deterministic fallback value of a round (plays the coin's role)."""
        return round_number % 2

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------
    def _start_round(self, round_number: int) -> None:
        if self._halted(round_number):
            return
        self.round = round_number
        self._broadcast_bval(round_number, self.estimate)
        self._progress(round_number)

    def _halted(self, round_number: int) -> bool:
        return self._halt_round is not None and round_number > self._halt_round

    def _broadcast_bval(self, round_number: int, value: int) -> None:
        sent = self._bval_sent.setdefault(round_number, set())
        if value in sent:
            return
        sent.add(value)
        self.broadcast((_BVAL, round_number, value))

    MESSAGES = {
        _BVAL: ("_on_bval", (int, int)),
        _AUX: ("_on_aux", (int, int)),
    }

    # Both handlers take a value only if its type is exactly int: True passes
    # isinstance(·, int) and ``in (0, 1)``, and would reach a correct decision.
    def _on_bval(self, sender: int, round_number: int, value: int) -> None:
        halt = self._halt_round
        if round_number < 1 or type(value) is not int or value not in (0, 1) or (
            halt is not None and round_number > halt
        ):
            return
        senders = self._bval_senders.setdefault(round_number, {}).setdefault(value, set())
        senders.add(sender)
        if instrument.SINK is not None:
            # Coverage: how close each BV threshold is to tipping for this value.
            instrument.SINK.add(
                (
                    "binary.bval",
                    instrument.bucket(round_number),
                    value,
                    instrument.margin(len(senders), self._bin_threshold),
                )
            )
        if len(senders) >= self._echo_threshold:
            # Echo: at least one correct process sent this value.
            self._broadcast_bval(round_number, value)
        if len(senders) >= self._bin_threshold:
            self._bin_values.setdefault(round_number, set()).add(value)
            self._progress(round_number)

    def _on_aux(self, sender: int, round_number: int, value: int) -> None:
        halt = self._halt_round
        if round_number < 1 or type(value) is not int or value not in (0, 1) or (
            halt is not None and round_number > halt
        ):
            return
        if round_number < self.round:
            return  # _progress never reads a finished round's AUX state, so none is kept
        received = self._aux_received.get(round_number)
        if received is None:
            received = self._aux_received[round_number] = {}
            counts = self._aux_counts[round_number] = [0, 0]
        else:
            counts = self._aux_counts[round_number]
            previous = received.get(sender)
            if previous is not None:
                counts[previous] -= 1  # a re-send replaces the sender's value
        received[sender] = value
        counts[value] += 1
        self._progress(round_number)

    def _progress(self, round_number: int) -> None:
        """Drive the round forward whenever its preconditions may have become true."""
        if self.estimate is None or round_number != self.round or round_number in self._round_done:
            return
        bin_values = self._bin_values.get(round_number)
        if not bin_values:
            return
        if round_number not in self._aux_sent:
            self._aux_sent.add(round_number)
            self.broadcast((_AUX, round_number, min(bin_values)))
        # AUX senders whose latest value lies in bin_values.
        counts = self._aux_counts.get(round_number)
        supported = 0
        if counts is not None:
            for value in bin_values:
                supported += counts[value]
        if instrument.SINK is not None:
            instrument.SINK.add(
                (
                    "binary.aux",
                    instrument.bucket(round_number),
                    instrument.margin(supported, self._quorum),
                )
            )
        if supported < self._quorum:
            return
        values = {value for value in bin_values if counts[value]}
        self._round_done.add(round_number)
        del self._aux_received[round_number], self._aux_counts[round_number]
        fallback = self.fallback_value(round_number)
        if len(values) == 1:
            (only_value,) = values
            self.estimate = only_value
            if only_value == fallback:
                self._decide_and_schedule_halt(only_value, round_number)
        else:
            self.estimate = fallback
        if instrument.SINK is not None:
            instrument.SINK.add(
                ("binary.round", instrument.bucket(round_number), len(values), self.estimate)
            )
        self._start_round(round_number + 1)

    def _decide_and_schedule_halt(self, value: int, round_number: int) -> None:
        if self._halt_round is None:
            # Keep participating for two more rounds so that every other correct
            # process can reach its own decision, then go quiet.
            self._halt_round = round_number + _ROUNDS_AFTER_DECISION
        self._decide(value)
