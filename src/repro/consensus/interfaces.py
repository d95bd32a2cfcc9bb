"""Common interfaces for the consensus building blocks.

Every consensus module in this package exposes the paper's
``propose(v)`` / ``decide(v')`` interface.  Decisions are reported through a
callback so that modules can be stacked (Universal on top of vector
consensus on top of Quad) exactly the way the paper's pseudocode composes
its building blocks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.process import Process, ProtocolModule

DecisionCallback = Callable[[Any], None]


class ConsensusModule(ProtocolModule):
    """Base class for modules exposing ``propose``/``decide``."""

    def __init__(
        self,
        process: Process,
        name: str,
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
    ):
        super().__init__(process, name, parent)
        self._on_decide = on_decide
        self.decided_value: Optional[Any] = None
        self.proposed_value: Optional[Any] = None

    # ------------------------------------------------------------------
    def propose(self, value: Any) -> None:
        """Propose a value.  A correct process proposes exactly once."""
        if self.proposed_value is not None:
            raise RuntimeError(f"{self.name}: a correct process proposes exactly once")
        self.proposed_value = value
        self._handle_proposal(value)

    def has_decided(self) -> bool:
        return self.decided_value is not None

    # ------------------------------------------------------------------
    def _decide(self, value: Any) -> None:
        """Record the (first) decision and notify the parent."""
        if self.decided_value is not None:
            return
        self.decided_value = value
        if self._on_decide is not None:
            self._on_decide(value)

    def _handle_proposal(self, value: Any) -> None:
        """Protocol-specific proposal handling (override)."""
        raise NotImplementedError
