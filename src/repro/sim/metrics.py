"""Message and communication (word) complexity accounting.

The paper defines the message complexity of an execution as the number of
messages sent by *correct* processes during ``[GST, infinity)``, and the
communication complexity as the number of *words* sent in the same window,
where a word contains a constant number of values, hashes and signatures.

:class:`MetricsCollector` implements exactly that accounting, and also keeps
auxiliary counters (total messages including pre-GST and Byzantine traffic,
per-protocol breakdowns) used by the experiment reports.

:meth:`MetricsCollector.record_message` is called once per send, not once
per receiver: a broadcast to ``n`` receivers is recorded as ``count=n``
messages of one size, so :func:`word_size` runs once per send.  It
dispatches on exact payload type first (the common shapes — tuples,
scalars, envelopes — never reach a ``getattr``), and counts a container's
exact ``str``/``int``/``float``/``bool`` items inline instead of recursing.
The estimates themselves are unchanged from the original recursive
implementation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .events import Envelope


def word_size(payload: Any) -> int:
    """Estimate the size of a protocol payload in words.

    The convention follows the paper's: a value, hash, signature or other
    atomic field costs one word; containers cost the sum of their elements;
    objects may override the estimate by exposing a ``words`` property (the
    signature and threshold-signature classes do).
    """
    # Exact-type fast paths.  Only exact builtins are safe to shortcut: a
    # subclass could expose a ``words`` override, which the generic path
    # below honours first, exactly like the original implementation.
    kind = type(payload)
    if kind is tuple or kind is list:
        total = 0
        for item in payload:
            # Exact scalars are one word each, counted here without a call.
            item_kind = type(item)
            if item_kind is str or item_kind is int or item_kind is float or item_kind is bool:
                total += 1
            else:
                total += word_size(item)
        return total if total > 0 else 1
    if kind is str or kind is int or kind is float or kind is bool:
        return 1
    if payload is None:
        return 0
    if kind is bytes or kind is bytearray:
        # Serialised blobs: one word per 64 bytes (a word holds a constant
        # number of values/signatures, and values/signatures serialise to a
        # few dozen bytes each).
        return (len(payload) + 63) // 64 or 1
    if kind is Envelope:
        # stable_fields() == (path, payload): a path of module names costs
        # one word per segment (min 1), plus the inner payload.
        return (len(payload.path) or 1) + word_size(payload.payload)
    # Generic path: same checks, same order, as the original implementation.
    words = getattr(payload, "words", None)
    if isinstance(words, int):
        return max(1, words)
    if isinstance(payload, (bytes, bytearray)):
        return max(1, (len(payload) + 63) // 64)
    if isinstance(payload, (bool, int, float, str)):
        return 1
    if isinstance(payload, (list, tuple, set, frozenset)):
        return max(1, sum(word_size(item) for item in payload))
    if isinstance(payload, dict):
        return max(1, sum(word_size(key) + word_size(value) for key, value in payload.items()))
    pairs = getattr(payload, "pairs", None)
    if pairs is not None:
        # An input configuration of m process-proposal pairs occupies m words.
        return max(1, len(pairs))
    stable_fields = getattr(payload, "stable_fields", None)
    if callable(stable_fields):
        return word_size(stable_fields())
    return 1


@dataclass
class MetricsCollector:
    """Accumulates complexity metrics during a simulation run.

    Attributes:
        gst: The execution's Global Stabilization Time (messages sent before
            it by correct processes are excluded from the paper-style
            counters but still tracked in the ``total_*`` ones).
    """

    gst: float = 0.0
    messages_after_gst: int = 0
    words_after_gst: int = 0
    total_messages: int = 0
    total_words: int = 0
    byzantine_messages: int = 0
    per_protocol_messages: Counter = field(default_factory=Counter)
    per_sender_messages: Counter = field(default_factory=Counter)
    decisions: Dict[int, Tuple[float, Any]] = field(default_factory=dict)

    def record_message(
        self,
        sender: int,
        send_time: float,
        payload: Any,
        protocol: Tuple[str, ...],
        sender_correct: bool,
        count: int = 1,
    ) -> None:
        """Record one send of ``payload`` to ``count`` receivers (``count`` messages)."""
        words = word_size(payload) * count
        self.total_messages += count
        self.total_words += words
        self.per_protocol_messages[protocol[0] if protocol else "?"] += count
        self.per_sender_messages[sender] += count
        if not sender_correct:
            self.byzantine_messages += count
            return
        if send_time >= self.gst:
            self.messages_after_gst += count
            self.words_after_gst += words

    def record_decision(self, process: int, time: float, value: Any) -> None:
        """Record the first decision of a (correct) process."""
        if process not in self.decisions:
            self.decisions[process] = (time, value)

    # ------------------------------------------------------------------
    # Paper-style accessors
    # ------------------------------------------------------------------
    @property
    def message_complexity(self) -> int:
        """Messages sent by correct processes during ``[GST, infinity)``."""
        return self.messages_after_gst

    @property
    def communication_complexity(self) -> int:
        """Words sent by correct processes during ``[GST, infinity)``."""
        return self.words_after_gst

    def decision_latency(self) -> float:
        """Time at which the last recorded decision happened (0 if none)."""
        if not self.decisions:
            return 0.0
        return max(time for time, _ in self.decisions.values())

    def summary(self) -> Dict[str, Any]:
        """A plain-dictionary summary used by benchmarks and examples."""
        return {
            "message_complexity": self.message_complexity,
            "communication_complexity": self.communication_complexity,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "byzantine_messages": self.byzantine_messages,
            "decisions": dict(self.decisions),
            "decision_latency": self.decision_latency(),
            "per_protocol_messages": dict(self.per_protocol_messages),
        }
