"""Bounded, deterministic retries: :class:`RetryPolicy` and the quarantine error.

Both retry loops in the repo — the supervisor re-dispatching a task whose
worker died, the store re-attempting a failed flush — share one policy
shape: a bounded attempt budget and a seeded jittered exponential backoff.
Each loop decides for itself which errors are worth another attempt.
Determinism is the point: backoff delays come from ``random.Random`` seeded
with ``(policy seed, attempt, token)``, never from the global RNG or the
clock, so a chaos run under a fixed :class:`FaultPlan` replays the exact
same schedule every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any


class TaskQuarantinedError(RuntimeError):
    """A task exhausted its retry budget killing workers and was quarantined.

    Raised by supervised dispatch when the caller provides no poison
    handler; carries the task's dispatch index and attempt count so the
    caller can report which unit of work is poisonous.
    """

    def __init__(self, index: int, attempts: int, reason: str) -> None:
        super().__init__(
            f"task {index} quarantined after {attempts} attempt(s): {reason}"
        )
        self.index = index
        self.attempts = attempts
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with seeded, jittered exponential backoff.

    Args:
        max_attempts: Total attempts including the first (so ``3`` means
            one try plus two retries).  Must be >= 1.
        backoff_base: Delay before the first retry, in seconds.
        backoff_factor: Multiplier applied per subsequent retry.
        backoff_max: Upper clamp on any single delay.
        jitter: Fractional jitter: the delay is scaled by a factor drawn
            uniformly from ``[1 - jitter, 1 + jitter]``.
        seed: Seeds the jitter draw (together with attempt and token), so
            delays are a pure function of ``(seed, attempt, token)``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def backoff(self, attempt: int, token: Any = 0) -> float:
        """The delay (seconds) before retry number ``attempt`` (1-based).

        Deterministic: the jitter factor is drawn from a ``Random`` seeded
        with ``(seed, attempt, token)``, so the same policy produces the
        same schedule for the same task on every run.
        """
        if attempt < 1:
            return 0.0
        raw = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        raw = min(raw, self.backoff_max)
        if self.jitter:
            rng = Random(f"{self.seed}:{attempt}:{token}")
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(raw, self.backoff_max)

