"""System model parameters for Byzantine consensus.

The paper considers a system ``Pi = {P_1, ..., P_n}`` of ``n`` processes out
of which at most ``t`` (with ``0 < t < n``) may be Byzantine (arbitrarily
faulty).  This module provides :class:`SystemConfig`, the single place where
``n`` and ``t`` live, together with the derived quantities used throughout
the library (quorum sizes, the ``n > 3t`` resilience predicate, and the
bounds on input-configuration sizes ``n - t <= x <= n``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SystemConfig:
    """Static description of a consensus system.

    Attributes:
        n: Total number of processes.  Processes are identified by the
            integer indices ``0 .. n - 1``.
        t: Maximum number of Byzantine (arbitrarily faulty) processes the
            system must tolerate.  The paper requires ``0 < t < n``.
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a consensus system needs at least 2 processes, got n={self.n}")
        if not 0 < self.t < self.n:
            raise ValueError(f"fault threshold must satisfy 0 < t < n, got n={self.n}, t={self.t}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def processes(self) -> range:
        """All process indices ``0 .. n - 1``."""
        return range(self.n)

    @property
    def quorum(self) -> int:
        """The ``n - t`` quorum size used by every protocol in the paper."""
        return self.n - self.t

    @property
    def min_configuration_size(self) -> int:
        """Smallest number of process-proposal pairs in an input configuration."""
        return self.n - self.t

    @property
    def max_configuration_size(self) -> int:
        """Largest number of process-proposal pairs in an input configuration."""
        return self.n

    def tolerates_byzantine_faults(self) -> bool:
        """Return ``True`` iff ``n > 3t`` (the classical resilience bound).

        Theorem 1 of the paper shows that when ``n <= 3t`` every solvable
        validity property is trivial, so non-trivial consensus requires this
        predicate to hold.
        """
        return self.n > 3 * self.t

    def valid_configuration_sizes(self) -> range:
        """Sizes ``x`` with ``n - t <= x <= n`` allowed for input configurations."""
        return range(self.n - self.t, self.n + 1)

    def validate_process(self, process: int) -> None:
        """Raise :class:`ValueError` if ``process`` is not a valid index."""
        if not 0 <= process < self.n:
            raise ValueError(f"process index {process} out of range for n={self.n}")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_optimal_resilience(cls, n: int) -> "SystemConfig":
        """Build a system with the largest ``t`` such that ``n > 3t``.

        This is the configuration used by most of the paper's upper-bound
        statements (``t = floor((n - 1) / 3)``).
        """
        t = (n - 1) // 3
        if t == 0:
            raise ValueError(f"n={n} is too small for a Byzantine-tolerant system (need n >= 4)")
        return cls(n=n, t=t)

    @classmethod
    def without_byzantine_resilience(cls, t: int) -> "SystemConfig":
        """Build a system with ``n = 3t`` (the regime of Theorem 1)."""
        if t < 1:
            raise ValueError("t must be positive")
        return cls(n=3 * t, t=t)
