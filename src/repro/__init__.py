"""repro — a reproduction of "On the Validity of Consensus" (PODC 2023).

The package is organised as follows:

* :mod:`repro.core` — the paper's formalism: input configurations, validity
  properties, the configuration space with every similarity neighbourhood
  ``sim(c)``, triviality and the similarity condition ``C_S``, the
  solvability classifier, and the Universal decision rule.
* :mod:`repro.sim` — a deterministic partially synchronous message-passing
  simulator (processes, adversarial scheduling, GST/delta, metrics).
* :mod:`repro.crypto` — simulated PKI signatures, threshold signatures and
  hashing.
* :mod:`repro.broadcast` — best-effort, Byzantine-reliable and slow broadcast.
* :mod:`repro.consensus` — Quad, binary consensus, the three vector-consensus
  algorithms of the paper and the Universal protocol.
* :mod:`repro.coding` — GF(256) Reed–Solomon coding and ADD.
* :mod:`repro.analysis` — experiment drivers used by the benchmarks and the
  examples (classification, complexity sweeps, lower-bound and partitioning
  adversaries).
* :mod:`repro.experiments` — the scenario matrix (protocol × adversary ×
  delay model) and the parallel experiment runner with deterministic
  per-``(scenario, seed)`` results, aggregation and regression baselines;
  CLI: ``python -m repro.experiments``.
"""

from . import core

__version__ = "1.0.0"

__all__ = ["core", "__version__"]
