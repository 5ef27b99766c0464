"""Stochastic-gradient schedules with a two-thread stationarity diagnostic.

The package bundles:

* the per-sample SGD loop of every single-iterate schedule, the lockstep
  loop of the Monte-Carlo burn-in, every diagnostic and both detectors of
  the race, the random streams and the error types (:mod:`splitsgd.core`),
* synthetic linear / logistic regression benchmarks with per-datum and
  full losses and gradients (:mod:`splitsgd.objectives`),
* the two-thread gradient-coherence diagnostic (:mod:`splitsgd.diagnostic`),
* the adaptive step-size schedule built on it plus baseline schedules
  (:mod:`splitsgd.optimizers`),
* Monte-Carlo studies of the diagnostic (:mod:`splitsgd.analysis`),
* a CSV-producing CLI (:mod:`splitsgd.cli`, installed as ``splitsgd``).

All randomness flows through :class:`splitsgd.core.RngStream`, a
counter-based generator keyed by ``(seed, stream_id)`` whose ``fork``
derivation is pure integer arithmetic, so every artifact is reproducible
bit for bit on one machine (across machines, see README "Determinism and
seeding": margins go through the OpenBLAS kernel picked for the CPU).
"""

from .core import RngStream
from .objectives import build_problem, make_default_spec, reversed_start
from .optimizers import SplitSgdConfig, run_splitsgd

__version__ = "0.5.0"

# The names of the README "Core API sketch"; everything else is imported
# from its own module.
__all__ = [
    "RngStream",
    "SplitSgdConfig",
    "build_problem",
    "make_default_spec",
    "reversed_start",
    "run_splitsgd",
    "__version__",
]
