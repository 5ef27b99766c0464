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

from .core import DimensionError, DivergenceError, NumericError, RngStream
from .diagnostic import DiagnosticConfig, DiagnosticResult, decide, run_diagnostic
from .objectives import (
    Dataset,
    Problem,
    ProblemSpec,
    build_problem,
    make_default_spec,
    perturbed_start,
    reversed_start,
)
from .optimizers import (
    RunTrace,
    SplitSgdConfig,
    final_log_loss,
    run_constant_sgd,
    run_pflug_detection,
    run_sgd_half,
    run_split_detection,
    run_splitsgd,
    run_sqrt_decay_sgd,
)

__version__ = "0.5.0"

__all__ = [
    "DimensionError",
    "DivergenceError",
    "NumericError",
    "RngStream",
    "DiagnosticConfig",
    "DiagnosticResult",
    "decide",
    "run_diagnostic",
    "Dataset",
    "Problem",
    "ProblemSpec",
    "build_problem",
    "make_default_spec",
    "perturbed_start",
    "reversed_start",
    "RunTrace",
    "SplitSgdConfig",
    "final_log_loss",
    "run_constant_sgd",
    "run_pflug_detection",
    "run_sgd_half",
    "run_split_detection",
    "run_splitsgd",
    "run_sqrt_decay_sgd",
    "__version__",
]
