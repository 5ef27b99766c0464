"""Monte-Carlo studies of the diagnostic.

Two tools: the coherence histogram (distribution of one window's coherence
across seeded replications of burn-in + diagnostic, all replications
stepped in lockstep by :func:`splitsgd.core.lockstep_steps`, each row bit
for bit plain SGD) and the exact sign-flip model of the false-stationarity
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, diagnostic_stream, lockstep_steps
from .diagnostic import DiagnosticConfig, _two_thread_window_means, _verdicts, decide
from .objectives import DEFAULT_START_NOISE_SD, Problem, ProblemSpec, build_problem, replication_starts

__all__ = [
    "CoherenceStudy",
    "CoherenceSummary",
    "QRiskQuery",
    "coherence_histogram",
    "type1_error_probability",
]

@dataclass(frozen=True)
class CoherenceStudy:
    """One histogram scenario: problem, step size, burn-in length (steps),
    which window to record, and how many seeded replications to run.

    Each replication starts from the scenario's base point
    (:func:`splitsgd.objectives.start_point`) plus N(0, start_noise_sd^2 I)
    noise, runs ``burn_in_steps`` of constant-rate SGD on its main stream,
    then that stream's first diagnostic: with the thread length as burn-in,
    SplitSGD's first diagnostic.  Only ``windows`` windows are run (default:
    ``window_index``) — a window's coherence depends only on the draws up
    to that window, so truncating the tail changes nothing.  ``diagnostic``
    is the configuration of those windows, which also checks eta and l.
    """

    problem: ProblemSpec | Problem
    eta: float
    burn_in_steps: int = 0
    window_index: int = 2
    replications: int = 500
    normalized: bool = False
    l: int = 50
    windows: int | None = None
    start: str = "reversed"
    start_noise_sd: float = DEFAULT_START_NOISE_SD
    diagnostic: DiagnosticConfig = field(init=False, repr=False)

    def __post_init__(self):
        if self.burn_in_steps < 0:
            raise ValueError("burn_in_steps must be >= 0")
        if self.window_index < 1:
            raise ValueError("window_index must be positive")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.windows is not None and self.windows < self.window_index:
            raise ValueError("windows must cover window_index")
        if not self.start_noise_sd >= 0.0:
            raise ValueError(f"start_noise_sd must be >= 0, got {self.start_noise_sd}")
        windows = self.window_index if self.windows is None else self.windows
        object.__setattr__(self, "diagnostic", DiagnosticConfig(self.eta, windows, self.l, 0.5))


@dataclass(frozen=True)
class CoherenceSummary:
    kept: int
    diverged: int
    mean: float
    sd: float
    negative_fraction: float


def coherence_histogram(
    study: CoherenceStudy, rng: RngStream
) -> tuple[list[tuple[int, float]], CoherenceSummary]:
    """Coherence of window ``window_index`` across replications, replication
    r on child r of ``rng``, an :func:`splitsgd.core.experiment_stream`.

    Returns (replication index, value) pairs for the replications that
    stayed finite, plus a summary.  Values are raw inner products, or
    cosines (clamped to [-1, 1], 0 where a window mean vanishes) when the
    study asks for normalized ones.  Replications that diverge, in the
    burn-in or in the diagnostic (a thread, or any window's coherence, as
    :func:`splitsgd.diagnostic.run_diagnostic` would raise), are dropped
    from the histogram and counted.
    """
    problem = build_problem(study.problem)
    dataset = problem.dataset
    spec = problem.spec
    n_rep = study.replications

    thetas, mains = replication_starts(spec, study.start, rng, range(n_rep), study.start_noise_sd)
    _, failed = lockstep_steps(
        dataset.features,
        dataset.targets,
        spec.family,
        thetas,
        study.eta,
        study.burn_in_steps,
        [main.generator() for main in mains],
    )

    kept_reps = np.flatnonzero(failed < 0)
    means, ends, failed = _two_thread_window_means(
        problem,
        thetas[kept_reps],
        study.diagnostic,
        [diagnostic_stream(mains[r], 1) for r in kept_reps],
    )
    coherences, bad = _verdicts(means, ends, failed, study.diagnostic.q)[:2]
    ok = ~bad
    diverged = int(n_rep - ok.sum())
    means_1, means_2 = means[study.window_index - 1][:, ok]
    values = coherences[study.window_index - 1, ok]
    if study.normalized:
        norms = np.sqrt(np.vecdot(means_1, means_1)) * np.sqrt(np.vecdot(means_2, means_2))
        # Rounding can push the quotient past +/-1 by an ulp.
        values = np.divide(values, norms, out=np.zeros_like(values), where=norms > 0.0)
        np.clip(values, -1.0, 1.0, out=values)
    rows = list(zip(kept_reps[ok].tolist(), values.tolist()))

    kept = len(rows)
    if kept:
        mean = float(values.mean())
        sd = float(values.std(ddof=1)) if kept > 1 else 0.0
        negative_fraction = decide(values, 0.0)[1] / kept
    else:
        mean = sd = negative_fraction = math.nan
    summary = CoherenceSummary(
        kept=kept,
        diverged=diverged,
        mean=mean,
        sd=sd,
        negative_fraction=negative_fraction,
    )
    return rows, summary


@dataclass(frozen=True)
class QRiskQuery:
    """False-stationarity query under the fair-sign model: w independent
    half/half coherence signs, verdict threshold q."""

    w: int
    q: float

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("w must be a positive integer")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


def type1_error_probability(query: QRiskQuery) -> float:
    """P(fewer than q*w of w fair coin flips are negative), exactly.

    Integer binomial sums, each coefficient made from the one before it;
    the comparison `i < q*w` is the float complement of the decision
    rule's `count >= q*w`, so calculator and rule agree on boundary cases.
    q = 0 gives an empty sum, hence 0.
    """
    w = query.w
    total, c = 0, 1
    for i in range(w + 1):
        if not i < query.q * w:
            break
        total += c
        c = c * (w - i) // (i + 1)
    # An int/int quotient is correctly rounded; 2.0**w overflows past w = 1023.
    return total / (1 << w)
