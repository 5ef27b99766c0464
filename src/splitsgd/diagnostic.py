"""Two-thread splitting diagnostic for stationarity of constant-rate SGD.

From a common starting point, two SGD threads run on independent sample
streams, on the same per-sample loop as the main thread
(:func:`splitsgd.core.sgd_steps`).  Each thread's trajectory is cut into w
windows of l steps and the sampled gradients are averaged per window; the
inner products of paired window means ("gradient coherences") stay
positive while both threads descend a shared trend and approach fair coin
flips once the iterates bounce around a stationary distribution.  The
decision rule counts negative coherences against a q*w threshold.  A
thread that diverges raises DivergenceError naming the thread and step.

The sign balance is not immediate even at stationarity: both threads start
from the same theta_in, so window i's mean gradient carries a conditional
mean rho^(i-1) (I - rho) (theta_in - theta*) / (l*eta), rho = (I - eta*H)^l,
that the two threads share.  The first windows after the split are
therefore biased towards positive coherences, and the bias decays like
rho^(i-1).  On the default linear problem at eta = 1e-2, l = 50 the
negative-sign probability is about 0.19, 0.37 and 0.47 at windows 1-3 and
about 0.5 from window 4 on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, RngStream, check_step_size, sgd_steps
from .objectives import Problem

__all__ = [
    "DiagnosticConfig",
    "DiagnosticResult",
    "decide",
    "run_diagnostic",
]

@dataclass(frozen=True)
class DiagnosticConfig:
    """Shape of one diagnostic: step size, windows, window length, threshold.

    eta may be zero (frozen iterates are legal; the window means then simply
    average gradients at the start point).  q is the fraction of windows
    that must come out negative to call the process stationary.
    """

    eta: float
    w: int = 20
    l: int = 50
    q: float = 0.4

    def __post_init__(self):
        check_step_size(self.eta)
        if self.w < 1 or self.l < 1:
            raise ValueError("w and l must be positive integers")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


@dataclass(frozen=True)
class DiagnosticResult:
    theta_d: np.ndarray  # midpoint of the two final iterates
    stationary: bool
    coherences: np.ndarray  # (w,) inner products of paired window means
    negative_count: float  # sum of (1 - sign(Q_i)) / 2; zeros count one half


def decide(coherences, q: float) -> tuple[bool, float]:
    """Apply the counting rule to a sequence of coherences.

    Returns (stationary, negative_count) where negative_count adds 1 per
    negative value and 1/2 per exact zero; stationary iff
    negative_count >= q * len(coherences).
    """
    values = np.asarray(coherences, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("coherences must be a non-empty 1-D sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    negative_count = float(np.count_nonzero(values < 0.0)) + 0.5 * float(
        np.count_nonzero(values == 0.0)
    )
    return negative_count >= q * values.size, negative_count


def _run_thread(
    problem: Problem,
    theta_in: np.ndarray,
    cfg: DiagnosticConfig,
    gen: np.random.Generator,
    thread_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One thread: w*l steps from theta_in, per-window gradient means."""
    theta = np.array(theta_in, dtype=np.float64)
    means = np.zeros((cfg.w, theta.shape[0]))
    dataset = problem.dataset
    try:
        for i in range(cfg.w):
            sgd_steps(
                dataset.features, dataset.targets, problem.spec.family, theta, cfg.eta,
                cfg.l, gen, first_step=i * cfg.l, window=means[i],
            )
        if not np.isfinite(theta).all():
            raise DivergenceError("iterate diverged", step=cfg.w * cfg.l - 1)
    except DivergenceError as err:
        raise DivergenceError(
            f"diagnostic thread {thread_id} diverged at step {err.step}",
            step=err.step,
            thread=thread_id,
        ) from err
    means /= cfg.l
    return means, theta


def _two_thread_window_means(
    problem: Problem,
    theta_in: np.ndarray,
    cfg: DiagnosticConfig,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run both threads; thread k (1 or 2) draws from child stream k of ``rng``."""
    (means_1, theta_1), (means_2, theta_2) = (
        _run_thread(problem, theta_in, cfg, rng.fork(k).generator(), k) for k in (1, 2)
    )
    return means_1, means_2, theta_1, theta_2


def run_diagnostic(
    problem: Problem,
    theta_in: np.ndarray,
    cfg: DiagnosticConfig,
    rng: RngStream = RngStream(0),
) -> DiagnosticResult:
    """Run the two-thread diagnostic from theta_in.

    Costs exactly 2*w*l gradient draws.  Each thread starts from theta_in
    with its own child stream of ``rng``.
    """
    means_1, means_2, theta_1, theta_2 = _two_thread_window_means(problem, theta_in, cfg, rng)
    coherences = np.array([float(np.dot(m1, m2)) for m1, m2 in zip(means_1, means_2)])
    stationary, negative_count = decide(coherences, cfg.q)
    theta_d = (theta_1 + theta_2) / 2.0
    return DiagnosticResult(
        theta_d=theta_d,
        stationary=stationary,
        coherences=coherences,
        negative_count=negative_count,
    )
