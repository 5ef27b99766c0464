"""Two-thread splitting diagnostic for stationarity of constant-rate SGD.

From a common starting point, two SGD threads run on independent sample
streams as two rows of the lockstep loop
(:func:`splitsgd.core.lockstep_steps`), each equal bit for bit to plain SGD
(:func:`splitsgd.core.sgd_steps`) on its stream; the Monte-Carlo histogram
runs the threads of all its replications as the rows of one such call.  Each
thread's trajectory is cut into w windows of l steps and the sampled
gradients are averaged per window; the inner products of paired window means
("gradient coherences") stay positive while both threads descend a shared
trend and approach fair coin flips once the iterates bounce around a
stationary distribution.  One verdict step (:func:`_verdicts`) counts each
row's negative coherences against a q*w threshold and continues it from its
threads' midpoint.  A diverging diagnostic raises DivergenceError naming
the thread (thread 1 if it diverged, else thread 2) and its step, or, with
both threads finite, the first window whose coherence is not finite.

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

from .core import DivergenceError, RngStream, as_param_vector, lockstep_steps
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
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"eta must be >= 0 and finite, got {self.eta}")
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


def decide(coherences, q: float):
    """Apply the counting rule to a sequence of coherences, or to each
    column of a ``(w, R)`` block of them.

    Returns (stationary, negative_count) where negative_count adds 1 per
    negative value and 1/2 per exact zero; stationary iff
    negative_count >= q * w.  A sequence gives a (bool, float) pair, a
    block two length-R arrays.
    """
    values = np.asarray(coherences, dtype=np.float64)
    if values.ndim not in (1, 2) or not len(values):
        raise ValueError("coherences must be a non-empty 1-D sequence or 2-D block")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    count = np.count_nonzero(values < 0.0, axis=0) + 0.5 * np.count_nonzero(values == 0.0, axis=0)
    stationary = count >= q * len(values)
    if values.ndim == 1:
        return bool(stationary), float(count)
    return stationary, count


def _two_thread_window_means(
    problem: Problem,
    thetas_in: np.ndarray,
    cfg: DiagnosticConfig,
    rngs: list[RngStream],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every row of ``thetas_in`` into two threads, all in lockstep.

    Thread k (1 or 2) of row r draws from child stream k of ``rngs[r]``.
    Returns ``(means, ends, failed)`` indexed by thread 0/1 and row:
    ``means[i, k, r]`` is the window-i gradient mean, ``ends[k, r]`` the
    final iterate and ``failed[k, r]`` the divergence step, -1 if none
    (see :func:`splitsgd.core.lockstep_steps`).
    """
    n_rows, d = thetas_in.shape
    thetas = np.concatenate([thetas_in, thetas_in], dtype=np.float64)
    gens = [rng.fork(k).generator() for k in (1, 2) for rng in rngs]
    dataset = problem.dataset
    sums, failed = lockstep_steps(
        dataset.features, dataset.targets, problem.spec.family, thetas, cfg.eta,
        cfg.w * cfg.l, gens, cfg.l,
    )
    sums /= cfg.l
    return (
        sums.reshape(cfg.w, 2, n_rows, d),
        thetas.reshape(2, n_rows, d),
        failed.reshape(2, n_rows),
    )


def _verdicts(means: np.ndarray, ends: np.ndarray, failed: np.ndarray, q: float, rows=None):
    """The ``(w, R)`` coherences of a :func:`_two_thread_window_means` result,
    which rows diverged (a thread failed, or a coherence is not finite), each
    row's :func:`decide` verdict and count, and its threads' midpoint.

    Given ``rows``, the rows' replication ids, raises DivergenceError for the
    first diverged row (thread 1 named first, then thread 2, then a
    non-finite coherence); its ``row`` is ``rows[r]``.
    """
    # Overflowing window means are a divergence signal, not an anomaly.
    with np.errstate(over="ignore", invalid="ignore"):
        coherences = np.vecdot(means[:, 0], means[:, 1])
    diverged = (failed >= 0).any(axis=0) | ~np.isfinite(coherences).all(axis=0)
    if rows is not None and diverged.any():
        r = int(diverged.argmax())
        for k in (0, 1):
            step = int(failed[k, r])
            if step >= 0:
                raise DivergenceError(f"diagnostic thread {k + 1} diverged at step {step}",
                                      step=step, thread=k + 1, row=rows[r])
        window = int((~np.isfinite(coherences[:, r])).argmax()) + 1
        raise DivergenceError(
            f"diagnostic coherence {window} of {len(coherences)} is not finite", row=rows[r]
        )
    return coherences, diverged, *decide(coherences, q), (ends[0] + ends[1]) / 2.0


def run_diagnostic(
    problem: Problem,
    theta_in: np.ndarray,
    cfg: DiagnosticConfig,
    rng: RngStream,
) -> DiagnosticResult:
    """Run the two-thread diagnostic from theta_in: a one-row
    :func:`_verdicts` call, which also names any divergence.

    Costs exactly 2*w*l gradient draws.  Each thread starts from theta_in
    with its own child stream of ``rng``.
    """
    theta_in = as_param_vector(theta_in)
    coherences, _, stationary, count, midpoints = _verdicts(
        *_two_thread_window_means(problem, theta_in[None], cfg, [rng]), cfg.q, [None]
    )
    return DiagnosticResult(midpoints[0], bool(stationary[0]), coherences[:, 0], float(count[0]))
