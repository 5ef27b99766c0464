"""Optimizer drivers: SplitSGD and the baseline schedules.

The schedule drivers step on the per-sample loop
:func:`splitsgd.core.sgd_steps` (SplitSGD's diagnostics run in
:mod:`splitsgd.diagnostic`) and charge budget in "units": one unit per
gradient draw on the main thread, and w*l units per diagnostic, because its
two threads conceptually run in parallel.  They log the full loss once per
epoch boundary (an epoch is n budget units) and return a trace that also
carries the true gradient-evaluation count, which includes both diagnostic
threads (2*w*l per diagnostic).  The two detectors that ``race`` compares
return only the epoch of their first detection, each running many
replications as rows of :func:`splitsgd.core.lockstep_steps`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from ._csvio import write_csv
from .core import DivergenceError, RngStream, as_param_vector
from .core import diagnostic_stream, lockstep_steps, sgd_steps
from .diagnostic import DiagnosticConfig, _two_thread_window_means, _verdicts, run_diagnostic
from .objectives import Problem, full_loss

__all__ = [
    "EVENT_DIAG_N",
    "EVENT_DIAG_S",
    "EVENT_HALVED",
    "EVENT_NONE",
    "DiagnosticEvent",
    "RunTrace",
    "ScheduleState",
    "SplitSgdConfig",
    "TraceRecord",
    "final_log_loss",
    "run_constant_sgd",
    "run_pflug_detection",
    "run_sgd_half",
    "run_split_detection",
    "run_splitsgd",
    "run_sqrt_decay_sgd",
    "sqrt_decay_schedule",
]

EVENT_NONE = "none"
EVENT_DIAG_S = "diagnostic-S"
EVENT_DIAG_N = "diagnostic-N"
EVENT_HALVED = "lr-halved"


@dataclass(frozen=True)
class SplitSgdConfig(DiagnosticConfig):
    """Schedule parameters: start rate eta and diagnostic shape (w, l, q),
    as a :class:`DiagnosticConfig`, plus diagnostic cap B, initial thread
    length t1 (in gradient steps) and decay factor gamma."""

    B: int = 1_000_000
    t1: int = 4000
    gamma: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.B < 0:
            raise ValueError("B must be >= 0")
        if self.t1 < 1:
            raise ValueError("t1 must be a positive number of steps")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")


@dataclass(frozen=True)
class ScheduleState:
    """Current (step size, thread length, detection count) of a run."""

    current_eta: float
    current_thread_length: int
    detections: int = 0

    def after_detection(self, gamma: float) -> "ScheduleState":
        # Multiplicative decay and the matching integer thread growth;
        # repeated multiplication keeps the float semantics exact and
        # order-independent of how often the state is inspected.
        return ScheduleState(
            current_eta=self.current_eta * gamma,
            current_thread_length=int(math.floor(self.current_thread_length / gamma)),
            detections=self.detections + 1,
        )


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    gradient_evals: int
    learning_rate: float  # schedule's current step size when the record is written
    full_loss: float
    event: str = EVENT_NONE


@dataclass(frozen=True)
class DiagnosticEvent:
    """Outcome of one in-run diagnostic and the schedule state after it."""

    index: int  # 1-based diagnostic counter
    stationary: bool
    negative_count: float
    state: ScheduleState


@dataclass
class RunTrace:
    records: list[TraceRecord]
    final_theta: np.ndarray
    total_evals: int
    diagnostics: list[DiagnosticEvent] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_csv(path, [f.name for f in fields(TraceRecord)], [astuple(r) for r in self.records])


def final_log_loss(trace: RunTrace) -> float:
    """Natural log of the last recorded full loss (inf-safe)."""
    loss = trace.records[-1].full_loss
    if math.isnan(loss) or loss == math.inf:
        return math.inf
    if loss <= 0.0:
        return -math.inf
    return math.log(loss)


def _budget(problem: Problem, epochs: int) -> int:
    """A run's length in budget units: ``epochs`` epochs of n units each."""
    if epochs < 0:
        raise ValueError(f"the epoch budget must be >= 0, got {epochs}")
    return epochs * problem.spec.n


class _EpochLog:
    """One run's main thread, budget counter and per-epoch-boundary records.

    ``theta`` is the main-thread iterate (a copy of the start), ``gen`` the
    main generator of ``rng``.  ``budget`` is the run's length in budget
    units, ``charged`` counts budget units, ``evals`` true gradient draws.
    Every record, the initial one at the start included, carries the
    schedule's rate for the next draw and the schedule changes made since
    the record before it, joined by ``;`` (``none`` if there were none).
    """

    def __init__(self, problem: Problem, budget_epochs: int, theta0: np.ndarray, rng: RngStream,
                 eta: float):
        self.theta = as_param_vector(theta0).copy()
        self.budget = _budget(problem, budget_epochs)
        self.dataset = problem.dataset
        self.family = problem.spec.family
        self.n = problem.spec.n
        self.charged = 0
        self.evals = 0
        self.epoch = 0
        self.eta, self.events = eta, []
        self.records = [TraceRecord(0, 0, eta, full_loss(self.dataset, self.family, self.theta))]
        self.gen = rng.generator()

    def advance(self, units: int, evals: int, then=None) -> None:
        """Charge ``units`` budget units and ``evals`` draws that left
        ``theta``; ``then`` is the ``(rate, event)`` the schedule switches to
        after them, which a record written at their end shows."""
        self.charged += units
        self.evals += evals
        if then is not None:
            self.eta, event = then
            self.events.append(event)
        while self.charged >= (self.epoch + 1) * self.n:
            self.epoch += 1
            loss = full_loss(self.dataset, self.family, self.theta)
            event = ";".join(self.events) or EVENT_NONE
            self.records.append(TraceRecord(self.epoch, self.evals, self.eta, loss, event))
            self.events = []

    def run(self, eta, steps: int, then=None) -> None:
        """Run ``steps`` main-thread SGD updates of ``theta`` in place at rate
        ``eta`` (one step size, or an array of one per step).

        Calls are cut at epoch boundaries so boundary records see the exact
        boundary iterate; ``then`` (see :meth:`advance`) applies after the
        last step.
        """
        while steps > 0:
            k = min(steps, self.n - self.charged % self.n)
            sgd_steps(self.dataset.features, self.dataset.targets, self.family, self.theta, eta, k,
                      self.gen, first_step=self.evals)
            steps -= k
            eta = eta[k:] if isinstance(eta, np.ndarray) else eta
            self.advance(k, k, None if steps else then)

    def trace(self, diagnostics=()) -> RunTrace:
        return RunTrace(self.records, self.theta, self.evals, list(diagnostics))


def sqrt_decay_schedule(eta: float, t):
    """Step size of the t-th draw (1-based; an int or an array of them)
    under 1/sqrt(t) decay.

    Starts at 20*eta and crosses eta at t = 400.
    """
    return 20.0 * eta / np.sqrt(t)


def run_sqrt_decay_sgd(
    problem: Problem,
    cfg: SplitSgdConfig,
    theta0: np.ndarray,
    rng: RngStream,
    budget_epochs: int,
) -> RunTrace:
    """SGD with the deterministic 1/sqrt(t) decay of ``cfg.eta``."""
    log = _EpochLog(problem, budget_epochs, theta0, rng, sqrt_decay_schedule(cfg.eta, 1))
    n = log.n
    for t in range(0, log.budget, n):
        # Each record carries the rate of the next draw (the last one's at the end).
        log.run(sqrt_decay_schedule(cfg.eta, np.arange(t + 1, t + n + 1)), n,
                then=(sqrt_decay_schedule(cfg.eta, min(t + n + 1, log.budget)), EVENT_NONE))
    return log.trace()


def run_sgd_half(
    problem: Problem,
    cfg: SplitSgdConfig,
    theta0: np.ndarray,
    rng: RngStream,
    budget_epochs: int,
) -> RunTrace:
    """Open-loop halving: threads of length t1, 2*t1, 4*t1, ... at step
    sizes eta, eta/2, eta/4, ... (``cfg.t1`` and ``cfg.eta``); no diagnostics."""
    log = _EpochLog(problem, budget_epochs, theta0, rng, cfg.eta)
    current_len = cfg.t1
    while log.charged < log.budget:
        steps = min(current_len, log.budget - log.charged)
        then = (log.eta / 2.0, EVENT_HALVED) if log.charged + steps < log.budget else None
        log.run(log.eta, steps, then)
        current_len *= 2
    return log.trace()


def run_splitsgd(
    problem: Problem,
    cfg: SplitSgdConfig,
    theta0: np.ndarray,
    rng: RngStream,
    budget_epochs: int,
) -> RunTrace:
    """SplitSGD: constant-rate threads alternating with diagnostics.

    Each stationary verdict multiplies the rate by gamma and stretches the
    next thread by 1/gamma (floored); the continuation point is always the
    midpoint of the two diagnostic threads.  At most cfg.B diagnostics are
    run; the budget (in epochs) always governs the run length.
    """
    log = _EpochLog(problem, budget_epochs, theta0, rng, cfg.eta)
    state = ScheduleState(cfg.eta, cfg.t1)
    events: list[DiagnosticEvent] = []
    diag_cost = cfg.w * cfg.l
    while log.charged < log.budget:
        remaining = log.budget - log.charged
        steps = remaining if len(events) >= cfg.B else min(state.current_thread_length, remaining)
        log.run(state.current_eta, steps)
        if len(events) >= cfg.B or log.budget - log.charged < diag_cost:
            # No room for another full diagnostic; the loop either exits or
            # keeps threading to the end of the budget.
            continue
        result = run_diagnostic(problem, log.theta, replace(cfg, eta=state.current_eta),
                                diagnostic_stream(rng, len(events) + 1))
        log.theta = result.theta_d.copy()
        if result.stationary:
            state = state.after_detection(cfg.gamma)
        log.advance(diag_cost, 2 * diag_cost,
                    (state.current_eta, EVENT_DIAG_S if result.stationary else EVENT_DIAG_N))
        events.append(
            DiagnosticEvent(len(events) + 1, result.stationary, result.negative_count, state)
        )
    return log.trace(events)


def run_constant_sgd(
    problem: Problem,
    cfg: SplitSgdConfig,
    theta0: np.ndarray,
    rng: RngStream,
    budget_epochs: int,
) -> RunTrace:
    """Plain SGD at the fixed step size ``cfg.eta``: SplitSGD with no diagnostics."""
    return run_splitsgd(problem, replace(cfg, B=0), theta0, rng, budget_epochs)


def run_split_detection(
    problem: Problem,
    cfg: SplitSgdConfig,
    thetas0,
    rngs: list[RngStream],
    max_epochs: int,
) -> list[int | None]:
    """SplitSGD from every start in ``thetas0`` (start r drawing from
    ``rngs[r]``) until its first stationary verdict; reports per run the
    epochs consumed by then (threads plus diagnostics, in budget units,
    rounded up), or None when ``max_epochs`` pass without one.

    Until that verdict every run keeps rate ``cfg.eta`` and threads of
    ``cfg.t1`` steps, so the runs are rows of one lockstep loop: a thread
    is one call over the live rows, a diagnostic one two-thread call, and
    a fired row steps no further, so each reads as a one-row call.  A
    divergence raises DivergenceError whose ``row`` names the first run of
    its call, in replication order, to diverge; on a main thread its
    ``step`` counts every draw of that run, in a diagnostic the draws of
    thread ``thread``.
    """
    thetas = np.stack([as_param_vector(theta) for theta in thetas0])
    data, n, rows = problem.dataset, problem.spec.n, np.arange(len(rngs))
    gens = [rng.generator() for rng in rngs]
    budget, diag_cost, charged, diags = _budget(problem, max_epochs), cfg.w * cfg.l, 0, 0
    detected: list[int | None] = [None] * len(gens)
    while charged < budget and gens:
        steps = budget - charged if diags >= cfg.B else min(cfg.t1, budget - charged)
        _, failed = lockstep_steps(data.features, data.targets, problem.spec.family, thetas,
                                   cfg.eta, steps, gens)
        diverged = np.flatnonzero(failed >= 0)
        if diverged.size:
            row, step = int(rows[diverged[0]]), charged + diags * diag_cost + int(failed[diverged[0]])
            raise DivergenceError(f"iterate diverged at step {step}", step, row=row)
        charged += steps
        if diags >= cfg.B or budget - charged < diag_cost:
            continue
        diags += 1
        _, _, fired, _, thetas = _verdicts(*_two_thread_window_means(
            problem, thetas, cfg, [diagnostic_stream(rngs[row], diags) for row in rows]
        ), cfg.q, rows.tolist())
        charged += diag_cost
        for row in rows[fired]:
            detected[row] = math.ceil(charged / n)
        rows, thetas = rows[~fired], thetas[~fired]
        gens = [gen for gen, done in zip(gens, fired) if not done]
    return detected


def run_pflug_detection(
    problem: Problem,
    cfg: SplitSgdConfig,
    thetas0,
    rngs: list[RngStream],
    max_epochs: int,
) -> list[int | None]:
    """SGD at the constant rate ``cfg.eta`` from every start in ``thetas0``
    (start r drawing from ``rngs[r]``) with each run's sum of
    consecutive-gradient inner products; reports per run the first epoch
    boundary where its sum is negative, or None when ``max_epochs`` pass
    without one.

    The runs are rows of one lockstep loop, stepped an epoch per call, and
    a fired row steps no further, so each reads as a one-row call.  A run
    whose sum is negative at a boundary has fired, even if it diverged in
    that epoch; any other divergence raises DivergenceError whose ``row``
    names the run and whose ``step`` counts every step of that run.
    """
    _budget(problem, max_epochs)
    thetas = np.stack([as_param_vector(theta) for theta in thetas0])
    data, n, rows = problem.dataset, problem.spec.n, np.arange(len(rngs))
    gens = [rng.generator() for rng in rngs]
    carry = (np.zeros(len(gens)), np.zeros(len(gens)), np.zeros_like(thetas))
    detected = np.zeros(len(gens), dtype=np.int64)
    for epoch in range(1, max_epochs + 1):
        _, failed = lockstep_steps(data.features, data.targets, problem.spec.family, thetas,
                                   cfg.eta, n, gens, products=carry)
        fired = carry[0] < 0.0
        diverged = np.flatnonzero((failed >= 0) & ~fired)
        if diverged.size:
            row, step = int(rows[diverged[0]]), (epoch - 1) * n + int(failed[diverged[0]])
            raise DivergenceError(f"iterate diverged at step {step}", step, row=row)
        detected[rows[fired]] = epoch
        rows, thetas, carry = rows[~fired], thetas[~fired], tuple(a[~fired] for a in carry)
        gens = [gen for gen, done in zip(gens, fired) if not done]
        if not gens:
            break
    return [int(epoch) if epoch else None for epoch in detected]
