"""Numeric primitives shared by the whole toolkit.

Parameter vectors are plain 1-D float64 numpy arrays, with no alias type;
this module adds their validation helpers, the seeded/forkable
random-stream handle and its layout, the error types and the two SGD
loops, which share one residual and one update rounding, ``theta - (eta * r) * x``.
:func:`sgd_steps` steps one iterate per sample and runs every
single-iterate schedule: SplitSGD's main thread (constant rate when it
runs no diagnostics) and the ``1/sqrt(t)`` and halving drivers.  Its step
allocates nothing.  :func:`lockstep_steps` steps R iterates side by side,
each on its own stream, and runs the ``mc`` burn-in of all replications,
every two-thread diagnostic (adding up window gradient sums) and both
``race`` detectors (pflug's adding up consecutive-gradient products); each
of its rows equals :func:`sgd_steps` on the same generator bit for bit,
divergence step included, and :func:`sgd_steps` stays the faster at R = 1.

Both loops follow one divergence rule: a run diverges at the first draw
it cannot take, the first whose margin ``x.theta`` is not finite.  A call
that leaves a non-finite iterate names the draw after its last, which is
that draw, so the step does not depend on where a driver cuts its calls.
The schedules, the detectors, the diagnostic and the Monte-Carlo study all
follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

__all__ = [
    "DimensionError",
    "DivergenceError",
    "NumericError",
    "RngStream",
    "as_param_vector",
    "check_step_size",
    "diagnostic_stream",
    "experiment_stream",
    "lockstep_steps",
    "replication_streams",
    "sgd_steps",
]

_MASK64 = (1 << 64) - 1


class NumericError(RuntimeError):
    """A quantity that must be finite is not (inf or NaN)."""


class DivergenceError(NumericError):
    """An optimizer iterate left the finite range.

    ``step`` is the gradient-step index at which the blow-up was detected,
    ``thread`` identifies the diagnostic thread (1 or 2) and ``row`` the
    replication of a many-row call, when applicable.
    """

    def __init__(self, message: str, step: int | None = None, thread: int | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.step = step
        self.thread = thread
        self.row = row


class DimensionError(ValueError):
    """A parameter vector does not match the data it is updated with."""


def as_param_vector(values, *, require_finite: bool = True) -> np.ndarray:
    """Coerce to a 1-D float64 array, validating shape (and finiteness)."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
    if require_finite and not np.isfinite(arr).all():
        raise NumericError("parameter vector contains non-finite entries")
    return arr


def check_step_size(eta: float) -> None:
    """Reject a negative, infinite or NaN step size (``ValueError``)."""
    if not (eta >= 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be >= 0 and finite, got {eta}")


def _mix64(a: int, b: int) -> int:
    """Deterministic 64-bit mixer (splitmix64 finalizer over two words)."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Handle for a named, reproducible random stream.

    The pair (seed, stream_id) keys a counter-based Philox generator, so the
    same pair always yields the same sequence and distinct stream ids give
    statistically independent sequences.  ``fork`` derives child streams
    deterministically; forking never advances or perturbs the parent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def fork(self, child_id: int) -> "RngStream":
        """Child stream for ``child_id``; same child id -> same stream."""
        return RngStream(self.seed, _mix64(self.stream_id & _MASK64, child_id & _MASK64))


# One stream layout for every command.  Under master seed s the dataset
# draws from RngStream(s).fork(DATA_STREAM_CHILD) and replication r from
# RngStream(s).fork(EXPERIMENT_STREAM_CHILD).fork(r), whose child
# START_STREAM_CHILD draws its start noise and whose child MAIN_STREAM_CHILD,
# the main stream, every main-thread step.  Diagnostic k of a run draws from
# the main stream's child k, and thread j of a diagnostic from its child j.
DATA_STREAM_CHILD = 0xDA7A
EXPERIMENT_STREAM_CHILD = 0xE0
START_STREAM_CHILD = 0x57A7
MAIN_STREAM_CHILD = 1


def experiment_stream(seed: int) -> RngStream:
    """The stream whose child r is replication r under master seed ``seed``."""
    return RngStream(seed).fork(EXPERIMENT_STREAM_CHILD)


def replication_streams(experiment: RngStream, reps) -> tuple[list[RngStream], list[RngStream]]:
    """Start-noise and main streams of replications ``reps`` of ``experiment``."""
    streams = [experiment.fork(r) for r in reps]
    return [s.fork(START_STREAM_CHILD) for s in streams], [s.fork(MAIN_STREAM_CHILD) for s in streams]


def diagnostic_stream(main: RngStream, k: int) -> RngStream:
    """Stream of diagnostic ``k`` (1-based) of the run on ``main``."""
    return main.fork(k)


# Indices are drawn this many at a time; one batched Philox draw yields the
# same indices as the same number of single draws, so the chunking never
# shows in a result.
_CHUNK = 1024


def _sigmoid_scalar(z: float) -> float:
    # Scalar logistic function for the per-draw hot paths, clipped as
    # objectives.sigmoid is (not exact below -40; the artifacts' bits need it).
    if z < -40.0:
        z = -40.0
    elif z > 40.0:
        z = 40.0
    return 1.0 / (1.0 + math.exp(-z))


def sgd_steps(
    features: np.ndarray,
    targets: np.ndarray,
    family: str,
    theta: np.ndarray,
    eta,
    steps: int,
    gen: np.random.Generator,
    *,
    first_step: int = 0,
) -> None:
    """Run ``steps`` single-sample SGD updates of ``theta`` in place.

    Each step draws a row index uniformly with replacement from ``gen``,
    forms that datum's residual r (``x.theta - y``, or ``sigmoid(x.theta) - y``
    for the logistic family) and updates ``theta -= (eta * r) * x``,
    rounded elementwise as written.  ``eta`` is one step size, or an array
    holding (at least) one per step.

    A divergence (see the module docstring) raises DivergenceError whose
    ``step`` is ``first_step`` plus the index of the draw it names in this call.
    """
    n, d = features.shape
    if theta.shape != (d,):
        raise DimensionError(f"parameter shape {theta.shape} != data dimension {d}")
    if isinstance(eta, np.ndarray) and eta.shape[0] < steps:
        raise ValueError(f"{eta.shape[0]} step sizes for {steps} steps")
    linear = family == "linear"
    ys = targets.tolist()
    etas = iter(eta.tolist()) if isinstance(eta, np.ndarray) else repeat(float(eta))
    numbers = count(first_step)
    scale, step = np.empty(()), np.empty(d)
    multiply, subtract, isfinite = np.multiply, np.subtract, math.isfinite
    # Overflow on a blown-up iterate is the divergence signal, not an
    # anomaly: a later margin or the final iterate goes non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, steps, _CHUNK):
            # The index list runs out first, so zip draws no step number or
            # rate past the chunk's last step.
            drawn = gen.integers(0, n, size=min(_CHUNK, steps - done)).tolist()
            for i, t, e in zip(drawn, numbers, etas):
                x = features[i]
                z = float(x.dot(theta))
                if not isfinite(z):
                    raise DivergenceError(f"iterate diverged at step {t}", step=t)
                r = z - ys[i] if linear else _sigmoid_scalar(z) - ys[i]
                scale[()] = e * r
                multiply(x, scale, step)
                subtract(theta, step, theta)
    if not np.isfinite(theta).all():
        t = first_step + steps
        raise DivergenceError(f"iterate diverged at step {t}", step=t)


# A lockstep index buffer holds at most this many steps per row and this
# many indices in all, so its memory stays small at any row count; the
# residuals, and the logistic margins, are held a block at a time.
# Indices are int32: a bounded draw gives the same stream at either integer
# width, and a dataset of 2**31 rows or more cannot fit in memory anyway.
_LOCKSTEP_STEPS = 1024
_LOCKSTEP_INDICES = 1 << 19
_LOCKSTEP_BLOCK = 64


def lockstep_steps(
    features: np.ndarray,
    targets: np.ndarray,
    family: str,
    thetas: np.ndarray,
    eta: float,
    steps: int,
    gens: list[np.random.Generator],
    l: int | None = None,
    products: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Run ``steps`` single-sample SGD steps on every row of ``thetas`` in
    place, row r drawing its indices from ``gens[r]``.

    Each step forms the residual r and updates ``theta -= (eta * r) * x``
    as :func:`sgd_steps` does, so every row equals that loop run alone on
    the same generator, bit for bit.  Returns ``(sums, failed)``.  With a
    window length ``l`` (``steps`` a multiple of it), ``sums[i, r]`` is row
    r's sum of sampled gradients ``r * x`` over window i (steps ``i*l`` to
    ``(i+1)*l - 1``); without one, ``sums`` is None.
    ``products = (total, prev_r, prev_x)``, arrays updated in place, carries
    each row's sum of consecutive-gradient inner products across calls:
    a step adds ``(r * prev_r) * (x . prev_x)`` to ``total``, then keeps its
    own residual and data row; zeros before a row's first draw add an exact 0.
    ``failed[r]`` is the step at which row r diverged (see the module
    docstring; ``steps`` when only the iterate the call leaves is not
    finite), or -1 if it did not.
    A failed row keeps stepping until every row has failed; its sums,
    product sum and iterate are meaningless.
    """
    n_rows, d = thetas.shape
    if d != features.shape[1]:
        raise DimensionError(f"parameter dimension {d} != data dimension {features.shape[1]}")
    n = features.shape[0]
    linear = family == "linear"
    chunk = min(_LOCKSTEP_STEPS, max(steps, 1), max(1, _LOCKSTEP_INDICES // max(n_rows, 1)))
    idx = np.empty((chunk, n_rows), dtype=np.int32)
    resid = np.empty((min(_LOCKSTEP_BLOCK, chunk), n_rows))
    # Checked per block: linear residuals (finite iff their margins are), or logistic margins.
    margins = np.empty(n_rows if linear else resid.shape)
    sums = None if l is None else np.zeros((steps // l, n_rows, d))
    grad, scale = np.empty((n_rows, d)), np.empty((n_rows, 1))
    if products is not None:
        total, prev_r, prev_x = products
    failed = np.full(n_rows, -1, dtype=np.int64)
    clip, negative, subtract, divide = np.clip, np.negative, np.subtract, np.divide
    multiply, vecdot, exp = np.multiply, np.vecdot, math.exp
    # Overflow on a blown-up iterate is the divergence signal: it shows up
    # as a non-finite margin (checked once per block) or final iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, steps, chunk):
            k = min(chunk, steps - done)
            for row, gen in enumerate(gens):
                idx[:k, row] = gen.integers(0, n, size=k, dtype=np.int32)
            for first in range(0, k, resid.shape[0]):
                # Each block row holds its targets until the residual
                # overwrites them.
                block = resid[: min(resid.shape[0], k - first)]
                zs = block if linear else margins[: block.shape[0]]
                targets.take(idx[first : first + block.shape[0]], out=block)
                for j, r in enumerate(block):
                    t = done + first + j
                    if sums is not None and t % l == 0:
                        window = sums[t // l]
                    x = features.take(idx[first + j], axis=0)
                    if linear:
                        z = vecdot(x, thetas, out=margins)
                    else:
                        # _sigmoid_scalar's operations on a copy of the margins;
                        # math.exp, not np.exp: the two differ in the last bit.
                        z = clip(vecdot(x, thetas, out=zs[j]), -40.0, 40.0)
                        negative(z, out=z)
                        z = np.fromiter(map(exp, z.tolist()), np.float64, n_rows)
                        z += 1.0
                        divide(1.0, z, out=z)
                    subtract(z, r, out=r)
                    if products is not None:
                        total += (r * prev_r) * vecdot(x, prev_x)
                        prev_r[...], prev_x[...] = r, x
                    r = r[:, None]
                    if sums is not None:
                        multiply(x, r, grad)
                        window += grad
                    multiply(eta, r, scale)
                    x *= scale
                    thetas -= x
                bad = ~np.isfinite(zs)
                if bad.any():
                    new = bad.any(axis=0) & (failed < 0)
                    failed[new] = done + first + bad[:, new].argmax(axis=0)
                    if (failed >= 0).all():
                        return sums, failed
    failed[(failed < 0) & ~np.isfinite(thetas).all(axis=1)] = steps
    return sums, failed
