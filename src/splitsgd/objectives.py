"""Synthetic convex benchmark problems: linear and logistic regression.

A ProblemSpec pins the data distribution (Gaussian features, exponentially
decaying true coefficients) and a data stream; Dataset is the realized
design matrix / target pair.  Per-datum losses are mean-reduced, so the
gradient at a uniformly drawn index (what :func:`splitsgd.core.sgd_steps`
samples) is an unbiased estimate of the full gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .core import DATA_STREAM_CHILD, RngStream, _sigmoid_rows, _sigmoid_scalar, as_param_vector
from .core import replication_streams

__all__ = [
    "Dataset",
    "FAMILIES",
    "Problem",
    "ProblemSpec",
    "build_problem",
    "default_theta_star",
    "full_gradient",
    "full_loss",
    "generate",
    "gradient_at_index",
    "make_default_spec",
    "perturbed_start",
    "replication_starts",
    "reversed_start",
    "start_point",
    "write_dataset_csv",
]

FAMILIES = ("linear", "logistic")
START_POINTS = ("reversed", "near-opt")

DEFAULT_N = 1000
DEFAULT_D = 20
DEFAULT_NOISE_SD = 1.0
# Standard deviation of the N(0, sd^2 I) noise added to a run's start point.
DEFAULT_START_NOISE_SD = 0.1


def default_theta_star(d: int = DEFAULT_D) -> np.ndarray:
    """True coefficients 5*exp(-j/2), j = 1..d (steeply decaying)."""
    j = np.arange(1, d + 1, dtype=np.float64)
    return 5.0 * np.exp(-j / 2.0)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to deterministically realize a benchmark dataset."""

    family: str
    n: int
    d: int
    theta_star: np.ndarray
    noise_sd: float
    data_seed: RngStream

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not self.noise_sd >= 0.0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        object.__setattr__(self, "theta_star", as_param_vector(self.theta_star))
        if self.theta_star.shape != (self.d,):
            raise ValueError(f"theta_star has shape {self.theta_star.shape}, expected ({self.d},)")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)


@dataclass(frozen=True)
class Problem:
    spec: ProblemSpec
    dataset: Dataset


def make_default_spec(
    family: str,
    data_seed: RngStream | None = None,
    *,
    n: int = DEFAULT_N,
    d: int = DEFAULT_D,
    noise_sd: float = DEFAULT_NOISE_SD,
) -> ProblemSpec:
    """Standard benchmark: n=1000 Gaussian rows in d=20 dimensions."""
    if data_seed is None:
        data_seed = RngStream(0).fork(DATA_STREAM_CHILD)
    return ProblemSpec(
        family=family,
        n=n,
        d=d,
        theta_star=default_theta_star(d),
        noise_sd=noise_sd,
        data_seed=data_seed,
    )


def generate(spec: ProblemSpec) -> Dataset:
    """Realize the dataset from the spec's data stream.

    Draw order is fixed (features, then target noise) so the feature matrix
    is identical across families sharing a data stream.
    """
    gen = spec.data_seed.generator()
    x = gen.standard_normal((spec.n, spec.d))
    z = x @ spec.theta_star
    if spec.family == "linear":
        with np.errstate(over="ignore"):
            targets = z + spec.noise_sd * gen.standard_normal(spec.n)
        if not np.isfinite(targets).all():
            raise ValueError(f"noise_sd={spec.noise_sd} gives non-finite targets")
    else:
        targets = (gen.random(spec.n) < _sigmoid_rows(z)).astype(np.float64)
    return Dataset(features=x, targets=targets)


def build_problem(spec: ProblemSpec | Problem) -> Problem:
    """Materialize the dataset for ``spec``; built problems pass through."""
    if isinstance(spec, Problem):
        return spec
    return Problem(spec=spec, dataset=generate(spec))


def gradient_at_index(dataset: Dataset, family: str, theta: np.ndarray, index: int) -> np.ndarray:
    """Per-datum gradient r * x (the residual r is the one
    :func:`splitsgd.core.sgd_steps` inlines)."""
    x = dataset.features[index]
    y = dataset.targets[index]
    z = float(np.dot(x, theta))
    if family == "linear":
        return (z - y) * x
    return (_sigmoid_scalar(z) - y) * x


def full_loss(dataset: Dataset, family: str, theta: np.ndarray) -> float:
    """Mean per-datum loss over the whole dataset.

    Overflow to +inf is deliberate for near-divergent iterates: comparison
    grids record such cells as infinite loss.  A zero logistic target adds
    no ``y * z`` term, not even where its margin overflows; a target-1 row
    whose usual form is not finite (``inf - inf``) costs ``log(1 + e**-z)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = dataset.features @ theta
        if family == "linear":
            r = z - dataset.targets
            return float(0.5 * np.mean(r * r))
        yz = np.multiply(dataset.targets, z, out=np.zeros_like(z), where=dataset.targets != 0.0)
        losses = np.logaddexp(0.0, z) - yz
        np.logaddexp(0.0, -z, out=losses, where=~np.isfinite(losses) & (dataset.targets == 1.0))
        return float(np.mean(losses))


def full_gradient(dataset: Dataset, family: str, theta: np.ndarray) -> np.ndarray:
    z = dataset.features @ theta
    r = (z if family == "linear" else _sigmoid_rows(z)) - dataset.targets
    return dataset.features.T @ r / dataset.features.shape[0]


def reversed_start(spec: ProblemSpec) -> np.ndarray:
    """Far starting point 5*exp(-(d-j)/2), j = 1..d.

    The decay profile of the true coefficients, mirrored: the largest entry
    sits in the last coordinate (value 5 at j = d) where the true vector is
    smallest, and vice versa.
    """
    j = np.arange(1, spec.d + 1, dtype=np.float64)
    return 5.0 * np.exp(-(spec.d - j) / 2.0)


def start_point(spec: ProblemSpec, start: str) -> np.ndarray:
    """Base point of a run: the far ``"reversed"`` profile or the optimum
    (``"near-opt"``); the perturbed start is drawn around it."""
    if start not in START_POINTS:
        raise ValueError(f"start must be one of {START_POINTS}, got {start!r}")
    return reversed_start(spec) if start == "reversed" else spec.theta_star.copy()


def perturbed_start(base: np.ndarray, rng: RngStream, noise_sd=DEFAULT_START_NOISE_SD) -> np.ndarray:
    """base + N(0, noise_sd^2 I) drawn from a dedicated stream; it must be finite."""
    with np.errstate(over="ignore"):
        theta = base + noise_sd * rng.generator().standard_normal(base.shape[0])
    if not np.isfinite(theta).all():
        raise ValueError(f"start_noise_sd={noise_sd} gives a non-finite start")
    return theta


def replication_starts(spec: ProblemSpec, start: str, experiment: RngStream, reps,
                       noise_sd=DEFAULT_START_NOISE_SD) -> tuple[np.ndarray, list[RngStream]]:
    """Start points of replications ``reps`` of ``experiment`` as an (R, d)
    array, each the ``start`` point plus N(0, noise_sd^2 I) from its
    start-noise stream, and their main streams (see ``core``'s layout)."""
    base = start_point(spec, start)
    noise, mains = replication_streams(experiment, reps)
    return np.stack([perturbed_start(base, rng, noise_sd) for rng in noise]), mains


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write the dataset as CSV with header x1..xd,y (debug interchange)."""
    d = dataset.features.shape[1]
    write_csv(path, [f"x{j}" for j in range(1, d + 1)] + ["y"],
              np.column_stack([dataset.features, dataset.targets]).tolist())
