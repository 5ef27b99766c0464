"""Command-line front end producing the CSV artifacts.

Every command is deterministic given its flag set (including --seed): CSVs
are written with canonical row ordering and repr-formatted floats, and each
artifact gets a ``<out>.meta`` sidecar holding every option of its command
as resolved for the run.  An option that several commands take is declared
once below, and every option is named after its long flag, which is also
its config key and its sidecar key.  Option precedence is flags > config
file (key=value lines via --config) > built-in defaults.  An out-of-range
value, rejected by the configuration it feeds, exits 2 like any other
usage error.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import asdict

import click

from . import __version__
from ._csvio import fmt_value, write_csv, write_sidecar
from .analysis import (
    CoherenceStudy,
    QRiskQuery,
    coherence_histogram,
    type1_error_probability,
)
from .core import DATA_STREAM_CHILD, DivergenceError, NumericError, RngStream
from .core import experiment_stream
from .objectives import (
    DEFAULT_START_NOISE_SD,
    FAMILIES,
    START_POINTS,
    Problem,
    build_problem,
    make_default_spec,
    replication_starts,
    write_dataset_csv,
)
from .optimizers import (
    SplitSgdConfig,
    final_log_loss,
    run_constant_sgd,
    run_pflug_detection,
    run_sgd_half,
    run_split_detection,
    run_splitsgd,
    run_sqrt_decay_sgd,
)

SCHEMA_VERSION = 1

METHODS = ("splitsgd", "const", "sqrt", "half")
ETA_SCALES = {"large": 1e-3, "small": 1e-4}


def _load_config(ctx: click.Context, param: click.Parameter, value):
    if not value:
        return None
    keys = {p.name for p in ctx.command.params if isinstance(p, click.Option) and p.expose_value}
    entries = {}
    try:
        with open(value, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as err:
        raise click.UsageError(f"{value}: not UTF-8 text ({err})")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{value}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in keys:
            raise click.UsageError(
                f"{value}:{lineno}: unknown key {key.strip()!r}; expected one of "
                f"{', '.join(sorted(keys))}"
            )
        entries[name] = val.strip()
    ctx.default_map = {**(ctx.default_map or {}), **entries}
    return None


def _check_out(ctx, param, value):
    """Reject, before any run, an --out that names no file in an existing directory."""
    if value is not None and not (os.path.basename(value) and os.path.isdir(os.path.dirname(value) or ".")):
        raise click.BadParameter(f"{value!r} is not a file in an existing directory", ctx, param)
    return value


def _parse_floats(ctx, param, value) -> tuple[float, ...]:
    try:
        parsed = tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError as err:
        raise click.UsageError(f"{param.name}: {err}")
    if not parsed:
        raise click.UsageError(f"{param.name}: expected a comma-separated list of numbers")
    return parsed


def _parse_ints(ctx, param, value) -> tuple[int, ...]:
    floats = _parse_floats(ctx, param, value)
    if not all(float(v).is_integer() for v in floats):
        raise click.UsageError(f"{param.name}: expected integers")
    return tuple(int(v) for v in floats)


def _parse_methods(ctx, param, value) -> tuple[str, ...]:
    methods = tuple(tok.strip() for tok in value.split(",") if tok.strip())
    unknown = [m for m in methods if m not in METHODS]
    if unknown or not methods:
        raise click.UsageError(
            f"{param.name}: unknown method(s) {unknown}; choose from {','.join(METHODS)}"
        )
    return methods


def _options(*decorators):
    """One decorator applying ``decorators``, listed in --help order."""
    return lambda fn: functools.reduce(lambda f, dec: dec(f), reversed(decorators), fn)


# Each option below is shared by several commands; click.option builds a
# fresh Option every time its decorator is applied.
etas_option = click.option("--etas", callback=_parse_floats, default="1e-5,1e-4,1e-3,1e-2,1e-1", show_default=True, help="Comma-separated initial step sizes.")
epochs_option = click.option("--epochs", type=click.IntRange(min=0), default=100, show_default=True)
start_option = click.option("--start", type=click.Choice(START_POINTS), default="reversed", show_default=True)
l_option = click.option("--l", type=int, default=50, show_default=True)
t1_option = click.option("--t1-epochs", type=int, default=4, show_default=True)
threads_option = click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes.")
schedule_options = _options(
    start_option, t1_option, click.option("--gamma", type=float, default=0.5, show_default=True)
)
window_options = _options(
    click.option("--w", type=int, default=20, show_default=True),
    l_option,
    click.option("--q", type=float, default=0.4, show_default=True),
)
run_options = _options(
    click.option("--problem", type=click.Choice(FAMILIES), default="linear", show_default=True),
    click.option("--noise-sd", type=float, default=1.0, show_default=True),
    click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True),
    click.option("--out", type=click.Path(dir_okay=False), required=True, callback=_check_out),
)


def _make_problem(family: str, seed: int, noise_sd: float, n: int = 1000, d: int = 20) -> Problem:
    data_seed = RngStream(seed).fork(DATA_STREAM_CHILD)
    return build_problem(make_default_spec(family, data_seed, n=n, d=d, noise_sd=noise_sd))


def _sidecar(**resolved) -> None:
    """Write ``<out>.meta``: the fixed keys plus every option of the running
    command, with ``resolved`` giving the values settled at run time."""
    ctx = click.get_current_context()
    entries = {
        "artifact": "splitsgd",
        "artifact_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": ctx.command.name,
    }
    for key, value in {**ctx.params, **resolved}.items():
        entries[key] = ",".join(map(fmt_value, value)) if isinstance(value, tuple) else value
    write_sidecar(entries["out"], entries)


class _Command(click.Command):
    """A command that takes --config and whose configuration ``ValueError``s
    exit as usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.insert(0, click.Option(
            ["--config"], type=click.Path(exists=True, dir_okay=False), callback=_load_config,
            is_eager=True, expose_value=False,
            help="key=value file supplying defaults (flags still win).",
        ))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            raise click.UsageError(str(err), ctx) from err


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="splitsgd")
def cli():
    """Stochastic-gradient schedules with a two-thread stationarity
    diagnostic, on synthetic linear / logistic regression benchmarks."""


# ----------------------------------------------------------------- compare


def _cell(problem, epochs, method, cfg, theta0, rng) -> float:
    """Final log loss of one run of ``method`` under ``cfg``, inf if it diverged.
    The drivers are read as module globals at call time, so wrappers set on them apply."""
    drivers = {"splitsgd": run_splitsgd, "const": run_constant_sgd, "sqrt": run_sqrt_decay_sgd,
               "half": run_sgd_half}
    try:
        trace = drivers[method](problem, cfg, theta0, rng, epochs)
    except DivergenceError:
        return math.inf
    return final_log_loss(trace)


def _grid(problem, seed, start, seeds, epochs, cells, threads):
    """Sorted ``(*key, s, final log loss)`` rows of each cell ``(key, method,
    cfg)`` run from replication s < seeds, whose start and main stream are
    built once; ``threads`` above 1 runs them on a worker pool."""
    thetas, mains = replication_starts(problem.spec, start, experiment_stream(seed), range(seeds))
    runs = [(cell, s) for cell in cells for s in range(seeds)]
    jobs = [(problem, epochs, *cell[1:], thetas[s], mains[s]) for cell, s in runs]
    if threads > 1 and len(jobs) > 1:
        # Imported here so a single-process run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(_cell, *zip(*jobs)))
    else:
        values = [_cell(*job) for job in jobs]
    return sorted((*cell[0], s, value) for (cell, s), value in zip(runs, values))


@cli.command()
@run_options
@etas_option
@epochs_option
@click.option("--seeds", type=click.IntRange(min=1), default=20, show_default=True, help="Number of replication seeds per cell.")
@click.option("--methods", callback=_parse_methods, default="splitsgd,const,sqrt,half", show_default=True)
@schedule_options
@window_options
@threads_option
def compare(problem, noise_sd, seed, out, etas, epochs, seeds, methods, start, t1_epochs, gamma, w, l, q, threads):
    """Final log loss per (method, step size, seed) after a fixed budget."""
    instance = _make_problem(problem, seed, noise_sd)
    t1 = t1_epochs * instance.spec.n
    cfgs = [SplitSgdConfig(eta=eta, w=w, l=l, q=q, t1=t1, gamma=gamma) for eta in etas]
    cells = [((method, cfg.eta), method, cfg) for method in methods for cfg in cfgs]
    rows = _grid(instance, seed, start, seeds, epochs, cells, threads)
    write_csv(out, ["method", "eta", "seed", "final_log_loss"], rows)
    _sidecar()
    click.echo(f"wrote {len(rows)} rows to {out}")


# -------------------------------------------------------------------- race


@cli.command()
@run_options
@click.option("--eta-scale", type=click.Choice(sorted(ETA_SCALES)), default="large", show_default=True)
@click.option("--eta", type=float, default=None, help="Explicit step size (overrides --eta-scale).")
@click.option("--reps", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--max-epochs", type=int, default=1000, show_default=True)
@start_option
@t1_option
@window_options
def race(problem, noise_sd, seed, out, eta_scale, eta, reps, max_epochs, start, t1_epochs, w, l, q):
    """Detection-epoch race: split diagnostic vs consecutive-gradient sum.

    Both detectors run every replication from one start on one stream, as
    rows of one lockstep run each: split detection, then pflug detection.
    Rows record the epoch of first detection, the budget cap when none
    fires; a divergence names the replication and the detector.
    """
    if eta is None:
        eta = ETA_SCALES[eta_scale]
    instance = _make_problem(problem, seed, noise_sd)
    cfg = SplitSgdConfig(eta=eta, w=w, l=l, q=q, t1=t1_epochs * instance.spec.n)
    starts, rngs = replication_starts(instance.spec, start, experiment_stream(seed), range(reps))
    detected = {}
    for name, detector in (("split", run_split_detection), ("pflug", run_pflug_detection)):
        try:
            detected[name] = detector(instance, cfg, starts, rngs, max_epochs)
        except DivergenceError as err:
            message = f"replication {err.row}, {name} detector: {err}"
            raise DivergenceError(message, err.step, err.thread, err.row)
    rows = sorted((rep, name, max_epochs if epoch is None else epoch, epoch is None)
                  for name, epochs in detected.items() for rep, epoch in enumerate(epochs))
    write_csv(out, ["rep", "method", "detection_epoch", "capped"], rows)
    _sidecar(eta=eta)
    click.echo(f"wrote {len(rows)} rows to {out}")


# ---------------------------------------------------------------------- mc


@cli.command()
@run_options
@click.option("--eta", type=float, default=1e-4, show_default=True)
@click.option("--burn-in-epochs", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=500, show_default=True)
@click.option("--window-index", type=int, default=2, show_default=True)
@l_option
@click.option("--windows", type=int, default=None, help="Windows to run (default: --window-index).")
@click.option("--normalized/--raw", default=False, show_default=True, help="Record cosines instead of raw inner products.")
@start_option
@click.option("--start-noise-sd", type=float, default=DEFAULT_START_NOISE_SD, show_default=True)
def mc(problem, noise_sd, seed, out, eta, burn_in_epochs, reps, window_index, l, windows, normalized, start, start_noise_sd):
    """Monte-Carlo histogram of one window's gradient coherence."""
    instance = _make_problem(problem, seed, noise_sd)
    study = CoherenceStudy(
        problem=instance,
        eta=eta,
        burn_in_steps=burn_in_epochs * instance.spec.n,
        window_index=window_index,
        replications=reps,
        normalized=normalized,
        l=l,
        windows=windows,
        start=start,
        start_noise_sd=start_noise_sd,
    )
    rows, summary = coherence_histogram(study, experiment_stream(seed))
    write_csv(out, ["replication", "q_value", "normalized"], [(r, v, normalized) for r, v in rows])
    _sidecar(windows=window_index if windows is None else windows, **asdict(summary))
    click.echo(
        f"kept={summary.kept} diverged={summary.diverged} "
        f"mean={summary.mean:.6g} sd={summary.sd:.6g} "
        f"negative_fraction={summary.negative_fraction:.6g}"
    )


# ------------------------------------------------------------------- qrisk


@cli.command()
@click.option("--w", type=int, required=True, help="Number of windows.")
@click.option("--q", type=float, required=True, help="Verdict threshold fraction.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_check_out, help="Optionally also write the value to a file.")
def qrisk(w, q, out):
    """Exact false-stationarity probability under the fair-sign model."""
    value = type1_error_probability(QRiskQuery(w=w, q=q))
    click.echo(repr(value))
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(repr(value) + "\n")
        _sidecar()


# ------------------------------------------------------------- sensitivity


@cli.command()
@run_options
@click.option("--w-values", callback=_parse_ints, default="10,20,40", show_default=True)
@click.option("--q-values", callback=_parse_floats, default="0.35,0.4,0.45", show_default=True)
@etas_option
@click.option("--seeds", type=click.IntRange(min=1), default=5, show_default=True)
@epochs_option
@schedule_options
@threads_option
def sensitivity(problem, noise_sd, seed, out, w_values, q_values, etas, seeds, epochs, start, t1_epochs, gamma, threads):
    """SplitSGD final log loss over the (w, q, eta, seed) grid; window
    length is resized per w so one diagnostic costs one epoch.  Each cell
    is the ``compare`` splitsgd cell with the same w, l = n / w and q."""
    instance = _make_problem(problem, seed, noise_sd)
    n = instance.spec.n
    if any(w < 1 or n % w for w in w_values):
        raise click.UsageError(f"every w must be a positive divisor of n={n}, got {w_values}")
    cells = [
        ((w, q, eta), "splitsgd", SplitSgdConfig(eta=eta, w=w, l=n // w, q=q, t1=t1_epochs * n, gamma=gamma))
        for w in w_values
        for q in q_values
        for eta in etas
    ]
    rows = _grid(instance, seed, start, seeds, epochs, cells, threads)
    write_csv(out, ["w", "q", "eta", "seed", "final_log_loss"], rows)
    _sidecar()
    click.echo(f"wrote {len(rows)} rows to {out}")


# ---------------------------------------------------------------- gen-data


@cli.command("gen-data")
@run_options
@click.option("--n", type=int, default=1000, show_default=True)
@click.option("--d", type=int, default=20, show_default=True)
def gen_data(problem, noise_sd, seed, out, n, d):
    """Materialize the synthetic dataset as CSV (columns x1..xd,y)."""
    write_dataset_csv(_make_problem(problem, seed, noise_sd, n=n, d=d).dataset, out)
    _sidecar()
    click.echo(f"wrote {n} rows to {out}")


def main(argv=None) -> None:
    try:
        cli.main(args=argv, prog_name="splitsgd")
    except NumericError as err:
        click.echo(f"numeric error: {err}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
