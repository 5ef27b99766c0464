"""Spans around the calls into each splitsgd module, for the traced run.

The wrappers live here, not in the package: each one replaces a module
attribute in the namespace of the module that makes the call (for example
``splitsgd.cli.run_splitsgd``), so the package source is untouched.  Spans
are kept in memory and written out by the caller when the command ends.
A span records its name, start, end, parent span and run id, plus the
counts read off the call's arguments and result.

``layer_metrics`` turns one execution's spans into the per-layer metrics
listed in BENCHMARK.json; ``deterministic_counts`` picks out the counts
that must repeat exactly from one traced execution to the next.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

DRIVERS = ("splitsgd", "const", "sqrt", "half")
LAYERS = ("cli", "optimizers", "diagnostic", "analysis", "objectives", "core", "csvio")
_DRIVER_SPANS = tuple(f"optimizers.{d}" for d in DRIVERS)


class Tracer:
    """In-memory span recorder for one execution (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``describe(args, kwargs, result)`` returns the counts to attach to
        a call that returned.  A call that raised records the exception's
        class name instead.  A missing attribute raises, so a rename in the
        package stops the traced run instead of reading as zero calls.
        """
        original = getattr(owner, attr, None)
        if original is None:
            raise LookupError(f"traced binding {owner.__name__}.{attr} is missing")
        spans, open_ids, run_id = self.spans, self._open, self.run_id

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": open_ids[-1] if open_ids else None,
                "run": run_id,
                "name": name,
            }
            spans.append(span)
            open_ids.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                open_ids.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)


def _driver_counts(args, kwargs, trace):
    # Main-thread steps: every diagnostic adds 2*w*l evals off the main thread.
    steps = trace.total_evals
    if trace.diagnostics:
        cfg = args[1]
        steps -= 2 * cfg.w * cfg.l * len(trace.diagnostics)
    return {"steps": steps}


def _diagnostic_counts(args, kwargs, result):
    cfg = args[2]
    counts = {"evals": 2 * cfg.w * cfg.l}
    if hasattr(result, "stationary"):
        counts["stationary"] = int(result.stationary)
    return counts


def _histogram_counts(args, kwargs, result):
    study = args[0]
    summary = result[1]
    return {
        "rep_steps": study.replications * study.burn_in_steps,
        "kept": summary.kept,
        "diverged": summary.diverged,
    }


def _csv_counts(args, kwargs, result):
    return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}


def _sidecar_counts(args, kwargs, side_path):
    return {"bytes": os.path.getsize(side_path)}


def install(tracer: Tracer) -> None:
    """Wrap every traced binding.  Call after importing ``splitsgd.cli``."""
    from splitsgd import analysis, cli, core, optimizers

    for driver, attr in zip(
        DRIVERS, ("run_splitsgd", "run_constant_sgd", "run_sqrt_decay_sgd", "run_sgd_half")
    ):
        tracer.wrap(cli, attr, f"optimizers.{driver}", _driver_counts)
    tracer.wrap(optimizers, "run_diagnostic", "diagnostic.run_diagnostic", _diagnostic_counts)
    tracer.wrap(analysis, "_two_thread_window_means", "diagnostic.window_means", _diagnostic_counts)
    tracer.wrap(cli, "coherence_histogram", "analysis.coherence_histogram", _histogram_counts)
    tracer.wrap(cli, "build_problem", "objectives.build_problem")
    tracer.wrap(analysis, "build_problem", "objectives.build_problem")
    tracer.wrap(optimizers, "full_loss", "objectives.full_loss")
    tracer.wrap(core.RngStream, "generator", "core.generator")
    tracer.wrap(cli, "write_csv", "csvio.write_csv", _csv_counts)
    tracer.wrap(cli, "write_sidecar", "csvio.write_sidecar", _sidecar_counts)


def tail(values):
    """Highest percentile with at least ten values beyond it, as
    (percentile, value).  Below 20 values that percentile would not be
    above the median, so the maximum is given instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced execution.

    Self time is a span's duration minus its children's; ``cli`` owns the
    part of the wall time that no top-level span covers.  Rates whose base
    is zero (no calls of that kind on this workload) read 0.
    """
    self_s = _self_times(spans)

    def pick(*names):
        return [(s, t) for s, t in zip(spans, self_s) if s["name"] in names]

    def total(pairs, key):
        return sum(s.get(key, 0) for s, _ in pairs)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_self["cli"] = wall_s - top
    for span, t in zip(spans, self_s):
        layer_self[span["name"].split(".")[0]] += t
    m["cli.overhead_s"] = layer_self["cli"]

    drivers = pick(*_DRIVER_SPANS)
    ok = [(s, t) for s, t in drivers if "error" not in s]
    steps = total(ok, "steps")
    durations_ms = [1e3 * (s["end"] - s["start"]) for s, _ in drivers]
    m["optimizers.calls"] = len(drivers)
    m["optimizers.busy_s"] = sum(t for _, t in drivers)
    m["optimizers.steps"] = steps
    m["optimizers.us_per_step"] = ratio(sum(t for _, t in ok), steps, 1e6)
    m["optimizers.call_ms_p50"] = statistics.median(durations_ms) if drivers else 0.0
    m["optimizers.call_ms_tail"] = tail(durations_ms)[1] if drivers else 0.0
    m["optimizers.diverged_calls"] = len(drivers) - len(ok)
    for driver in DRIVERS:
        m[f"optimizers.{driver}.busy_s"] = sum(t for _, t in pick(f"optimizers.{driver}"))

    diags = pick("diagnostic.run_diagnostic", "diagnostic.window_means")
    ok = [(s, t) for s, t in diags if "error" not in s]
    evals = total(ok, "evals")
    verdicts = pick("diagnostic.run_diagnostic")
    m["diagnostic.calls"] = len(diags)
    m["diagnostic.evals"] = evals
    m["diagnostic.busy_s"] = sum(t for _, t in diags)
    m["diagnostic.us_per_eval"] = ratio(sum(t for _, t in ok), evals, 1e6)
    m["diagnostic.stationary_ratio"] = ratio(total(verdicts, "stationary"), len(verdicts))
    m["diagnostic.diverged_calls"] = len(diags) - len(ok)

    hist = pick("analysis.coherence_histogram")
    rep_steps = total(hist, "rep_steps")
    m["analysis.burn_in_s"] = sum(t for _, t in hist)
    m["analysis.rep_steps"] = rep_steps
    m["analysis.ns_per_rep_step"] = ratio(m["analysis.burn_in_s"], rep_steps, 1e9)
    m["analysis.kept"] = total(hist, "kept")
    m["analysis.diverged_reps"] = total(hist, "diverged")

    builds = pick("objectives.build_problem")
    losses = pick("objectives.full_loss")
    m["objectives.build_problem_s"] = ratio(sum(t for _, t in builds), len(builds))
    m["objectives.full_loss.calls"] = len(losses)
    m["objectives.full_loss.us_per_call"] = ratio(sum(t for _, t in losses), len(losses), 1e6)

    gens = pick("core.generator")
    m["core.rng_generators"] = len(gens)
    m["core.rng_busy_s"] = sum(t for _, t in gens)

    writes = pick("csvio.write_csv", "csvio.write_sidecar")
    m["csvio.rows"] = total(writes, "rows")
    m["csvio.bytes"] = total(writes, "bytes")
    m["csvio.busy_s"] = sum(t for _, t in writes)

    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(layer_self[layer], wall_s)
    return m


# Counts that two traced executions of one workload and seed must repeat.
COUNT_METRICS = (
    "optimizers.calls",
    "optimizers.steps",
    "optimizers.diverged_calls",
    "diagnostic.calls",
    "diagnostic.evals",
    "diagnostic.diverged_calls",
    "analysis.rep_steps",
    "analysis.kept",
    "analysis.diverged_reps",
    "objectives.full_loss.calls",
    "core.rng_generators",
    "csvio.rows",
    "csvio.bytes",
)


def deterministic_counts(spans: list[dict], wall_s: float) -> dict[str, float]:
    m = layer_metrics(spans, wall_s)
    counts = {k: m[k] for k in COUNT_METRICS}
    counts["diagnostic.stationary"] = sum(s.get("stationary", 0) for s in spans)
    counts["objectives.build_problem.calls"] = sum(
        s["name"] == "objectives.build_problem" for s in spans
    )
    return counts
