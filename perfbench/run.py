"""splitsgd benchmark: one workload, timed end to end through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each execution is a fresh interpreter (``child.py``) that runs one CLI
command in its own temporary directory, one at a time (a closed loop of one
client), until ``--seconds`` have passed.  Every artifact is checked
(``checks.py``) and every execution of a run must write the same bytes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run's executions).  With
``--trace 1`` traced and untraced executions alternate, and the JSON holds
the per-layer metrics from the traced ones (``tracing.py``); their counts
must repeat exactly.  The lines before it give each metric by name with its
unit, median, tail and sample count, and the environment.  Result sets and
spans are also written under ``.perfbench/`` in the checkout.

``--update-goldens`` records the run's artifact hashes and invariants in
``goldens.json`` for its seed instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"

# Every run ends within RUN_LIMIT_S of starting, even if an execution hangs.
RUN_LIMIT_S = 170.0
MIN_UNTRACED = 3
MIN_TRACED = 2


@dataclass(frozen=True)
class Workload:
    """A CLI command with every option that shapes its artifact spelled
    out; ``--seed`` and ``--out`` are added per execution."""

    command: str
    args: tuple[str, ...]
    required_spans: tuple[str, ...]
    required_counts: tuple[str, ...] = ()
    out: str = "out.csv"

    def argv(self, seed: int) -> list[str]:
        return [self.command, *self.args, "--seed", str(seed), "--out", self.out]

    def options(self) -> dict[str, str]:
        """Option -> value; a bare flag such as ``--raw`` maps to ""."""
        options, args = {}, list(self.args)
        while args:
            key = args.pop(0)
            options[key] = args.pop(0) if args and not args[0].startswith("--") else ""
        return options


_ALWAYS = ("objectives.build_problem", "core.generator", "csvio.write_csv", "csvio.write_sidecar")
_MC_SPANS = ("analysis.coherence_histogram", "diagnostic.window_means", *_ALWAYS)

# Why each workload exists is written up in perfbench/README.md.
WORKLOADS = {
    "compare": Workload(
        "compare",
        (
            "--threads", "1",
            "--problem", "linear",
            "--start", "reversed",
            "--methods", "splitsgd,const,sqrt,half",
            "--etas", "1e-5,1e-4,1e-3,1e-2,1e-1,1",
            "--epochs", "10",
            "--seeds", "1",
        ),
        (*(f"optimizers.{d}" for d in tracing.DRIVERS), "diagnostic.run_diagnostic",
         "objectives.full_loss", *_ALWAYS),
        ("optimizers.diverged_calls",),
    ),
    "mc-stationary": Workload(
        "mc",
        (
            "--problem", "linear",
            "--eta", "1e-2",
            "--burn-in-epochs", "60",
            "--reps", "250",
            "--window-index", "2",
            "--raw",
        ),
        _MC_SPANS,
    ),
    "mc-transient": Workload(
        "mc",
        (
            "--problem", "linear",
            "--eta", "1e-4",
            "--reps", "40",
            "--window-index", "2",
            "--windows", "20",
            "--raw",
        ),
        _MC_SPANS,
    ),
}


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPLITSGD_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed gives every execution the same dict and set layout.
    env["PYTHONHASHSEED"] = "0"
    return env


def _time_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def warm_up(env: dict[str, str], deadline: float) -> None:
    """Import the package once so bytecode and file caches are warm."""
    proc = subprocess.run(
        [sys.executable, "-c", "import splitsgd.cli"], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=_time_left(deadline),
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import splitsgd.cli from {SRC}:\n{proc.stderr}")


class Run:
    """The executions of one workload and seed, and what they agree on."""

    def __init__(self, name: str, seed: int, golden: dict | None, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.golden = golden
        self.work = work
        self.deadline = deadline
        self.env = pinned_env()
        self.attempted = 0
        self.errors: list[str] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.artifact: tuple[bytes, bytes] | None = None
        self.entry: dict | None = None
        self.counts: dict | None = None

    def execute(self, trace: bool) -> float:
        """Run one execution; returns its duration.  Failures are recorded
        in ``errors``; a timed-out execution ends the run."""
        self.attempted += 1
        run_id = f"{self.name}-{self.seed}-{self.attempted}"
        cwd = self.work / str(self.attempted)
        cwd.mkdir(parents=True)
        spec = {
            "argv": self.workload.argv(self.seed),
            "seed": self.seed,
            "trace": trace,
            "run_id": run_id,
            "spawned": time.monotonic(),
        }
        (cwd / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "spec.json", "result.json"],
                cwd=cwd, env=self.env, capture_output=True, text=True,
                timeout=_time_left(self.deadline),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{run_id}: stopped at the run's {RUN_LIMIT_S} s limit")
            raise
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            result = json.loads((cwd / "result.json").read_text(encoding="utf-8"))
            self._check(cwd, result, trace)
        except Exception as err:  # every miss counts as a failed execution
            self.errors.append(f"{run_id}: {err}")
        else:
            (self.traced if trace else self.untraced).append(result)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        return time.monotonic() - spec["spawned"]

    def _check(self, cwd: Path, result: dict, trace: bool) -> None:
        if not Path(result["package"]).resolve().is_relative_to(SRC):
            raise ValueError(f"splitsgd imported from {result['package']}")
        out = cwd / self.workload.out
        artifact = (out.read_bytes(), Path(f"{out}.meta").read_bytes())
        entry = checks.check_artifact(self.workload, self.seed, *artifact, self.golden)
        if self.artifact is None:
            self.artifact, self.entry = artifact, entry
        elif artifact != self.artifact:
            raise ValueError("artifact differs from the run's first execution")
        if not trace:
            return
        spans = result["spans"]
        seen = {s["name"] for s in spans}
        missing = [name for name in self.workload.required_spans if name not in seen]
        if missing:
            raise ValueError(f"traced run recorded no calls of {missing}")
        counts = tracing.deterministic_counts(spans, result["wall_s"])
        zero = [name for name in self.workload.required_counts if not counts[name]]
        if zero:
            raise ValueError(f"traced run counted zero {zero}")
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            diff = {k: (self.counts[k], v) for k, v in counts.items() if self.counts[k] != v}
            raise ValueError(f"traced counts differ between executions: {diff}")


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Closed loop: the next execution starts when the previous one ends.
    Stops once the next execution would overrun ``seconds`` and either the
    minimum sample counts are met or an execution has failed.  A traced run
    alternates traced and untraced executions."""
    start = time.monotonic()
    last = 0.0
    while True:
        traced_turn = trace and len(run.traced) <= len(run.untraced)
        enough = len(run.untraced) >= (1 if trace else MIN_UNTRACED) and (
            not trace or len(run.traced) >= MIN_TRACED
        )
        if time.monotonic() - start + last > seconds and (enough or run.errors):
            return
        try:
            last = run.execute(traced_turn)
        except subprocess.TimeoutExpired:
            return


def _summary_line(name: str, unit: str, values: list[float]) -> str:
    label, tail_value = tracing.tail(values)
    tail_text = "max" if label == 100.0 else f"p{label:.0f}"
    return (
        f"{name:<14} median {statistics.median(values):.6g} {unit}, "
        f"{tail_text} {tail_value:.6g} {unit}, n={len(values)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "splitsgd" / "cli.py").is_file():
        print(f"perfbench: no splitsgd source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    golden = None if args.update_goldens else goldens.get(args.workload, {}).get(str(args.seed))
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, golden, work, deadline)
    load_before = os.getloadavg()
    try:
        warm_up(run.env, deadline)
        measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    ok = run.untraced + run.traced
    failed = run.attempted - len(ok)
    env = {
        "nproc": os.cpu_count(),
        "load_before": load_before,
        "load_after": load_after,
        "python": platform.python_version(),
        "numpy": ok[0]["numpy"] if ok else None,
    }
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={run.attempted} failed={failed} failed_ratio={failed / run.attempted:.6g}"
    )
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    metrics: dict[str, dict] = {}
    if ok and not args.trace:
        samples = {
            "wall_s": [r["wall_s"] for r in run.untraced],
            "cpu_s": [r["cpu_s"] for r in run.untraced],
            "setup_s": [r["setup_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in run.untraced],
        }
        for spec in bench["end_to_end"]:
            name, unit = spec["name"], spec["unit"]
            print(_summary_line(name, unit, samples[name]))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    elif run.traced and run.untraced:
        per_exec = [tracing.layer_metrics(r["spans"], r["wall_s"]) for r in run.traced]
        untraced_wall = statistics.median(r["wall_s"] for r in run.untraced)
        traced_wall = statistics.median(r["wall_s"] for r in run.traced)
        for spec in bench["per_layer"]:
            name, unit = spec["name"], spec["unit"]
            if name == "trace.overhead_ratio":
                value = traced_wall / untraced_wall - 1.0
            else:
                value = statistics.median(layers[name] for layers in per_exec)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<34} {value:.6g} {unit}")

    correct = failed == 0 and bool(metrics)
    if correct and args.update_goldens:
        goldens.setdefault(args.workload, {})[str(args.seed)] = run.entry
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": env, "errors": run.errors, "metrics": metrics,
        "executions": [{k: v for k, v in r.items() if k != "spans"} for r in ok],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if run.traced:
        spans = [s for r in run.traced for s in r["spans"]]
        (results / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
