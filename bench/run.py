"""Before/after benchmark of two splitsgd source trees on one machine.

    python3 bench/run.py --before OLD/src --after src --pairs 10 --out BENCH_N.json

Run from the root of a checkout.  For each tree it records:

* layer rows, timed in a fresh interpreter with that tree on ``PYTHONPATH``
  on the default linear problem (d = 20, n = 1000): µs per main-thread
  step (one epoch of ``core.sgd_steps``), µs per pflug row-step (one epoch
  of R = 1 and of R = 100 replications accumulating consecutive-gradient
  products as rows of ``core.lockstep_steps(products=...)``, generator
  set-up included), ms per replication of split detection at the README
  ``race`` settings (``eta = 1e-3``, reversed start, default diagnostic and
  thread length, 1000-epoch cap; R = 1 and R = 100 replications in one
  ``optimizers.run_split_detection`` call, generator set-up included; a
  fifth of ``--repeats`` timings), µs per diagnostic gradient eval
  (one ``run_diagnostic`` at w = 20, l = 50, and the diagnostic threads of
  a 40-replication ``mc`` histogram with no burn-in), ns per burn-in
  replication-step (``core.lockstep_steps`` without windows at R = 250, on
  the linear and on the default logistic problem), µs per epoch loss
  record (``objectives.full_loss``) and µs per CSV row written
  (``_csvio.write_csv``, 1000 ``compare``-shaped rows), each interpreter
  giving the median of ``--repeats`` timings;
* end-to-end ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb`` of the
  ``compare`` and ``mc-stationary`` benchmark commands (their arguments
  read from ``WORKLOADS`` in perfbench/run.py), of two ``race``
  runs (4 replications over 40 epochs, and 100 over 20) and of a small
  ``sensitivity`` grid (2 window counts x 2 step sizes x 2 seeds, 10
  epochs), measured by ``perfbench/child.py`` exactly as the benchmark
  measures them;
* ``src_lines``: the lines of the ``*.py`` files under the tree's
  ``splitsgd`` package;
* the SHA-256 of every CSV and sidecar those commands write (seed 0), the
  sidecar's ``artifact_version``, and one ``identical`` or ``moved``
  verdict per command and file.  The script exits 1 only when a file moved
  while both trees' sidecars carry the same ``artifact_version``: an
  undeclared change.

Both kinds of rows are timed in pairs: the two trees alternate, one
interpreter (layer rows) or one execution (end to end) at a time,
``--pairs`` times each, the first tree to run switching from pair to pair.
Each side reports its median and quartiles over the pairs, and each row
the number of pairs in which the after tree read lower.  The ``aa`` block
times the before tree against a second copy of itself (its ``after``
side) on ``compare`` and ``mc-stationary`` in the same way, so a bias of
copy or order shows beside the before/after rows.

The trees are first copied to paths of equal length under one temporary
directory, so no side's paths are longer than another's.  Set-up runs
single-threaded BLAS (``OMP_NUM_THREADS=1`` and friends) and
``PYTHONHASHSEED=0``, as the benchmark does, and lets bytecode caches be
written whatever the host's ``PYTHONDONTWRITEBYTECODE``: one untimed
import per tree compiles the package, so no timed execution does.  The
report's ``machine`` block records the host's ``PYTHONDONTWRITEBYTECODE``
and the OpenBLAS core that numpy's BLAS chose when it loaded
(``OPENBLAS_VERBOSE=2``): margins go through its ``ddot``, whose kernel
decides the last bits of every artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

# Not benchmark workloads: both detectors, each running 4 and 100
# replications as rows of one lockstep run, and the SplitSGD grid.
COMMANDS = {
    "race": ["race", "--reps", "4", "--max-epochs", "40"],
    "race-100": ["race", "--reps", "100", "--max-epochs", "20"],
    "sensitivity": [
        "sensitivity", "--w-values", "10,20", "--q-values", "0.4", "--etas", "1e-3,1e-2",
        "--seeds", "2", "--epochs", "10", "--threads", "1",
    ],
}


def _commands() -> dict[str, list[str]]:
    """The ``compare`` and ``mc-stationary`` workloads' arguments, read from
    ``WORKLOADS`` in perfbench/run.py so the two cannot drift apart, then
    ``COMMANDS``; each runs at seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its sibling imports
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    # Registered before it runs: its dataclasses look their module up.
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = {name: module.WORKLOADS[name] for name in ("compare", "mc-stationary")}
    return {**{name: [w.command, *w.args] for name, w in workloads.items()}, **COMMANDS}


LAYERS = r"""
import json, os, statistics, sys, tempfile, time
import numpy as np
from splitsgd._csvio import write_csv
from splitsgd.analysis import CoherenceStudy, coherence_histogram
from splitsgd.core import RngStream, lockstep_steps, sgd_steps
from splitsgd.diagnostic import DiagnosticConfig, run_diagnostic
from splitsgd.objectives import build_problem, full_loss, make_default_spec, perturbed_start
from splitsgd.objectives import reversed_start
from splitsgd.optimizers import SplitSgdConfig, run_split_detection

repeats = int(sys.argv[1])
spec = make_default_spec("linear", RngStream(0))
problem = build_problem(spec)
ds = problem.dataset

def median_time(fn, repeats=repeats):
    times = []
    for k in range(repeats):
        t = time.perf_counter()
        fn(k)
        times.append(time.perf_counter() - t)
    return statistics.median(times)

start = reversed_start(spec)
n = ds.features.shape[0]
step = median_time(lambda k: sgd_steps(
    ds.features, ds.targets, "linear", start.copy(), 1e-2, n, RngStream(k).generator()))
def pflug_rows(rows):
    def run(k):
        thetas = np.tile(start, (rows, 1))
        gens = [RngStream(k).fork(r).generator() for r in range(rows)]
        carry = (np.zeros(rows), np.zeros(rows), np.zeros_like(thetas))
        lockstep_steps(ds.features, ds.targets, "linear", thetas, 1e-2, n, gens, products=carry)
    return median_time(run) / (rows * n)
pflug_1, pflug_100 = pflug_rows(1), pflug_rows(100)
split_cfg = SplitSgdConfig(eta=1e-3)
def split_rows(rows):
    def run(k):
        starts = [perturbed_start(start, RngStream(k).fork(2 * r)) for r in range(rows)]
        rngs = [RngStream(k).fork(2 * r + 1) for r in range(rows)]
        run_split_detection(problem, split_cfg, starts, rngs, 1000)
    return median_time(run, max(1, repeats // 5)) / rows
split_1, split_100 = split_rows(1), split_rows(100)
cfg = DiagnosticConfig(eta=1e-2, w=20, l=50)
one = median_time(lambda k: run_diagnostic(problem, start, cfg, RngStream(k)))
study = CoherenceStudy(problem=problem, eta=1e-2, window_index=2, windows=20, replications=40)
many = median_time(lambda k: coherence_histogram(study, RngStream(k)))
R, steps = 250, 2000
def burn_time(family):
    problem = build_problem(make_default_spec(family, RngStream(0)))
    data, base = problem.dataset, reversed_start(problem.spec)
    def burn(k):
        thetas = np.tile(base, (R, 1))
        gens = [RngStream(k).fork(r).generator() for r in range(R)]
        lockstep_steps(data.features, data.targets, family, thetas, 1e-2, steps, gens)
    return median_time(burn)
burn_s, logistic_burn_s = burn_time("linear"), burn_time("logistic")
LOSSES = 100
loss_s = median_time(lambda k: [full_loss(ds, "linear", start) for _ in range(LOSSES)])
rows = [("const", 10.0 ** -(i % 6), i, 1.0 / (i + 3)) for i in range(1000)]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rows.csv")
    csv_s = median_time(lambda k: write_csv(path, ["method", "eta", "seed", "final_log_loss"], rows))
print(json.dumps({
    "main_thread_us_per_step": 1e6 * step / n,
    "pflug_us_per_row_step_r1": 1e6 * pflug_1,
    "pflug_us_per_row_step_r100": 1e6 * pflug_100,
    "split_ms_per_rep_r1": 1e3 * split_1,
    "split_ms_per_rep_r100": 1e3 * split_100,
    "diagnostic_us_per_eval": 1e6 * one / (2 * cfg.w * cfg.l),
    "mc_diagnostic_us_per_eval": 1e6 * many / (2 * 40 * 20 * 50),
    "burn_in_ns_per_rep_step": 1e9 * burn_s / (R * steps),
    "logistic_burn_in_ns_per_rep_step": 1e9 * logistic_burn_s / (R * steps),
    "full_loss_us_per_record": 1e6 * loss_s / LOSSES,
    "csv_us_per_row": 1e6 * csv_s / len(rows),
}))
"""

# What every command writes.
FILES = ("out.csv", "out.csv.meta")


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def openblas_core(src: Path) -> str | None:
    """The core OpenBLAS reports when numpy loads it, e.g. ``SkylakeX``."""
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy"], env={**_env(src), "OPENBLAS_VERBOSE": "2"},
        capture_output=True, text=True, check=True,
    )
    found = re.search(r"Core: (\S+)", proc.stdout + proc.stderr)
    return found and found.group(1)


def layers(src: Path, repeats: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-c", LAYERS, str(repeats)], env=_env(src),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def execute(src: Path, argv: list[str], work: Path) -> tuple[dict, dict[str, str]]:
    """One benchmark execution; returns its metrics, and its artifact digests
    with the sidecar's ``artifact_version``."""
    work.mkdir()
    spawned = time.monotonic()
    spec = {"argv": [*argv, "--seed", "0", "--out", "out.csv"], "seed": 0,
            "trace": False, "run_id": "bench", "spawned": spawned}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(CHILD), "spec.json", "result.json"],
                   cwd=work, env=_env(src), check=True, capture_output=True)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    metrics = {k: result[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    digests = {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in FILES}
    meta = (work / "out.csv.meta").read_text(encoding="utf-8").splitlines()
    digests["artifact_version"] = next(
        line.partition("=")[2] for line in meta if line.startswith("artifact_version=")
    )
    return metrics, digests


def src_lines(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (src / "splitsgd").rglob("*.py"))


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _alternate(sides: dict[str, Path], pairs: int):
    """(side, tree) in before/after pairs, the first side switching each pair."""
    order = list(sides.items())
    for pair in range(pairs):
        yield from order[::-1] if pair % 2 else order


def _paired(samples: dict[str, list[dict[str, float]]]) -> dict:
    """Per-side spread of every row, and the pairs in which after read lower."""
    summary = {
        side: {key: _spread([m[key] for m in runs]) for key in runs[0]}
        for side, runs in samples.items()
    }
    pairs = list(zip(samples["after"], samples["before"]))
    summary["pairs_after_lower"] = {key: sum(a[key] < b[key] for a, b in pairs) for key in pairs[0][0]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        # Equal-length copies: tree0/src, tree1/src and tree2/src (the A/A twin).
        copies = []
        for i, src in enumerate((args.before, args.after, args.before)):
            copies.append(shutil.copytree(src.resolve(), Path(tmp) / f"tree{i}" / "src",
                                          ignore=shutil.ignore_patterns("__pycache__")))
            subprocess.run([sys.executable, "-c", "import splitsgd.cli"], env=_env(copies[i]),
                           check=True)
        sides = {"before": copies[0], "after": copies[1]}
        runs = itertools.count()

        def timed(sides, name, command):
            """Per-side metrics of alternating executions, and their digests."""
            samples, artifacts = {side: [] for side in sides}, {}
            for side, src in _alternate(sides, args.pairs):
                metrics, digests = execute(src, command, Path(tmp) / str(next(runs)))
                samples[side].append(metrics)
                if artifacts.setdefault(side, digests) != digests:
                    raise SystemExit(f"{name} ({side}) wrote different bytes on a rerun")
            return _paired(samples), artifacts

        layer_samples = {side: [] for side in sides}
        for side, src in _alternate(sides, args.pairs):
            layer_samples[side].append(layers(src, args.repeats))
        report = {
            "machine": {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                        "python": platform.python_version(),
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                        "openblas_core": openblas_core(sides["after"])},
            "pairs": args.pairs,
            "src_lines": {side: src_lines(src) for side, src in sides.items()},
            "layers": _paired(layer_samples),
            "end_to_end": {},
            "aa": {},
            "artifacts": {},
        }
        commands = _commands()
        for name, command in commands.items():
            report["end_to_end"][name], report["artifacts"][name] = timed(sides, name, command)
        twins = {"before": copies[0], "after": copies[2]}
        for name in ("compare", "mc-stationary"):
            report["aa"][name] = timed(twins, name, commands[name])[0]
    report["verdicts"], undeclared = {}, []
    for name, seen in report["artifacts"].items():
        before, after = seen["before"], seen["after"]
        verdicts = report["verdicts"][name] = {
            file: "identical" if before[file] == after[file] else "moved" for file in FILES
        }
        if before["artifact_version"] == after["artifact_version"]:
            undeclared += [f"{name}/{file}" for file, v in verdicts.items() if v == "moved"]
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report["layers"]), json.dumps(report["end_to_end"]),
          json.dumps(report["aa"]), json.dumps(report["verdicts"]), sep="\n")
    if undeclared:
        print("moved under an unchanged artifact_version:", ", ".join(undeclared), file=sys.stderr)
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
