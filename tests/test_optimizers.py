"""Schedules and drivers: decay identities, budgets, baselines, detection."""

import math

import numpy as np
import pytest

from splitsgd.core import DivergenceError, RngStream, sgd_steps
from splitsgd.diagnostic import DiagnosticConfig
from splitsgd.objectives import (
    Dataset,
    Problem,
    ProblemSpec,
    build_problem,
    full_loss,
    make_default_spec,
    perturbed_start,
    reversed_start,
    start_point,
)
from splitsgd.optimizers import (
    EVENT_DIAG_N,
    EVENT_DIAG_S,
    EVENT_HALVED,
    EVENT_NONE,
    RunTrace,
    ScheduleState,
    SplitSgdConfig,
    TraceRecord,
    _EpochLog,
    final_log_loss,
    run_constant_sgd,
    run_pflug_detection,
    run_sgd_half,
    run_split_detection,
    run_splitsgd,
    run_sqrt_decay_sgd,
    sqrt_decay_schedule,
)


def _start(problem, seed, child=0):
    stream = RngStream(seed)
    return perturbed_start(reversed_start(problem.spec), stream.fork(child))


class TestScheduleState:
    def test_decay_matches_iterated_product_and_floor(self):
        gamma = 0.3
        state = ScheduleState(current_eta=0.7, current_thread_length=10)
        eta_oracle, len_oracle = 0.7, 10
        for k in range(1, 8):
            state = state.after_detection(gamma)
            eta_oracle = eta_oracle * gamma
            len_oracle = math.floor(len_oracle / gamma)
            assert state.current_eta == eta_oracle
            assert state.current_thread_length == len_oracle
            assert state.detections == k

    def test_halving_lengths(self):
        state = ScheduleState(current_eta=1e-2, current_thread_length=4000)
        lengths = []
        for _ in range(3):
            state = state.after_detection(0.5)
            lengths.append(state.current_thread_length)
        assert lengths == [8000, 16000, 32000]
        assert state.current_eta == 1e-2 * 0.5**3


class TestSplitSgd:
    def test_always_stationary_threshold_decays_every_diagnostic(self, small_linear_problem):
        # q = 0 accepts unconditionally, so after b diagnostics the rate is
        # exactly the b-fold product with gamma and every event is a
        # detection.
        cfg = SplitSgdConfig(eta=1e-2, w=3, l=5, q=0.0, t1=30, gamma=0.5)
        trace = run_splitsgd(small_linear_problem, cfg, np.zeros(4), RngStream(3), 20)
        assert trace.diagnostics, "expected at least one diagnostic"
        eta_oracle = 1e-2
        length_oracle = 30
        for event in trace.diagnostics:
            assert event.stationary is True
            eta_oracle = eta_oracle * 0.5
            length_oracle = math.floor(length_oracle / 0.5)
            assert event.state.current_eta == eta_oracle
            assert event.state.current_thread_length == length_oracle

    def test_rate_and_length_change_only_jointly_on_detection(self, small_linear_problem):
        cfg = SplitSgdConfig(eta=1e-2, w=2, l=5, q=0.4, t1=25, gamma=0.5)
        trace = run_splitsgd(small_linear_problem, cfg, np.zeros(4), RngStream(9), 40)
        previous = ScheduleState(cfg.eta, cfg.t1)
        for event in trace.diagnostics:
            state = event.state
            if event.stationary:
                assert state.current_eta == previous.current_eta * cfg.gamma
                assert state.current_thread_length == math.floor(
                    previous.current_thread_length / cfg.gamma
                )
            else:
                assert state == previous
            previous = state

    def test_no_diagnostics_is_bit_identical_to_constant_sgd(self, linear_problem):
        # Constant SGD is SplitSGD with B = 0; it must still be plain SGD,
        # an epoch of sgd_steps at a time on the same generator.
        theta0 = _start(linear_problem, 31)
        const = run_constant_sgd(linear_problem, SplitSgdConfig(eta=1e-3), theta0.copy(), RngStream(8), 5)
        data, n = linear_problem.dataset, linear_problem.spec.n
        theta, gen = theta0.copy(), RngStream(8).generator()
        losses = [full_loss(data, "linear", theta)]
        for _ in range(5):
            sgd_steps(data.features, data.targets, "linear", theta, 1e-3, n, gen)
            losses.append(full_loss(data, "linear", theta))
        assert np.array_equal(const.final_theta, theta)
        assert [record.full_loss for record in const.records] == losses
        assert [record.gradient_evals for record in const.records] == [k * n for k in range(6)]
        assert const.total_evals == 5 * n
        assert const.diagnostics == []

    def test_budget_accounting(self, linear_problem):
        cfg = SplitSgdConfig(eta=1e-2, w=20, l=50, q=0.4, t1=4000)
        budget_epochs = 12
        trace = run_splitsgd(linear_problem, cfg, _start(linear_problem, 1), RngStream(1), budget_epochs)
        diagnostics = len(trace.diagnostics)
        budget_units = budget_epochs * linear_problem.spec.n
        # Each diagnostic is charged w*l budget units but runs two threads.
        assert trace.total_evals == budget_units + cfg.w * cfg.l * diagnostics
        assert trace.records[-1].epoch == budget_epochs
        evals = [record.gradient_evals for record in trace.records]
        assert evals == sorted(evals)
        assert all(b > a for a, b in zip(evals, evals[1:]))

    def test_learning_rate_non_increasing(self, linear_problem):
        cfg = SplitSgdConfig(eta=1e-2, t1=2000)
        trace = run_splitsgd(linear_problem, cfg, _start(linear_problem, 2), RngStream(2), 15)
        rates = [record.learning_rate for record in trace.records]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == 1e-2

    def test_verdicts_show_on_the_first_record_at_or_after_each_diagnostic(
        self, small_linear_problem
    ):
        # q = 0 makes every diagnostic stationary.  With 60-step epochs,
        # threads of 45, 90 and 180 steps and 15-step diagnostics, the
        # diagnostics end at step 60 (an epoch boundary), 165 (inside epoch
        # 3) and 360 (a boundary); the last thread runs to the budget.
        cfg = SplitSgdConfig(eta=1e-2, w=3, l=5, q=0.0, t1=45, gamma=0.5)
        trace = run_splitsgd(small_linear_problem, cfg, np.zeros(4), RngStream(3), 10)
        assert [event.state.current_eta for event in trace.diagnostics] == [5e-3, 2.5e-3, 1.25e-3]
        shown = {r.epoch: (r.learning_rate, r.event) for r in trace.records if r.event != EVENT_NONE}
        assert shown == {1: (5e-3, EVENT_DIAG_S), 3: (2.5e-3, EVENT_DIAG_S),
                         6: (1.25e-3, EVENT_DIAG_S)}
        assert [r.learning_rate for r in trace.records] == (
            [1e-2, 5e-3, 5e-3] + [2.5e-3] * 3 + [1.25e-3] * 5
        )

    def test_stationarity_events_recorded_in_trace(self, linear_problem):
        cfg = SplitSgdConfig(eta=1e-2, t1=4000)
        trace = run_splitsgd(linear_problem, cfg, _start(linear_problem, 3), RngStream(3), 10)
        tokens = [event for record in trace.records for event in record.event.split(";")]
        assert set(tokens) <= {EVENT_NONE, EVENT_DIAG_S, EVENT_DIAG_N}
        assert tokens.count(EVENT_DIAG_S) == sum(1 for e in trace.diagnostics if e.stationary)

    def test_a_record_names_every_verdict_since_the_record_before(self, linear_problem):
        # Short threads and diagnostics: an N and an S end inside epoch 1 and
        # two S inside epoch 2, so those records each name two verdicts.
        cfg = SplitSgdConfig(eta=1e-2, w=5, l=20, q=0.4, t1=200)
        trace = run_splitsgd(linear_problem, cfg, np.zeros(20), RngStream(1), 10)
        shown = {r.epoch: r.event for r in trace.records if r.event != EVENT_NONE}
        assert shown == {1: f"{EVENT_DIAG_N};{EVENT_DIAG_S}", 2: f"{EVENT_DIAG_S};{EVENT_DIAG_S}",
                         4: EVENT_DIAG_S, 7: EVENT_DIAG_S}
        verdicts = [EVENT_DIAG_S if d.stationary else EVENT_DIAG_N for d in trace.diagnostics]
        assert ";".join(shown.values()).split(";") == verdicts

    def test_impossible_threshold_keeps_rate_constant(self, small_linear_problem):
        # q = 1 requires every window negative; with continuous noise that
        # almost surely never happens.
        constant = 0
        for seed in range(20):
            cfg = SplitSgdConfig(eta=1e-3, w=4, l=5, q=1.0, t1=40)
            trace = run_splitsgd(small_linear_problem, cfg, np.zeros(4), RngStream(seed), 10)
            rates = {record.learning_rate for record in trace.records}
            constant += rates == {1e-3}
        assert constant >= 19

    def test_reproducible_bit_for_bit(self, linear_problem):
        cfg = SplitSgdConfig(eta=1e-2, t1=3000)
        theta0 = _start(linear_problem, 4)
        first = run_splitsgd(linear_problem, cfg, theta0, RngStream(4), 8)
        second = run_splitsgd(linear_problem, cfg, theta0, RngStream(4), 8)
        assert first.records == second.records
        assert np.array_equal(first.final_theta, second.final_theta)

    def test_divergence_propagates(self, linear_problem):
        cfg = SplitSgdConfig(eta=10.0, t1=1000)
        with pytest.raises(DivergenceError):
            run_splitsgd(linear_problem, cfg, _start(linear_problem, 6), RngStream(6), 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitSgdConfig(eta=1e-2, gamma=1.0)
        with pytest.raises(ValueError):
            SplitSgdConfig(eta=1e-2, gamma=0.0)
        with pytest.raises(ValueError):
            SplitSgdConfig(eta=1e-2, t1=0)
        with pytest.raises(ValueError):
            SplitSgdConfig(eta=1e-2, B=-1)
        # The diagnostic's fields are checked once, by DiagnosticConfig.
        for bad in ({"eta": -1.0}, {"eta": math.nan}, {"eta": math.inf}, {"w": 0}, {"l": 0},
                    {"q": 1.5}):
            with pytest.raises(ValueError):
                SplitSgdConfig(**{"eta": 1e-2, **bad})
        assert isinstance(SplitSgdConfig(eta=1e-2), DiagnosticConfig)


class TestConstantSgd:
    def test_zero_rate_keeps_loss_constant(self, small_linear_problem):
        trace = run_constant_sgd(small_linear_problem, SplitSgdConfig(eta=0.0), np.ones(4), RngStream(0), 4)
        losses = {record.full_loss for record in trace.records}
        assert len(losses) == 1

    def test_epoch_records_cover_budget(self, small_linear_problem):
        trace = run_constant_sgd(small_linear_problem, SplitSgdConfig(eta=1e-3), np.ones(4), RngStream(1), 7)
        assert [r.epoch for r in trace.records] == list(range(8))
        assert trace.total_evals == 7 * small_linear_problem.spec.n

    def test_interpolation_regime_strictly_decreases(self):
        # Noiseless targets make the problem an interpolation task.  The
        # single-sample stability bound is 1 / max_i ||x_i||^2; a rate well
        # below it (and below the batch bound 2 / lambda_max) must push the
        # loss down at every one of the first ten epoch boundaries.
        spec = make_default_spec("linear", RngStream(17), noise_sd=0.0)
        problem = build_problem(spec)
        X = problem.dataset.features
        per_sample_bound = 1.0 / float(np.max(np.sum(X * X, axis=1)))
        batch_bound = 2.0 / float(np.linalg.eigvalsh(X.T @ X / X.shape[0])[-1])
        eta = 1e-4
        assert eta < per_sample_bound < batch_bound
        trace = run_constant_sgd(problem, SplitSgdConfig(eta=eta), reversed_start(spec), RngStream(18), 10)
        losses = [record.full_loss for record in trace.records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_plateau_matches_analytic_level(self, linear_problem):
        # Independent oracle: at stationarity the iterate covariance Sigma
        # of single-sample SGD solves the exact fixed-point equation
        #   (H Sigma + Sigma H) - eta * M(Sigma) = eta * S,
        # with M(Sigma) = mean (x' Sigma x) x x' and S the gradient noise
        # covariance at the least-squares solution; the expected plateau
        # loss is then L(theta_hat) + tr(H Sigma) / 2.
        X = linear_problem.dataset.features
        y = linear_problem.dataset.targets
        n, d = X.shape
        eta = 1e-2
        H = X.T @ X / n
        theta_hat = np.linalg.lstsq(X, y, rcond=None)[0]
        residuals = X @ theta_hat - y
        loss_hat = 0.5 * float(np.mean(residuals * residuals))
        S = (X * (residuals * residuals)[:, None]).T @ X / n
        V = (X[:, :, None] * X[:, None, :]).reshape(n, d * d)
        M = V.T @ V / n
        lyap = np.kron(H, np.eye(d)) + np.kron(np.eye(d), H) - eta * M
        sigma = np.linalg.solve(lyap, eta * S.reshape(-1)).reshape(d, d)
        expected = loss_hat + 0.5 * float(np.trace(H @ sigma))

        finals = []
        for seed in range(10):
            stream = RngStream(0).fork(0xB1A).fork(seed)
            theta0 = perturbed_start(reversed_start(linear_problem.spec), stream.fork(0))
            trace = run_constant_sgd(linear_problem, SplitSgdConfig(eta=eta), theta0, stream.fork(1), 20)
            finals.append(trace.records[-1].full_loss)
        measured = float(np.mean(finals))
        assert abs(measured - expected) / expected < 0.05


class TestSqrtDecay:
    def test_schedule_values(self):
        assert sqrt_decay_schedule(1e-2, 1) == 0.2
        assert sqrt_decay_schedule(1e-2, 400) == 1e-2
        steps = [sqrt_decay_schedule(1e-2, t) for t in range(1, 500)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_trace_rates_decrease(self, small_linear_problem):
        # Each record carries the rate of the next draw; the last one, at
        # the end of the budget, keeps the last draw's.
        n, budget = small_linear_problem.spec.n, 6 * small_linear_problem.spec.n
        trace = run_sqrt_decay_sgd(small_linear_problem, SplitSgdConfig(eta=1e-3), np.ones(4), RngStream(2), 6)
        rates = [record.learning_rate for record in trace.records]
        assert rates[0] == 20.0 * 1e-3
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert [r.epoch for r in trace.records] == list(range(7))
        for record in trace.records:
            assert record.learning_rate == sqrt_decay_schedule(1e-3, min(record.epoch * n + 1, budget))


class TestEpochLog:
    def test_per_step_rates_carry_across_a_cut(self, small_linear_problem):
        # A run that starts inside an epoch is cut at the boundary; its
        # second piece must take up the rates where the first left off.
        data, n = small_linear_problem.dataset, small_linear_problem.spec.n
        rates = sqrt_decay_schedule(1e-3, np.arange(1, n + 1))
        start = np.ones(4)
        log = _EpochLog(small_linear_problem, 2, start, RngStream(5), 1e-3)
        log.run(1e-3, n // 2)
        log.run(rates, n)
        expected, gen = np.ones(4), RngStream(5).generator()
        sgd_steps(data.features, data.targets, "linear", expected, 1e-3, n // 2, gen)
        sgd_steps(data.features, data.targets, "linear", expected, rates, n, gen, first_step=n // 2)
        assert np.array_equal(log.theta, expected)
        assert np.array_equal(start, np.ones(4))
        assert [r.epoch for r in log.records] == [0, 1]

    @pytest.mark.parametrize("run", [run_splitsgd, run_constant_sgd, run_sqrt_decay_sgd,
                                     run_sgd_half])
    def test_negative_budget_rejected(self, small_linear_problem, run):
        cfg = SplitSgdConfig(eta=1e-3, w=4, l=5, t1=40)
        with pytest.raises(ValueError, match="epoch budget must be >= 0"):
            run(small_linear_problem, cfg, np.zeros(4), RngStream(0), -1)


class TestSgdHalf:
    def test_rates_halve_and_threads_double(self, small_linear_problem):
        n = small_linear_problem.spec.n
        cfg = SplitSgdConfig(eta=1e-2, t1=n)
        trace = run_sgd_half(small_linear_problem, cfg, np.ones(4), RngStream(3), 15)
        # Thread boundaries at t1 * (2^k - 1) epochs: 1, 3, 7, 15.  Each
        # boundary record carries the rate of the next draw and the halving;
        # the last one, at the end of the budget, keeps the last draw's.
        rate_of = {record.epoch: record.learning_rate for record in trace.records}
        assert rate_of[0] == 1e-2
        assert rate_of[1] == 1e-2 / 2
        assert rate_of[3] == 1e-2 / 4
        assert rate_of[7] == 1e-2 / 8
        assert rate_of[15] == 1e-2 / 8
        halvings = [record.epoch for record in trace.records if record.event == EVENT_HALVED]
        assert halvings == [1, 3, 7]

    def test_halving_on_an_epoch_boundary_shows_in_its_record(self, small_linear_problem):
        n = small_linear_problem.spec.n
        cfg = SplitSgdConfig(eta=1e-2, t1=4 * n)
        trace = run_sgd_half(small_linear_problem, cfg, np.ones(4), RngStream(3), 14)
        events = {r.epoch: (r.learning_rate, r.event) for r in trace.records if r.event != EVENT_NONE}
        assert events == {4: (0.005, EVENT_HALVED), 12: (0.0025, EVENT_HALVED)}
        assert trace.records[5].learning_rate == 0.005 and trace.records[-1].learning_rate == 0.0025

    def test_halving_inside_an_epoch_shows_at_the_next_boundary(self, small_linear_problem):
        # Threads of 30 and 60 steps end at steps 30 and 90 of 60-step epochs.
        cfg = SplitSgdConfig(eta=1e-2, t1=30)
        trace = run_sgd_half(small_linear_problem, cfg, np.ones(4), RngStream(3), 2)
        assert [(r.learning_rate, r.event) for r in trace.records] == [
            (1e-2, EVENT_NONE), (5e-3, EVENT_HALVED), (2.5e-3, EVENT_HALVED),
        ]

    def test_rate_after_k_threads(self, small_linear_problem):
        cfg = SplitSgdConfig(eta=0.8, t1=60)
        trace = run_sgd_half(small_linear_problem, cfg, np.ones(4), RngStream(4), 31)
        final_rate = trace.records[-1].learning_rate
        assert final_rate == 0.8 * 2.0**-4  # threads of 1+2+4+8 epochs end at 15


class TestPflug:
    def test_first_comparison_needs_two_draws(self):
        # One-sample problem: the statistic is empty after epoch 1 (a single
        # draw), so the earliest possible detection is epoch 2, where the
        # inner product of the two oscillating gradients is negative.
        spec = ProblemSpec(
            family="linear", n=1, d=1, theta_star=np.zeros(1), noise_sd=0.0,
            data_seed=RngStream(0),
        )
        problem = Problem(
            spec=spec,
            dataset=Dataset(features=np.array([[1.0]]), targets=np.zeros(1)),
        )
        detection = run_pflug_detection(problem, SplitSgdConfig(eta=1.5), [np.ones(1)], [RngStream(0)], 10)
        assert detection == [2]

    def test_noiseless_never_detects(self):
        spec = make_default_spec("linear", RngStream(19), noise_sd=0.0)
        problem = build_problem(spec)
        starts = [reversed_start(spec)] * 3
        detection = run_pflug_detection(
            problem, SplitSgdConfig(eta=1e-3), starts, [RngStream(seed) for seed in range(3)], 5
        )
        assert detection == [None] * 3

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_rows_equal_one_row_calls(self, family, linear_problem, logistic_problem):
        # Near the optimum rows fire at different epochs (and on the
        # logistic family some never do): a fired row drops out while the
        # others keep stepping, and every row reads as it does alone.
        problem = linear_problem if family == "linear" else logistic_problem
        base = start_point(problem.spec, "near-opt")
        starts = [perturbed_start(base, RngStream(40).fork(r)) for r in range(20)]
        rngs = [RngStream(41).fork(r) for r in range(20)]
        cfg = SplitSgdConfig(eta=1e-2)
        rows = run_pflug_detection(problem, cfg, starts, rngs, 8)
        alone = [run_pflug_detection(problem, cfg, [s], [g], 8)[0] for s, g in zip(starts, rngs)]
        assert rows == alone
        assert len(set(rows)) >= 3

    def test_divergence_names_the_row_and_step(self):
        # Drawing the last data row overflows the iterate.  In epoch 1 rows
        # 0-3 fire and rows 4 and 5 diverge: the first of them in row order
        # is named, with the step its one-row call reports.  Row 1 draws the
        # big row last, so its last residual is not finite, but its sum is
        # negative (-inf) at the boundary: a detection.
        spec = ProblemSpec(
            family="linear", n=4, d=1, theta_star=np.zeros(1), noise_sd=0.0,
            data_seed=RngStream(0),
        )
        features = np.array([[1.0], [0.5], [-1.0], [1e154]])
        problem = Problem(spec=spec, dataset=Dataset(features=features, targets=np.zeros(4)))
        starts, rngs = [np.array([1e154])] * 6, [RngStream(4).fork(r) for r in range(6)]
        cfg = SplitSgdConfig(eta=10.0)
        assert run_pflug_detection(problem, cfg, starts[:4], rngs[:4], 5) == [1] * 4
        with pytest.raises(DivergenceError) as alone:
            run_pflug_detection(problem, cfg, starts[4:5], rngs[4:5], 5)
        with pytest.raises(DivergenceError) as excinfo:
            run_pflug_detection(problem, cfg, starts, rngs, 5)
        err = excinfo.value
        assert (alone.value.row, alone.value.step) == (0, 1)
        assert (err.row, err.step) == (4, 1)
        assert str(err) == "iterate diverged at step 1"
        # Drawn last in epoch 1, the big row leaves a finite residual but
        # overflows the iterate and the sum (to -inf): a detection, not a
        # divergence, as in a per-sample run that checks each residual.
        assert run_pflug_detection(problem, cfg, [np.ones(1)], [RngStream(1)], 5) == [1]

class TestSplitDetection:
    def test_unconditional_threshold_detects_at_first_diagnostic(self, linear_problem):
        cfg = SplitSgdConfig(eta=1e-3, q=0.0)
        detection = run_split_detection(
            linear_problem, cfg, [_start(linear_problem, 5)], [RngStream(5)], 100
        )
        assert detection == [cfg.t1 // linear_problem.spec.n + 1]

    def test_impossible_threshold_exhausts_budget(self, small_linear_problem):
        cfg = SplitSgdConfig(eta=1e-3, w=4, l=5, q=1.0, t1=40)
        assert run_split_detection(
            small_linear_problem, cfg, [np.zeros(4)], [RngStream(6)], 10
        ) == [None]

    def test_near_optimum_detects_on_the_diagnostic_lattice(self, linear_problem):
        # Before the first detection every diagnostic ends after exactly
        # t1 + w*l = 5000 charged evals, so detection epochs must be
        # multiples of 5; near the optimum at this rate a detection should
        # arrive within a handful of diagnostics.
        cfg = SplitSgdConfig(eta=1e-2)
        streams = [RngStream(100).fork(seed) for seed in range(5)]
        starts = [perturbed_start(linear_problem.spec.theta_star, s.fork(0)) for s in streams]
        detections = run_split_detection(
            linear_problem, cfg, starts, [s.fork(1) for s in streams], 100
        )
        assert all(d is not None and d % 5 == 0 and d <= 50 for d in detections)
        assert min(detections) == 5

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_rows_equal_one_row_calls(self, family, linear_problem, logistic_problem):
        # Near the optimum, at q = 0.55, rows fire at different diagnostics
        # and some reach the cap: a fired row drops out while the others keep
        # stepping, and every row reads as it does alone.
        problem = linear_problem if family == "linear" else logistic_problem
        cfg = SplitSgdConfig(eta=1e-2, q=0.55, t1=1000)
        base = start_point(problem.spec, "near-opt")
        starts = [perturbed_start(base, RngStream(40).fork(r)) for r in range(20)]
        rngs = [RngStream(41).fork(r) for r in range(20)]
        rows = run_split_detection(problem, cfg, starts, rngs, 8)
        alone = [run_split_detection(problem, cfg, [s], [g], 8)[0] for s, g in zip(starts, rngs)]
        assert rows == alone
        assert None in rows
        assert len(set(rows)) >= 4

    def _reversed_rows(self, problem, cfg, max_epochs):
        # Three runs from the reversed start, run r on RngStream(5).fork(r).
        starts = [reversed_start(problem.spec)] * 3
        return run_split_detection(problem, cfg, starts, [RngStream(5).fork(r) for r in range(3)],
                                   max_epochs)

    def test_detection_off_the_epoch_lattice_rounds_up(self, linear_problem):
        # At q = 0 the first diagnostic fires; it ends after t1 + w*l = 1600
        # charged units, inside epoch 2.
        cfg = SplitSgdConfig(eta=1e-3, w=20, l=30, q=0.0, t1=1000)
        assert self._reversed_rows(linear_problem, cfg, 5) == [2, 2, 2]

    def test_diagnostic_that_exactly_fills_the_budget_runs(self, linear_problem):
        # t1 + w*l = 2000 units is the whole two-epoch budget.
        cfg = SplitSgdConfig(eta=1e-3, w=20, l=50, q=0.0, t1=1000)
        assert self._reversed_rows(linear_problem, cfg, 2) == [2, 2, 2]

    def test_divergence_names_the_first_of_several_rows(self, linear_problem):
        # At eta = 1 all three rows diverge in the first main-thread call, at
        # steps 653, 678 and 688; the error names row 0, with its own step.
        with pytest.raises(DivergenceError) as excinfo:
            self._reversed_rows(linear_problem, SplitSgdConfig(eta=1.0, t1=1000), 5)
        assert (excinfo.value.row, excinfo.value.step) == (0, 653)

    def test_divergence_names_the_row_thread_and_step(self):
        # Drawing the last data row overflows the iterate, and q = 1 keeps
        # every run undetected.  Run 0 starts at the optimum and stays there;
        # alone, run 1 diverges on its second main thread, at step
        # 13 = 4 + 2 * 4 + 1 of all its draws, and run 2 in thread 2 of its
        # first diagnostic.  Among rows, the first call in which any row
        # diverges names the first such row, with its one-row thread and step.
        spec = ProblemSpec(
            family="linear", n=4, d=1, theta_star=np.zeros(1), noise_sd=0.0,
            data_seed=RngStream(0),
        )
        features = np.array([[1.0], [0.5], [-1.0], [1e154]])
        problem = Problem(spec=spec, dataset=Dataset(features=features, targets=np.zeros(4)))
        cfg = SplitSgdConfig(eta=0.1, w=2, l=2, q=1.0, t1=4)
        starts = [np.zeros(1), np.ones(1), np.ones(1)]
        rngs = [RngStream(2).fork(r) for r in range(3)]

        def error(rows):
            with pytest.raises(DivergenceError) as excinfo:
                run_split_detection(
                    problem, cfg, [starts[r] for r in rows], [rngs[r] for r in rows], 5
                )
            err = excinfo.value
            return err.row, err.thread, err.step, str(err)

        assert run_split_detection(problem, cfg, starts[:1], rngs[:1], 5) == [None]
        main, diag = "iterate diverged at step 13", "diagnostic thread 2 diverged at step 1"
        assert error([1]) == (0, None, 13, main)
        assert error([0, 1]) == (1, None, 13, main)
        assert error([2]) == (0, 2, 1, diag)
        assert error([0, 2]) == (1, 2, 1, diag)
        assert error([0, 1, 2]) == (2, 2, 1, diag)

    @pytest.mark.parametrize("family, big, t1, rng, step", [
        ("linear", 1e154, 4, RngStream(7, 5), 4),
        ("logistic", 1e308, 8, RngStream(1), 3),
    ], ids=["linear", "logistic"])
    def test_single_run_and_rows_name_the_same_divergence(self, family, big, t1, rng, step):
        # The fourth draw picks the big row, on the first epoch's last step,
        # before any diagnostic starts.  On the linear family its margin is
        # finite and overflows the iterate, so the run diverges at the next
        # draw, step 4: the traced run's epoch call names the draw after its
        # last, and the detector's one thread call reaches it.  On the
        # logistic family that fourth margin is already not finite (step 3).
        # Both report the same step.
        spec = ProblemSpec(
            family=family, n=4, d=1, theta_star=np.zeros(1), noise_sd=0.0,
            data_seed=RngStream(0),
        )
        features = np.array([[1.0], [0.5], [-1.0], [big]])
        problem = Problem(spec=spec, dataset=Dataset(features=features, targets=np.zeros(4)))
        cfg = SplitSgdConfig(eta=10.0, w=2, l=2, q=1.0, t1=t1)
        assert rng.generator().integers(0, 4, size=4).tolist().index(3) == 3
        with pytest.raises(DivergenceError) as single:
            run_splitsgd(problem, cfg, np.ones(1), rng, 5)
        with pytest.raises(DivergenceError) as rows:
            run_split_detection(problem, cfg, [np.ones(1)], [rng], 5)
        for err in (single.value, rows.value):
            assert (err.step, err.thread, str(err)) == (step, None, f"iterate diverged at step {step}")


class TestDetectors:
    @pytest.mark.parametrize("detect", [run_split_detection, run_pflug_detection])
    def test_budget_validation(self, small_linear_problem, detect):
        # Both detectors take the schedule drivers' (problem, cfg, starts,
        # streams, epochs) and check the epoch budget as they do.
        cfg = SplitSgdConfig(eta=1e-3, w=4, l=5, t1=40)
        with pytest.raises(ValueError, match="epoch budget must be >= 0"):
            detect(small_linear_problem, cfg, [np.zeros(4)], [RngStream(0)], -1)
        assert detect(small_linear_problem, cfg, [np.zeros(4)], [RngStream(0)], 0) == [None]


class TestTraceUtilities:
    def _trace(self, loss):
        return RunTrace(
            records=[TraceRecord(0, 0, 1e-2, loss)], final_theta=np.zeros(1), total_evals=0
        )

    def test_final_log_loss_values(self):
        assert final_log_loss(self._trace(math.e)) == pytest.approx(1.0)
        assert final_log_loss(self._trace(math.inf)) == math.inf
        assert final_log_loss(self._trace(math.nan)) == math.inf
        assert final_log_loss(self._trace(0.0)) == -math.inf

    def test_write_csv(self, tmp_path, small_linear_problem):
        trace = run_constant_sgd(small_linear_problem, SplitSgdConfig(eta=1e-3), np.ones(4), RngStream(7), 3)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,gradient_evals,learning_rate,full_loss,event"
        assert len(lines) == 1 + len(trace.records)
