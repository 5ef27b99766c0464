"""Two-thread coherence diagnostic: decision rule, budgets, symmetry."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsgd.diagnostic as diagnostic
from splitsgd.analysis import CoherenceStudy, coherence_histogram
from splitsgd.core import DivergenceError, RngStream, lockstep_steps
from splitsgd.diagnostic import (
    DiagnosticConfig,
    _two_thread_window_means,
    _verdicts,
    decide,
    run_diagnostic,
)
from splitsgd.objectives import (
    Dataset,
    Problem,
    ProblemSpec,
    full_gradient,
    perturbed_start,
    reversed_start,
)


def _literal_rule(values, q):
    """Independent rewrite of the counting rule: sum (1 - sign(Q)) / 2 and
    compare against q * w, with sign(0) = 0."""
    count = 0.0
    for v in values:
        sign = 1 if v > 0 else (-1 if v < 0 else 0)
        count += (1 - sign) / 2
    return count >= q * len(values), count


class TestDecide:
    def test_all_negative(self):
        assert decide([-1.0, -1.0, -1.0], 0.4) == (True, 3.0)

    def test_boundary_count_equals_threshold(self):
        values = [-1.0] * 8 + [1.0] * 12
        assert decide(values, 0.4) == (True, 8.0)  # 8 >= 0.4 * 20

    def test_one_fewer_negative_flips_verdict(self):
        values = [-1.0] * 7 + [1.0] * 13
        stationary, count = decide(values, 0.4)
        assert (stationary, count) == (False, 7.0)

    def test_zero_counts_one_half(self):
        assert decide([0.0, 1.0], 0.25) == (True, 0.5)

    def test_q_zero_always_stationary(self):
        assert decide([5.0, 9.0, 1.0], 0.0)[0] is True

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            decide([], 0.5)
        with pytest.raises(ValueError):
            decide([1.0], 1.5)

    def test_brute_force_equivalence_small_widths(self):
        for w in range(1, 7):
            for pattern in itertools.product((-1.5, 0.0, 2.0), repeat=w):
                for q in (0.0, 0.25, 0.4, 0.5, 1.0):
                    assert decide(list(pattern), q) == _literal_rule(pattern, q)

    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
        q_pair=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, values, q_pair):
        q_lo, q_hi = min(q_pair), max(q_pair)
        if decide(values, q_hi)[0]:
            assert decide(values, q_lo)[0]

    @given(data=st.data(), w=st.integers(1, 12), rows=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_block_equals_each_column(self, data, w, rows):
        # Exact zeros of both signs, and every q at which a count of
        # half-units meets q * w.
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
        block = np.array(data.draw(st.lists(
            st.lists(value, min_size=rows, max_size=rows), min_size=w, max_size=w
        )))
        q = data.draw(st.sampled_from([k / (2 * w) for k in range(2 * w + 1)]))
        stationary, counts = decide(block, q)
        assert stationary.shape == counts.shape == (rows,)
        columns = [decide(block[:, r], q) for r in range(rows)]
        assert columns == list(zip(stationary.tolist(), counts.tolist()))

    # Magnitudes bounded away from the subnormal range: scaling by 1e-6 must
    # not underflow a nonzero value to 0.0, which would genuinely change the
    # sign pattern (exact zeros are kept, they scale exactly).
    @given(
        values=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-100, 1e3),
                st.floats(-1e3, -1e-100),
            ),
            min_size=1,
            max_size=20,
        ),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_scaling_leaves_verdict_unchanged(self, values, scale):
        base = decide(values, 0.4)
        scaled = decide([v * scale for v in values], 0.4)
        assert scaled[0] == base[0]
        assert scaled[1] == base[1]


def _one_row_problem(x, y):
    """Noiseless problem: every draw returns the one datum, so each sampled
    gradient is the full gradient and both threads are identical."""
    x = np.asarray(x, dtype=np.float64)
    spec = ProblemSpec(
        family="linear", n=1, d=x.size, theta_star=np.zeros(x.size), noise_sd=0.0,
        data_seed=RngStream(0),
    )
    return Problem(spec=spec, dataset=Dataset(features=x[None, :], targets=np.array([y])))


class TestRunDiagnostic:
    def test_consumes_exactly_two_w_l_samples(self, small_linear_problem, monkeypatch):
        calls = []
        kernel = diagnostic.lockstep_steps

        def recording(features, targets, family, thetas, eta, steps, gens, l=None):
            calls.append((thetas.shape[0], steps, gens))
            return kernel(features, targets, family, thetas, eta, steps, gens, l)

        monkeypatch.setattr(diagnostic, "lockstep_steps", recording)
        cfg = DiagnosticConfig(eta=1e-3, w=3, l=7, q=0.4)
        run_diagnostic(small_linear_problem, np.zeros(4), cfg, rng=RngStream(1))
        assert sum(rows * steps for rows, steps, _ in calls) == 2 * 3 * 7
        # Each thread's stream advanced by exactly w*l draws: its next draw
        # is the (w*l + 1)-th of a fresh copy of the stream.
        (_, _, gens), = calls
        n = small_linear_problem.spec.n
        for k, gen in zip((1, 2), gens):
            fresh = RngStream(1).fork(k).generator().integers(0, n, size=3 * 7 + 1)
            assert gen.integers(0, n) == fresh[-1]

    def test_result_shapes_and_midpoint(self, small_linear_problem):
        cfg = DiagnosticConfig(eta=1e-3, w=4, l=5, q=0.4)
        result = run_diagnostic(small_linear_problem, np.ones(4), cfg, rng=RngStream(2))
        assert result.coherences.shape == (4,)
        means, thetas, failed = _two_thread_window_means(
            small_linear_problem, np.ones((1, 4)), cfg, [RngStream(2)]
        )
        assert means.shape == (4, 2, 1, 4) and thetas.shape == (2, 1, 4)
        assert np.array_equal(failed, [[-1], [-1]])
        assert np.array_equal(result.theta_d, (thetas[0, 0] + thetas[1, 0]) / 2.0)
        expected_q = [float(np.dot(means[i, 0, 0], means[i, 1, 0])) for i in range(4)]
        assert np.array_equal(result.coherences, np.array(expected_q))

    def test_thread_exchange_symmetry(self, small_linear_problem):
        # A thread depends only on its own stream: the lockstep loop run on
        # the two streams in exchanged order reproduces both threads
        # exactly ...
        cfg = DiagnosticConfig(eta=1e-3, w=4, l=5, q=0.4)
        means, thetas, _ = _two_thread_window_means(
            small_linear_problem, np.ones((1, 4)), cfg, [RngStream(6)]
        )
        swapped = np.ones((2, 4))
        ds = small_linear_problem.dataset
        sums, failed = lockstep_steps(
            ds.features, ds.targets, "linear", swapped, cfg.eta, cfg.w * cfg.l,
            [RngStream(6).fork(k).generator() for k in (2, 1)], cfg.l,
        )
        sums /= cfg.l
        assert np.array_equal(failed, [-1, -1])
        assert np.array_equal(sums[:, 0], means[:, 1, 0]) and np.array_equal(swapped[0], thetas[1, 0])
        assert np.array_equal(sums[:, 1], means[:, 0, 0]) and np.array_equal(swapped[1], thetas[0, 0])
        # ... and exchanging the roles leaves every coherence and the midpoint
        # invariant.
        q_regular = [float(np.dot(means[i, 0, 0], means[i, 1, 0])) for i in range(4)]
        q_swapped = [float(np.dot(sums[i, 0], sums[i, 1])) for i in range(4)]
        assert q_regular == q_swapped
        assert np.array_equal((thetas[0, 0] + thetas[1, 0]) / 2, (swapped[0] + swapped[1]) / 2)

    def test_rows_match_single_replication_calls(self, small_linear_problem, small_logistic_problem):
        # Batching replications changes nothing, on either family: six start
        # points split in one call equal six one-row calls, and the verdict
        # step over the six rows gives run_diagnostic's coherences, verdict,
        # count and midpoint for each, bit for bit.
        cfg = DiagnosticConfig(eta=1e-2, w=3, l=4, q=0.4)
        noise = RngStream(9).generator().standard_normal((6, 4))
        rngs = [RngStream(9).fork(r) for r in range(6)]
        for problem in (small_linear_problem, small_logistic_problem):
            starts = problem.spec.theta_star + 0.1 * noise
            batched = _two_thread_window_means(problem, starts, cfg, rngs)
            coherences, diverged, stationary, counts, midpoints = _verdicts(*batched, cfg.q)
            assert not diverged.any() and 0 < stationary.sum() < 6
            for r in range(6):
                alone = _two_thread_window_means(problem, starts[r:r + 1], cfg, rngs[r:r + 1])
                assert np.array_equal(batched[0][:, :, r:r + 1], alone[0])
                assert np.array_equal(batched[1][:, r:r + 1], alone[1])
                assert np.array_equal(batched[2][:, r:r + 1], alone[2])
                result = run_diagnostic(problem, starts[r], cfg, rngs[r])
                assert np.array_equal(coherences[:, r], result.coherences)
                assert (stationary[r], counts[r]) == (result.stationary, result.negative_count)
                assert np.array_equal(midpoints[r], result.theta_d)

    def test_noiseless_oracle_never_stationary(self):
        problem = _one_row_problem([1.0, 2.0, 0.5, -1.0], 3.0)
        cfg = DiagnosticConfig(eta=1e-2, w=5, l=4, q=0.25)
        result = run_diagnostic(problem, np.ones(4), cfg, rng=RngStream(3))
        assert np.all(result.coherences >= 0.0)
        assert result.negative_count == 0.0
        assert result.stationary is False

    def test_frozen_iterates_give_squared_gradient_norm(self):
        problem = _one_row_problem([1.0, 2.0, 0.5, -1.0], 3.0)
        theta_in = np.ones(4)
        cfg = DiagnosticConfig(eta=0.0, w=3, l=2, q=0.4)
        result = run_diagnostic(problem, theta_in, cfg, rng=RngStream(4))
        g = full_gradient(problem.dataset, "linear", theta_in)
        expected = float(np.dot(g, g))
        assert np.allclose(result.coherences, expected, rtol=1e-12)
        assert result.stationary is False
        assert np.array_equal(result.theta_d, theta_in)

    def test_divergence_carries_thread_and_step(self, linear_problem):
        cfg = DiagnosticConfig(eta=1.0, w=20, l=50, q=0.4)
        theta_in = reversed_start(linear_problem.spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as excinfo:
                run_diagnostic(linear_problem, theta_in, cfg, rng=RngStream(0))
        assert excinfo.value.thread in (1, 2)
        assert 0 <= excinfo.value.step < cfg.w * cfg.l

    def test_overflow_on_last_step_is_divergence(self):
        # The only step's margin (1e308) is finite but overflows the
        # iterate; the thread-end check names the draw after it, step 1.
        problem = _one_row_problem([1e154], 0.0)
        cfg = DiagnosticConfig(eta=10.0, w=1, l=1, q=0.4)
        with pytest.raises(DivergenceError) as excinfo:
            run_diagnostic(problem, np.array([1e154]), cfg, rng=RngStream(0))
        assert (excinfo.value.thread, excinfo.value.step) == (1, 1)

    def test_overflowing_coherence_is_divergence(self):
        # Frozen iterates keep both threads finite, but every window mean
        # (the gradient 1e160) squares past the float range: a coherence
        # that is not finite, not a positive sign.
        problem = _one_row_problem([1e80], 0.0)
        cfg = DiagnosticConfig(eta=0.0, w=3, l=2, q=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as excinfo:
                run_diagnostic(problem, np.ones(1), cfg, rng=RngStream(0))
        err = excinfo.value
        assert str(err) == "diagnostic coherence 1 of 3 is not finite"
        assert (err.thread, err.step, err.row) == (None, None, None)

    def test_scaling_gradients_scales_coherences_quadratically(self, small_linear_problem):
        # From theta_in = 0, scaling the linear targets by 4 (a power of two,
        # so every rounding scales exactly) scales every residual, iterate
        # and window mean by 4, hence each coherence by 16, and the verdict
        # must not move.
        ds = small_linear_problem.dataset
        scaled_problem = Problem(
            spec=small_linear_problem.spec,
            dataset=Dataset(features=ds.features, targets=4.0 * ds.targets),
        )
        cfg = DiagnosticConfig(eta=1e-2, w=6, l=10, q=0.4)
        base = run_diagnostic(small_linear_problem, np.zeros(4), cfg, rng=RngStream(8))
        scaled = run_diagnostic(scaled_problem, np.zeros(4), cfg, rng=RngStream(8))
        assert np.array_equal(scaled.coherences, 16.0 * base.coherences)
        assert np.array_equal(scaled.theta_d, 4.0 * base.theta_d)
        assert scaled.stationary == base.stationary
        assert scaled.negative_count == base.negative_count


class TestCoherenceTrace:
    def test_noisy_traces_stay_in_unit_interval(self, small_linear_problem):
        # One stream for every window index replays the same five noisy
        # two-thread splits, so the rows walk each split's normalized trace
        # window by window.
        traces = []
        for window_index in range(1, 11):
            study = CoherenceStudy(
                problem=small_linear_problem,
                eta=1e-2,
                replications=5,
                window_index=window_index,
                windows=10,
                l=3,
                normalized=True,
            )
            rows, summary = coherence_histogram(study, RngStream(0))
            assert summary.kept == 5
            traces.append([value for _, value in rows])
        trace = np.array(traces)
        assert np.all(trace >= -1.0)
        assert np.all(trace <= 1.0)
        assert np.unique(trace).size > 1


class TestNearOptimumRegime:
    def test_small_rate_near_optimum_rarely_negative(self, linear_problem):
        # At a tiny step size beside the optimum (start scattered with
        # sd 0.316, a calibrated displacement that keeps trend signal
        # dominant), the mean fraction of negative coherences per diagnostic
        # stays under 5% across replications.
        cfg = DiagnosticConfig(eta=1e-4, w=20, l=50, q=0.4)
        root = RngStream(0).fork(0xD1A6)
        fractions = []
        for rep in range(150):
            stream = root.fork(rep)
            theta0 = perturbed_start(
                linear_problem.spec.theta_star, stream.fork(0), noise_sd=0.316
            )
            result = run_diagnostic(linear_problem, theta0, cfg, rng=stream.fork(1))
            fractions.append(result.negative_count / cfg.w)
        assert float(np.mean(fractions)) < 0.05

    def test_far_start_all_windows_positive(self, linear_problem):
        cfg = DiagnosticConfig(eta=1e-4, w=20, l=50, q=0.4)
        result = run_diagnostic(
            linear_problem, reversed_start(linear_problem.spec), cfg, rng=RngStream(7)
        )
        assert result.negative_count == 0.0
        assert result.stationary is False


class TestConfigValidation:
    def test_negative_eta_rejected(self):
        DiagnosticConfig(eta=0.0)
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta must be >= 0 and finite"):
                DiagnosticConfig(eta=bad)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            DiagnosticConfig(eta=-1e-3)
        with pytest.raises(ValueError):
            DiagnosticConfig(eta=1e-3, w=0)
        with pytest.raises(ValueError):
            DiagnosticConfig(eta=1e-3, l=0)
        with pytest.raises(ValueError):
            DiagnosticConfig(eta=1e-3, q=1.01)
