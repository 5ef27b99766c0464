"""Core numeric primitives: the per-sample and lockstep SGD loops (with
window sums and consecutive-gradient products), step-size checks, rng
streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsgd.core as core
from splitsgd.core import (
    DimensionError,
    DivergenceError,
    NumericError,
    RngStream,
    as_param_vector,
    check_step_size,
    lockstep_steps,
    sgd_steps,
)
from splitsgd.diagnostic import DiagnosticConfig, run_diagnostic
from splitsgd.objectives import Dataset, Problem, ProblemSpec


def _vec(*values):
    return np.array(values, dtype=np.float64)


def _data(seed, n=7, d=3):
    gen = RngStream(seed).generator()
    return gen.standard_normal((n, d)), gen.standard_normal(n)


def _carry(rows, d=3):
    """All-zero consecutive-gradient carry for ``rows`` lockstep rows."""
    return np.zeros(rows), np.zeros(rows), np.zeros((rows, d))


class TestSgdStep:
    def test_plain_arithmetic(self):
        # One row x = (1, 2), y = 1: at theta = 0 the residual is -1, so one
        # step at eta = 0.5 moves theta by +0.5 * x.
        theta = _vec(0.0, 0.0)
        sgd_steps(np.array([[1.0, 2.0]]), _vec(1.0), "linear", theta, 0.5, 1, RngStream(0).generator())
        assert np.array_equal(theta, _vec(0.5, 1.0))

    def test_zero_step_size_is_identity(self):
        features, targets = _data(1)
        theta = _vec(3.5, -2.0, 7.0)
        sgd_steps(features, targets, "linear", theta, 0.0, 25, RngStream(2).generator())
        assert np.array_equal(theta, _vec(3.5, -2.0, 7.0))

    def test_plain_update_is_exact_expression(self):
        # theta' must equal the literal expression theta - (eta*r) * x, bit
        # for bit, in both loops; the lockstep window receives r*x.
        features, targets = _data(5)
        theta = RngStream(5).generator().standard_normal(3)
        i = RngStream(6).generator().integers(0, 7, size=1)[0]
        z = float(np.dot(features[i], theta))
        for family, r in (
            ("linear", z - targets[i]),
            ("logistic", 1.0 / (1.0 + math.exp(-z)) - targets[i]),
        ):
            plain = theta.copy()
            sgd_steps(features, targets, family, plain, 0.37, 1, RngStream(6).generator())
            assert np.array_equal(plain, theta - (0.37 * r) * features[i])

            windowed = theta[None].copy()
            sums, failed = lockstep_steps(features, targets, family, windowed, 0.37, 1,
                                          [RngStream(6).generator()], 1)
            assert failed[0] == -1
            assert np.array_equal(sums[0, 0], r * features[i])
            assert np.array_equal(windowed[0], theta - (0.37 * r) * features[i])

    def test_inputs_not_mutated(self):
        # Only theta and the accumulators change; the data rows the loop
        # reads by view stay untouched.
        features, targets = _data(3)
        f_copy, t_copy = features.copy(), targets.copy()
        lockstep_steps(features, targets, "linear", np.ones((2, 3)), 0.1, 20,
                       [RngStream(4).generator(), RngStream(5).generator()], 5)
        lockstep_steps(features, targets, "logistic", np.ones((1, 3)), 0.1, 20,
                       [RngStream(4).generator()], products=_carry(1))
        sgd_steps(features, targets, "logistic", np.ones(3), 0.1, 20, RngStream(4).generator())
        assert np.array_equal(features, f_copy)
        assert np.array_equal(targets, t_copy)

    def test_split_calls_equal_one_call(self):
        # Draws, iterates and consecutive-gradient sums carry across calls
        # of lockstep_steps on the same generators: 2000 steps in one call
        # (two index chunks) equal 300 + 1700 steps in two, on both families
        # at R = 1 and R = 20, and each row's carry ends on its last draw.
        features, targets = _data(8)
        for family in ("linear", "logistic"):
            for rows in (1, 20):
                runs = []
                for parts in ((2000,), (300, 1700)):
                    thetas, carry = np.zeros((rows, 3)), _carry(rows)
                    gens = [RngStream(9).fork(r).generator() for r in range(rows)]
                    for steps in parts:
                        lockstep_steps(features, targets, family, thetas, 1e-2, steps, gens,
                                       products=carry)
                    runs.append((thetas, *carry))
                for whole, split in zip(*runs):
                    assert np.array_equal(whole, split), (family, rows)
                for r in range(rows):
                    i = RngStream(9).fork(r).generator().integers(0, 7, size=2000)[-1]
                    assert np.array_equal(runs[0][3][r], features[i]), (family, rows)

    def test_consecutive_gradient_products(self):
        # Iterates and the sums of <g_t, g_(t-1)> of lockstep rows, over more
        # than two index chunks, equal a per-step replay of each row, bit
        # for bit, on both families at R = 1 and R = 20.
        steps = 2 * core._LOCKSTEP_STEPS + 1
        features, targets = _data(10)
        for family in ("linear", "logistic"):
            for rows in (1, 20):
                starts = RngStream(12).generator().standard_normal((rows, 3))
                thetas, carry = starts.copy(), _carry(rows)
                _, failed = lockstep_steps(
                    features, targets, family, thetas, 1e-2, steps,
                    [RngStream(11).fork(r).generator() for r in range(rows)], products=carry,
                )
                assert (failed == -1).all()
                for r in range(rows):
                    replay, total = _replay_steps(features, targets, family, starts[r],
                                                  [1e-2] * steps, RngStream(11).fork(r).generator())
                    assert np.array_equal(thetas[r], replay), (family, rows, r)
                    assert carry[0][r] == total, (family, rows, r)

    def test_per_step_rates(self):
        # Rate t applies to draw t, across index chunks, on both families.
        steps = 2 * core._CHUNK + 1
        rates = 0.3 / np.sqrt(np.arange(1, steps + 1))
        rates[::7] = 0.0
        for family in ("linear", "logistic"):
            features, targets = _data(12)
            stepped = np.ones(3)
            sgd_steps(features, targets, family, stepped, rates, steps, RngStream(13).generator())
            replay, _ = _replay_steps(features, targets, family, np.ones(3), rates,
                                      RngStream(13).generator())
            assert np.array_equal(stepped, replay), family

    def test_too_few_rates_rejected(self):
        features, targets = _data(12)
        with pytest.raises(ValueError):
            sgd_steps(features, targets, "linear", np.ones(3), np.full(2, 0.1), 3,
                      RngStream(13).generator())

    def test_negative_eta_rejected(self):
        check_step_size(0.0)
        for bad in (-1e-9, math.nan):
            with pytest.raises(ValueError):
                check_step_size(bad)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sgd_steps(np.ones((2, 2)), np.ones(2), "linear", _vec(1.0), 0.1, 1,
                      RngStream(0).generator())

    def test_non_finite_gradient_raises_with_step_index(self):
        features, targets = _data(14, d=2)
        with pytest.raises(NumericError) as excinfo:
            sgd_steps(features, targets, "linear", _vec(np.nan, 0.0), 0.1, 5,
                      RngStream(0).generator(), first_step=17)
        assert isinstance(excinfo.value, DivergenceError)
        assert excinfo.value.step == 17

    def test_overflow_to_non_finite_iterate_raises_divergence(self):
        # The first margin (1e308) is finite, but the update overflows the
        # iterate, so the second draw's margin is not: step 1 raises.
        with pytest.raises(DivergenceError) as excinfo:
            sgd_steps(np.array([[1e154]]), _vec(0.0), "linear", _vec(1e154), 10.0, 3,
                      RngStream(0).generator())
        assert excinfo.value.step == 1


def _replay_steps(features, targets, family, theta, rates, gen):
    """Single-sample SGD replayed draw by draw, apart from the package:
    (final iterate, running sum of consecutive gradient products)."""
    theta = theta.copy()
    total, prev_r, prev_x = 0.0, 0.0, None
    for eta in rates:
        i = gen.integers(0, features.shape[0])
        x = features[i]
        z = x.dot(theta)
        if family == "linear":
            r = z - targets[i]
        else:
            r = 1.0 / (1.0 + math.exp(-float(np.clip(z, -40.0, 40.0)))) - targets[i]
        if prev_x is not None:
            total += (r * prev_r) * x.dot(prev_x)
        prev_r, prev_x = r, x
        theta -= (eta * r) * x
    return theta, total


def _reference_thread(features, targets, family, theta, eta, windows, l, gen):
    """One thread stepped sample by sample, written apart from the package:
    (window sums, final iterate, first divergence step or -1)."""
    theta = theta.copy()
    sums = np.zeros((windows, theta.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(windows * l):
            i = gen.integers(0, features.shape[0])
            x = features[i]
            z = x.dot(theta)
            if family == "linear":
                r = z - targets[i]
            else:
                r = 1.0 / (1.0 + math.exp(-float(np.clip(z, -40.0, 40.0)))) - targets[i]
            if not math.isfinite(r):
                return sums, theta, step
            sums[step // l] += r * x
            theta -= (eta * r) * x
    return sums, theta, -1 if np.isfinite(theta).all() else windows * l


def _blow_up_problem():
    """Four data rows; drawing the last one overflows the iterate, so a
    thread diverges at the draw after it, which may lie past its last step."""
    features = np.array([[1.0], [0.5], [-1.0], [1e154]])
    spec = ProblemSpec(family="linear", n=4, d=1, theta_star=np.zeros(1), noise_sd=0.0,
                       data_seed=RngStream(0))
    return Problem(spec=spec, dataset=Dataset(features=features, targets=np.zeros(4)))


class TestLockstepWindows:
    def test_dimension_mismatch(self):
        features, targets = _data(15, d=3)
        with pytest.raises(DimensionError):
            lockstep_steps(features, targets, "linear", np.zeros((2, 4)), 0.1, 1,
                           [RngStream(r).generator() for r in range(2)])

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("eta", [0.0, 1e-2])
    def test_rows_match_per_sample_reference(self, family, rows, eta):
        # 3 windows of 400 steps cross the 1024-step index chunk.
        features, targets = _data(20, n=50, d=6)
        if family == "logistic":
            targets = (targets > 0).astype(np.float64)
        starts = RngStream(21).generator().standard_normal((rows, 6))
        thetas = starts.copy()
        sums, failed = lockstep_steps(
            features, targets, family, thetas, eta, 1200,
            [RngStream(22).fork(r).generator() for r in range(rows)], 400,
        )
        assert sums.shape == (3, rows, 6)
        for r in range(rows):
            ref_sums, ref_theta, ref_failed = _reference_thread(
                features, targets, family, starts[r], eta, 3, 400, RngStream(22).fork(r).generator()
            )
            assert failed[r] == ref_failed == -1
            assert np.array_equal(sums[:, r], ref_sums)
            assert np.array_equal(thetas[r], ref_theta)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_burn_in_rows_match_per_sample_reference(self, family):
        # Without a window length the loop only steps: 1100 steps cross the
        # 1024-step index chunk and eighteen residual blocks of up to 64 steps.
        features, targets = _data(26, n=50, d=6)
        if family == "logistic":
            targets = (targets > 0).astype(np.float64)
        starts = RngStream(27).generator().standard_normal((4, 6))
        thetas = starts.copy()
        sums, failed = lockstep_steps(features, targets, family, thetas, 1e-2, 1100,
                                      [RngStream(28).fork(r).generator() for r in range(4)])
        assert sums is None
        for r in range(4):
            _, ref_theta, ref_failed = _reference_thread(
                features, targets, family, starts[r], 1e-2, 1, 1100,
                RngStream(28).fork(r).generator(),
            )
            assert failed[r] == ref_failed == -1
            assert np.array_equal(thetas[r], ref_theta)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("rows", [1, 2, 20])
    @pytest.mark.parametrize("l", [None, 50])
    @pytest.mark.parametrize("eta", [1e-2, 1.0])
    def test_rows_equal_sgd_steps(self, family, rows, l, eta):
        # Every row is sgd_steps run alone on the same generator, bit for
        # bit, over more steps than one index chunk holds: the same final
        # iterate, or the same divergence step (eta = 1 diverges on the
        # linear family, in the second index chunk).
        features, targets = _data(33, n=50, d=6)
        if family == "logistic":
            targets = (targets > 0).astype(np.float64)
        steps = 2100
        assert steps > 2 * core._LOCKSTEP_STEPS
        starts = RngStream(34).generator().standard_normal((rows, 6))
        thetas = starts.copy()
        _, failed = lockstep_steps(features, targets, family, thetas, eta, steps,
                                   [RngStream(35).fork(r).generator() for r in range(rows)], l)
        diverged = 0
        for r in range(rows):
            theta = starts[r].copy()
            try:
                sgd_steps(features, targets, family, theta, eta, steps,
                          RngStream(35).fork(r).generator())
            except DivergenceError as exc:
                diverged += 1
                assert failed[r] == exc.step
            else:
                assert failed[r] == -1
                assert np.array_equal(thetas[r], theta)
        assert diverged == (rows if family == "linear" and eta == 1.0 else 0)

    @pytest.mark.parametrize("family, big, last", [("linear", 1e154, 6), ("logistic", 1e308, 5)],
                             ids=["linear", "logistic"])
    def test_rows_equal_sgd_steps_through_divergence(self, family, big, last):
        # Drawing the big row overflows the iterate, or its own margin, so
        # rows diverge at that draw or the next.  Each row's failed step is
        # the step at which sgd_steps raises on the same generator, and
        # some rows blow up on the last step alone: their first steps - 1
        # steps stay finite.  On the linear family that last margin is
        # finite, so they are named at the draw after the call's last; on
        # the logistic family it is not, so at the last step.
        features, targets = np.array([[1.0], [0.5], [-1.0], [big]]), np.zeros(4)
        rows, steps = 40, 6
        thetas = np.ones((rows, 1))
        _, failed = lockstep_steps(features, targets, family, thetas, 10.0, steps,
                                   [RngStream(38).fork(r).generator() for r in range(rows)])

        def sgd_failed(r, k):
            try:
                sgd_steps(features, targets, family, np.ones(1), 10.0, k,
                          RngStream(38).fork(r).generator())
            except DivergenceError as exc:
                return exc.step
            return -1

        assert failed.tolist() == [sgd_failed(r, steps) for r in range(rows)]
        last_only = [r for r in range(rows)
                     if failed[r] == last and sgd_failed(r, steps - 1) == -1]
        assert last_only and -1 in failed

    @pytest.mark.parametrize("family, big", [("linear", 1e154), ("logistic", 1e308)],
                             ids=["linear", "logistic"])
    def test_divergence_step_does_not_depend_on_call_length(self, family, big):
        # Drawing the big row overflows the iterate, or its own margin; a
        # row diverges at the first draw whose margin is not finite.  A call
        # that reaches that draw names it, and one that ends just before it
        # names the draw after its last, which is the same draw.  So a row
        # that diverges in a call of k steps names the same step in every
        # longer call, in both loops.
        features, targets = np.array([[1.0], [0.5], [-1.0], [big]]), np.zeros(4)
        rows, lengths, named = 40, (3, 4, 5, 6, 7, 9, 20), {}
        for steps in lengths:
            thetas = np.ones((rows, 1))
            _, failed = lockstep_steps(features, targets, family, thetas, 10.0, steps,
                                       [RngStream(38).fork(r).generator() for r in range(rows)])
            named[steps] = failed.tolist()
            for r in range(rows):
                try:
                    sgd_steps(features, targets, family, np.ones(1), 10.0, steps,
                              RngStream(38).fork(r).generator())
                except DivergenceError as exc:
                    assert exc.step == failed[r]
                else:
                    assert failed[r] == -1
        assert any(step >= 0 for step in named[lengths[0]])
        for i, k in enumerate(lengths):
            for r in range(rows):
                if named[k][r] >= 0:
                    assert all(named[m][r] == named[k][r] for m in lengths[i + 1:]), (k, r)

    def test_late_divergence_step_is_exact(self):
        # |1 - eta * x^2| is 1.25 or 3, so the iterate grows geometrically
        # and its margin overflows hundreds of steps in, past the first
        # residual block and, for some rows, past the first index chunk.
        features, targets = np.array([[1.5], [2.0]]), np.zeros(2)
        starts = np.array([[10.0 ** (50 * k)] for k in range(5)] + [[1e-300]])
        thetas = starts.copy()
        _, failed = lockstep_steps(features, targets, "linear", thetas, 1.0, 1500,
                                   [RngStream(31).fork(r).generator() for r in range(6)])
        expected = [
            _reference_thread(features, targets, "linear", starts[r], 1.0, 1, 1500,
                              RngStream(31).fork(r).generator())[2]
            for r in range(6)
        ]
        assert failed.tolist() == expected
        assert min(step for step in expected if step >= 0) > core._LOCKSTEP_BLOCK
        assert max(expected) > core._LOCKSTEP_STEPS

    def test_zero_steps_still_mark_a_non_finite_start(self):
        features, targets = _data(32)
        thetas = np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 2.0], [np.nan, 0.0, 0.0]])
        for l in (None, 5):
            sums, failed = lockstep_steps(features, targets, "linear", thetas.copy(), 0.1, 0,
                                          [RngStream(r).generator() for r in range(3)], l)
            assert failed.tolist() == [0, -1, 0]
        assert sums.shape == (0, 3, 3)

    def test_index_buffer_size_does_not_show(self, monkeypatch):
        # With a 7-index buffer the 3 rows refill every 2 steps, inside
        # windows; sums and iterates still equal the default run's.
        features, targets = _data(23, n=50, d=6)
        starts = RngStream(24).generator().standard_normal((3, 6))
        runs = []
        for limit in (core._LOCKSTEP_INDICES, 7):
            monkeypatch.setattr(core, "_LOCKSTEP_INDICES", limit)
            thetas = starts.copy()
            sums, _ = lockstep_steps(features, targets, "linear", thetas, 1e-2, 15,
                                     [RngStream(25).fork(r).generator() for r in range(3)], 5)
            runs.append((sums, thetas))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_divergence_steps_match_reference(self):
        problem = _blow_up_problem()
        ds = problem.dataset
        thetas = np.full((8, 1), 1e154)
        _, failed = lockstep_steps(ds.features, ds.targets, "linear", thetas, 10.0, 6,
                                   [RngStream(30).fork(r).generator() for r in range(8)], 3)
        expected = [
            _reference_thread(ds.features, ds.targets, "linear", np.array([1e154]), 10.0, 2, 3,
                              RngStream(30).fork(r).generator())[2]
            for r in range(8)
        ]
        assert failed.tolist() == expected
        assert -1 in expected and any(step >= 0 for step in expected)

    def test_divergence_names_thread_one_first(self):
        # The error names thread 1 whenever thread 1 diverged, even at a
        # later step than thread 2, and thread 2 only when thread 1 stayed
        # finite; the step is that thread's.
        problem = _blow_up_problem()
        ds = problem.dataset
        cfg = DiagnosticConfig(eta=10.0, w=2, l=3)

        def reference(seed, k):
            return _reference_thread(ds.features, ds.targets, "linear", np.array([1e154]), cfg.eta,
                                     cfg.w, cfg.l, RngStream(seed).fork(k).generator())[2]

        seen = set()
        for seed in range(200):
            step_1, step_2 = reference(seed, 1), reference(seed, 2)
            if step_1 < 0 and step_2 < 0:
                continue
            with pytest.raises(DivergenceError) as excinfo:
                run_diagnostic(problem, np.array([1e154]), cfg, rng=RngStream(seed))
            want = (1, step_1) if step_1 >= 0 else (2, step_2)
            assert (excinfo.value.thread, excinfo.value.step) == want
            if step_1 >= 0 and 0 <= step_2 < step_1:
                seen.add("thread 2 earlier")
            if step_1 < 0:
                seen.add("thread 2 only")
        assert seen == {"thread 2 earlier", "thread 2 only"}


class TestRngStream:
    def test_fork_is_deterministic(self):
        a = RngStream(7).fork(1).generator().random(1000)
        b = RngStream(7).fork(1).generator().random(1000)
        assert np.array_equal(a, b)

    def test_sibling_forks_differ_everywhere(self):
        a = RngStream(7).fork(1).generator().random(10_000)
        b = RngStream(7).fork(2).generator().random(10_000)
        assert np.mean(a != b) >= 0.99

    def test_seed_sensitivity(self):
        a = RngStream(7).fork(1).generator().random(100)
        b = RngStream(8).fork(1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_fork_does_not_disturb_parent(self):
        parent = RngStream(42, 13)
        before = parent.generator().random(50)
        parent.fork(999)
        assert np.array_equal(parent.generator().random(50), before)

    def test_nested_forks_distinct(self):
        root = RngStream(0)
        streams = [root.fork(i).fork(j) for i in range(4) for j in range(4)]
        ids = {s.stream_id for s in streams}
        assert len(ids) == 16

    @given(seed=st.integers(0, 2**64 - 1), child=st.integers(0, 2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fork_stable_under_repetition(self, seed, child):
        s1 = RngStream(seed).fork(child)
        s2 = RngStream(seed).fork(child)
        assert s1 == s2
        assert s1.generator().integers(0, 2**32) == s2.generator().integers(0, 2**32)


class TestAsParamVector:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            as_param_vector([1.0, np.inf])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            as_param_vector(np.zeros((2, 2)))

    def test_accepts_lists(self):
        out = as_param_vector([1, 2, 3])
        assert out.dtype == np.float64
        assert out.shape == (3,)
