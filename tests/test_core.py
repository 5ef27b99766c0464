"""Core numeric primitives: the per-sample SGD loop, step-size checks, rng streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsgd.core import (
    DimensionError,
    DivergenceError,
    GradientProducts,
    NumericError,
    RngStream,
    as_param_vector,
    check_step_size,
    sgd_steps,
)


def _vec(*values):
    return np.array(values, dtype=np.float64)


def _data(seed, n=7, d=3):
    gen = RngStream(seed).generator()
    return gen.standard_normal((n, d)), gen.standard_normal(n)


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
        # for bit; with a window it is theta - eta * (r*x), and the window
        # receives r*x.
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

            windowed, window = theta.copy(), np.zeros(3)
            sgd_steps(features, targets, family, windowed, 0.37, 1, RngStream(6).generator(),
                      window=window)
            assert np.array_equal(window, r * features[i])
            assert np.array_equal(windowed, theta - 0.37 * (r * features[i]))

    def test_inputs_not_mutated(self):
        # Only theta and the accumulators change; the data rows the loop
        # reads by view stay untouched.
        features, targets = _data(3)
        f_copy, t_copy = features.copy(), targets.copy()
        sgd_steps(features, targets, "linear", np.ones(3), 0.1, 20, RngStream(4).generator(),
                  window=np.zeros(3))
        sgd_steps(features, targets, "logistic", np.ones(3), 0.1, 20, RngStream(4).generator(),
                  products=GradientProducts())
        assert np.array_equal(features, f_copy)
        assert np.array_equal(targets, t_copy)

    def test_split_calls_equal_one_call(self):
        # Draws, iterate and the consecutive-gradient sum carry across calls
        # on one generator: 2000 steps in one call (two index chunks) equal
        # 300 + 1700 steps in two.
        features, targets = _data(8)
        whole, whole_sum = np.zeros(3), GradientProducts()
        sgd_steps(features, targets, "linear", whole, 1e-2, 2000, RngStream(9).generator(),
                  products=whole_sum)
        split, split_sum = np.zeros(3), GradientProducts()
        gen = RngStream(9).generator()
        sgd_steps(features, targets, "linear", split, 1e-2, 300, gen, products=split_sum)
        sgd_steps(features, targets, "linear", split, 1e-2, 1700, gen, products=split_sum)
        assert np.array_equal(whole, split)
        assert whole_sum.total == split_sum.total

    def test_consecutive_gradient_products(self):
        # Literal sum of <g_t, g_(t-1)> over a short run, replayed by hand.
        features, targets = _data(10)
        theta, products = np.zeros(3), GradientProducts()
        sgd_steps(features, targets, "linear", theta, 1e-2, 6, RngStream(11).generator(),
                  products=products)
        replay, grads = np.zeros(3), []
        for i in RngStream(11).generator().integers(0, 7, size=6):
            g = (np.dot(features[i], replay) - targets[i]) * features[i]
            grads.append(g)
            replay -= 1e-2 * g
        expected = sum(float(np.dot(a, b)) for a, b in zip(grads[1:], grads))
        assert products.total == pytest.approx(expected, rel=1e-12)

    def test_per_step_rates(self):
        features, targets = _data(12)
        rates = np.array([0.3, 0.0, 0.1])
        stepped = np.ones(3)
        sgd_steps(features, targets, "linear", stepped, rates, 3, RngStream(13).generator())
        replay = np.ones(3)
        for eta, i in zip(rates, RngStream(13).generator().integers(0, 7, size=3)):
            replay -= (eta * (np.dot(features[i], replay) - targets[i])) * features[i]
        assert np.array_equal(stepped, replay)

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
        # The first residual (1e308) is finite, but the update overflows the
        # iterate, so the second draw's residual is not: step 1 raises.
        with pytest.raises(DivergenceError) as excinfo:
            sgd_steps(np.array([[1e154]]), _vec(0.0), "linear", _vec(1e154), 10.0, 3,
                      RngStream(0).generator())
        assert excinfo.value.step == 1


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
