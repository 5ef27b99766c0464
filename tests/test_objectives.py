"""Benchmark problems: data generation, per-datum and full loss/gradient."""

import math
import warnings

import numpy as np
import pytest

from splitsgd.core import MAIN_STREAM_CHILD, START_STREAM_CHILD, RngStream, experiment_stream
from splitsgd.objectives import (
    Dataset,
    ProblemSpec,
    build_problem,
    default_theta_star,
    full_gradient,
    full_loss,
    generate,
    gradient_at_index,
    make_default_spec,
    perturbed_start,
    replication_starts,
    reversed_start,
    start_point,
    write_dataset_csv,
)


class TestDefaultSpec:
    def test_shape_and_sizes(self):
        spec = make_default_spec("linear")
        assert (spec.n, spec.d, spec.noise_sd) == (1000, 20, 1.0)

    def test_true_coefficients_decay(self):
        spec = make_default_spec("linear")
        assert spec.theta_star[0] == pytest.approx(5.0 * math.exp(-0.5))
        assert spec.theta_star[0] == pytest.approx(3.0327, abs=1e-4)
        assert spec.theta_star[19] == pytest.approx(5.0 * math.exp(-10.0))
        assert np.all(np.diff(spec.theta_star) < 0)

    def test_logistic_targets_binary(self, logistic_problem):
        targets = logistic_problem.dataset.targets
        assert set(np.unique(targets)) <= {0.0, 1.0}

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            make_default_spec("poisson")

    def test_theta_star_dimension_checked(self):
        with pytest.raises(ValueError):
            ProblemSpec(
                family="linear",
                n=10,
                d=3,
                theta_star=np.ones(4),
                noise_sd=1.0,
                data_seed=RngStream(0),
            )


class TestGenerate:
    def test_deterministic(self):
        spec = make_default_spec("linear")
        d1, d2 = generate(spec), generate(spec)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.targets, d2.targets)

    def test_feature_column_means_near_zero(self, linear_problem):
        # 3-sigma CLT bound for n=1000 standard normal entries: 0.0949.
        means = linear_problem.dataset.features.mean(axis=0)
        assert np.max(np.abs(means)) < 0.1

    def test_noiseless_targets_exact(self):
        spec = make_default_spec("linear", RngStream(3), noise_sd=0.0)
        ds = generate(spec)
        assert np.array_equal(ds.targets, ds.features @ spec.theta_star)

    def test_families_share_features_for_same_stream(self):
        stream = RngStream(21)
        lin = generate(make_default_spec("linear", stream))
        log = generate(make_default_spec("logistic", stream))
        assert np.array_equal(lin.features, log.features)

    def test_logistic_target_rate_matches_probabilities(self, logistic_problem):
        # Mean target should sit within 3 binomial standard errors of the
        # mean success probability implied by the true coefficients.
        ds = logistic_problem.dataset
        p = 1.0 / (1.0 + np.exp(-(ds.features @ logistic_problem.spec.theta_star)))
        se = math.sqrt(float(np.mean(p * (1.0 - p))) / ds.targets.size)
        assert abs(float(ds.targets.mean()) - float(p.mean())) <= 3.0 * se


class TestStochasticGradient:
    def test_zero_residual_gives_zero_gradient(self):
        x = np.array([[1.0, 2.0]])
        theta = np.array([3.0, 4.0])
        ds = Dataset(features=x, targets=np.array([float(np.dot(x[0], theta))]))
        assert np.array_equal(gradient_at_index(ds, "linear", theta, 0), np.zeros(2))
        assert full_loss(ds, "linear", theta) == 0.0

    def test_logistic_at_zero_parameters(self, small_logistic_problem):
        ds = small_logistic_problem.dataset
        for i in range(ds.features.shape[0]):
            expected = (0.5 - ds.targets[i]) * ds.features[i]
            assert np.array_equal(gradient_at_index(ds, "logistic", np.zeros(4), i), expected)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_enumeration_mean_equals_full_gradient(self, family, linear_problem, logistic_problem):
        problem = linear_problem if family == "linear" else logistic_problem
        ds = problem.dataset
        gen = RngStream(77).generator()
        for _ in range(3):
            theta = gen.standard_normal(problem.spec.d)
            acc = np.zeros(problem.spec.d)
            for i in range(problem.spec.n):
                acc += gradient_at_index(ds, family, theta, i)
            enumerated = acc / problem.spec.n
            full = full_gradient(ds, family, theta)
            assert np.linalg.norm(enumerated - full) <= 1e-12 * max(1.0, np.linalg.norm(full))


class TestFullLossAndGradient:
    def test_perfect_fit_zero_loss(self):
        spec = make_default_spec("linear", RngStream(3), noise_sd=0.0)
        prob = build_problem(spec)
        assert full_loss(prob.dataset, "linear", spec.theta_star) == 0.0

    def test_logistic_loss_at_zero_is_log_two(self, logistic_problem):
        value = full_loss(logistic_problem.dataset, "logistic", np.zeros(20))
        assert value == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_gradient_matches_central_differences(self, family, linear_problem, logistic_problem):
        problem = linear_problem if family == "linear" else logistic_problem
        ds = problem.dataset
        gen = RngStream(123).generator()
        h = 1e-6
        for _ in range(10):
            theta = gen.standard_normal(problem.spec.d)
            grad = full_gradient(ds, family, theta)
            fd = np.empty_like(grad)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (full_loss(ds, family, theta + e) - full_loss(ds, family, theta - e)) / (
                    2.0 * h
                )
            rel = np.max(np.abs(fd - grad)) / max(1e-12, np.max(np.abs(grad)))
            assert rel <= 1e-6

    def test_overflowing_iterate_reports_infinite_loss(self, linear_problem):
        theta = np.full(20, 1e200)
        assert full_loss(linear_problem.dataset, "linear", theta) == math.inf

    def test_zero_target_with_overflowing_margin_adds_zero(self):
        # The margin of row 0 is -inf at a finite iterate; its target is 0,
        # so its loss is exactly 0, and row 1's is -z = 2.5e292.
        ds = Dataset(features=np.array([[1e308], [1.0]]), targets=np.array([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert full_loss(ds, "logistic", np.array([-2.5e292])) == 1.25e292

    def test_unit_target_with_overflowing_margin_adds_zero(self):
        # The margin of row 0 is +inf at a finite iterate; its target is 1,
        # so its loss log(1 + e**-z) is exactly 0, and row 1's is z = 2.5e292.
        # With the targets swapped, row 0 costs +inf.
        ds = Dataset(features=np.array([[1e308], [1.0]]), targets=np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert full_loss(ds, "logistic", np.array([2.5e292])) == 1.25e292
            swapped = Dataset(features=ds.features, targets=ds.targets[::-1].copy())
            assert full_loss(swapped, "logistic", np.array([2.5e292])) == math.inf

    def test_logistic_loss_keeps_its_bits_on_finite_margins(self, logistic_problem):
        ds = logistic_problem.dataset
        for theta in (np.zeros(20), np.full(20, -3.0), RngStream(4).generator().standard_normal(20)):
            z = ds.features @ theta
            assert full_loss(ds, "logistic", theta) == float(
                np.mean(np.logaddexp(0.0, z) - ds.targets * z)
            )

    def test_noiseless_oracle_returns_full_gradient(self):
        # A one-row dataset is the noiseless oracle of the diagnostic and
        # histogram tests: its only per-datum gradient is the full gradient.
        ds = Dataset(features=np.array([[1.0, 2.0, 0.5, -1.0]]), targets=np.array([1.0]))
        theta = np.array([0.3, -0.2, 1.5, 0.7])
        for family in ("linear", "logistic"):
            assert np.array_equal(
                gradient_at_index(ds, family, theta, 0), full_gradient(ds, family, theta)
            )


class TestStartingPoints:
    def test_reversed_start_extremes(self):
        spec = make_default_spec("linear")
        start = reversed_start(spec)
        assert start[19] == 5.0
        assert start[0] == pytest.approx(5.0 * math.exp(-9.5))

    def test_double_reversal_is_identity(self):
        theta = default_theta_star(20)
        assert np.array_equal(theta[::-1][::-1], theta)

    def test_reversed_start_orders_coordinates_oppositely(self):
        spec = make_default_spec("linear")
        start = reversed_start(spec)
        assert np.all(np.diff(start) > 0)
        assert np.all(np.diff(spec.theta_star) < 0)

    def test_perturbed_start_deterministic_and_centred(self):
        base = default_theta_star(20)
        a = perturbed_start(base, RngStream(4), noise_sd=0.1)
        b = perturbed_start(base, RngStream(4), noise_sd=0.1)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - base) < 0.1 * math.sqrt(20) * 3

    def test_unknown_start_point_rejected(self):
        with pytest.raises(ValueError, match="start must be one of"):
            start_point(make_default_spec("linear"), "middle")

    @pytest.mark.parametrize("start", ["reversed", "near-opt"])
    def test_replication_starts_follow_the_stream_layout(self, start):
        # Row i is replication reps[i]'s perturbed start, drawn from its
        # start-noise child; its main stream is the main-stream child.
        spec = make_default_spec("linear")
        experiment = experiment_stream(9)
        reps = range(3, 6)
        thetas, mains = replication_starts(spec, start, experiment, reps, noise_sd=0.7)
        assert thetas.shape == (3, spec.d)
        for theta, main, r in zip(thetas, mains, reps):
            stream = experiment.fork(r)
            expected = perturbed_start(start_point(spec, start), stream.fork(START_STREAM_CHILD), 0.7)
            assert np.array_equal(theta, expected)
            assert main == stream.fork(MAIN_STREAM_CHILD)


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path, small_linear_problem):
        path = tmp_path / "data.csv"
        write_dataset_csv(small_linear_problem.dataset, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(loaded[:, :-1], small_linear_problem.dataset.features)
        assert np.array_equal(loaded[:, -1], small_linear_problem.dataset.targets)

    def test_header_names(self, tmp_path, small_linear_problem):
        path = tmp_path / "data.csv"
        write_dataset_csv(small_linear_problem.dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,y"
