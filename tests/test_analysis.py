"""Monte-Carlo studies and false-trigger probabilities."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from splitsgd.analysis import (
    CoherenceStudy,
    QRiskQuery,
    coherence_histogram,
    type1_error_probability,
)
from splitsgd.core import RngStream
from splitsgd.diagnostic import DiagnosticConfig, decide
from splitsgd.objectives import Dataset, Problem, ProblemSpec


class TestType1Error:
    def test_small_cases_match_hand_counts(self):
        # w=2, q=0.5: needs >= 1 negative window out of 2; misses only when
        # both are positive: 1/4.
        assert type1_error_probability(QRiskQuery(w=2, q=0.5)) == 0.25
        # w=5, q=1: needs all 5 negative; misses unless all negative: 31/32.
        assert type1_error_probability(QRiskQuery(w=5, q=1.0)) == 31 / 32
        assert type1_error_probability(QRiskQuery(w=7, q=0.0)) == 0.0

    def test_default_window_count(self):
        # Independent count: sum of binomial coefficients below the cutoff.
        assert sum(math.comb(20, i) for i in range(8)) == 137980
        assert type1_error_probability(QRiskQuery(w=20, q=0.4)) == 137980 / 2.0**20

    def test_exhaustive_sign_pattern_enumeration(self):
        # The probability must equal the exact fraction of +-1 coherence
        # patterns on which the verdict is non-stationary.
        for w in range(1, 11):
            for q in (0.0, 0.3, 0.4, 0.5, 0.77, 1.0):
                misses = 0
                for pattern in product((-1.0, 1.0), repeat=w):
                    stationary, _ = decide(np.array(pattern), q)
                    misses += not stationary
                assert (
                    type1_error_probability(QRiskQuery(w=w, q=q)) == misses / 2.0**w
                ), (w, q)

    def test_monotone_in_threshold(self):
        values = [
            type1_error_probability(QRiskQuery(w=20, q=q))
            for q in np.linspace(0.0, 1.0, 21)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_longer_runs_trigger_less_at_fixed_threshold(self):
        short = type1_error_probability(QRiskQuery(w=10, q=0.4))
        long = type1_error_probability(QRiskQuery(w=75, q=0.4))
        assert short == 176 / 1024
        assert long < short

    @pytest.mark.parametrize("w", [1024, 2000])
    def test_window_count_past_float_range(self, w):
        # 2**w is past the largest float here; the probability is still the
        # correctly rounded fraction of sign patterns.
        total = sum(math.comb(w, i) for i in range(w + 1) if i < 0.4 * w)
        value = type1_error_probability(QRiskQuery(w=w, q=0.4))
        assert 0.0 < value == float(Fraction(total, 2**w))

    def test_long_run_matches_closed_form(self):
        # By symmetry the coefficients below the middle one sum to
        # (2**w - C(w, w/2)) / 2.  Building each coefficient from the one
        # before keeps w = 60000 well under a second.
        w = 60000
        total = (2**w - math.comb(w, w // 2)) // 2
        value = type1_error_probability(QRiskQuery(w=w, q=0.5))
        assert value == float(Fraction(total, 2**w))

    def test_validation(self):
        with pytest.raises(ValueError):
            QRiskQuery(w=0, q=0.4)
        with pytest.raises(ValueError):
            QRiskQuery(w=10, q=1.5)


def _problem(features, targets):
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    spec = ProblemSpec(
        family="linear", n=n, d=d, theta_star=np.zeros(d), noise_sd=0.0, data_seed=RngStream(0)
    )
    return Problem(spec=spec, dataset=Dataset(features=features, targets=np.asarray(targets, float)))


class TestCoherenceHistogram:
    def test_normalized_rows_are_bounded(self, small_linear_problem):
        study = CoherenceStudy(
            problem=small_linear_problem,
            eta=1e-2,
            replications=40,
            window_index=2,
            l=6,
            normalized=True,
        )
        rows, summary = coherence_histogram(study, RngStream(21))
        assert len(rows) == summary.kept == 40
        assert summary.diverged == 0
        values = [value for _, value in rows]
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert summary.negative_fraction == np.mean([v < 0 for v in values]) + 0.5 * np.mean(
            [v == 0 for v in values]
        )

    def test_normalized_identical_threads_give_one(self):
        # One row makes both threads identical, so every cosine is that of a
        # vector with itself; rounding must not push it past 1.
        problem = _problem([[1.0, 2.0]], [3.0])
        study = CoherenceStudy(
            problem=problem, eta=1e-3, replications=25, window_index=2, l=10,
            start="near-opt", normalized=True,
        )
        rows, _ = coherence_histogram(study, RngStream(2))
        values = np.array([value for _, value in rows])
        assert np.all(values <= 1.0)
        assert np.allclose(values, 1.0, atol=1e-12)

    def test_normalized_opposite_window_means_give_minus_one(self):
        # Two rows whose gradients at theta = 0 are +g and -g; frozen
        # iterates (eta = 0) and one-step windows make each cosine +1 (same
        # row drawn by both threads) or -1 (different rows).
        problem = _problem([[1.0, 2.0], [1.0, 2.0]], [1.0, -1.0])
        study = CoherenceStudy(
            problem=problem, eta=0.0, replications=40, window_index=3, l=1,
            start="near-opt", start_noise_sd=0.0, normalized=True,
        )
        rows, _ = coherence_histogram(study, RngStream(4))
        values = np.array([value for _, value in rows])
        assert np.all(np.abs(values) <= 1.0)
        assert np.allclose(np.abs(values), 1.0, atol=1e-15)
        assert values.min() < 0.0 < values.max()

    def test_normalized_vanishing_mean_reports_zero(self):
        # The start solves the one row exactly: every gradient and window
        # mean is zero, and a zero counts half towards the negative fraction.
        problem = _problem([[1.0, 2.0]], [0.0])
        study = CoherenceStudy(
            problem=problem, eta=1e-2, replications=5, window_index=2, l=3,
            start="near-opt", start_noise_sd=0.0, normalized=True,
        )
        rows, summary = coherence_histogram(study, RngStream(0))
        assert [value for _, value in rows] == [0.0] * 5
        assert summary.negative_fraction == 0.5

    def test_deterministic_oracle_never_negative(self):
        # A one-sample noiseless problem makes both diagnostic threads
        # deterministic and identical, so every coherence is a squared norm.
        problem = _problem([[1.0, 2.0]], [3.0])
        study = CoherenceStudy(
            problem=problem, eta=1e-3, replications=25, window_index=2, l=10,
            start="near-opt",
        )
        rows, summary = coherence_histogram(study, RngStream(2))
        assert summary.negative_fraction == 0.0
        assert all(value > 0 for _, value in rows)

    def test_overflowing_coherence_counts_as_diverged(self):
        # Frozen iterates keep both threads finite, but the recorded
        # coherence of the one row's gradient (1e200 * theta^2) overflows:
        # every replication is dropped and counted as diverged.
        problem = _problem([[1e100]], [0.0])
        study = CoherenceStudy(
            problem=problem, eta=0.0, replications=4, window_index=1, l=2,
            start="near-opt", start_noise_sd=1.0,
        )
        rows, summary = coherence_histogram(study, RngStream(0))
        assert rows == []
        assert (summary.kept, summary.diverged) == (0, 4)

    def test_summary_statistics_match_rows(self, small_linear_problem):
        study = CoherenceStudy(
            problem=small_linear_problem, eta=1e-2, replications=30, window_index=1, l=6
        )
        rows, summary = coherence_histogram(study, RngStream(5))
        values = np.array([value for _, value in rows])
        assert summary.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert summary.sd == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)

    def test_replication_column_and_determinism(self, small_linear_problem):
        study = CoherenceStudy(
            problem=small_linear_problem, eta=1e-2, replications=12, window_index=3, l=4
        )
        rows_a, _ = coherence_histogram(study, RngStream(7))
        rows_b, _ = coherence_histogram(study, RngStream(7))
        assert rows_a == rows_b
        assert [rep for rep, _ in rows_a] == list(range(12))

    def test_window_index_validation(self, small_linear_problem):
        with pytest.raises(ValueError):
            CoherenceStudy(problem=small_linear_problem, eta=1e-2, window_index=0)
        with pytest.raises(ValueError):
            CoherenceStudy(problem=small_linear_problem, eta=1e-2, windows=3, window_index=5)

    def test_diagnostic_is_built_and_checked_with_the_study(self, small_linear_problem):
        study = CoherenceStudy(problem=small_linear_problem, eta=1e-2, window_index=3, l=7)
        assert study.diagnostic == DiagnosticConfig(eta=1e-2, w=3, l=7, q=0.5)
        with pytest.raises(ValueError, match="eta must be >= 0"):
            CoherenceStudy(problem=small_linear_problem, eta=-1e-2)
        with pytest.raises(ValueError, match="w and l must be positive"):
            CoherenceStudy(problem=small_linear_problem, eta=1e-2, l=0)
