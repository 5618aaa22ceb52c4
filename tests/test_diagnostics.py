"""Oracle sampler, moment comparison, autocorrelation."""

import numpy as np
import pytest
from scipy import stats

from gsgs import (
    RngState,
    autocorrelation,
    cholesky_oracle_sample,
    exact_summary,
    moment_compare,
    summarize,
)
from gsgs.errors import DimensionError


def test_oracle_standard_normal_ks():
    draws = cholesky_oracle_sample(np.eye(1), np.zeros(1), RngState(1), size=10**4)
    stat = stats.kstest(draws.ravel(), "norm").statistic
    assert stat < 1.63 / np.sqrt(10**4)


def test_oracle_scalar_closed_form():
    # Q = 4, b = 4: mean 1, variance 1/4.
    draws = cholesky_oracle_sample(np.array([[4.0]]), np.array([4.0]), RngState(2), size=10**5)
    assert abs(draws.mean() - 1.0) < 0.006
    assert abs(draws.var() - 0.25) / 0.25 < 0.03


def test_oracle_covariance_matches_inverse():
    gen = np.random.default_rng(3)
    w = gen.standard_normal((6, 6))
    q = w @ w.T + 6 * np.eye(6)
    draws = cholesky_oracle_sample(q, gen.standard_normal(6), RngState(4), size=10**5)
    cov = np.cov(draws, rowvar=False)
    target = np.linalg.inv(q)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


def test_oracle_rejects_non_spd():
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_oracle_sample(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), RngState(0))


def test_oracle_single_draw_deterministic():
    a = cholesky_oracle_sample(np.eye(3) * 2, np.ones(3), RngState(7))
    b = cholesky_oracle_sample(np.eye(3) * 2, np.ones(3), RngState(7))
    np.testing.assert_array_equal(a, b)


def test_single_and_batch_draws_share_the_math():
    q = np.diag([1.0, 4.0])
    single = cholesky_oracle_sample(q, np.zeros(2), RngState(8))
    batch = cholesky_oracle_sample(q, np.zeros(2), RngState(8), size=1)
    np.testing.assert_allclose(single, batch[0], atol=1e-12)


def test_moment_compare_self_passes():
    draws = np.random.default_rng(5).standard_normal((2000, 3))
    summary = summarize(draws)
    assert moment_compare(summary, summary, 4.0, 0.05).passed


def test_moment_compare_catches_shifted_mean():
    gen = np.random.default_rng(6)
    a = summarize(gen.standard_normal((5000, 3)))
    shifted = gen.standard_normal((5000, 3))
    shifted[:, 1] += 10 * np.sqrt(1 / 5000) * np.sqrt(2)
    report = moment_compare(a, summarize(shifted), 4.0, 0.5)
    assert not report.passed
    assert [f[0] for f in report.mean_failures] == [1]


def test_moment_compare_two_independent_samples_pass():
    gen = np.random.default_rng(7)
    a = summarize(gen.standard_normal((10**5, 4)))
    b = summarize(gen.standard_normal((10**5, 4)))
    assert moment_compare(a, b, 4.0, 0.05).passed


def test_moment_compare_outcome_is_symmetric():
    gen = np.random.default_rng(8)
    a = summarize(gen.standard_normal((3000, 2)))
    b = summarize(1.2 * gen.standard_normal((3000, 2)))
    assert moment_compare(a, b, 4.0, 0.05).passed == moment_compare(b, a, 4.0, 0.05).passed


def test_moment_compare_against_exact_target():
    gen = np.random.default_rng(9)
    draws = gen.standard_normal((10**5, 3))
    report = moment_compare(summarize(draws), exact_summary(np.zeros(3), np.eye(3)), 4.0, 0.05)
    assert report.passed


def test_moment_compare_dim_mismatch():
    a = exact_summary(np.zeros(2), np.eye(2))
    b = exact_summary(np.zeros(3), np.eye(3))
    with pytest.raises(DimensionError):
        moment_compare(a, b, 4.0, 0.05)


def test_autocorrelation_constant_series_degenerate():
    acf = autocorrelation(np.full(1000, 2.0), 5)
    assert acf[0] == 1.0
    assert np.isnan(acf[1:]).all()


def test_autocorrelation_iid_band():
    series = np.random.default_rng(11).standard_normal(10**5)
    acf = autocorrelation(series, 20)
    assert acf[0] == 1.0
    assert np.abs(acf[1:]).max() < 0.013


def test_autocorrelation_ar1():
    # Simulate the AR(1) directly as its own oracle.
    gen = np.random.default_rng(12)
    n, coef = 10**5, 0.9
    series = np.empty(n)
    series[0] = gen.standard_normal() / np.sqrt(1 - coef**2)
    for t in range(1, n):
        series[t] = coef * series[t - 1] + gen.standard_normal()
    acf = autocorrelation(series, 3)
    assert abs(acf[1] - coef) < 0.02


def test_autocorrelation_requires_enough_points():
    with pytest.raises(ValueError):
        autocorrelation(np.zeros(100), 25)
