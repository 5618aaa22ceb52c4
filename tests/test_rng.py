"""Random source contracts: determinism, seeding, distribution moments."""

import numpy as np
import pytest
from scipy import stats

from gsgs import RngState, gamma_draw, standard_normal_vector


def test_fixed_seed_reproduces_vectors():
    a = standard_normal_vector(RngState(42), 1000)
    b = standard_normal_vector(RngState(42), 1000)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 22, 2**40])
def test_stream_is_numpy_default_rng(seed):
    # RngState(seed) is the stream np.random.default_rng(seed) gives, so a
    # seed reads the same normals and gammas in and out of the package.
    rng, ref = RngState(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(standard_normal_vector(rng, 100), ref.standard_normal(100))
    gammas = [gamma_draw(rng, 0.5 + i, 2.0) for i in range(20)]
    np.testing.assert_array_equal(gammas, [ref.gamma(0.5 + i, 2.0) for i in range(20)])


def test_normal_moments_large_sample():
    x = standard_normal_vector(RngState(11), 10**6)
    assert abs(x.mean()) < 0.004
    assert 0.994 < x.var() < 1.006


def test_normal_ks_statistic():
    x = standard_normal_vector(RngState(12), 10**4)
    stat = stats.kstest(x, "norm").statistic
    # 1% critical value of the one-sample KS statistic for n = 1e4.
    assert stat < 1.63 / np.sqrt(10**4)


def test_normal_rejects_bad_n():
    with pytest.raises(ValueError):
        standard_normal_vector(RngState(0), 0)


def test_gamma_mean_shape2_scale3():
    rng = RngState(13)
    draws = np.array([gamma_draw(rng, 2.0, 3.0) for _ in range(10**5)])
    assert abs(draws.mean() - 6.0) < 0.06


def test_gamma_small_shape_moments():
    rng = RngState(14)
    draws = np.array([gamma_draw(rng, 0.5, 2.0) for _ in range(10**5)])
    # mean 1, variance 2; allow 4 standard errors on each
    se_mean = np.sqrt(2.0 / len(draws))
    assert abs(draws.mean() - 1.0) < 4 * se_mean
    var_se = np.sqrt(draws.var() ** 2 * 2 * (3 + 6 / 0.5) / len(draws))
    assert abs(draws.var() - 2.0) < 4 * max(var_se, 0.01)


def test_gamma_precision_conditional_mean():
    # Noise-precision conditional: shape n/2, scale 2/r has mean n/r.
    n = 32
    rng = RngState(15)
    resid = standard_normal_vector(rng, n)
    r = float(resid @ resid)
    draws = np.array([gamma_draw(rng, n / 2.0, 2.0 / r) for _ in range(10**5)])
    assert abs(draws.mean() - n / r) / (n / r) < 0.03


def test_gamma_rejects_nonpositive_params():
    rng = RngState(0)
    with pytest.raises(ValueError):
        gamma_draw(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_draw(rng, 1.0, -1.0)
