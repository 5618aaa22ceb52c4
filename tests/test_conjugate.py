"""Conjugate set construction and directional sampling against dense oracles."""

import numpy as np
import pytest

from gsgs import (
    DegenerateDirectionError,
    DenseOperator,
    IdentityOperator,
    IndefinitePrecisionError,
    RngState,
    SizeCapError,
    densify,
    exact_summary,
    moment_compare,
    phantom,
    simulate_data,
    summarize,
)
from gsgs.conjugate import (
    PrecisionModel,
    build_conjugate_set,
    densify_precision,
    sample_along,
)
from gsgs.superres import Hyperparams, SpectralPrecision, SuperResModel, build_precision
from gsgs.validate import build_desk_model


def random_spd_precision(n, seed, eig_lo=0.5, eig_hi=4.0, b=None):
    """PrecisionModel for a random SPD matrix, plus its dense form and mean."""
    gen = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eigs = np.linspace(eig_lo, eig_hi, n)
    q_dense = basis @ np.diag(eigs) @ basis.T
    factor = np.linalg.cholesky(q_dense).T  # Q = factor^T factor
    if b is None:
        b = gen.standard_normal(n)
    model = PrecisionModel(n, [(DenseOperator(factor), 1.0)], b)
    return model, q_dense, np.linalg.solve(q_dense, b)


def test_precision_apply_matches_dense():
    model, q_dense, _ = random_spd_precision(7, 0)
    gen = np.random.default_rng(1)
    for _ in range(10):
        x = gen.standard_normal(7)
        np.testing.assert_allclose(model.apply(x), q_dense @ x, atol=1e-12)


def test_precision_apply_is_symmetric():
    model, _, _ = random_spd_precision(6, 2)
    gen = np.random.default_rng(3)
    u, v = gen.standard_normal(6), gen.standard_normal(6)
    assert abs(model.apply(u) @ v - u @ model.apply(v)) < 1e-10


def test_densify_precision_symmetric_and_exact():
    model, q_dense, _ = random_spd_precision(6, 4)
    dense = densify_precision(model)
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_allclose(dense, q_dense, atol=1e-12)
    with pytest.raises(SizeCapError):
        densify_precision(model, max_entries=35)


def test_identity_precision_gives_orthogonal_directions():
    # Conjugacy w.r.t. the identity is plain orthogonality. The Krylov
    # candidate rule terminates immediately here (Q d is parallel to d), so
    # the returned set may be shorter than requested; whatever comes back
    # must be mutually orthogonal.
    model = PrecisionModel(4, [(IdentityOperator(4), 1.0)], np.zeros(4))
    cset = build_conjugate_set(model, np.array([1.0, 0.0, 0.0, 0.0]), 3)
    gram = cset.directions @ cset.directions.T
    np.testing.assert_allclose(gram, np.eye(len(cset)), atol=1e-12)


def test_full_set_conjugacy_on_random_spd():
    model, q_dense, _ = random_spd_precision(6, 5)
    gen = np.random.default_rng(6)
    cset = build_conjugate_set(model, gen.standard_normal(6), 6)
    assert len(cset) == 6
    # Explicit dense check, independent of the cached products.
    gram = cset.directions @ q_dense @ cset.directions.T
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    off = np.abs(gram) / scale
    np.fill_diagonal(off, 0.0)
    assert off.max() <= 1e-8
    assert cset.conjugacy_defect() <= 1e-8


@pytest.mark.parametrize("gamma_x", [1.0, 1e4])
def test_desk_scale_k150_stays_conjugate(gamma_x):
    # The 64x64 desk scene at k=150, also at the scale gamma_x runs away to:
    # the three-term step plus a single full pass must keep the whole set
    # conjugate, with no early stop.
    hp = Hyperparams(gamma_n=1.0, gamma_x=gamma_x)
    precision = build_precision(build_desk_model(31), hp)
    assert isinstance(precision, SpectralPrecision)
    d1 = np.random.default_rng(41).standard_normal(precision.dim)
    cset = build_conjugate_set(precision, d1, 150)
    assert len(cset) == 150
    assert cset.conjugacy_defect() <= 1e-8
    # The same build in the alias coordinates the chain's x-step runs in.
    cset = build_conjugate_set(precision.coordinates, precision.encode(d1), 150)
    assert len(cset) == 150
    assert cset.conjugacy_defect() <= 1e-8


@pytest.mark.parametrize("gamma_x", [0.05, 1e4])
def test_near_full_dimension_set_stays_conjugate(gamma_x):
    # The dense 16x16 model of the near-full sweep test, asked for all 256
    # directions: the set must get close to full and stay conjugate.
    sim = simulate_data(phantom((16, 16)), 2, [(0, 0), (1, 0), (0, 1), (1, 1)],
                        3, 1.0, RngState(31))
    model = SuperResModel(
        blur=densify(sim.blur), decimation=densify(sim.decimation),
        penalty=densify(sim.penalty), data=sim.data, hr_shape=sim.hr_shape,
    )
    precision = build_precision(model, Hyperparams(gamma_n=1.0, gamma_x=gamma_x))
    d1 = np.random.default_rng(42).standard_normal(precision.dim)
    cset = build_conjugate_set(precision, d1, 256)
    assert len(cset) >= 240
    assert cset.conjugacy_defect() <= 1e-8


def test_directions_span_the_krylov_space():
    n, k = 40, 12
    model, _, _ = random_spd_precision(n, 43)
    krylov = np.empty((k, n))
    krylov[0] = np.random.default_rng(44).standard_normal(n)
    krylov[0] /= np.linalg.norm(krylov[0])
    for j in range(1, k):
        krylov[j] = model.apply(krylov[j - 1])
        krylov[j] /= np.linalg.norm(krylov[j])
    cset = build_conjugate_set(model, krylov[0], k)
    assert len(cset) == k
    coef, _, _, _ = np.linalg.lstsq(cset.directions.T, krylov.T, rcond=None)
    residual = np.linalg.norm(cset.directions.T @ coef - krylov.T, axis=0)
    assert residual.max() <= 1e-8


def test_repeated_eigenvalue_terminates_early():
    # Q = diag(1, 1, 2) with an eigenvector seed: the candidate Q d1 is
    # parallel to d1, so orthogonalization annihilates it.
    factor = DenseOperator(np.diag(np.sqrt([1.0, 1.0, 2.0])))
    model = PrecisionModel(3, [(factor, 1.0)], np.zeros(3))
    cset = build_conjugate_set(model, np.array([1.0, 0.0, 0.0]), 3)
    assert len(cset) < 3


def test_directions_are_unit_norm():
    model, _, _ = random_spd_precision(5, 7)
    cset = build_conjugate_set(model, np.ones(5), 5)
    np.testing.assert_allclose(np.linalg.norm(cset.directions, axis=1), 1.0, atol=1e-12)


def test_zero_seed_raises():
    model, _, _ = random_spd_precision(4, 8)
    with pytest.raises(DegenerateDirectionError):
        build_conjugate_set(model, np.zeros(4), 2)


def test_indefinite_seed_curvature_raises():
    class NegatedPrecision:
        dim = 3
        b = np.zeros(3)

        def apply(self, x):
            return -x

    with pytest.raises(IndefinitePrecisionError):
        build_conjugate_set(NegatedPrecision(), np.array([1.0, 0.0, 0.0]), 2)


def test_sample_along_scalar_closed_form():
    # One dimension, precision q, mean zero, start at 1: the draw is N(0, 1/q).
    q = 4.0
    model = PrecisionModel(1, [(DenseOperator([[np.sqrt(q)]]), 1.0)], np.zeros(1))
    cset = build_conjugate_set(model, np.array([1.0]), 1)
    rng = RngState(21)
    draws = np.array([sample_along(model, cset, np.array([1.0]), rng)[0][0]
                      for _ in range(20000)])
    assert abs(draws.mean()) < 4 * np.sqrt(1 / q / len(draws))
    assert abs(draws.var() - 1 / q) / (1 / q) < 0.05


def test_full_set_draws_match_oracle_moments():
    n = 3
    model, q_dense, mean = random_spd_precision(n, 9)
    gen = np.random.default_rng(10)
    cset = build_conjugate_set(model, gen.standard_normal(n), n)
    rng = RngState(22)
    x0 = gen.standard_normal(n) * 3
    draws = np.empty((10**5, n))
    for i in range(draws.shape[0]):
        draws[i], _ = sample_along(model, cset, x0, rng)
    report = moment_compare(
        summarize(draws), exact_summary(mean, np.linalg.inv(q_dense)), 4.0, 0.05
    )
    assert report.passed, str(report)


def test_completeness_from_varying_starts():
    # Full-size sets from arbitrary starts and arbitrary seeds still produce
    # exact target draws in one call.
    n = 6
    model, q_dense, mean = random_spd_precision(n, 11)
    gen = np.random.default_rng(12)
    rng = RngState(23)
    draws = np.empty((30000, n))
    for i in range(draws.shape[0]):
        cset = build_conjugate_set(model, gen.standard_normal(n), n)
        x0 = gen.standard_normal(n) * 2
        draws[i], _ = sample_along(model, cset, x0, rng)
    report = moment_compare(
        summarize(draws), exact_summary(mean, np.linalg.inv(q_dense)), 4.0, 0.05
    )
    assert report.passed, str(report)


def test_partial_sweep_update_stays_in_span():
    n = 8
    model, _, _ = random_spd_precision(n, 13)
    gen = np.random.default_rng(14)
    rng = RngState(24)
    x0 = gen.standard_normal(n)
    cset = build_conjugate_set(model, gen.standard_normal(n), 3)
    x_new, _ = sample_along(model, cset, x0, rng)
    delta = x_new - x0
    _, residual, _, _ = np.linalg.lstsq(cset.directions.T, delta, rcond=None)
    resid = np.sqrt(residual[0]) if residual.size else 0.0
    assert resid <= 1e-10 * np.linalg.norm(delta)


def test_mean_step_zeroes_gradient_on_swept_directions():
    # Taking every coefficient at its mean (no noise) must make the new
    # gradient orthogonal to every direction in the set, the expanding
    # subspace property of conjugate direction descent.
    n = 8
    model, _, _ = random_spd_precision(n, 15)
    gen = np.random.default_rng(16)
    x0 = gen.standard_normal(n)
    gradient = model.gradient(x0)
    cset = build_conjugate_set(model, gradient, 5)
    means = (cset.directions @ gradient) / cset.curvatures
    x_new = x0 - means @ cset.directions
    new_gradient = model.gradient(x_new)
    assert np.abs(cset.directions @ new_gradient).max() < 1e-9


def test_sample_along_uses_supplied_gradient():
    n = 5
    model, _, _ = random_spd_precision(n, 17)
    gen = np.random.default_rng(18)
    x0 = gen.standard_normal(n)
    cset = build_conjugate_set(model, gen.standard_normal(n), n)
    a, _ = sample_along(model, cset, x0, RngState(31))
    b, _ = sample_along(model, cset, x0, RngState(31), gradient=model.gradient(x0))
    np.testing.assert_array_equal(a, b)


def test_factored_noise_covariance_matches_precision():
    n = 6
    model, q_dense, _ = random_spd_precision(n, 19)
    rng = RngState(25)
    draws = np.array([model.draw_noise(rng) for _ in range(30000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    cov = np.cov(draws, rowvar=False)
    assert np.linalg.norm(cov - q_dense) / np.linalg.norm(q_dense) < 0.05


def test_multi_factor_precision_with_vector_weights():
    gen = np.random.default_rng(20)
    m1 = gen.standard_normal((4, 3))
    m2 = gen.standard_normal((5, 3))
    w2 = np.abs(gen.standard_normal(5)) + 0.5
    model = PrecisionModel(
        3, [(DenseOperator(m1), 2.0), (DenseOperator(m2), w2)], np.zeros(3)
    )
    q_dense = 2.0 * m1.T @ m1 + m2.T @ (w2[:, None] * m2)
    x = gen.standard_normal(3)
    np.testing.assert_allclose(model.apply(x), q_dense @ x, atol=1e-12)
