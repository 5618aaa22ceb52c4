"""Super-resolution model: precision assembly, conditionals, perturbation, simulation."""

import math

import numpy as np
import pytest

from gsgs import (
    ChainState,
    ConfigurationError,
    DegenerateScaleError,
    FixedGaussianModel,
    GsgsConfig,
    RngState,
    cholesky_oracle_sample,
    densify,
    gamma_draw,
    gsgs_step,
    phantom,
    run_chain,
    simulate_data,
)
from gsgs.conjugate import PrecisionModel, densify_precision
from gsgs.operators import DecimationOperator, DenseOperator, IdentityOperator, make_circulant
from gsgs.superres import (
    GramPrecision,
    Hyperparams,
    SuperResModel,
    SpectralPrecision,
    SuperResThetaModel,
    build_precision,
    exact_gibbs_reference,
    exact_step,
    run_superres,
    sample_hyperparams,
)
from gsgs.validate import build_toy_model


def small_model(shape=(8, 8), frames=((0, 0), (1, 1)), noise=1.0, seed=0,
                dense=False, **priors):
    rng = RngState(seed)
    model = simulate_data(phantom(shape), 2, frames, 3, noise, rng, **priors)
    if not dense:
        return model
    # Same matrices, explicit storage: cheap applies for draw-heavy tests.
    return SuperResModel(
        blur=densify(model.blur), decimation=densify(model.decimation),
        penalty=densify(model.penalty), data=model.data, hr_shape=model.hr_shape,
        alpha_n=model.alpha_n, beta_n=model.beta_n,
        alpha_x=model.alpha_x, beta_x=model.beta_x, truth=model.truth,
    )


def pixel_noise(precision, rng):
    """One N(0, Q) draw in pixels: the coordinates' draw, decoded."""
    return precision.decode(precision.coordinates.draw_noise(rng))


def test_simulate_noise_free_is_exact_forward():
    rng = RngState(1)
    truth = phantom((8, 8))
    model = simulate_data(truth, 2, [(0, 0)], 3, math.inf, rng)
    np.testing.assert_array_equal(model.data, model.forward.apply(truth.ravel()))


def test_simulate_residual_variance_matches_noise_level():
    # Needs at least 1e4 observations for the 3% check.
    rng = RngState(2)
    truth = phantom((128, 128))
    model = simulate_data(truth, 2, [(0, 0), (1, 0), (0, 1)], 5, 4.0, rng)
    assert model.n_data >= 10**4
    resid = model.data - model.forward.apply(truth.ravel())
    assert abs(resid @ resid / model.n_data - 0.25) / 0.25 < 0.03


def test_full_scale_configuration_is_constructible():
    # Five low-res frames of a 256x256 scene, 5-pixel blur window: the
    # stretch configuration must build and apply within ordinary memory.
    rng = RngState(3)
    truth = phantom((256, 256))
    model = simulate_data(
        truth, 2, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)], 5, 1.0, rng
    )
    assert model.n_data == 5 * 128 * 128
    out = model.forward.adjoint_apply(model.data)
    assert out.shape == (256 * 256,)


def test_densified_precision_matches_explicit_grams():
    model = small_model(seed=6)
    hp = Hyperparams(gamma_n=0.7, gamma_x=2.5)
    a_mat = densify(model.forward).matrix
    d_mat = densify(model.penalty).matrix
    expected = hp.gamma_n * a_mat.T @ a_mat + hp.gamma_x * d_mat.T @ d_mat
    dense = densify_precision(build_precision(model, hp))
    np.testing.assert_allclose(dense, expected, atol=1e-12)


@pytest.mark.parametrize(
    "shape, factor, frames",
    [
        ((6, 10), 2, ((0, 0), (1, 0), (0, 1))),
        ((6, 9), 3, ((0, 0), (2, 1))),  # odd column count
        ((1, 15), 1, ((0, 0),)),  # 1-D deconvolution
        ((8, 8), 2, ((0, 0), (1, 1), (0, 0))),  # repeated offset: mask = 2
    ],
)
@pytest.mark.parametrize("gamma_x", [2.5])
def test_spectral_precision_matches_explicit_grams(shape, factor, frames, gamma_x):
    model = simulate_data(phantom(shape), factor, frames, 3, 1.0, RngState(40))
    assert model.decimation.coverage().max() == max(frames.count(f) for f in frames)
    hp = Hyperparams(gamma_n=0.7, gamma_x=gamma_x)
    precision = build_precision(model, hp)
    assert isinstance(precision, SpectralPrecision)
    a_mat = densify(model.forward).matrix
    d_mat = densify(model.penalty).matrix
    expected = hp.gamma_n * a_mat.T @ a_mat + hp.gamma_x * d_mat.T @ d_mat
    np.testing.assert_allclose(densify_precision(precision), expected, atol=1e-12)


ALIAS_GEOMETRIES = [
    ((64, 64), 2, ((0, 0), (1, 0), (0, 1))),
    ((6, 9), 3, ((0, 0), (2, 1))),  # odd column count
    ((12, 18), 3, ((0, 0), (2, 1), (1, 2))),
    ((6, 10), 2, ((0, 0), (1, 0), (0, 1))),  # odd low-resolution column count
    ((1, 15), 1, ((0, 0),)),  # 1-D deconvolution
    ((8, 8), 2, ((0, 0), (1, 1), (0, 0))),  # repeated offset: mask = 2
]


@pytest.mark.parametrize("shape, factor, frames", ALIAS_GEOMETRIES)
def test_alias_coordinates_are_orthogonal(shape, factor, frames):
    # encode is an isometry onto a subspace of its coordinates, decode its
    # inverse there, and Q in coordinates is Q in pixels read through them.
    model = simulate_data(phantom(shape), factor, frames, 3, 1.0, RngState(40))
    precision = build_precision(model, Hyperparams(gamma_n=0.7, gamma_x=2.5))
    gen = np.random.default_rng(41)
    x, y = gen.standard_normal((2, model.n_pixels))
    u, v = precision.encode(x), precision.encode(y)
    assert u.size == 2 * factor * shape[0] * (shape[1] // factor // 2 + 1)
    assert np.abs(precision.decode(u) - x).max() <= 1e-12
    assert abs(u @ v - x @ y) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(u @ u - x @ x) <= 1e-12 * (x @ x)
    coords = precision.coordinates
    qx = precision.apply(x)
    np.testing.assert_allclose(coords.apply(u), precision.encode(qx),
                               atol=1e-12 * np.linalg.norm(qx))
    np.testing.assert_allclose(coords.b, precision.encode(precision.b),
                               atol=1e-12 * np.linalg.norm(precision.b))
    np.testing.assert_allclose(precision.decode(coords.solve(precision.encode(qx))), x,
                               atol=1e-12 * np.linalg.norm(x))


@pytest.mark.parametrize("shape, factor, frames", ALIAS_GEOMETRIES)
def test_theta_norms_in_coordinates_match_pixel_norms(shape, factor, frames, monkeypatch):
    # Both theta norms read off the alias coordinates, at a random image and
    # at an exact draw of x | theta under a large gamma_x, against the norms
    # taken in pixels; neither point may need the cancellation fallback.
    model = simulate_data(phantom(shape), factor, frames, 3, 1.0, RngState(40))
    q = build_precision(model, Hyperparams(gamma_n=1.0, gamma_x=1e4)).coordinates
    smooth = model.spectra.decode(q.solve(q.b + q.draw_noise(RngState(42))))
    random = np.random.default_rng(43).standard_normal(model.n_pixels)
    pixel_norms = model.pixel_norms

    def no_fallback(x):
        raise AssertionError("the coordinate norms fell back to pixels")

    monkeypatch.setattr(model, "pixel_norms", no_fallback)
    for x in (random, smooth):
        want = pixel_norms(x)
        got = model.theta_norms(model.spectra.encode(x), x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_theta_norms_fall_back_where_the_residual_cancels():
    # Noiseless desk data at the truth: the residual taken in pixels is
    # exactly zero, while the expanded one in coordinates is rounding of
    # either sign. The coordinate path must fall back to the pixel norms of
    # the very x it was given, so it draws what the pixel norms give.
    truth = phantom((64, 64))
    offsets = ((0, 0), (1, 0), (0, 1))
    x = truth.ravel()
    flat = simulate_data(truth, 2, offsets, 5, math.inf, RngState(44))
    assert flat.pixel_norms(x)[0] == 0.0
    u = flat.spectra.encode(x)
    for sample in (lambda rng: sample_hyperparams(flat, x, rng),
                   lambda rng: SuperResThetaModel(flat).sample_theta(x, rng, u)):
        with pytest.raises(DegenerateScaleError, match="zero data residual"):
            sample(RngState(45))
    prior = simulate_data(truth, 2, offsets, 5, math.inf, RngState(44), beta_n=0.1)
    rough_ss = prior.pixel_norms(x)[1]
    rng = RngState(46)
    want = (gamma_draw(rng, prior.n_data / 2, 1.0 / 0.1),
            gamma_draw(rng, prior.penalty_rank / 2, 1.0 / (rough_ss / 2)))
    got = SuperResThetaModel(prior).sample_theta(x, RngState(46), prior.spectra.encode(x))
    assert (got.gamma_n, got.gamma_x) == want


@pytest.mark.parametrize("gamma_x", [2.5])
def test_gram_precision_matches_factored_formulas(gamma_x):
    # Dense maps: Q applied as one matrix must be sum_k M_k^T w_k M_k x, and
    # the N(0, Q) draw must stay the factored one, value for value.
    model = small_model(seed=47, dense=True)
    hp = Hyperparams(gamma_n=0.7, gamma_x=gamma_x)
    precision = build_precision(model, hp)
    assert isinstance(precision, GramPrecision) and isinstance(precision, PrecisionModel)
    fwd, pen = model.forward.matrix, model.penalty.matrix
    x = np.random.default_rng(48).standard_normal(model.n_pixels)
    want = hp.gamma_n * fwd.T @ (fwd @ x)
    want += hp.gamma_x * pen.T @ (pen @ x)
    assert np.linalg.norm(precision.apply(x) - want) <= 1e-12 * np.linalg.norm(want)

    gen = RngState(49).generator
    z_data = gen.standard_normal(model.n_data)
    z_data *= np.sqrt(hp.gamma_n)
    eps = fwd.T @ z_data
    z_pix = gen.standard_normal(model.n_pixels)
    z_pix *= np.sqrt(hp.gamma_x)
    eps = eps + pen.T @ z_pix
    assert np.array_equal(precision.draw_noise(RngState(49)), eps)


def test_gradient_at_zero_is_negative_backprojection():
    model = small_model(seed=7)
    hp = Hyperparams(gamma_n=1.3, gamma_x=0.4)
    precision = build_precision(model, hp)
    zero = precision.encode(np.zeros(model.n_pixels))
    grad = precision.decode(precision.coordinates.gradient(zero))
    np.testing.assert_allclose(
        grad, -hp.gamma_n * model.forward.adjoint_apply(model.data), atol=1e-12
    )


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(gamma_n=0.0, gamma_x=1.0)
    with pytest.raises(ValueError):
        Hyperparams(gamma_n=1.0, gamma_x=-1.0)
    # A Gamma draw is never zero, so no chain switches the prior off.
    with pytest.raises(ValueError, match="gamma_x"):
        Hyperparams(gamma_n=1.0, gamma_x=0.0)


@pytest.mark.parametrize("key, value", [
    ("alpha_n", -1.0), ("beta_n", math.nan), ("alpha_x", math.inf), ("beta_x", -2.0),
])
def test_model_rejects_bad_hyperpriors_naming_the_key(key, value):
    with pytest.raises(ConfigurationError, match=key):
        small_model(**{key: value})


@pytest.mark.parametrize("gamma_n_true", [-1.0, 0.0, math.nan])
def test_simulate_rejects_a_bad_noise_precision(gamma_n_true):
    with pytest.raises(ConfigurationError, match="gamma_n_true"):
        small_model(noise=gamma_n_true)


def test_hyperparam_conditional_mean():
    model = small_model(seed=8, dense=True)
    x = model.backprojection()
    resid = model.data - model.forward.apply(x)
    rough = model.penalty.apply(x)
    expected_n = (model.n_data / 2) / (resid @ resid / 2)
    expected_x = (model.penalty_rank / 2) / (rough @ rough / 2)
    rng = RngState(9)
    draws = np.array(
        [[hp.gamma_n, hp.gamma_x] for hp in
         (sample_hyperparams(model, x, rng) for _ in range(10**5))]
    )
    assert abs(draws[:, 0].mean() - expected_n) / expected_n < 0.01
    assert abs(draws[:, 1].mean() - expected_x) / expected_x < 0.01


def test_zero_image_degenerates_prior_scale():
    model = small_model(seed=10)
    with pytest.raises(DegenerateScaleError):
        sample_hyperparams(model, np.zeros(model.n_pixels), RngState(0))


def test_po_perturbation_covariance_matches_precision():
    model = small_model(seed=14, dense=True)
    hp = Hyperparams(gamma_n=1.0, gamma_x=0.5)
    precision = build_precision(model, hp)
    # Dense operators keep the factored precision and its noise draw.
    assert isinstance(precision, PrecisionModel)
    target = densify_precision(precision)
    rng = RngState(15)
    draws = np.array([precision.draw_noise(rng) for _ in range(10**5)])
    cov = np.cov(draws, rowvar=False)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


def test_spectral_noise_covariance_matches_precision():
    model = small_model(seed=14)
    hp = Hyperparams(gamma_n=1.0, gamma_x=0.5)
    precision = build_precision(model, hp)
    assert isinstance(precision, SpectralPrecision)
    target = densify_precision(precision)
    rng = RngState(15)
    draws = np.array([pixel_noise(precision, rng) for _ in range(10**5)])
    cov = np.cov(draws, rowvar=False)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


class PresetNormals:
    """Stands in for an `RngState`: hands out ``values`` in order as the
    standard normals of each draw, and counts how many were taken."""

    def __init__(self, values):
        self.values = values
        self.taken = 0
        self.generator = self

    def standard_normal(self, n):
        self.taken += n
        return self.values[self.taken - n : self.taken].copy()


def identity_model_4x4():
    ident = make_circulant((4, 4), [[1.0]], anchor=(0, 0))
    return SuperResModel(
        blur=ident, decimation=DecimationOperator((4, 4), 1, [(0, 0)]),
        penalty=make_circulant((4, 4), [[-1, 2, -1]]), data=np.zeros(16), hr_shape=(4, 4),
    )


@pytest.mark.parametrize("build", [
    lambda: simulate_data(phantom((8, 12)), 2, ((0, 0), (1, 0), (0, 1)), 3, 1.0, RngState(52)),
    # repeated offset: mask = 2
    lambda: simulate_data(phantom((9, 6)), 3, ((0, 0), (2, 1), (0, 0)), 3, 1.0, RngState(52)),
    # odd low-resolution column count, 5
    lambda: simulate_data(phantom((6, 10)), 2, ((0, 0), (1, 0), (0, 1)), 3, 1.0, RngState(52)),
    identity_model_4x4,
], ids=["8x12-f2", "9x6-f3-repeated", "6x10-f2-odd", "4x4-f1"])
@pytest.mark.parametrize("gamma_x", [2.5])
def test_spectral_noise_is_exactly_n_0_q(build, gamma_x):
    # The noise draw is linear in its normals: fed unit vectors, it gives its
    # matrix L, and decode L must have covariance Q exactly. Its draws lie
    # on the images' coordinates, and it takes one normal per pixel and term.
    model = build()
    precision = build_precision(model, Hyperparams(gamma_n=0.7, gamma_x=gamma_x))
    coords = precision.coordinates
    n_normals = 2 * model.n_pixels
    counter = PresetNormals(np.zeros(n_normals))
    coords.draw_noise(counter)
    assert counter.taken == n_normals
    noise_map = np.array([coords.draw_noise(PresetNormals(unit))
                          for unit in np.eye(n_normals)]).T
    decoded = np.array([precision.decode(eps) for eps in noise_map.T]).T
    target = densify_precision(precision)
    cov = decoded @ decoded.T
    assert np.linalg.norm(cov - target) <= 1e-12 * np.linalg.norm(target)
    round_trip = np.array([precision.encode(x) for x in decoded.T]).T
    assert np.abs(round_trip - noise_map).max() <= 1e-13 * np.abs(noise_map).max()


def test_kept_coordinates_do_not_drift():
    # The chain keeps its coordinates between iterations instead of encoding
    # each new x; 2,000 desk iterations at k = 10 must leave them the
    # coordinates of x to rounding.
    model = simulate_data(phantom((64, 64)), 2, ((0, 0), (1, 0), (0, 1)), 5, 1.0,
                          RngState(53))
    theta_model = SuperResThetaModel(model)
    cfg = GsgsConfig(n_dirs=10, max_iters=1)
    state = ChainState(x=model.backprojection(), theta=None, t=0, rng=RngState(54))
    for _ in range(2000):
        gsgs_step(theta_model, state, cfg)
    encoded = model.spectra.encode(state.x)
    assert np.linalg.norm(encoded - state.coords) <= 1e-12 * np.linalg.norm(encoded)


@pytest.mark.parametrize("kind", ["spectral", "gram", "factored"])
def test_chain_start_without_coordinates_matches_encoded_start(kind):
    # At a chain's first point the state holds no coordinates: the step draws
    # theta from x alone, then encodes x through theta's precision. 20 steps
    # must match those from x's coordinates passed in, bit for bit.
    if kind == "factored":
        gen = np.random.default_rng(60)
        precision = PrecisionModel(6, [(DenseOperator(gen.standard_normal((9, 6))), 1.3),
                                       (IdentityOperator(6), 0.5)], gen.standard_normal(6))
        theta_model, x0 = FixedGaussianModel(precision), np.ones(6)
    else:
        model = small_model(shape=(8, 12)) if kind == "spectral" else build_toy_model(21)
        theta_model, x0 = SuperResThetaModel(model), model.backprojection()
        precision = build_precision(model, Hyperparams(gamma_n=1.0, gamma_x=1.0))
    assert type(precision) is {"spectral": SpectralPrecision, "gram": GramPrecision,
                               "factored": PrecisionModel}[kind]
    cfg = GsgsConfig(n_dirs=3, max_iters=1)
    fresh, encoded = (ChainState(x=x0.copy(), theta=None, t=0, rng=RngState(61), coords=c)
                      for c in (None, precision.encode(x0).copy()))
    for _ in range(20):
        gsgs_step(theta_model, fresh, cfg)
        gsgs_step(theta_model, encoded, cfg)
        assert fresh.theta == encoded.theta
        assert fresh.x.tobytes() == encoded.x.tobytes()
        assert fresh.coords.tobytes() == encoded.coords.tobytes()


def test_po_perturbation_deterministic_under_seed():
    model = small_model(seed=16)
    precision = build_precision(model, Hyperparams(1.0, 1.0))
    a = pixel_noise(precision, RngState(17))
    b = pixel_noise(precision, RngState(17))
    np.testing.assert_array_equal(a, b)


def test_pinned_low_prior_mean_approaches_normal_equation_solution():
    # Fixed hyperparameters with a small pinned prior weight on noise-free
    # data: the posterior mean is the regularized normal-equation solution;
    # the chain's posterior mean image must land on it. Near-full sweeps make
    # every iterate an exact posterior draw, so only estimator noise remains.
    rng = RngState(18)
    truth = phantom((16, 16))
    model = simulate_data(truth, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], 3, math.inf, rng)
    model = SuperResModel(
        blur=densify(model.blur), decimation=densify(model.decimation),
        penalty=densify(model.penalty), data=model.data, hr_shape=model.hr_shape,
    )
    hp = Hyperparams(gamma_n=1.0, gamma_x=5e-3)
    precision = build_precision(model, hp)
    dense_q = densify_precision(precision, max_entries=10**6)
    oracle = np.linalg.solve(dense_q, precision.b)
    cfg = GsgsConfig(
        n_dirs=model.n_pixels, max_iters=6000, burn_in=500,
        perturbation="factored_q", seed=19,
    )
    record = run_chain(FixedGaussianModel(precision), model.backprojection(), cfg)
    rel_err = np.linalg.norm(record.mean_x - oracle) / np.linalg.norm(oracle)
    assert rel_err < 0.01


@pytest.mark.parametrize("perturbation", ["factored_q", "none", "iid_normal"])
@pytest.mark.parametrize("n_dirs", [1, 3, 10])
@pytest.mark.parametrize("shape, factor, frames", [
    ((8, 8), 2, ((0, 0), (1, 1))),
    ((6, 9), 3, ((0, 0), (2, 1))),
])
def test_spectral_step_matches_dense_step(shape, factor, frames, n_dirs, perturbation):
    # One chain step in alias coordinates against the same step on the same
    # matrices in pixels, from one state and one stream layout (theta, noise,
    # coefficients), so they agree to rounding. The spectral noise is drawn
    # in coordinates, so the dense step's factored_q perturbation is that
    # draw decoded, taken on the dense chain's own stream: both steps consume
    # the same normals.
    sim = simulate_data(phantom(shape), factor, frames, 3, 1.0, RngState(50),
                        alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1)
    dense = SuperResModel(
        blur=densify(sim.blur), decimation=densify(sim.decimation),
        penalty=densify(sim.penalty), data=sim.data, hr_shape=sim.hr_shape,
        alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1,
    )
    assert isinstance(build_precision(dense, Hyperparams(1.0, 1.0)), PrecisionModel)

    class SpectralNoise(SuperResThetaModel):
        def perturbation_at(self, theta, rng, precision):
            spectral = build_precision(sim, theta)
            return spectral.decode(spectral.coordinates.draw_noise(rng))

    cfg = GsgsConfig(n_dirs=n_dirs, max_iters=1, perturbation=perturbation)
    x0 = sim.backprojection()
    states = []
    for theta_model in (SuperResThetaModel(sim), SpectralNoise(dense)):
        state = ChainState(x=x0.copy(), theta=None, t=0, rng=RngState(51))
        states.append(gsgs_step(theta_model, state, cfg))
    spectral, pixels = states
    assert spectral.last_step["n_dirs"] == pixels.last_step["n_dirs"] == n_dirs
    assert spectral.theta.gamma_n == pytest.approx(pixels.theta.gamma_n, rel=1e-12)
    assert spectral.theta.gamma_x == pytest.approx(pixels.theta.gamma_x, rel=1e-12)
    gap = np.linalg.norm(spectral.x - pixels.x) / np.linalg.norm(pixels.x)
    assert gap <= 1e-9
    assert spectral.last_step["potential"] == pytest.approx(
        pixels.last_step["potential"], rel=1e-9)


def test_run_superres_shapes_and_record():
    model = small_model(shape=(8, 8), seed=20, alpha_n=0.1, beta_n=0.1,
                        alpha_x=0.1, beta_x=0.1)
    cfg = GsgsConfig(n_dirs=4, max_iters=200, burn_in=50, thinning=50, seed=21)
    result = run_superres(model, cfg)
    assert result.posterior_mean.shape == (8, 8)
    assert result.posterior_std.shape == (8, 8)
    assert (result.posterior_std >= 0).all()
    assert result.record.theta_names == ("gamma_n", "gamma_x")
    assert result.record.n_iterations == 200
    assert result.gamma_n_mean > 0 and result.gamma_x_mean > 0


def test_run_superres_deterministic():
    model = small_model(shape=(8, 8), seed=22, alpha_n=0.1, beta_n=0.1,
                        alpha_x=0.1, beta_x=0.1)
    cfg = GsgsConfig(n_dirs=4, max_iters=100, burn_in=20, seed=23)
    a = run_superres(model, cfg)
    b = run_superres(model, cfg)
    np.testing.assert_array_equal(a.posterior_mean, b.posterior_mean)
    np.testing.assert_array_equal(
        a.record.theta_column("gamma_x"), b.record.theta_column("gamma_x")
    )


def test_warns_when_perturbation_disabled(caplog):
    import logging

    model = small_model(shape=(8, 8), seed=24, alpha_n=0.1, beta_n=0.1,
                        alpha_x=0.1, beta_x=0.1)
    cfg = GsgsConfig(n_dirs=2, max_iters=20, perturbation="none", seed=25)
    with caplog.at_level(logging.WARNING, logger="gsgs.superres"):
        run_superres(model, cfg)
    assert any("convergence is not guaranteed" in m for m in caplog.messages)


def test_block_draw_is_exact():
    # The reference's draw on spectral models, x = Q^{-1} (b + eps) with
    # eps ~ N(0, Q) solved block by block in alias coordinates, must produce
    # the same Gaussian as the Cholesky oracle. Frozen hyperparameters make
    # this a sharp moment test against the dense target.
    from gsgs import cholesky_oracle_sample, exact_summary, moment_compare, summarize

    hp = Hyperparams(gamma_n=1.2, gamma_x=0.8)
    for shape, factor, frames in (((8, 8), 2, ((0, 0), (1, 1))),
                                  ((6, 9), 3, ((0, 0), (2, 1)))):
        model = simulate_data(phantom(shape), factor, frames, 3, 1.0, RngState(26))
        precision = build_precision(model, hp)
        dense_q = densify_precision(precision)
        target = exact_summary(np.linalg.solve(dense_q, precision.b), np.linalg.inv(dense_q))

        q = precision.coordinates
        rng = RngState(27)
        draws = np.array([precision.decode(q.solve(q.b + q.draw_noise(rng)))
                          for _ in range(3 * 10**4)])
        assert moment_compare(summarize(draws), target, 4.5, 0.05).passed

        chol_draws = cholesky_oracle_sample(dense_q, precision.b, RngState(28),
                                            size=3 * 10**4)
        assert moment_compare(summarize(chol_draws), target, 4.5, 0.05).passed


def test_spectral_reference_agrees_with_cholesky():
    # A well-determined geometry (as many observations as pixels) keeps the
    # precision posteriors narrow, so two independent exact chains, one
    # through the block solve and one through Cholesky on the same matrices
    # stored dense, must land on the same estimates.
    geometry = dict(shape=(16, 16), frames=((0, 0), (1, 0), (0, 1), (1, 1)), seed=26,
                    alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1)
    spectral = small_model(**geometry)
    dense = small_model(dense=True, **geometry)
    assert spectral.spectra is not None and dense.spectra is None
    chol = exact_gibbs_reference(dense, 4000, 500, seed=27)
    spec = exact_gibbs_reference(spectral, 4000, 500, seed=28)
    for a, b in ((spec.gamma_n_mean, chol.gamma_n_mean),
                 (spec.gamma_x_mean, chol.gamma_x_mean)):
        assert abs(a - b) / abs(b) < 0.15


@pytest.mark.parametrize("dense", [False, True])
def test_exact_step_is_the_explicit_draw(dense):
    # One step from one state and one stream: the theta draw, then the
    # block solve (spectral) or the Cholesky draw (dense), bit for bit.
    model = small_model(seed=26, dense=dense)
    x0 = model.backprojection()
    state = ChainState(x=x0.copy(), theta=None, t=0, rng=RngState(27))
    state = exact_step(SuperResThetaModel(model), state, GsgsConfig(n_dirs=1, max_iters=1))

    rng = RngState(27)
    hp = sample_hyperparams(model, x0, rng)
    precision = build_precision(model, hp)
    if dense:
        want = cholesky_oracle_sample(precision.matrix, precision.b, rng)
    else:
        q = precision.coordinates
        want = precision.decode(q.solve(q.b + q.draw_noise(rng)))
    np.testing.assert_array_equal(state.x, want)
    assert state.theta == hp and state.t == 1
    assert state.last_step["n_dirs"] == 0 and state.last_step["skipped"] is False


def test_exact_step_densifies_a_factored_precision():
    rng = np.random.default_rng(5)
    factor = DenseOperator(rng.standard_normal((7, 5)))
    precision = PrecisionModel(5, [(factor, 1.3)], rng.standard_normal(5))
    state = ChainState(x=np.zeros(5), theta=None, t=0, rng=RngState(8))
    state = exact_step(FixedGaussianModel(precision), state,
                       GsgsConfig(n_dirs=1, max_iters=1))
    want = cholesky_oracle_sample(densify_precision(precision), precision.b, RngState(8))
    np.testing.assert_array_equal(state.x, want)


@pytest.mark.parametrize("burn_in", [-3, 10])
def test_reference_rejects_burn_in_outside_chain(burn_in):
    with pytest.raises(ValueError, match="burn_in"):
        exact_gibbs_reference(small_model(seed=26), 10, burn_in, seed=27)


def test_theta_model_scalars():
    model = small_model(seed=29)
    theta_model = SuperResThetaModel(model)
    scalars = theta_model.theta_scalars(Hyperparams(1.5, 2.5))
    assert scalars == {"gamma_n": 1.5, "gamma_x": 2.5}


def test_conditional_mean_at_truth_recovers_noise_precision():
    # With enough observations, the noise-precision conditional evaluated at
    # the true image centers on the true precision (checked analytically at
    # 3 percent for at least 1e4 observations).
    gamma_true = 4.0
    rng = RngState(30)
    truth = phantom((256, 256))
    model = simulate_data(truth, 2, [(0, 0), (1, 0), (0, 1)], 5, gamma_true, rng)
    assert model.n_data >= 10**4
    resid = model.data - model.forward.apply(truth.ravel())
    conditional_mean = (model.alpha_n + model.n_data / 2) / (
        model.beta_n + resid @ resid / 2
    )
    assert abs(conditional_mean / gamma_true - 1.0) < 0.03


def test_frozen_hyperparams_near_full_sweep_is_exact():
    # 16x16 scene, hyperparameters frozen, direction count equal to the
    # dimension (the Krylov set reaches ~252 of 256 directions; the perturbed
    # seed moves the unswept remainder around): 1e4 sweeps must reproduce the
    # dense target moments, means within 4 SE and the variance profile within
    # 5 percent.
    rng = RngState(31)
    truth = phantom((16, 16))
    model = simulate_data(truth, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], 3, 1.0, rng)
    model = SuperResModel(
        blur=densify(model.blur), decimation=densify(model.decimation),
        penalty=densify(model.penalty), data=model.data, hr_shape=model.hr_shape,
    )
    hp = Hyperparams(gamma_n=1.0, gamma_x=0.05)
    precision = build_precision(model, hp)
    dense_q = densify_precision(precision, max_entries=10**6)
    target_mean = np.linalg.solve(dense_q, precision.b)
    target_var = np.diag(np.linalg.inv(dense_q))

    cfg = GsgsConfig(n_dirs=model.n_pixels, max_iters=10**4,
                     perturbation="factored_q", seed=32)
    record = run_chain(FixedGaussianModel(precision), model.backprojection(), cfg)
    se = np.sqrt(target_var / record.n_samples)
    # Consecutive near-full sweeps are almost independent; allow a small
    # effective-sample-size margin on the mean bands.
    assert (np.abs(record.mean_x - target_mean) <= 4.0 * se * 1.5).all()
    var_gap = np.linalg.norm(record.var_x - target_var) / np.linalg.norm(target_var)
    assert var_gap <= 0.05
