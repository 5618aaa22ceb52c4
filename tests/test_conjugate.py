"""Conjugate set construction and directional sampling against dense oracles."""

import tracemalloc

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
    BLOCK,
    ConjugateSet,
    BREAKDOWN_TOL,
    CURVATURE_DROP,
    PrecisionModel,
    _conjugate_block,
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
    # the per-step full pass over the first 32 directions, the three-term
    # step after them and one block step per 32 directions must keep the
    # whole set conjugate, with no early stop.
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
    # The leak trips the block step's guard here, so the build forms the
    # directions and ends on full passes: the curvatures and images it
    # works from must be the formed directions' own.
    assert cset.transform is None
    fresh = np.array([precision.apply(d) for d in cset.directions])
    assert np.array_equal(cset.q_directions, fresh)
    curv = np.einsum("ij,ij->i", cset.directions, fresh)
    assert np.abs(cset.curvatures / curv - 1.0).max() <= 1e-13


def full_pass_reference(precision, d1, n_dirs):
    """The build with one full re-conjugation pass per step and no blocks.

    Returns (directions, q_directions, curvatures).
    """
    n = precision.dim
    dirs, qdirs = np.empty((2, n_dirs, n))
    curv = np.empty(n_dirs)
    v = d1 / np.sqrt(d1 @ d1)
    dirs[0], qdirs[0] = v, precision.apply(v)
    curv[0] = v @ qdirs[0]
    k = 1
    while k < n_dirs:
        cand = qdirs[k - 1].copy()
        pre_norm = np.sqrt(cand @ cand)
        for lo in (max(k - 2, 0), 0):
            coef = (qdirs[lo:k] @ cand) / curv[lo:k]
            cand -= coef @ dirs[lo:k]
        norm = np.sqrt(cand @ cand)
        if norm <= BREAKDOWN_TOL * pre_norm:
            break
        v = cand / norm
        q = precision.apply(v)
        c = v @ q
        if c <= CURVATURE_DROP * curv[0]:
            break
        dirs[k], qdirs[k], curv[k] = v, q, c
        k += 1
    return dirs[:k], qdirs[:k], curv[:k]


def desk_coordinates(gamma_x):
    """The desk scene's precision in the alias coordinates of its x-step."""
    hp = Hyperparams(gamma_n=1.0, gamma_x=gamma_x)
    return build_precision(build_desk_model(31), hp).coordinates


@pytest.mark.parametrize("model, n_dirs", [("spd", 12), ("spd", 32), ("desk", 10)])
def test_single_block_build_matches_full_pass_reference(model, n_dirs):
    # Up to one block of directions the build is the per-step full pass,
    # bit for bit, so chains with n_dirs <= BLOCK keep their exact draws.
    assert n_dirs <= BLOCK
    if model == "desk":
        precision = desk_coordinates(1.0)
    else:
        precision, _, _ = random_spd_precision(40, 45)
    d1 = np.random.default_rng(46).standard_normal(precision.dim)
    cset = build_conjugate_set(precision, d1, n_dirs)
    dirs, qdirs, curv = full_pass_reference(precision, d1, n_dirs)
    assert len(cset) == n_dirs
    assert np.array_equal(cset.directions, dirs)
    assert np.array_equal(cset.q_directions, qdirs)
    assert np.array_equal(cset.curvatures, curv)


@pytest.mark.parametrize("gamma_x", [1.0, 1e4])
def test_multi_block_build_keeps_span_and_images(gamma_x):
    precision = desk_coordinates(gamma_x)
    d1 = np.random.default_rng(47).standard_normal(precision.dim)
    csets = {n_dirs: build_conjugate_set(precision, d1, n_dirs) for n_dirs in (80, 150)}
    for n_dirs, cset in csets.items():
        assert len(cset) == n_dirs
        assert cset.conjugacy_defect() <= 1e-8
        # The directions are formed from the rows and the transform; the
        # images, applied on demand, must still be Q times them.
        fresh = np.array([precision.apply(d) for d in cset.directions])
        err = np.linalg.norm(cset.q_directions - fresh, axis=1)
        assert (err / np.linalg.norm(fresh, axis=1)).max() <= 1e-13
    # At k=80 the per-step full pass spans the same space. (At k=150 the
    # span itself moves with rounding: a 1e-15 change of the seed turns it.)
    ref_dirs, _, _ = full_pass_reference(precision, d1, 80)
    basis, _ = np.linalg.qr(csets[80].directions.T)
    residual = ref_dirs.T - basis @ (basis.T @ ref_dirs.T)
    assert np.linalg.norm(residual, axis=0).max() <= 1e-6


@pytest.mark.parametrize("m", [32, 36, 50, 64, 70])
def test_krylov_space_exhausted_after_first_block(m):
    # Q = diag(lambda_1, lambda_1, ..., lambda_m, lambda_m) seeded on one
    # coordinate of each pair: K(Q, d1) has dimension m, so the build stops
    # there, in a later block, and the final block pass runs on that stop.
    # At m = 32 and 64 it stops on a block boundary, with the open block
    # empty.
    eigs = np.repeat(np.linspace(1.0, 4.0, m), 2)
    model = PrecisionModel(2 * m, [(DenseOperator(np.diag(np.sqrt(eigs))), 1.0)],
                           np.zeros(2 * m))
    d1 = np.zeros(2 * m)
    d1[::2] = np.random.default_rng(48).uniform(0.5, 1.5, m)
    cset = build_conjugate_set(model, d1, 2 * m)
    assert len(cset) == m
    assert cset.conjugacy_defect() <= 1e-8


def test_early_stop_runs_the_final_block_pass():
    # At m=36 the build stops four rows into its second block. Those rows
    # leak onto the first block at about 7e-14 and only the block pass run
    # on the stop removes that; what one pass leaves is about 2e-16.
    m = 36
    eigs = np.repeat(np.linspace(1.0, 4.0, m), 2)
    model = PrecisionModel(2 * m, [(DenseOperator(np.diag(np.sqrt(eigs))), 1.0)],
                           np.zeros(2 * m))
    d1 = np.zeros(2 * m)
    d1[::2] = np.random.default_rng(48).uniform(0.5, 1.5, m)
    cset = build_conjugate_set(model, d1, 2 * m)
    assert BLOCK < len(cset) == m
    assert cset.conjugacy_defect() <= 1e-14


def test_block_step_checks_the_leak_within_its_block():
    # Q = diag(q) and unit rows: the first block's rows and the open block's
    # are coordinate vectors, clean against each other, except that the
    # block's second row leaks 1e-10 and its fourth 1e-6 onto the block's
    # first. One first-order step removes the small leak; the large one
    # trips the guard, which keeps the three rows before it.
    n, start, stop = BLOCK + 8, BLOCK, BLOCK + 6
    q = np.linspace(1.0, 4.0, n)
    dirs = np.eye(stop, n)
    for row, leak in ((start + 1, 1e-10), (start + 3, 1e-6)):
        dirs[row, start] = leak
        dirs[row] /= np.linalg.norm(dirs[row])
    imgs = dirs * q
    curv = np.einsum("ij,ij->i", dirs, imgs)
    tf = np.eye(stop)
    kept = _conjugate_block(dirs, imgs[start:], curv, tf, start, stop)
    assert kept == start + 3
    formed = tf[:kept, :kept] @ dirs[:kept]
    gram = (formed * q) @ formed.T
    off = np.abs(gram) / np.sqrt(np.outer(curv[:kept], curv[:kept]))
    np.fill_diagonal(off, 0.0)
    assert off.max() <= 1e-16


class CountingPrecision:
    """A precision that counts its applies."""

    def __init__(self, precision):
        self.precision, self.dim, self.calls = precision, precision.dim, 0

    def apply(self, x):
        self.calls += 1
        return self.precision.apply(x)


@pytest.mark.parametrize("gamma_x", [1.0, 1e4, 6e6])
def test_block_steps_keep_desk_k150_conjugate_to_rounding(gamma_x):
    # Each step is the three-term step alone, and the block step records
    # the re-conjugation of each block of 32, the first included, in the
    # transform: within a block the leak reaches about 1e-10 against the
    # older rows and 1e-12 among the block's own rows, and what one
    # first-order step leaves, second order in the leak, is below rounding.
    precision = CountingPrecision(desk_coordinates(gamma_x))
    d1 = np.random.default_rng(49).standard_normal(precision.dim)
    cset = build_conjugate_set(precision, d1, 150)
    assert len(cset) == 150
    # One Q-apply per direction, plus two after each block step the build
    # goes on from, for the block's last two rows once replaced by their
    # directions: the guard never trips, and no other image is recomputed.
    assert precision.calls == 150 + 2 * (150 // BLOCK)
    assert cset.conjugacy_defect() <= 1e-13


@pytest.mark.parametrize("n_dirs", [80, 150])
@pytest.mark.parametrize("gamma_x", [1.0, 1e4])
def test_sample_along_through_transform_matches_materialized_directions(gamma_x, n_dirs):
    # sample_along draws through D = T R without forming D; the same draw
    # on the formed directions, with no transform, must agree to rounding.
    precision = desk_coordinates(gamma_x)
    gen = np.random.default_rng(53)
    cset = build_conjugate_set(precision, gen.standard_normal(precision.dim), n_dirs)
    assert cset.transform is not None
    formed = ConjugateSet(cset.directions, cset.curvatures, precision)
    x0 = gen.standard_normal(precision.dim)
    x_t, alphas_t = sample_along(precision, cset, x0, RngState(54))
    x_d, alphas_d = sample_along(precision, formed, x0, RngState(54))
    assert np.abs(alphas_t - alphas_d).max() <= 1e-12 * np.abs(alphas_d).max()
    step_t, step_d = x0 - x_t, x0 - x_d
    assert np.abs(step_t - step_d).max() <= 1e-12 * np.abs(step_d).max()
    assert np.abs(x_t - x_d).max() <= 1e-12 * np.abs(x_d).max()


@pytest.mark.parametrize("model, n_dirs", [("spd", 40), ("desk", 80)])
def test_q_directions_are_the_precision_applied_per_row(model, n_dirs):
    if model == "desk":
        precision = desk_coordinates(1e4)
    else:
        precision, _, _ = random_spd_precision(40, 50)
    d1 = np.random.default_rng(51).standard_normal(precision.dim)
    cset = build_conjugate_set(precision, d1, n_dirs)
    fresh = np.array([precision.apply(d) for d in cset.directions])
    assert np.array_equal(cset.q_directions, fresh)
    assert cset.q_directions is cset.q_directions
    # Past the first block the curvatures are the rows' own, which the
    # transform changes at second order only; they must still be d^T Q d.
    curv = np.einsum("ij,ij->i", cset.directions, fresh)
    assert np.abs(cset.curvatures / curv - 1.0).max() <= 1e-13


def test_build_allocates_one_store():
    # Rows and the window of BLOCK + 2 images share one allocation; the
    # transform (n_dirs^2 values, about five rows here) and the block step's
    # temporary vectors add no more than BLOCK rows.
    precision = desk_coordinates(1.0)
    n_dirs, row = 150, precision.dim * 8
    d1 = np.random.default_rng(52).standard_normal(precision.dim)
    build_conjugate_set(precision, d1, n_dirs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cset = build_conjugate_set(precision, d1, n_dirs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(cset) == n_dirs
    assert peak <= (n_dirs + 2 * BLOCK + 2) * row


@pytest.mark.parametrize("n_dirs, early_stop", [(1, False), (BLOCK, False), (80, False),
                                              (72, True)])
def test_build_leaves_its_seed_unchanged(n_dirs, early_stop):
    # The rows are written in place in the build's store; the seed must not
    # be one of them. An unperturbed gsgs_step seeds the build with the
    # gradient array itself and reads it again in sample_along.
    if early_stop:
        # K(Q, d1) has dimension 36 here: the build stops in its second block.
        eigs = np.repeat(np.linspace(1.0, 4.0, 36), 2)
        precision = PrecisionModel(72, [(DenseOperator(np.diag(np.sqrt(eigs))), 1.0)],
                                   np.zeros(72))
        d1 = np.zeros(72)
        d1[::2] = np.random.default_rng(48).uniform(0.5, 1.5, 36)
    else:
        precision = desk_coordinates(1.0)
        d1 = np.random.default_rng(55).standard_normal(precision.dim)
    before = d1.tobytes()
    cset = build_conjugate_set(precision, d1, n_dirs)
    assert len(cset) == (36 if early_stop else n_dirs)
    assert d1.tobytes() == before


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
