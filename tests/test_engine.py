"""Gibbs engine mechanics: stepping, recording, determinism."""

import logging
import math

import numpy as np
import pytest

from gsgs import (
    ConfigurationError,
    DenseOperator,
    FixedGaussianModel,
    GsgsConfig,
    GsgsError,
    IdentityOperator,
    RngState,
    exact_step,
    gsgs_step,
    read_image_f64,
    run_chain,
)
from gsgs import engine
from gsgs.conjugate import PrecisionModel
from gsgs.engine import ChainState


def identity_precision(n, b=None):
    return PrecisionModel(n, [(IdentityOperator(n), 1.0)], np.zeros(n) if b is None else b)


def spd_precision(n, seed, b=None):
    gen = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
    q = basis @ np.diag(np.linspace(0.5, 3.0, n)) @ basis.T
    factor = np.linalg.cholesky(q).T
    if b is None:
        b = gen.standard_normal(n)
    return PrecisionModel(n, [(DenseOperator(factor), 1.0)], b), q


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GsgsConfig(n_dirs=0, max_iters=10)
    with pytest.raises(ConfigurationError):
        GsgsConfig(n_dirs=1, max_iters=10, burn_in=10)
    with pytest.raises(ConfigurationError):
        GsgsConfig(n_dirs=1, max_iters=10, perturbation="bogus")


def test_snapshot_count_arithmetic():
    model = FixedGaussianModel(identity_precision(3))
    cfg = GsgsConfig(n_dirs=3, max_iters=100, burn_in=10, thinning=10, seed=5)
    record = run_chain(model, np.ones(3), cfg)
    assert len(record.snapshots) == 9
    assert [t for t, _ in record.snapshots] == [20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_same_seed_bit_identical_record():
    model, _ = spd_precision(4, 0)
    cfg = GsgsConfig(n_dirs=2, max_iters=200, burn_in=20, thinning=5, seed=9)
    a = run_chain(FixedGaussianModel(model), np.zeros(4), cfg)
    b = run_chain(FixedGaussianModel(model), np.zeros(4), cfg)
    np.testing.assert_array_equal(a.potential, b.potential)
    np.testing.assert_array_equal(a.alpha_norm, b.alpha_norm)
    np.testing.assert_array_equal(a.mean_x, b.mean_x)
    for (ta, xa), (tb, xb) in zip(a.snapshots, b.snapshots):
        assert ta == tb
        np.testing.assert_array_equal(xa, xb)


def test_running_mean_equals_snapshot_mean_at_thinning_one():
    model, _ = spd_precision(3, 1)
    cfg = GsgsConfig(n_dirs=3, max_iters=300, burn_in=50, thinning=1, seed=2)
    record = run_chain(FixedGaussianModel(model), np.zeros(3), cfg)
    snap_mean = np.mean([x for _, x in record.snapshots], axis=0)
    assert np.abs(record.mean_x - snap_mean).max() < 1e-12


def test_zero_seed_direction_skips_update(caplog):
    # x exactly at the mean with no perturbation: gradient and noise both zero.
    n = 3
    b = np.array([0.5, -1.0, 2.0])
    model = FixedGaussianModel(identity_precision(n, b=b))  # mean = b
    cfg = GsgsConfig(n_dirs=n, max_iters=1, perturbation="none", seed=0)
    coords = b.copy()
    state = ChainState(x=b.copy(), theta=None, t=0, rng=RngState(0), coords=coords)
    with caplog.at_level(logging.WARNING, logger="gsgs.engine"):
        state = gsgs_step(model, state, cfg)
    assert state.t == 1
    np.testing.assert_array_equal(state.x, b)
    # The skipped step keeps the chain's coordinates as they were.
    assert state.coords is coords
    np.testing.assert_array_equal(coords, b)
    assert state.last_step["skipped"]
    assert any("zero seed direction" in m for m in caplog.messages)


@pytest.mark.parametrize("n_dirs", [3, 40])
def test_unperturbed_step_matches_one_seeded_by_a_copy(monkeypatch, n_dirs):
    # Without a perturbation the build's seed is the gradient array itself,
    # which sample_along reads afterwards; the build must leave it as it was.
    precision, _ = spd_precision(40, 12)
    model = FixedGaussianModel(precision)
    cfg = GsgsConfig(n_dirs=n_dirs, max_iters=1, perturbation="none")
    x0 = np.random.default_rng(13).standard_normal(40)

    def step():
        return gsgs_step(model, ChainState(x=x0.copy(), theta=None, t=0, rng=RngState(14)), cfg)

    own = step()
    build = engine.build_conjugate_set
    monkeypatch.setattr(engine, "build_conjugate_set",
                        lambda coords, d1, k: build(coords, d1.copy(), k))
    copied = step()
    assert own.x.tobytes() == copied.x.tobytes()
    assert own.last_step == copied.last_step


def test_chain_record_keeps_skipped_steps(tmp_path):
    # From the mean with no perturbation every step has a zero seed; from
    # any other point none has. chain.csv marks the skipped rows.
    b = np.array([0.5, -1.0, 2.0])
    model = FixedGaussianModel(identity_precision(3, b=b))  # mean = b
    cfg = GsgsConfig(n_dirs=3, max_iters=4, perturbation="none", seed=0)
    for x0, skipped in ((b, 1), (np.zeros(3), 0)):
        record = run_chain(model, x0.copy(), cfg)
        assert record.skipped.dtype == bool
        np.testing.assert_array_equal(record.skipped, bool(skipped))
        record.save(tmp_path)
        rows = (tmp_path / "chain.csv").read_text().splitlines()
        column = rows[0].split(",").index("skipped")
        assert [int(row.split(",")[column]) for row in rows[1:]] == [skipped] * 4
        assert all((row.split(",")[column - 1] == "0") == skipped for row in rows[1:])


def test_non_finite_state_is_fatal():
    model = FixedGaussianModel(identity_precision(2, b=np.array([np.nan, 0.0])))
    cfg = GsgsConfig(n_dirs=2, max_iters=5, seed=0)
    with pytest.raises(GsgsError):
        run_chain(model, np.zeros(2), cfg)


def test_reduction_matches_hand_coded_single_direction_sampler():
    # N_D=1, no perturbation: the engine's update must replicate a hand-coded
    # sampler along the raw gradient, draw for draw on a shared stream.
    n = 4
    model, q = spd_precision(n, 3)
    cfg = GsgsConfig(n_dirs=1, max_iters=1, perturbation="none", seed=0)
    x_engine = np.array([1.0, -2.0, 0.5, 3.0])
    x_hand = x_engine.copy()
    state = ChainState(x=x_engine, theta=None, t=0, rng=RngState(77))
    hand_rng = RngState(77)
    for _ in range(50):
        state = gsgs_step(FixedGaussianModel(model), state, cfg)
        g = q @ x_hand - model.b
        d = g / np.linalg.norm(g)
        qd = q @ d
        c = d @ qd
        alpha = (d @ g) / c + hand_rng.generator.standard_normal(1)[0] / math.sqrt(c)
        x_hand = x_hand - alpha * d
        np.testing.assert_allclose(state.x, x_hand, atol=1e-10)


def test_one_step_reachability_with_full_support_noise():
    # From a fixed start, iid gradient noise must give every coordinate a
    # strictly positive one-step update variance.
    n = 8
    model, _ = spd_precision(n, 4)
    cfg = GsgsConfig(n_dirs=1, max_iters=1, perturbation="iid_normal", seed=0)
    rng = RngState(5)
    x0 = np.ones(n)
    outs = np.empty((10**4, n))
    for i in range(outs.shape[0]):
        state = ChainState(x=x0.copy(), theta=None, t=0, rng=rng)
        outs[i] = gsgs_step(FixedGaussianModel(model), state, cfg).x
    assert (outs - x0).var(axis=0).min() > 0


def test_chain_record_save_and_reload(tmp_path):
    model, _ = spd_precision(3, 7)
    cfg = GsgsConfig(n_dirs=2, max_iters=40, burn_in=10, thinning=10, seed=3)
    record = run_chain(FixedGaussianModel(model), np.zeros(3), cfg)
    record.save(tmp_path)
    header = (tmp_path / "chain.csv").read_text().splitlines()[0]
    assert header == "t,J,alpha_norm,n_dirs,skipped,wall_ms"
    assert sorted(p.name for p in tmp_path.glob("snap_*.f64")) == [
        "snap_20.f64", "snap_30.f64", "snap_40.f64",
    ]
    snap = read_image_f64(tmp_path / "snap_40.f64")
    np.testing.assert_array_equal(snap.ravel(), record.snapshots[-1][1])


def test_clamps_n_dirs_to_dimension():
    model = FixedGaussianModel(identity_precision(2))
    cfg = GsgsConfig(n_dirs=10, max_iters=3, seed=1)
    record = run_chain(model, np.ones(2), cfg)
    assert record.n_iterations == 3


# The three checks below state exact-distribution properties for partial
# direction sweeps. They are kept at their stated tolerances and marked
# strict-xfail: the excursion direction depends on the current point, which
# breaks one-step invariance for every sweep smaller than the full dimension
# (measurable as a systematic covariance deficit), and the unperturbed chain
# collapses onto the top-curvature eigenspace. The full-sweep case, which the
# directional-coefficient law does guarantee, is covered by
# test_full_sweep_iterates_are_exact_draws below.


@pytest.mark.xfail(
    strict=True,
    reason="identity precision: the Krylov rule yields a single direction, so "
    "iterates stay correlated instead of being exact iid draws",
)
def test_identity_full_sweep_gives_iid_draws():
    n = 3
    model = FixedGaussianModel(identity_precision(n))
    cfg = GsgsConfig(n_dirs=n, max_iters=10**5, perturbation="factored_q", thinning=1,
                     seed=8)
    record = run_chain(model, np.ones(n), cfg)
    assert record.n_iterations == 10**5
    xs = np.array([x for _, x in record.snapshots])
    lag1 = [
        np.corrcoef(xs[:-1, j], xs[1:, j])[0, 1] for j in range(n)
    ]
    assert np.abs(lag1).max() <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="single-direction sweeps under-disperse: long-run covariance sits "
    "far below the target, not within 5 percent",
)
def test_single_direction_long_run_covariance():
    n = 2
    model, q = spd_precision(n, 9, b=np.zeros(n))
    cfg = GsgsConfig(n_dirs=1, max_iters=1, perturbation="iid_normal", seed=10)
    state = ChainState(x=np.full(n, 2.0), theta=None, t=0, rng=RngState(10))
    total = 10**6
    burn = 10**4
    acc = np.zeros(n)
    acc2 = np.zeros((n, n))
    fixed = FixedGaussianModel(model)
    for t in range(total):
        state = gsgs_step(fixed, state, cfg)
        if t >= burn:
            acc += state.x
            acc2 += np.outer(state.x, state.x)
    kept = total - burn
    mean = acc / kept
    cov = acc2 / kept - np.outer(mean, mean)
    target = np.linalg.inv(q)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="without perturbation the gradient-seeded Krylov sweep converges "
    "onto the top-curvature eigenspace; the remaining coordinates freeze",
)
def test_unperturbed_chain_keeps_exploring_all_coordinates():
    n = 4
    q_diag = np.array([0.5, 1.0, 2.0, 4.0])
    model = FixedGaussianModel(
        PrecisionModel(n, [(DenseOperator(np.diag(np.sqrt(q_diag))), 1.0)], np.zeros(n))
    )
    cfg = GsgsConfig(n_dirs=1, max_iters=1, perturbation="none", seed=11)
    state = ChainState(x=np.ones(n), theta=None, t=0, rng=RngState(11))
    xs = np.empty((2 * 10**5, n))
    for i in range(xs.shape[0]):
        state = gsgs_step(model, state, cfg)
        xs[i] = state.x
    variances = xs[2 * 10**4 :].var(axis=0)
    assert (variances > 0.5 / q_diag).all()


@pytest.mark.parametrize("step", [gsgs_step, exact_step], ids=lambda step: step.__name__)
def test_full_sweep_iterates_are_exact_draws(step):
    # With a full direction set (distinct spectrum), or with the exact
    # x-step, every iterate is an exact draw from the target, independent of
    # the previous point.
    n = 3
    model, q = spd_precision(n, 12)
    mean = np.linalg.solve(q, model.b)
    cfg = GsgsConfig(n_dirs=n, max_iters=1, perturbation="iid_normal", seed=14)
    state = ChainState(x=np.full(n, 5.0), theta=None, t=0, rng=RngState(14))
    fixed = FixedGaussianModel(model)
    xs = np.empty((3 * 10**4, n))
    for i in range(xs.shape[0]):
        state = step(fixed, state, cfg)
        xs[i] = state.x
    lag1 = [np.corrcoef(xs[:-1, j], xs[1:, j])[0, 1] for j in range(n)]
    assert np.abs(lag1).max() < 0.025
    target = np.linalg.inv(q)
    assert np.linalg.norm(np.cov(xs, rowvar=False) - target) / np.linalg.norm(target) < 0.05
    assert np.abs(xs.mean(axis=0) - mean).max() < 4 * np.sqrt(target.max() / xs.shape[0]) * 2
