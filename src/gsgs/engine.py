"""Gradient-scan Gibbs engine.

Each iteration draws theta from its conditional, seeds a conjugate direction
set with the (optionally perturbed) gradient of the Gaussian potential of
x | theta, and replaces the full high-dimensional Gaussian draw with an exact
excursion along those few directions. The chain targets the joint p(x, theta)
whatever the direction count; the perturbation keeps it irreducible.
"""

import csv
import logging
import time
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path

import numpy as np

from .conjugate import build_conjugate_set, densify_precision, sample_along
from .errors import ConfigurationError, GsgsError, SizeCapError
from .imgio import write_image_f64
from .rng import RngState, standard_normal_vector

logger = logging.getLogger(__name__)

PERTURBATIONS = ("none", "iid_normal", "factored_q")

KRYLOV_CAP = 512


class ThetaModel:
    """Hooks the engine needs from a concrete model.

    Subclasses supply the theta conditional and the precision of x | theta.
    ``perturbation_at`` draws N(0, Q_theta) through ``draw_noise`` of
    ``precision``, the ``coordinates`` of the precision the engine built for
    theta, so the draw is in the coordinates the x-step runs in; that draw is
    what the guaranteed-convergence mode expects.
    """

    def sample_theta(self, x, rng):
        raise NotImplementedError

    def precision_at(self, theta):
        raise NotImplementedError

    def perturbation_at(self, theta, rng, precision):
        return precision.draw_noise(rng)

    def theta_scalars(self, theta):
        """Scalar trace columns for the chain record. Empty by default."""
        return {}


class FixedGaussianModel(ThetaModel):
    """Degenerate theta model: a single fixed Gaussian target.

    Useful for validating the x-step in isolation (the theta draw is a no-op).
    """

    def __init__(self, precision):
        self.precision = precision

    def sample_theta(self, x, rng):
        return None

    def precision_at(self, theta):
        return self.precision


@dataclass
class GsgsConfig:
    """Chain settings.

    ``perturbation_period`` perturbs the gradient on every k-th iteration
    (starting with the first) and leaves it unperturbed in between; invariance
    does not need the perturbation at all, only irreducibility does, so an
    infrequent schedule is sound.
    """

    n_dirs: int
    max_iters: int
    burn_in: int = 0
    perturbation: str = "factored_q"
    perturbation_period: int = 1
    thinning: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_dirs < 1:
            raise ConfigurationError(f"n_dirs must be >= 1, got {self.n_dirs}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.burn_in < self.max_iters:
            raise ConfigurationError(
                f"burn_in must satisfy 0 <= burn_in < max_iters, got "
                f"{self.burn_in} / {self.max_iters}"
            )
        if self.perturbation not in PERTURBATIONS:
            raise ConfigurationError(
                f"perturbation must be one of {PERTURBATIONS}, got {self.perturbation!r}"
            )
        if self.perturbation_period < 1:
            raise ConfigurationError(
                f"perturbation_period must be >= 1, got {self.perturbation_period}"
            )
        if self.thinning < 0:
            raise ConfigurationError(f"thinning must be >= 0, got {self.thinning}")


@dataclass
class ChainState:
    """Current chain point: (x, theta), iteration counter and the stream."""

    x: np.ndarray
    theta: object
    t: int
    rng: RngState
    last_step: dict = field(default_factory=dict)


class ChainRecord:
    """Per-iteration scalars plus running posterior moments of x.

    Scalars: theta trace columns, the quadratic potential
    J(x) = x^T Q x / 2 - b^T x evaluated at the pre-update point under the
    fresh theta (equal to the Gaussian potential up to a term constant in x),
    the coefficient magnitude ||alpha|| and the wall time per iteration.
    Running mean / second moment accumulate over every post-burn-in iterate;
    snapshots additionally keep thinned copies of x.
    """

    def __init__(self, dim, max_iters, burn_in, thinning, seed, theta_names=()):
        self.dim = dim
        self.max_iters = max_iters
        self.burn_in = burn_in
        self.thinning = thinning
        self.seed = seed
        self.theta_names = tuple(theta_names)
        self.theta_trace = np.empty((max_iters, len(self.theta_names)))
        self.potential = np.empty(max_iters)
        self.alpha_norm = np.empty(max_iters)
        self.wall_ms = np.empty(max_iters)
        self.snapshots = []
        self.n_iterations = 0
        self.n_samples = 0
        self._mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def observe(self, t, theta_values, potential, alpha_norm, wall_ms, x):
        i = t - 1
        self.theta_trace[i] = theta_values
        self.potential[i] = potential
        self.alpha_norm[i] = alpha_norm
        self.wall_ms[i] = wall_ms
        self.n_iterations = t
        if t > self.burn_in:
            self.n_samples += 1
            delta = x - self._mean
            self._mean += delta / self.n_samples
            self._m2 += delta * (x - self._mean)
            if self.thinning and (t - self.burn_in) % self.thinning == 0:
                self.snapshots.append((t, x.copy()))

    @property
    def mean_x(self):
        """Running mean of x over post-burn-in iterations."""
        return self._mean.copy()

    @property
    def var_x(self):
        """Running per-coordinate variance of x (population normalization)."""
        if self.n_samples == 0:
            return np.zeros(self.dim)
        return self._m2 / self.n_samples

    @property
    def std_x(self):
        return np.sqrt(np.maximum(self.var_x, 0.0))

    def theta_column(self, name):
        return self.theta_trace[: self.n_iterations, self.theta_names.index(name)]

    def theta_mean(self, name):
        """Post-burn-in mean of one theta trace column."""
        return float(self.theta_column(name)[self.burn_in :].mean())

    def theta_std(self, name):
        return float(self.theta_column(name)[self.burn_in :].std())

    def mean_wall_ms(self, skip=1):
        """Average per-iteration wall time, skipping warm-up iterations."""
        return float(self.wall_ms[min(skip, self.n_iterations - 1) : self.n_iterations].mean())

    def median_wall_ms(self, skip=1):
        """Median per-iteration wall time; robust to warm-up and GC spikes."""
        return float(np.median(self.wall_ms[min(skip, self.n_iterations - 1) : self.n_iterations]))

    def save(self, directory, image_shape=None):
        """Write chain.csv plus one snap_<t>.f64 file per stored snapshot."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "chain.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *self.theta_names, "J", "wall_ms"])
            for i in range(self.n_iterations):
                writer.writerow(
                    [
                        i + 1,
                        *(f"{v:.17g}" for v in self.theta_trace[i]),
                        f"{self.potential[i]:.17g}",
                        f"{self.wall_ms[i]:.6g}",
                    ]
                )
        shape = image_shape if image_shape is not None else (1, self.dim)
        for t, x in self.snapshots:
            write_image_f64(directory / f"snap_{t}.f64", x.reshape(shape))


def _draw_perturbation(model, theta, precision, state, cfg):
    """The gradient perturbation in the precision's coordinates, or None."""
    if cfg.perturbation == "none" or state.t % cfg.perturbation_period != 0:
        return None
    if cfg.perturbation == "iid_normal":
        return precision.encode(standard_normal_vector(state.rng, precision.dim))
    return model.perturbation_at(theta, state.rng, precision=precision.coordinates)


def gsgs_step(model, state, cfg):
    """Advance the chain by one iteration, in place, and return it.

    Order of operations: theta draw, gradient at the current x, optional
    gradient perturbation, conjugate set seeded by the perturbed gradient,
    exact coefficient draws, x update. Everything between the theta draw and
    the x update runs in the precision's own coordinates (see
    `gsgs.conjugate`): x is encoded once and the new point decoded once, and
    the direction count is capped by the pixel count. A zero seed direction
    (gradient and perturbation both zero, i.e. x sits exactly at the
    conditional mean) skips the x update for this iteration rather than
    failing: it has probability zero under continuous theta draws.
    """
    rng = state.rng
    theta = model.sample_theta(state.x, rng)
    precision = model.precision_at(theta)
    coords = precision.coordinates
    u = precision.encode(state.x)
    gradient = coords.gradient(u)
    eps = _draw_perturbation(model, theta, precision, state, cfg)
    d1 = gradient if eps is None else gradient + eps

    potential = 0.5 * (u @ gradient - u @ coords.b)

    if not d1.any():
        logger.warning("zero seed direction at iteration %d; skipping x update", state.t + 1)
        state.theta = theta
        state.t += 1
        state.last_step = {
            "potential": potential,
            "alpha_norm": 0.0,
            "n_dirs": 0,
            "skipped": True,
        }
        return state

    cset = build_conjugate_set(coords, d1, min(cfg.n_dirs, precision.dim))
    u_new, alphas = sample_along(coords, cset, u, rng, gradient=gradient)
    x_new = precision.decode(u_new)
    if not np.isfinite(x_new).all():
        raise GsgsError(f"chain produced a non-finite state at iteration {state.t + 1}")

    state.x = x_new
    state.theta = theta
    state.t += 1
    state.last_step = {
        "potential": potential,
        "alpha_norm": sqrt(alphas @ alphas),
        "n_dirs": len(cset),
        "skipped": False,
    }
    return state


def run_chain(model, x0, cfg):
    """Run a full chain and return its record. Deterministic given cfg.seed."""
    x0 = np.array(x0, dtype=float)
    state = ChainState(x=x0, theta=None, t=0, rng=RngState(cfg.seed))
    record = None
    for _ in range(cfg.max_iters):
        tick = time.perf_counter()
        state = gsgs_step(model, state, cfg)
        wall_ms = (time.perf_counter() - tick) * 1e3
        scalars = model.theta_scalars(state.theta)
        if record is None:
            record = ChainRecord(
                dim=state.x.shape[0],
                max_iters=cfg.max_iters,
                burn_in=cfg.burn_in,
                thinning=cfg.thinning,
                seed=cfg.seed,
                theta_names=tuple(scalars),
            )
        record.observe(
            t=state.t,
            theta_values=[scalars[k] for k in record.theta_names],
            potential=state.last_step["potential"],
            alpha_norm=state.last_step["alpha_norm"],
            wall_ms=wall_ms,
            x=state.x,
        )
    return record


def krylov_rank_diagnostic(precisions, xs, bs=None, cap=KRYLOV_CAP, rel_tol=1e-10):
    """Numerical rank of the union of Krylov spaces along a trajectory.

    For every supplied precision Q and point x, the vectors Q^k x for
    k = 0..dim are collected (normalized at each power); when ``bs`` is given,
    the implicit means are recovered by a dense solve of Q m = b and their
    Krylov vectors are added too. A rank equal to the dimension certifies that
    an unperturbed chain visiting these (Q, x) pairs can reach the whole
    space; a deficient rank flags that the certificate does not hold for this
    trajectory.
    """
    precisions = list(precisions)
    xs = [np.asarray(x, dtype=float) for x in xs]
    if len(precisions) != len(xs):
        raise ValueError("need one x per precision")
    if bs is not None:
        bs = [np.asarray(b, dtype=float) for b in bs]
        if len(bs) != len(precisions):
            raise ValueError("need one b per precision")
    dims = {q.dim for q in precisions}
    if len(dims) != 1:
        raise ValueError(f"all precisions must share one dimension, got {sorted(dims)}")
    n = dims.pop()
    if n > cap:
        raise SizeCapError(f"dimension {n} above the dense-path cap {cap}")

    columns = []

    def extend(q, v):
        v = v.astype(float, copy=True)
        for _ in range(n + 1):
            norm = np.linalg.norm(v)
            if norm == 0.0 or not np.isfinite(norm):
                return
            v = v / norm
            columns.append(v)
            v = q.apply(v)

    for i, q in enumerate(precisions):
        extend(q, xs[i])
        if bs is not None and bs[i].any():
            mean = np.linalg.solve(densify_precision(q), bs[i])
            extend(q, mean)

    if not columns:
        return 0
    singular = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
    return int((singular > rel_tol * singular[0]).sum())
