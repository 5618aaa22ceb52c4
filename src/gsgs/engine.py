"""Gradient-scan Gibbs engine.

Each iteration draws theta from its conditional, seeds a conjugate direction
set with the (optionally perturbed) gradient of the Gaussian potential of
x | theta, and replaces the full high-dimensional Gaussian draw with an exact
excursion along those few directions. With a full direction set the
excursion is an exact draw from x | theta, so the chain is exact Gibbs on
p(x, theta). With a partial set the directions depend on x through the
gradient, and the kernel is not invariant in any perturbation mode: the
invariance suite measures one step from stationarity shrinking the covariance.
"""

import csv
import logging
import time
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path

import numpy as np

from .conjugate import build_conjugate_set, sample_along
from .errors import ConfigurationError, GsgsError
from .imgio import write_image_f64
from .rng import RngState, standard_normal_vector

logger = logging.getLogger(__name__)

PERTURBATIONS = ("none", "iid_normal", "factored_q")

# chain.csv's columns that describe an iteration rather than draw from the
# chain: "t" is written first, the others after the theta columns and J.
BOOKKEEPING_COLUMNS = ("t", "alpha_norm", "n_dirs", "skipped", "wall_ms")


class ThetaModel:
    """Hooks the engine needs from a concrete model.

    Subclasses supply the theta conditional and the precision of x | theta.
    ``sample_theta(x, rng, u)`` draws theta at x, given x's coordinates u
    in the x-step (`ChainState.coords`), or None at a chain's first point.
    ``perturbation_at`` draws N(0, Q_theta) through ``draw_noise`` of
    ``precision``, the ``coordinates`` of the precision the engine built for
    theta, so the draw is in the coordinates the x-step runs in; that draw is
    the ``factored_q`` perturbation.
    """

    def sample_theta(self, x, rng, u):
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

    def sample_theta(self, x, rng, u):
        return None

    def precision_at(self, theta):
        return self.precision


@dataclass
class GsgsConfig:
    """Chain settings. Every iteration perturbs the gradient unless
    ``perturbation`` is "none". A full direction set is exact without the
    perturbation; a partial set fails the invariance suite's one-step check
    in every perturbation mode.
    """

    n_dirs: int
    max_iters: int
    burn_in: int = 0
    perturbation: str = "factored_q"
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
        if self.thinning < 0:
            raise ConfigurationError(f"thinning must be >= 0, got {self.thinning}")


@dataclass
class ChainState:
    """Current chain point: (x, theta), iteration counter and the stream.

    ``coords`` are x's coordinates in the x-step's (``precision.encode(x)``),
    kept by the step that made x, so that the next step need not encode x:
    on a spectral super-resolution model that saves one FFT per iteration
    and leaves 1, the decode of the new point. None, the default, marks a
    chain's first point, which the step encodes through theta's precision;
    set it to None when replacing x by hand. Each step writes the new
    coordinates into ``coords`` in place.
    """

    x: np.ndarray
    theta: object
    t: int
    rng: RngState
    last_step: dict = field(default_factory=dict)
    coords: np.ndarray = None


class ChainRecord:
    """Per-iteration scalars plus running posterior moments of x.

    Scalars: theta trace columns, the quadratic potential
    J(x) = x^T Q x / 2 - b^T x evaluated at the pre-update point under the
    fresh theta (equal to the Gaussian potential up to a term constant in x),
    the coefficient magnitude ||alpha||, the number of directions the
    conjugate set reached (0 where not observed), whether the x update was
    skipped for a zero seed direction (0 where not observed) and the wall
    time per iteration.
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
        # Allocated by the first observe that passes them: allocated up
        # front, even untouched, n_dirs added ~0.9 MB to the peak RSS of a
        # 160,000-iteration chain sized for 4,000,000.
        self.n_dirs = None
        self.skipped = None
        self.wall_ms = np.empty(max_iters)
        self.snapshots = []
        self.n_iterations = 0
        self.n_samples = 0
        self._mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def observe(self, t, theta_values, potential, alpha_norm, wall_ms, x, n_dirs=None,
                skipped=None):
        i = t - 1
        self.theta_trace[i] = theta_values
        self.potential[i] = potential
        self.alpha_norm[i] = alpha_norm
        if n_dirs is not None:
            if self.n_dirs is None:
                self.n_dirs = np.zeros(self.max_iters, dtype=np.int64)
            self.n_dirs[i] = n_dirs
        if skipped is not None:
            if self.skipped is None:
                self.skipped = np.zeros(self.max_iters, dtype=bool)
            self.skipped[i] = skipped
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
        n_dirs = self.n_dirs if self.n_dirs is not None else np.zeros(self.n_iterations, np.int64)
        skipped = self.skipped if self.skipped is not None else np.zeros(self.n_iterations, bool)
        t_column, *step_columns = BOOKKEEPING_COLUMNS
        with open(directory / "chain.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([t_column, *self.theta_names, "J", *step_columns])
            for i in range(self.n_iterations):
                writer.writerow(
                    [
                        i + 1,
                        *(f"{v:.17g}" for v in self.theta_trace[i]),
                        f"{self.potential[i]:.17g}",
                        f"{self.alpha_norm[i]:.17g}",
                        n_dirs[i],
                        int(skipped[i]),
                        f"{self.wall_ms[i]:.6g}",
                    ]
                )
        shape = image_shape if image_shape is not None else (1, self.dim)
        for t, x in self.snapshots:
            write_image_f64(directory / f"snap_{t}.f64", x.reshape(shape))


def _draw_perturbation(model, theta, precision, state, cfg):
    """The gradient perturbation in the precision's coordinates, or None."""
    if cfg.perturbation == "none":
        return None
    if cfg.perturbation == "iid_normal":
        return precision.encode(standard_normal_vector(state.rng, precision.dim))
    return model.perturbation_at(theta, state.rng, precision=precision.coordinates)


def _gibbs_step(model, state, cfg, move):
    """One Gibbs iteration, in place: the frame both x-steps share.

    x's coordinates u (see `gsgs.conjugate`) are ``state.coords``. theta is
    drawn from x and u (None at a chain's first point, which theta's
    precision then encodes), and the gradient and J are taken at u under
    theta's precision. ``move(model, theta, precision, u, gradient, state,
    cfg)`` returns the new coordinates (None keeps x and u) and its
    ``last_step`` scalars; the new point is decoded once and checked finite,
    and its coordinates are kept in ``state.coords``.
    """
    rng = state.rng
    u = state.coords
    theta = model.sample_theta(state.x, rng, u)
    precision = model.precision_at(theta)
    if u is None:
        u = precision.encode(state.x)
    coords = precision.coordinates
    gradient = coords.gradient(u)
    potential = 0.5 * (u.dot(gradient) - u.dot(coords.b))
    u_new, scalars = move(model, theta, precision, u, gradient, state, cfg)
    if u_new is not None:
        x_new = precision.decode(u_new)
        if not np.isfinite(x_new).all():
            raise GsgsError(f"chain produced a non-finite state at iteration {state.t + 1}")
        state.x = x_new
        u = u_new
    # One array for the whole chain: keeping a new array from each iteration
    # to the next made glibc serve the desk's 0.7 MB conjugate store by a
    # fresh mmap (~160 page faults) every iteration in about half of the
    # processes.
    if state.coords is None:
        state.coords = u.copy()
    else:
        state.coords[...] = u
    state.theta = theta
    state.t += 1
    state.last_step = {"potential": potential, **scalars}
    return state


def _directional_move(model, theta, precision, u, gradient, state, cfg):
    eps = _draw_perturbation(model, theta, precision, state, cfg)
    d1 = gradient if eps is None else gradient + eps
    if not d1.any():
        logger.warning("zero seed direction at iteration %d; skipping x update", state.t + 1)
        return None, {"alpha_norm": 0.0, "n_dirs": 0, "skipped": True}
    coords = precision.coordinates
    cset = build_conjugate_set(coords, d1, min(cfg.n_dirs, precision.dim))
    u_new, alphas = sample_along(coords, cset, u, state.rng, gradient=gradient)
    return u_new, {"alpha_norm": sqrt(alphas.dot(alphas)), "n_dirs": len(cset), "skipped": False}


def _exact_move(model, theta, precision, u, gradient, state, cfg):
    return precision.coordinates.sample(state.rng), {"alpha_norm": 0.0, "n_dirs": 0,
                                                     "skipped": False}


def gsgs_step(model, state, cfg):
    """One gradient-scan iteration, in place; returns the state.

    The x-move (`_gibbs_step` makes the rest): optional gradient
    perturbation, a conjugate set seeded by the perturbed gradient, exact
    coefficient draws along it; the direction count is capped by the pixel
    count. A zero seed direction (x exactly at the conditional mean) skips
    the x update rather than failing: it has probability zero under
    continuous theta draws.
    """
    return _gibbs_step(model, state, cfg, _directional_move)


def exact_step(model, state, cfg):
    """One exact-Gibbs iteration, in place: `gsgs_step`'s frame with the
    whole image redrawn from N(m, Q^{-1}) by the precision's own
    ``coordinates.sample``. ``cfg.n_dirs`` and ``cfg.perturbation`` are
    ignored; ``alpha_norm`` and ``n_dirs`` record 0 and ``skipped`` False.
    """
    return _gibbs_step(model, state, cfg, _exact_move)


def run_chain(model, x0, cfg, step=gsgs_step):
    """Run a full chain and return its record. Deterministic given cfg.seed.

    ``step(model, state, cfg)`` advances the chain by one iteration with
    `gsgs_step`'s contract: `gsgs_step`, the default, or `exact_step`.
    """
    x0 = np.array(x0, dtype=float)
    state = ChainState(x=x0, theta=None, t=0, rng=RngState(cfg.seed))
    record = None
    for _ in range(cfg.max_iters):
        tick = time.perf_counter()
        state = step(model, state, cfg)
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
            wall_ms=wall_ms,
            x=state.x,
            **state.last_step,
        )
    return record

