"""Unsupervised super-resolution: model, conditionals, and chain wiring.

The observation model is data = decimation(blur(x)) + noise with iid Gaussian
noise of unknown precision gamma_n, and a smoothness prior of unknown
precision gamma_x built on a periodic Laplacian penalty. Both precisions get
conjugate Gamma conditionals (Jeffreys in the flat-prior limit), so the whole
posterior is explored by the gradient-scan Gibbs engine with the N(0, Q)
gradient perturbation.

When blur and penalty are circulant on the grid the decimation selects from,
the precision of x | theta is block-diagonal in Fourier space: the per-pixel
frame count has the period of the decimation factor f, so it couples only
the f^2 frequencies that alias onto one low-resolution frequency.
`build_precision` then returns a `SpectralPrecision`, and the engine's x-step
runs in its alias coordinates: encoding x and decoding the new point cost one
FFT each, a Q-apply there (`AliasPrecision`) costs none and an N(0, Q) draw
costs 2. Its pixel-space Q-apply costs 2 FFTs and its pixel-space N(0, Q)
draw 3. Any other operators get the factored `PrecisionModel`, whose
coordinates are the pixels; dense blur and decimation are multiplied into one
forward matrix.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .conjugate import PrecisionModel, densify_precision
from .diagnostics import cholesky_oracle_sample
from .engine import ChainRecord, ThetaModel, run_chain
from .errors import DegenerateScaleError, DimensionError
from .operators import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    make_circulant,
)
from .rng import RngState, gamma_draw, standard_normal_vector

logger = logging.getLogger(__name__)

LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])


@dataclass
class Hyperparams:
    """Noise and prior precisions. gamma_x may be zero (prior switched off)."""

    gamma_n: float
    gamma_x: float

    def __post_init__(self):
        if not (self.gamma_n > 0 and math.isfinite(self.gamma_n)):
            raise ValueError(f"gamma_n must be positive and finite, got {self.gamma_n}")
        if not (self.gamma_x >= 0 and math.isfinite(self.gamma_x)):
            raise ValueError(f"gamma_x must be nonnegative and finite, got {self.gamma_x}")


class SuperResModel:
    """Observation geometry, data and hyperpriors for one reconstruction.

    Parameters
    ----------
    blur : LinearOperator
        Square periodic blur on the high-resolution grid.
    decimation : LinearOperator
        Down-sampling selection; its output stacks the low-resolution frames.
    penalty : LinearOperator
        Square roughness operator (periodic Laplacian); its one-dimensional
        null space (constant images) makes the prior rank n_pixels - 1.
    data : array
        Observed low-resolution stack, length decimation.out_dim.
    hr_shape : (rows, cols)
        High-resolution grid.
    alpha_n, beta_n, alpha_x, beta_x : float
        Gamma hyperprior parameters; all zero is the flat Jeffreys limit.
    truth : 2-D array, optional
        Ground truth for synthetic runs, kept for scoring only.
    """

    def __init__(self, blur, decimation, penalty, data, hr_shape,
                 alpha_n=0.0, beta_n=0.0, alpha_x=0.0, beta_x=0.0, truth=None):
        rows, cols = int(hr_shape[0]), int(hr_shape[1])
        n = rows * cols
        if blur.in_dim != n or blur.out_dim != n:
            raise DimensionError(f"blur must be square on {n} pixels")
        if penalty.in_dim != n or penalty.out_dim != n:
            raise DimensionError(f"penalty must be square on {n} pixels")
        if decimation.in_dim != n:
            raise DimensionError(
                f"decimation input dim {decimation.in_dim} != {n} pixels"
            )
        data = np.asarray(data, dtype=float)
        if data.shape != (decimation.out_dim,):
            raise DimensionError(
                f"data has shape {data.shape}, expected ({decimation.out_dim},)"
            )
        if min(alpha_n, beta_n, alpha_x, beta_x) < 0:
            raise ValueError("hyperprior parameters must be nonnegative")
        self.blur = blur
        self.decimation = decimation
        self.penalty = penalty
        self.data = data
        self.hr_shape = (rows, cols)
        self.alpha_n, self.beta_n = float(alpha_n), float(beta_n)
        self.alpha_x, self.beta_x = float(alpha_x), float(beta_x)
        self.truth = None if truth is None else np.asarray(truth, dtype=float).copy()
        if isinstance(blur, DenseOperator) and isinstance(decimation, DenseOperator):
            # One matrix: two mat-vecs per forward and adjoint pair, not four.
            self.forward = DenseOperator(decimation.matrix @ blur.matrix)
        else:
            self.forward = ComposedOperator([decimation, blur])
        self.n_pixels = n
        self.n_data = decimation.out_dim
        # Penalty rank: periodic Laplacian annihilates exactly the constants.
        self.penalty_rank = n - 1
        # None unless the operators admit the spectral precision.
        self.spectra = GridSpectra.of(blur, decimation, penalty)
        if self.spectra is None:
            self._forward_t_data = self.forward.adjoint_apply(data)
        else:
            # forward^T data through its half-plane spectrum, which also gives
            # its alias coordinates.
            half = np.fft.rfft2(decimation.adjoint_apply(data).reshape(rows, cols))
            half *= blur.half_spectrum_conj
            self._forward_t_data = np.fft.irfft2(half, s=(rows, cols)).ravel()
            self._forward_t_data_coords = self.spectra.to_coords(half)

    def backprojection(self):
        """forward^T applied to the data; the default chain start."""
        return self._forward_t_data.copy()


@dataclass(frozen=True)
class GridSpectra:
    """What the spectral precision needs from periodic super-resolution
    operators, read off the operators themselves (no FFT, no adjoint pass),
    and the alias coordinates it runs in.

    ``blur``/``blur_conj`` are the blur's half-plane spectrum and its
    conjugate, ``penalty_conj`` of the penalty's, and ``mask`` is D^T 1, the
    frame count of every pixel, on one f x f cell (it repeats with period f).

    Alias coordinates: with decimation factor f, the mask has period f, so
    multiplying by it couples only the f^2 frequencies k + (a rows/f,
    c cols/f) that alias onto one low-resolution frequency. The coordinates
    hold the full spectrum of an image at every frequency whose
    low-resolution column lies in the half-plane [0, (cols/f)//2], grouped as
    (column alias class, row, column), read from its rfft2 half-plane by
    slices (`to_coords`). Scaled by sqrt(w / n_pixels) (w = 1 on
    self-conjugate low-resolution columns, 2 elsewhere) and viewed as real,
    they are an orthogonal change of coordinates: ``encode`` preserves inner
    products and ``decode`` inverts it. There Q x is
    gamma_n conj(H) K (H U) + gamma_x |P|^2 U, with ``coord_blur`` H and
    ``coord_penalty_power`` |P|^2 the blur and penalty spectra in the same
    layout, and ``coupling`` K the f^2 x f^2 alias-coupling matrix, built
    from the f x f DFT of the mask cell. Every array is built in model
    construction, from slices of the operators' spectra.
    """

    shape: tuple
    blur_conj: np.ndarray
    penalty_conj: np.ndarray
    mask: np.ndarray
    decimation: DecimationOperator
    coord_blur: np.ndarray
    coord_blur_conj: np.ndarray
    coord_penalty_power: np.ndarray
    coupling: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, blur, decimation, penalty):
        """Spectra of these operators, or None unless blur and penalty are
        circulant on the grid a decimation selects from."""
        if not (isinstance(blur, CirculantOperator)
                and isinstance(penalty, CirculantOperator)
                and isinstance(decimation, DecimationOperator)
                and blur.shape == penalty.shape == decimation.hr_shape):
            return None
        rows, cols = blur.shape
        f = decimation.factor
        lr_cols = cols // f
        half_cols = lr_cols // 2 + 1
        # sqrt(w / n_pixels): w = 1 on the self-conjugate columns 0 and
        # lr_cols / 2, 2 elsewhere.
        scale = np.full(half_cols, math.sqrt(2.0 / (rows * cols)))
        scale[0] = scale[-1 if lr_cols % 2 == 0 else 0] = math.sqrt(1.0 / (rows * cols))
        mask = decimation.coverage()
        dft, dft_conj = _alias_dft(f)
        coord_blur = _alias_columns(blur.kernel_spectrum, f, half_cols)
        coord_penalty = _alias_columns(penalty.kernel_spectrum, f, half_cols)
        return cls(
            shape=blur.shape,
            blur_conj=blur.half_spectrum_conj,
            penalty_conj=penalty.half_spectrum_conj,
            mask=mask,
            decimation=decimation,
            coord_blur=coord_blur,
            coord_blur_conj=np.conj(coord_blur),
            coord_penalty_power=coord_penalty.real**2 + coord_penalty.imag**2,
            coupling=(dft * mask.T.ravel()) @ dft_conj,
            scale=scale,
        )

    def to_coords(self, half):
        """Alias coordinates, as a real vector, of the rfft2 half-plane ``half``.

        Column class s holds the columns s * lr_cols + j, 0 <= j < half_cols.
        For 2 s < f they lie in the half-plane. Otherwise the spectrum there
        is the conjugate of the half-plane at the negated frequency: the
        mirrored columns (f - s) * lr_cols - j with the rows negated (row 0
        stays, row r comes from row rows - r).
        """
        rows, cols = self.shape
        f = self.decimation.factor
        lr_cols, half_cols = cols // f, self.scale.size
        out = np.empty((f, rows, half_cols), dtype=complex)
        for s in range(f):
            if 2 * s < f:
                out[s] = half[:, s * lr_cols : s * lr_cols + half_cols]
            else:
                start = (f - s) * lr_cols
                mirrored = half[:, start : start - half_cols : -1]
                np.conjugate(mirrored[:1], out=out[s, :1])
                np.conjugate(mirrored[:0:-1], out=out[s, 1:])
        out *= self.scale
        return out.reshape(-1).view(float)

    def encode(self, x):
        """Alias coordinates of the image x: one FFT."""
        return self.to_coords(np.fft.rfft2(x.reshape(self.shape)))

    def decode(self, u):
        """The image with alias coordinates u, through its rfft2 half-plane
        (`to_coords` backwards): one FFT."""
        rows, cols = self.shape
        f = self.decimation.factor
        lr_cols, half_cols = cols // f, self.scale.size
        classes = u.view(complex).reshape(f, rows, half_cols) / self.scale
        half = np.empty((rows, cols // 2 + 1), dtype=complex)
        for s in range(f):
            if 2 * s < f:
                half[:, s * lr_cols : s * lr_cols + half_cols] = classes[s]
            else:
                start = (f - s) * lr_cols
                mirrored = half[:, start : start - half_cols : -1]
                np.conjugate(classes[s, :1], out=mirrored[:1])
                np.conjugate(classes[s, 1:], out=mirrored[:0:-1])
        return np.fft.irfft2(half, s=self.shape).ravel()


@functools.lru_cache(maxsize=None)
def _alias_dft(f):
    """V / f and its conjugate transpose, read-only, where
    V[a, p] = exp(-2 pi i (a_r p_r + a_c p_c) / f) over alias indices
    a = a_c f + a_r and mask cell positions p = p_c f + p_r.

    The mask multiplies the spectrum at k by sum_a c_a times the spectrum at
    k - a (rows/f, cols/f), with c = (f x f DFT of the mask cell) / f^2, so
    the alias-coupling matrix K[a, a'] = c_{a - a'} is
    (V / f) diag(mask cell) (V / f)^H.
    """
    phases = np.exp(-2j * np.pi * np.outer(np.arange(f), np.arange(f)) / f)
    dft = np.kron(phases, phases) / f
    dft_conj = dft.conj().T
    dft.flags.writeable = dft_conj.flags.writeable = False
    return dft, dft_conj


def _alias_columns(full, f, half_cols):
    """The full spectrum ``full`` at the alias-coordinate frequencies, as an
    (f^2, rows/f * half_cols) array: one strided copy."""
    rows, cols = full.shape
    classes = full.reshape(rows, f, cols // f)[:, :, :half_cols].transpose(1, 0, 2)
    return np.ascontiguousarray(classes).reshape(f * f, -1)


class SpectralPrecision:
    """Q = gamma_n B^T diag(mask) B + gamma_x P^T P, for periodic B and P.

    The x-step runs in the alias coordinates of `GridSpectra`: ``encode`` and
    ``decode`` change to and from them (one FFT each), and ``coordinates`` is
    this precision there, an `AliasPrecision` whose Q-apply takes no FFT.
    ``apply`` is the pixel-space product decode(Q encode(x)), 2 FFTs, and
    ``draw_noise`` a pixel-space N(0, Q) draw in 3. ``b`` = Q m is passed in,
    as for `PrecisionModel`, whose interface this shares, together with b's
    coordinates ``b_coords``.
    """

    def __init__(self, spectra, gamma_n, gamma_x, b, b_coords):
        self.spectra = spectra
        self.dim = spectra.shape[0] * spectra.shape[1]
        self.b = b
        self.coordinates = AliasPrecision(spectra, gamma_n, gamma_x, b_coords)
        self.prior_spectrum = self.coordinates.prior_spectrum
        self.encode = spectra.encode
        self.decode = spectra.decode

    def apply(self, x):
        """Q x."""
        if x.shape != (self.dim,):
            raise DimensionError(f"expected input of shape ({self.dim},), got {x.shape}")
        return self.decode(self.coordinates.apply(self.encode(x)))

    def gradient(self, x):
        """Gradient of the quadratic potential: Q x - b = Q (x - m)."""
        return self.apply(x) - self.b

    def draw_noise(self, rng):
        """One draw from N(0, Q), 3 FFTs: `AliasPrecision.draw_noise`, decoded."""
        return self.decode(self.coordinates.draw_noise(rng))


class AliasPrecision:
    """The spectral precision in alias coordinates (see `GridSpectra`).

    Q U = gamma_n conj(H) K (H U) + gamma_x |P|^2 U: elementwise products and
    one f^2 x f^2 matrix product, no FFT. A zero gamma_x drops the prior
    term. Same interface as `PrecisionModel`, on vectors of ``dim`` =
    2 f^2 (rows/f) ((cols/f)//2 + 1) reals, more than the pixel count; the
    image space is the subspace ``encode`` maps onto, which Q preserves.
    """

    def __init__(self, spectra, gamma_n, gamma_x, b):
        self.spectra = spectra
        self.dim = b.size
        self.b = b
        self.gamma_n = float(gamma_n)
        self.gamma_x = float(gamma_x)
        self.coupling = self.gamma_n * spectra.coupling
        self.prior_spectrum = (
            self.gamma_x * spectra.coord_penalty_power if self.gamma_x > 0 else None
        )

    def apply(self, u):
        """Q u."""
        if u.shape != (self.dim,):
            raise DimensionError(f"expected input of shape ({self.dim},), got {u.shape}")
        spectra = self.spectra
        classes = u.view(complex).reshape(spectra.coord_blur.shape)
        out = self.coupling @ (spectra.coord_blur * classes)
        out *= spectra.coord_blur_conj
        if self.prior_spectrum is not None:
            out += self.prior_spectrum * classes
        return out.reshape(-1).view(float)

    def gradient(self, u):
        """Gradient of the quadratic potential: Q u - b."""
        return self.apply(u) - self.b

    def solve(self, r):
        """Q^{-1} r, exactly: Q is block-diagonal here, one f^2 x f^2 block
        per low-resolution frequency. Column a of every block is ``apply`` at
        the unit vector of alias a, and one batched solve inverts them all."""
        n_alias, n_freq = self.spectra.coord_blur.shape
        blocks = np.empty((n_freq, n_alias, n_alias), dtype=complex)
        unit = np.zeros((n_alias, n_freq), dtype=complex)
        for a in range(n_alias):
            unit[a] = 1.0
            column = self.apply(unit.reshape(-1).view(float)).view(complex)
            blocks[:, :, a] = column.reshape(n_alias, n_freq).T
            unit[a] = 0.0
        rhs = r.view(complex).reshape(n_alias, n_freq).T
        return np.linalg.solve(blocks, rhs[..., None])[..., 0].T.reshape(-1).view(float)

    def draw_noise(self, rng):
        """One draw from N(0, Q) in alias coordinates, 2 FFTs.

        The coordinates of
        eps = irfft2(sqrt(gamma_n) conj(B) rfft2(D^T z_data)
                     + sqrt(gamma_x) conj(P) rfft2(z_pix)),
        read off the half-plane sum, with standard normal z's of the data and
        pixel dimensions, drawn in that order: eps has covariance
        gamma_n B^T D^T D B + gamma_x P^T P = Q. A zero gamma_x draws no z_pix.
        """
        spectra = self.spectra
        shape = spectra.shape
        decimation = spectra.decimation
        z_data = standard_normal_vector(rng, decimation.out_dim)
        out = np.fft.rfft2(decimation.adjoint_apply(z_data).reshape(shape))
        out *= math.sqrt(self.gamma_n) * spectra.blur_conj
        if self.gamma_x > 0:
            z_pix = standard_normal_vector(rng, shape[0] * shape[1]).reshape(shape)
            out += (math.sqrt(self.gamma_x) * spectra.penalty_conj) * np.fft.rfft2(z_pix)
        return spectra.to_coords(out)


def phantom(shape):
    """Deterministic piecewise-smooth scene: two Gaussian bumps on a ramp.

    Bundled as code (not a binary asset) so synthetic runs are reproducible
    from source alone.
    """
    rows, cols = int(shape[0]), int(shape[1])
    r = (np.arange(rows) + 0.5) / rows
    c = (np.arange(cols) + 0.5) / cols
    rr, cc = np.meshgrid(r, c, indexing="ij")
    img = 6.0 * cc + 3.0 * rr
    img += 14.0 * np.exp(-((rr - 0.35) ** 2 + (cc - 0.30) ** 2) / (2 * 0.12**2))
    img += 9.0 * np.exp(-((rr - 0.68) ** 2 + (cc - 0.72) ** 2) / (2 * 0.07**2))
    return img


def geometry_operators(shape, factor, offsets, blur_width):
    """The operators of a super-resolution geometry: (blur, decimation, penalty).

    The blur is a uniform square window of ``blur_width`` pixels (centered
    anchor) and the penalty the periodic Laplacian; on single-row grids, which
    are 1-D deconvolution problems, they are the 1-D window and the
    second-difference stencil. The decimation keeps one ``factor``-strided
    frame per offset.
    """
    blur_width = int(blur_width)
    if shape[0] == 1:
        blur = make_circulant(shape, np.full((1, blur_width), 1.0 / blur_width))
        penalty = make_circulant(shape, [[-1.0, 2.0, -1.0]])
    else:
        window = np.full((blur_width, blur_width), 1.0 / blur_width**2)
        blur = make_circulant(shape, window)
        penalty = make_circulant(shape, LAPLACIAN_STENCIL)
    return blur, DecimationOperator(shape, factor, offsets), penalty


def simulate_data(truth, factor, offsets, blur_width, gamma_n_true, rng,
                  alpha_n=0.0, beta_n=0.0, alpha_x=0.0, beta_x=0.0):
    """Generate observations from a known scene and return the built model.

    The operators are those of `geometry_operators` on the truth's grid, and
    the noise is iid Gaussian with precision ``gamma_n_true``. Passing
    ``math.inf`` switches the noise off. The truth is stored on the model for
    scoring.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 2:
        raise DimensionError(f"truth must be a 2-D image, got ndim={truth.ndim}")
    shape = truth.shape
    blur, decimation, penalty = geometry_operators(shape, factor, offsets, blur_width)
    clean = decimation.apply(blur.apply(truth.ravel()))
    if math.isinf(gamma_n_true):
        data = clean
    else:
        if not gamma_n_true > 0:
            raise ValueError(f"gamma_n_true must be positive, got {gamma_n_true}")
        noise = standard_normal_vector(rng, clean.shape[0]) / math.sqrt(gamma_n_true)
        data = clean + noise
    return SuperResModel(
        blur=blur, decimation=decimation, penalty=penalty, data=data,
        hr_shape=shape, alpha_n=alpha_n, beta_n=beta_n, alpha_x=alpha_x,
        beta_x=beta_x, truth=truth,
    )


def build_precision(model, hp):
    """Posterior precision of x | data, hyperparams.

    Q = gamma_n * forward^T forward + gamma_x * penalty^T penalty, with
    b = Q m = gamma_n * forward^T data. A zero gamma_x drops the penalty
    term entirely. The result is a `SpectralPrecision` when the model has
    ``spectra`` (circulant blur and penalty), else a factored
    `PrecisionModel`.
    """
    b = hp.gamma_n * model._forward_t_data
    if model.spectra is not None:
        return SpectralPrecision(model.spectra, hp.gamma_n, hp.gamma_x, b,
                                 hp.gamma_n * model._forward_t_data_coords)
    factors = [(model.forward, hp.gamma_n)]
    if hp.gamma_x > 0:
        factors.append((model.penalty, hp.gamma_x))
    return PrecisionModel(model.n_pixels, factors, b)


def sample_hyperparams(model, x, rng, literal_shapes=False):
    """Draw (gamma_n, gamma_x) from their Gamma conditionals at the current x.

    Default shapes follow from counting degrees of freedom: the likelihood
    holds n_data residuals, and the rank of the Laplacian penalty is
    n_pixels - 1, so

        gamma_n ~ Gamma(alpha_n + n_data / 2,    1 / (beta_n + |data - forward x|^2 / 2))
        gamma_x ~ Gamma(alpha_x + penalty_rank/2, 1 / (beta_x + |penalty x|^2 / 2))

    ``literal_shapes=True`` swaps the shape exponents to the alternate
    convention (noise: n_pixels / 2, prior: (n_data - 1) / 2) so the two
    variants can be compared head to head.
    """
    x = np.asarray(x, dtype=float)
    residual = model.data - model.forward.apply(x)
    noise_ss = float(residual @ residual)
    rough = model.penalty.apply(x)
    rough_ss = float(rough @ rough)
    if not (np.isfinite(noise_ss) and np.isfinite(rough_ss)):
        raise ValueError("non-finite residual norms; the chain state is invalid")
    if literal_shapes:
        shape_n = model.alpha_n + model.n_pixels / 2.0
        shape_x = model.alpha_x + (model.n_data - 1) / 2.0
    else:
        shape_n = model.alpha_n + model.n_data / 2.0
        shape_x = model.alpha_x + model.penalty_rank / 2.0
    denom_n = model.beta_n + noise_ss / 2.0
    denom_x = model.beta_x + rough_ss / 2.0
    if denom_n <= 0:
        raise DegenerateScaleError("zero data residual under a flat noise hyperprior")
    if denom_x <= 0:
        raise DegenerateScaleError("zero roughness under a flat prior hyperprior")
    gamma_n = gamma_draw(rng, shape_n, 1.0 / denom_n)
    gamma_x = gamma_draw(rng, shape_x, 1.0 / denom_x)
    return Hyperparams(gamma_n=gamma_n, gamma_x=gamma_x)


class SuperResThetaModel(ThetaModel):
    """Engine hooks for the super-resolution posterior."""

    theta_fields = ("gamma_n", "gamma_x")

    def __init__(self, model, literal_shapes=False):
        self.model = model
        self.literal_shapes = bool(literal_shapes)

    def sample_theta(self, x, rng):
        return sample_hyperparams(self.model, x, rng, literal_shapes=self.literal_shapes)

    def precision_at(self, theta):
        return build_precision(self.model, theta)

    def theta_scalars(self, theta):
        return {"gamma_n": theta.gamma_n, "gamma_x": theta.gamma_x}


@dataclass
class SuperResResult:
    """Posterior mean and standard-deviation images plus the chain record."""

    posterior_mean: np.ndarray
    posterior_std: np.ndarray
    record: ChainRecord

    @property
    def gamma_n_mean(self):
        return self.record.theta_mean("gamma_n")

    @property
    def gamma_n_std(self):
        return self.record.theta_std("gamma_n")

    @property
    def gamma_x_mean(self):
        return self.record.theta_mean("gamma_x")

    @property
    def gamma_x_std(self):
        return self.record.theta_std("gamma_x")


def run_superres(model, cfg, literal_shapes=False, x0=None):
    """Run the Gibbs chain on a super-resolution model.

    Returns the posterior mean and pixelwise standard deviation computed from
    post-burn-in iterates, plus the full chain record. The chain starts at
    the backprojection of the data unless ``x0`` is given.
    """
    if cfg.perturbation == "none":
        logger.warning(
            "running without gradient perturbation: chain convergence is not "
            "guaranteed and the posterior spread is typically underestimated"
        )
    theta_model = SuperResThetaModel(model, literal_shapes=literal_shapes)
    start = model.backprojection() if x0 is None else np.asarray(x0, dtype=float)
    record = run_chain(theta_model, start, cfg)
    shape = model.hr_shape
    return SuperResResult(
        posterior_mean=record.mean_x.reshape(shape),
        posterior_std=record.std_x.reshape(shape),
        record=record,
    )


@dataclass
class ReferenceResult:
    """Hyperparameter chains from the exact-Gibbs reference sampler."""

    gamma_n_chain: np.ndarray
    gamma_x_chain: np.ndarray
    burn_in: int

    def _post(self, chain):
        return chain[self.burn_in :]

    @property
    def gamma_n_mean(self):
        return float(self._post(self.gamma_n_chain).mean())

    @property
    def gamma_x_mean(self):
        return float(self._post(self.gamma_x_chain).mean())

    @property
    def gamma_n_std(self):
        return float(self._post(self.gamma_n_chain).std())

    @property
    def gamma_x_std(self):
        return float(self._post(self.gamma_x_chain).std())


def exact_gibbs_reference(model, n_iters, burn_in, seed):
    """Reference sampler that redraws the full image exactly each iteration.

    Uses the same Gamma conditionals as the main chain but replaces the
    directional excursion with an exact draw from N(m, Q^{-1}), made the way
    the model's precision allows:

    - spectral models (``model.spectra`` set): x = Q^{-1} (b + eps) with
      eps ~ N(0, Q), in alias coordinates, where Q is block-diagonal and the
      solve is exact (`AliasPrecision.solve`);
    - any other model: refactor the dense Q by Cholesky each iteration.
    """
    if not 0 <= burn_in < n_iters:
        raise ValueError(f"burn_in must satisfy 0 <= burn_in < n_iters, got "
                         f"{burn_in} / {n_iters}")
    n = model.n_pixels
    if model.spectra is None:
        gram_fwd = densify_precision(PrecisionModel(n, [(model.forward, 1.0)], np.zeros(n)))
        gram_pen = densify_precision(PrecisionModel(n, [(model.penalty, 1.0)], np.zeros(n)))
        fwd_t_data = model._forward_t_data

    rng = RngState(seed)
    x = model.backprojection()
    gamma_n_chain = np.empty(n_iters)
    gamma_x_chain = np.empty(n_iters)
    for t in range(n_iters):
        hp = sample_hyperparams(model, x, rng)
        gamma_n_chain[t] = hp.gamma_n
        gamma_x_chain[t] = hp.gamma_x
        if model.spectra is None:
            q_dense = hp.gamma_n * gram_fwd + hp.gamma_x * gram_pen
            x = cholesky_oracle_sample(q_dense, hp.gamma_n * fwd_t_data, rng)
        else:
            q = build_precision(model, hp).coordinates
            x = model.spectra.decode(q.solve(q.b + q.draw_noise(rng)))
    return ReferenceResult(
        gamma_n_chain=gamma_n_chain,
        gamma_x_chain=gamma_x_chain,
        burn_in=burn_in,
    )
