"""Unsupervised super-resolution: model, conditionals, and chain wiring.

The observation model is data = decimation(blur(x)) + noise with iid Gaussian
noise of unknown precision gamma_n, and a smoothness prior of unknown
precision gamma_x built on a periodic Laplacian penalty. Both precisions get
conjugate Gamma conditionals (Jeffreys in the flat-prior limit), so the whole
posterior is explored by the gradient-scan Gibbs engine with the N(0, Q)
gradient perturbation.

Q = gamma_n F^T F + gamma_x P^T P is built from the model's two Gram
operators, forward F and penalty P, and the theta draw reads the same two
quadratic forms, |data - F x|^2 and |P x|^2.

When blur and penalty are circulant on the grid the decimation selects from,
the precision of x | theta is block-diagonal in Fourier space: the per-pixel
frame count has the period of the decimation factor f, so it couples only
the f^2 frequencies that alias onto one low-resolution frequency.
`build_precision` then returns a `SpectralPrecision`, and the engine's x-step
runs in its alias coordinates: encoding x and decoding the new point cost one
FFT each, while a Q-apply there (`AliasPrecision`) and an N(0, Q) draw, made
in the coordinates themselves, cost none. The theta draw reads both norms
off the coordinates (`SuperResModel.theta_norms`), and the engine keeps the
chain's coordinates between iterations, so a chain iteration takes 1 FFT,
the decode of its new point; a pixel-space Q-apply takes 2. When forward and
penalty are matrices (dense blur and decimation are multiplied into one
forward matrix), the model keeps F^T F and P^T P and `GramPrecision` applies
Q as one matrix. Any other operators get the factored `PrecisionModel`; both
of these run in the pixels.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .conjugate import PrecisionModel
from .diagnostics import cholesky_oracle_sample
from .engine import ChainRecord, GsgsConfig, ThetaModel, exact_step, gsgs_step, run_chain
from .errors import ConfigurationError, DegenerateScaleError, DimensionError
from .operators import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    make_circulant,
)
from .rng import gamma_draw, standard_normal_vector

logger = logging.getLogger(__name__)

LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
# Below this fraction of the sum of its terms' magnitudes, the residual norm
# expanded in alias coordinates has cancelled too far, and it is taken in
# pixels instead.
RESIDUAL_CANCEL_TOL = 1e-6


@dataclass
class Hyperparams:
    """Noise and prior precisions, both positive and finite."""

    gamma_n: float
    gamma_x: float

    def __post_init__(self):
        if not (self.gamma_n > 0 and math.isfinite(self.gamma_n)):
            raise ValueError(f"gamma_n must be positive and finite, got {self.gamma_n}")
        if not (self.gamma_x > 0 and math.isfinite(self.gamma_x)):
            raise ValueError(f"gamma_x must be positive and finite, got {self.gamma_x}")


def check_hyperpriors(**params):
    """Raise a `ConfigurationError` naming the first Gamma hyperprior
    parameter (alpha_n, beta_n, alpha_x or beta_x) that is not finite and
    nonnegative."""
    for key, value in params.items():
        if not (value >= 0 and math.isfinite(value)):
            raise ConfigurationError(f"{key} must be finite and >= 0, got {value}")


def check_noise_precision(gamma_n_true):
    """Raise a `ConfigurationError` unless the simulated noise precision is
    positive; ``math.inf`` (noise-free) passes."""
    if not gamma_n_true > 0:
        raise ConfigurationError(f"gamma_n_true must be > 0 or inf, got {gamma_n_true}")


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
        Gamma hyperprior parameters, finite and nonnegative; all zero is the
        flat Jeffreys limit.
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
        check_hyperpriors(alpha_n=alpha_n, beta_n=beta_n, alpha_x=alpha_x, beta_x=beta_x)
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
        # F^T F and P^T P when both are matrices: Q is then one matrix too.
        self.grams = None
        if isinstance(self.forward, DenseOperator) and isinstance(penalty, DenseOperator):
            self.grams = tuple(m.T @ m for m in (self.forward.matrix, penalty.matrix))
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
            self._data_ss = float(data @ data)

    def backprojection(self):
        """forward^T applied to the data; the default chain start."""
        return self._forward_t_data.copy()

    def pixel_norms(self, x):
        """(|data - forward x|^2, |penalty x|^2), taken on the image x."""
        residual = self.data - self.forward.apply(x)
        rough = self.penalty.apply(x)
        return float(residual.dot(residual)), float(rough.dot(rough))

    def theta_norms(self, u, x):
        """`pixel_norms` of the image x, with x-step coordinates u or None.

        With ``spectra`` both are quadratic forms in u (``spectra.encode(x)``
        where None), read off with no FFT: |penalty x|^2 = sum |P|^2 |U|^2
        and |data - forward x|^2 =
        |data|^2 - 2 u.(forward^T data) + sum (H U)^H K (H U). The expanded
        residual cancels as forward x approaches the data; once it falls
        below ``RESIDUAL_CANCEL_TOL`` of the sum of its terms' magnitudes,
        both norms are taken on x in pixels instead.
        """
        spectra = self.spectra
        if spectra is None:
            return self.pixel_norms(x)
        if u is None:
            u = spectra.encode(x)
        classes = u.view(complex).reshape(spectra.coord_blur.shape)
        rough_ss = float(np.vdot(spectra.coord_penalty_power,
                                 classes.real**2 + classes.imag**2))
        blurred = spectra.coord_blur * classes
        fit_ss = float(np.vdot(blurred, spectra.coupling @ blurred).real)
        cross = 2.0 * float(u.dot(self._forward_t_data_coords))
        noise_ss = self._data_ss - cross + fit_ss
        if noise_ss >= RESIDUAL_CANCEL_TOL * (self._data_ss + abs(cross) + fit_ss):
            return noise_ss, rough_ss
        return self.pixel_norms(x)


@dataclass(frozen=True)
class GridSpectra:
    """What the spectral precision needs from periodic super-resolution
    operators, read off the operators themselves (no FFT, no adjoint pass),
    and the alias coordinates it runs in.

    Alias coordinates: with decimation factor f, the mask D^T 1 (the frame
    count of every pixel, read from ``decimation.coverage()`` on one f x f
    cell) has period f, so multiplying by it couples only the f^2
    frequencies k + (a rows/f, c cols/f) that alias onto one low-resolution
    frequency. The coordinates hold the full spectrum of an image at every
    frequency whose low-resolution column lies in the half-plane
    [0, (cols/f)//2], grouped as (column alias class, row, column), read
    from its rfft2 half-plane by slices (`to_coords`). Scaled by
    sqrt(w / n_pixels) (w = 1 on self-conjugate low-resolution columns, 2
    elsewhere) and viewed as real, they are an orthogonal change of
    coordinates: ``encode`` preserves inner products and ``decode`` inverts
    it. There Q x is gamma_n conj(H) K (H U) + gamma_x |P|^2 U, with
    ``coord_blur`` H and ``coord_penalty_power`` |P|^2 the blur and penalty
    spectra in the same layout, and ``coupling`` K the f^2 x f^2
    alias-coupling matrix, built from the f x f DFT of the mask cell.

    Images fill only a subspace of the coordinates: on the self-conjugate
    low-resolution columns, the coordinates hold both a frequency and its
    negation, where a real image's spectrum takes conjugate values.
    ``noise_weight * z[noise_source]``, with z one standard normal per
    pixel, is a standard normal vector of that subspace (`_noise_gather`).
    With ``coupling_sqrt`` K^(1/2) and ``coord_penalty_conj`` conj(P) it
    makes the N(0, Q) draw (`AliasPrecision.draw_noise`). Every array is
    built in model construction, from slices of the operators' spectra.
    """

    shape: tuple
    factor: int
    coord_blur: np.ndarray
    coord_blur_conj: np.ndarray
    coord_penalty_power: np.ndarray
    coord_penalty_conj: np.ndarray
    coupling: np.ndarray
    coupling_sqrt: np.ndarray
    noise_source: np.ndarray
    noise_weight: np.ndarray
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
        mask = decimation.coverage().T.ravel()
        dft, dft_conj = _alias_dft(f)
        coord_blur = _alias_columns(blur.kernel_spectrum, f, half_cols)
        coord_penalty = _alias_columns(penalty.kernel_spectrum, f, half_cols)
        noise_source, noise_weight = _noise_gather(f, rows, lr_cols)
        return cls(
            shape=blur.shape,
            factor=f,
            coord_blur=coord_blur,
            coord_blur_conj=np.conj(coord_blur),
            coord_penalty_power=coord_penalty.real**2 + coord_penalty.imag**2,
            coord_penalty_conj=np.conj(coord_penalty),
            coupling=(dft * mask) @ dft_conj,
            coupling_sqrt=(dft * np.sqrt(mask)) @ dft_conj,
            noise_source=noise_source,
            noise_weight=noise_weight,
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
        f = self.factor
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
        f = self.factor
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


@functools.lru_cache(maxsize=None)
def _noise_gather(f, rows, lr_cols):
    """(source, weight), read-only: ``weight * z[source]`` with z standard
    normal of length rows * cols is the orthogonal projection, onto the
    images' alias coordinates, of a standard normal vector of all the
    coordinates (real view), in law.

    Entries of the self-conjugate low-resolution columns j = 0 and, for even
    lr_cols, j = lr_cols / 2 pair with the entry at the negated frequency:
    class -s mod f, or f - 1 - s on column lr_cols / 2, and row -r mod rows.
    The projection averages a pair into conjugates, whose real and imaginary
    parts take one normal each, scaled by sqrt(1/2), and keeps the real part
    of an entry paired with itself. Every other entry is free and takes two
    normals. That uses one normal per pixel.
    """
    half_cols = lr_cols // 2 + 1
    index = np.arange(f * rows * half_cols).reshape(f, rows, half_cols)
    s = np.arange(f)[:, None]
    r = -np.arange(rows) % rows
    own, mate = [index[:, :, 0]], [index[-s % f, r, 0]]
    if lr_cols % 2 == 0:
        own.append(index[:, :, lr_cols // 2])
        mate.append(index[f - 1 - s, r, lr_cols // 2])
    own, mate = np.concatenate(own, axis=None), np.concatenate(mate, axis=None)
    free = np.ones(index.size, dtype=bool)
    free[own] = False
    free = np.flatnonzero(free)
    lo, hi = own[own < mate], mate[own < mate]
    alone = own[own == mate]
    source = np.zeros(2 * index.size, dtype=np.intp)
    weight = np.ones(2 * index.size)
    # Real parts at even positions, imaginary parts at odd ones.
    n_free = 2 * free.size
    source[2 * free] = np.arange(0, n_free, 2)
    source[2 * free + 1] = np.arange(1, n_free, 2)
    pair = np.arange(n_free, n_free + 2 * lo.size, 2)
    source[2 * lo] = source[2 * hi] = pair
    source[2 * lo + 1] = source[2 * hi + 1] = pair + 1
    weight[2 * lo] = weight[2 * hi] = weight[2 * lo + 1] = math.sqrt(0.5)
    weight[2 * hi + 1] = -math.sqrt(0.5)
    source[2 * alone] = np.arange(n_free + 2 * lo.size, n_free + 2 * lo.size + alone.size)
    weight[2 * alone + 1] = 0.0
    source.flags.writeable = weight.flags.writeable = False
    return source, weight


class SpectralPrecision:
    """Q = gamma_n B^T diag(mask) B + gamma_x P^T P, for periodic B and P.

    The x-step runs in the alias coordinates of `GridSpectra`: ``encode`` and
    ``decode`` change to and from them (one FFT each), and ``coordinates`` is
    this precision there, an `AliasPrecision` whose Q-apply takes no FFT.
    ``apply`` is the pixel-space product decode(Q encode(x)), 2 FFTs.
    ``b`` = Q m is passed in, as for `PrecisionModel`, whose pixel face this
    shares, together with b's coordinates ``b_coords``.
    """

    def __init__(self, spectra, gamma_n, gamma_x, b, b_coords):
        self.dim = spectra.shape[0] * spectra.shape[1]
        self.b = b
        self.coordinates = AliasPrecision(spectra, gamma_n, gamma_x, b_coords)
        self.encode = spectra.encode
        self.decode = spectra.decode

    def apply(self, x):
        """Q x."""
        if x.shape != (self.dim,):
            raise DimensionError(f"expected input of shape ({self.dim},), got {x.shape}")
        return self.decode(self.coordinates.apply(self.encode(x)))


class AliasPrecision:
    """The spectral precision in alias coordinates (see `GridSpectra`).

    Q U = gamma_n conj(H) K (H U) + gamma_x |P|^2 U: elementwise products and
    one f^2 x f^2 matrix product, no FFT. Same interface as `PrecisionModel`,
    on vectors of ``dim`` = 2 f^2 (rows/f) ((cols/f)//2 + 1) reals, more than
    the pixel count; the image space is the subspace ``encode`` maps onto,
    which Q preserves.
    """

    def __init__(self, spectra, gamma_n, gamma_x, b):
        self.spectra = spectra
        self.dim = b.size
        self.b = b
        self.gamma_n = float(gamma_n)
        self.gamma_x = float(gamma_x)
        self.coupling = self.gamma_n * spectra.coupling
        # gamma_x |P|^2 on the real view: each value twice, for the real and
        # the imaginary part of its coordinate.
        self.prior_spectrum = np.repeat(self.gamma_x * spectra.coord_penalty_power.reshape(-1), 2)

    def apply(self, u):
        """Q u."""
        if u.shape != (self.dim,):
            raise DimensionError(f"expected input of shape ({self.dim},), got {u.shape}")
        spectra = self.spectra
        classes = u.view(complex).reshape(spectra.coord_blur.shape)
        out = self.coupling.dot(spectra.coord_blur * classes)
        out *= spectra.coord_blur_conj
        out = out.reshape(-1).view(float)
        out += self.prior_spectrum * u
        return out

    def gradient(self, u):
        """Gradient of the quadratic potential: Q u - b."""
        out = self.apply(u)
        out -= self.b
        return out

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
        """One draw from N(0, Q) in alias coordinates, with no FFT.

        eps = sqrt(gamma_n) conj(H) (K^(1/2) w_1) + sqrt(gamma_x) conj(P) w_2
        with w_1, w_2 standard normal vectors of the images' coordinates,
        each built from one standard normal per pixel (see `GridSpectra`),
        drawn in one call, w_1 first. K^(1/2), conj(H) and conj(P) map that
        subspace into itself and K^(1/2) commutes with its projection, so
        eps lies in it with covariance gamma_n conj(H) K H + gamma_x |P|^2,
        this precision there: decoded, eps ~ N(0, Q) in pixels.
        """
        spectra = self.spectra
        rows, cols = spectra.shape
        z = standard_normal_vector(rng, 2 * rows * cols).reshape(2, -1)
        w = z.take(spectra.noise_source, axis=1)
        w *= spectra.noise_weight
        classes = w.view(complex).reshape(2, *spectra.coord_blur.shape)
        out = spectra.coupling_sqrt @ classes[0]
        out *= math.sqrt(self.gamma_n) * spectra.coord_blur_conj
        out += (math.sqrt(self.gamma_x) * spectra.coord_penalty_conj) * classes[1]
        return out.reshape(-1).view(float)

    def sample(self, rng):
        """One exact draw from N(m, Q^{-1}): Q^{-1} (b + eps), eps ~ N(0, Q)."""
        return self.solve(self.b + self.draw_noise(rng))


class GramPrecision(PrecisionModel):
    """A factored precision that also holds Q as one matrix.

    ``apply`` is one mat-vec with ``matrix`` = sum_k M_k^T w_k M_k, formed by
    the caller, in place of two per factor. ``draw_noise`` stays the
    factored draw, so the stream layout is that of `PrecisionModel`.
    """

    def __init__(self, dim, factors, b, matrix):
        super().__init__(dim, factors, b)
        self.matrix = matrix

    def apply(self, x):
        """Q x."""
        if x.shape != (self.dim,):
            raise DimensionError(f"expected input of shape ({self.dim},), got {x.shape}")
        return self.matrix.dot(x)

    def sample(self, rng):
        """One exact draw from N(m, Q^{-1}): Cholesky of ``matrix``."""
        return cholesky_oracle_sample(self.matrix, self.b, rng)


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
    if blur_width < 1:
        raise ConfigurationError(f"blur_width must be >= 1, got {blur_width}")
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
    check_noise_precision(gamma_n_true)
    shape = truth.shape
    blur, decimation, penalty = geometry_operators(shape, factor, offsets, blur_width)
    clean = decimation.apply(blur.apply(truth.ravel()))
    if math.isinf(gamma_n_true):
        data = clean
    else:
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
    b = Q m = gamma_n * forward^T data. The result is a `SpectralPrecision`
    when the model has ``spectra`` (circulant blur and penalty), a
    `GramPrecision` formed from the model's ``grams`` when forward and
    penalty are matrices, else a factored `PrecisionModel`.
    """
    b = hp.gamma_n * model._forward_t_data
    if model.spectra is not None:
        return SpectralPrecision(model.spectra, hp.gamma_n, hp.gamma_x, b,
                                 hp.gamma_n * model._forward_t_data_coords)
    factors = [(model.forward, hp.gamma_n), (model.penalty, hp.gamma_x)]
    if model.grams is None:
        return PrecisionModel(model.n_pixels, factors, b)
    gram_fwd, gram_pen = model.grams
    matrix = hp.gamma_n * gram_fwd + hp.gamma_x * gram_pen
    return GramPrecision(model.n_pixels, factors, b, matrix)


def sample_hyperparams(model, x, rng, u=None):
    """Draw (gamma_n, gamma_x) from their Gamma conditionals at the image x.

    The shapes count degrees of freedom: the likelihood holds n_data
    residuals, and the rank of the Laplacian penalty is n_pixels - 1, so

        gamma_n ~ Gamma(alpha_n + n_data / 2,    1 / (beta_n + |data - forward x|^2 / 2))
        gamma_x ~ Gamma(alpha_x + penalty_rank/2, 1 / (beta_x + |penalty x|^2 / 2))

    The norms are those of `SuperResModel.theta_norms`, read off x's
    coordinates u in the x-step where the caller passes them.
    """
    noise_ss, rough_ss = model.theta_norms(u, x)
    if not (np.isfinite(noise_ss) and np.isfinite(rough_ss)):
        raise ValueError("non-finite residual norms; the chain state is invalid")
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
    """Engine hooks for the super-resolution posterior: theta is drawn from
    x, read through its x-step coordinates where the chain holds them."""

    def __init__(self, model):
        self.model = model

    def sample_theta(self, x, rng, u):
        return sample_hyperparams(self.model, x, rng, u)

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


def run_superres(model, cfg, step=gsgs_step):
    """Run the Gibbs chain on a super-resolution model.

    Returns the posterior mean and pixelwise standard deviation computed from
    post-burn-in iterates, plus the full chain record. The chain starts at
    the backprojection of the data. ``step`` is the engine's x-step (see
    `run_chain`): `gsgs_step` or `exact_step`.
    """
    if cfg.perturbation == "none":
        logger.warning(
            "running without gradient perturbation: chain convergence is not "
            "guaranteed and the posterior spread is typically underestimated"
        )
    theta_model = SuperResThetaModel(model)
    record = run_chain(theta_model, model.backprojection(), cfg, step=step)
    shape = model.hr_shape
    return SuperResResult(
        posterior_mean=record.mean_x.reshape(shape),
        posterior_std=record.std_x.reshape(shape),
        record=record,
    )


def exact_gibbs_reference(model, n_iters, burn_in, seed):
    """Reference chain that redraws the full image exactly each iteration:
    `run_superres` with `exact_step`, from the backprojection."""
    cfg = GsgsConfig(n_dirs=1, max_iters=n_iters, burn_in=burn_in, seed=seed)
    return run_superres(model, cfg, step=exact_step)
