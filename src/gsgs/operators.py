"""Matrix-free linear operators on flattened images.

Images live on fixed 2-D grids, are stored row-major and exchanged as flat
float64 vectors. Every operator carries its adjoint, so compositions and
normal-equation style products never need explicit matrices; a dense
reconstruction (`densify`) is available for small problems where an
elementwise oracle is wanted.
"""

import numpy as np

from .errors import ConfigurationError, DimensionError, SizeCapError

DENSIFY_CAP = 10_000_000


class LinearOperator:
    """A linear map from R^in_dim to R^out_dim together with its adjoint."""

    def __init__(self, in_dim, out_dim):
        in_dim, out_dim = int(in_dim), int(out_dim)
        if in_dim < 1 or out_dim < 1:
            raise DimensionError(f"operator dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim

    def apply(self, x):
        raise NotImplementedError

    def adjoint_apply(self, y):
        raise NotImplementedError

    def _check_in(self, x):
        if x.shape != (self.in_dim,):
            raise DimensionError(f"expected input of shape ({self.in_dim},), got {x.shape}")

    def _check_out(self, y):
        if y.shape != (self.out_dim,):
            raise DimensionError(f"expected input of shape ({self.out_dim},), got {y.shape}")


class IdentityOperator(LinearOperator):
    """The identity map on R^dim."""

    def __init__(self, dim):
        super().__init__(dim, dim)

    def apply(self, x):
        self._check_in(x)
        return np.array(x, dtype=float)

    def adjoint_apply(self, y):
        return self.apply(y)


class DenseOperator(LinearOperator):
    """Explicit row-major matrix; the exactness oracle for everything else."""

    def __init__(self, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got ndim={matrix.ndim}")
        super().__init__(matrix.shape[1], matrix.shape[0])
        self.matrix = matrix

    def apply(self, x):
        self._check_in(x)
        return self.matrix @ x

    def adjoint_apply(self, y):
        self._check_out(y)
        return self.matrix.T @ y


class CirculantOperator(LinearOperator):
    """Circular (periodic) 2-D convolution on a fixed grid, applied by FFT.

    The operator is defined by the full DFT of its kernel (`kernel_spectrum`,
    shape == grid shape). Inputs and outputs are real; the transforms use the
    real-input FFT, which keeps results real by construction. The adjoint is
    convolution with the conjugate spectrum.
    """

    def __init__(self, shape, kernel_spectrum):
        rows, cols = int(shape[0]), int(shape[1])
        if rows < 1 or cols < 1:
            raise DimensionError(f"grid shape must be positive, got {(rows, cols)}")
        spectrum = np.asarray(kernel_spectrum, dtype=complex)
        if spectrum.shape != (rows, cols):
            raise DimensionError(
                f"kernel_spectrum shape {spectrum.shape} does not match grid {(rows, cols)}"
            )
        super().__init__(rows * cols, rows * cols)
        self.shape = (rows, cols)
        self.kernel_spectrum = spectrum
        # Half-plane copy drives the real-input transforms.
        self.half_spectrum = np.ascontiguousarray(spectrum[:, : cols // 2 + 1])
        self.half_spectrum_conj = np.conj(self.half_spectrum)

    def apply(self, x):
        self._check_in(x)
        grid = x.reshape(self.shape)
        out = np.fft.irfft2(np.fft.rfft2(grid) * self.half_spectrum, s=self.shape)
        return out.ravel()

    def adjoint_apply(self, y):
        self._check_out(y)
        grid = y.reshape(self.shape)
        out = np.fft.irfft2(np.fft.rfft2(grid) * self.half_spectrum_conj, s=self.shape)
        return out.ravel()


class DecimationOperator(LinearOperator):
    """Strided pixel selection: one low-resolution frame per translation offset.

    Each output pixel copies exactly one input pixel (binary selection), so the
    adjoint scatters frame values back onto the grid with no overlap within a
    frame. Frames are concatenated in offset order.
    """

    def __init__(self, hr_shape, factor, offsets):
        rows, cols = int(hr_shape[0]), int(hr_shape[1])
        factor = int(factor)
        if factor < 1:
            raise ConfigurationError(f"decimation factor must be >= 1, got {factor}")
        if rows % factor or cols % factor:
            raise ConfigurationError(
                f"factor {factor} does not divide grid {(rows, cols)}"
            )
        offsets = [tuple(int(o) for o in off) for off in offsets]
        if not offsets:
            raise ConfigurationError("at least one offset frame is required")
        for off in offsets:
            if len(off) != 2 or not (0 <= off[0] < factor and 0 <= off[1] < factor):
                raise ConfigurationError(
                    f"offset {off} outside [0, {factor}) x [0, {factor})"
                )
        lr_shape = (rows // factor, cols // factor)
        super().__init__(rows * cols, len(offsets) * lr_shape[0] * lr_shape[1])
        self.hr_shape = (rows, cols)
        self.factor = factor
        self.offsets = offsets
        self.lr_shape = lr_shape

    def apply(self, x):
        self._check_in(x)
        grid = x.reshape(self.hr_shape)
        f = self.factor
        return np.concatenate([grid[dr::f, dc::f].ravel() for dr, dc in self.offsets])

    def adjoint_apply(self, y):
        self._check_out(y)
        out = np.zeros(self.hr_shape)
        f = self.factor
        frame_len = self.lr_shape[0] * self.lr_shape[1]
        for i, (dr, dc) in enumerate(self.offsets):
            frame = y[i * frame_len : (i + 1) * frame_len].reshape(self.lr_shape)
            out[dr::f, dc::f] += frame
        return out.ravel()

    def coverage(self):
        """D^T 1 on one factor x factor cell: how many frames sample each
        pixel, which repeats with period ``factor`` over the grid.

        D^T D is the diagonal matrix of these counts; an offset listed twice
        counts twice.
        """
        out = np.zeros((self.factor, self.factor))
        for dr, dc in self.offsets:
            out[dr, dc] += 1.0
        return out


class ComposedOperator(LinearOperator):
    """Composition of operators in mathematical order: ops[0] is applied last,
    so ``ComposedOperator([a, b]).apply(x) == a.apply(b.apply(x))``."""

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise DimensionError("cannot compose an empty operator list")
        for left, right in zip(ops, ops[1:]):
            if left.in_dim != right.out_dim:
                raise DimensionError(
                    f"cannot compose: {left.in_dim} (input) != {right.out_dim} (output)"
                )
        super().__init__(ops[-1].in_dim, ops[0].out_dim)
        self.ops = ops

    def apply(self, x):
        for op in reversed(self.ops):
            x = op.apply(x)
        return x

    def adjoint_apply(self, y):
        for op in self.ops:
            y = op.adjoint_apply(y)
        return y


def make_circulant(shape, kernel, anchor=None):
    """Build a periodic convolution operator from a small stencil.

    Parameters
    ----------
    shape : (rows, cols)
        Grid dimensions; must be at least as large as the stencil.
    kernel : 2-D array-like
        The stencil taps. A 1-D sequence is treated as a single-row stencil.
    anchor : (row, col), optional
        Index of the stencil tap that sits on the output pixel. Defaults to
        the stencil centre, ``((kr - 1) // 2, (kc - 1) // 2)``.

    The spectrum is computed once, as the 2-D FFT of the stencil zero-padded
    onto the grid with the anchor tap wrapped to position (0, 0): the
    real-input half-plane, extended to the full plane by Hermitian symmetry.
    """
    kernel = np.atleast_2d(np.asarray(kernel, dtype=float))
    rows, cols = int(shape[0]), int(shape[1])
    kr, kc = kernel.shape
    if kr > rows or kc > cols:
        raise DimensionError(f"stencil {kernel.shape} larger than grid {(rows, cols)}")
    if anchor is None:
        anchor = ((kr - 1) // 2, (kc - 1) // 2)
    ar, ac = int(anchor[0]), int(anchor[1])
    if not (0 <= ar < kr and 0 <= ac < kc):
        raise ConfigurationError(f"anchor {anchor} outside stencil {kernel.shape}")
    # Tap (i, j) lands on ((i - ar) % rows, (j - ac) % cols).
    padded = np.zeros((rows, cols))
    padded[: kr - ar, : kc - ac] = kernel[ar:, ac:]
    padded[: kr - ar, cols - ac :] = kernel[ar:, :ac]
    padded[rows - ar :, : kc - ac] = kernel[:ar, ac:]
    padded[rows - ar :, cols - ac :] = kernel[:ar, :ac]
    half_cols = cols // 2 + 1
    spectrum = np.empty((rows, cols), dtype=complex)
    spectrum[:, :half_cols] = np.fft.rfft2(padded)
    # S[r, c] = conj(S[-r, -c]) past the half-plane.
    mirrored = spectrum[:, cols - half_cols : 0 : -1]
    np.conjugate(mirrored[:1], out=spectrum[:1, half_cols:])
    np.conjugate(mirrored[:0:-1], out=spectrum[1:, half_cols:])
    return CirculantOperator((rows, cols), spectrum)


def densify(op, max_entries=DENSIFY_CAP):
    """Materialize an operator as a DenseOperator, column by column.

    Column j is ``op.apply(e_j)``; only feasible for small problems, guarded
    by ``max_entries`` on ``in_dim * out_dim``.
    """
    if op.in_dim * op.out_dim > max_entries:
        raise SizeCapError(
            f"dense form would hold {op.in_dim * op.out_dim} entries "
            f"(cap {max_entries})"
        )
    matrix = np.empty((op.out_dim, op.in_dim))
    unit = np.zeros(op.in_dim)
    for j in range(op.in_dim):
        unit[j] = 1.0
        matrix[:, j] = op.apply(unit)
        unit[j] = 0.0
    return DenseOperator(matrix)


def max_adjoint_defect(op, rng, trials=100):
    """Largest normalized defect of <Au, v> - <u, A^T v> over random pairs.

    The defect is normalized by (|u||v| + 1) so the usual pass criterion is a
    flat threshold (1e-10 in the test suites).
    """
    gen = rng.generator
    worst = 0.0
    for _ in range(trials):
        u = gen.standard_normal(op.in_dim)
        v = gen.standard_normal(op.out_dim)
        lhs = op.apply(u) @ v
        rhs = u @ op.adjoint_apply(v)
        scale = np.linalg.norm(u) * np.linalg.norm(v) + 1.0
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
