"""Conjugate direction sets and exact Gaussian sampling along them.

A precision is any object with ``dim``, ``b`` (= Q m), ``apply`` (Q x),
``gradient`` (Q x - b) and ``draw_noise`` (one N(0, Q) draw), all on pixel
vectors, plus the coordinates the engine's x-step runs in: ``encode`` and
``decode``, an orthogonal change to those coordinates and back, and
``coordinates``, the same precision there, whose ``dim``, ``b``, ``apply``,
``gradient`` and ``draw_noise`` act on coordinate vectors. Coordinates may
differ from the pixels and hold more values than there are pixels: the
spectral super-resolution precision runs in Fourier alias coordinates, where
its product needs no FFT. `PrecisionModel`, the generic precision in factored
form, runs in the pixels.

`build_conjugate_set` grows, in whatever coordinates its precision works in,
a set of unit directions that are mutually conjugate with respect to Q (a
three-term Krylov recurrence; the first ``BLOCK`` directions are
re-conjugated per step against all earlier ones, and every later block of
``BLOCK`` directions once, by a Cholesky block step of matrix-matrix
products against the older directions and within the block), and
`sample_along` draws the exact Gaussian coefficients of the target
N(m, Q^{-1}) along those directions. With a full set (as many directions as
dimensions) one call produces an exact draw from the target; with fewer it
is an exact draw from the conditional restricted to the spanned affine
subspace.
"""

from math import sqrt

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DimensionError,
    IndefinitePrecisionError,
)
from .operators import DENSIFY_CAP, LinearOperator, densify
from .rng import standard_normal_vector

CURVATURE_DROP = 1e-12
BREAKDOWN_TOL = 1e-12
# Directions per block step of the re-conjugation, and the largest defect
# against the older directions that one block step is trusted to remove.
BLOCK = 32
BLOCK_TOL = 1e-8


class PrecisionModel:
    """Symmetric positive (semi)definite precision in factored form.

    Q x = sum_k M_k^T (w_k * (M_k x)) with positive weights w_k (scalar or a
    per-row vector), plus the vector b = Q m that pins the Gaussian mean
    without ever forming m. Symmetry and positive semidefiniteness hold by
    construction; strict positivity along a direction is checked where the
    direction is used.
    """

    def __init__(self, dim, factors, b):
        dim = int(dim)
        if dim < 1:
            raise DimensionError(f"dim must be positive, got {dim}")
        factors = list(factors)
        if not factors:
            raise DimensionError("a precision model needs at least one factor")
        checked = []
        for op, weights in factors:
            if op.in_dim != dim:
                raise DimensionError(
                    f"factor input dim {op.in_dim} does not match model dim {dim}"
                )
            if np.isscalar(weights):
                weights = float(weights)
                if weights <= 0:
                    raise ValueError(f"factor weight must be positive, got {weights}")
            else:
                weights = np.asarray(weights, dtype=float)
                if weights.shape != (op.out_dim,):
                    raise DimensionError(
                        f"weight vector shape {weights.shape} != ({op.out_dim},)"
                    )
                if not (weights > 0).all():
                    raise ValueError("all factor weights must be positive")
            checked.append((op, weights))
        b = np.asarray(b, dtype=float)
        if b.shape != (dim,):
            raise DimensionError(f"b has shape {b.shape}, expected ({dim},)")
        self.dim = dim
        self.factors = checked
        self.b = b

    def apply(self, x):
        """Q x."""
        out = None
        for op, weights in self.factors:
            t = op.apply(x)
            t *= weights
            t = op.adjoint_apply(t)
            out = t if out is None else out + t
        return out

    def gradient(self, x):
        """Gradient of the quadratic potential: Q x - b = Q (x - m)."""
        return self.apply(x) - self.b

    @property
    def coordinates(self):
        """This precision in the x-step's coordinates, which are the pixels."""
        return self

    def encode(self, x):
        return x

    def decode(self, u):
        return u

    def draw_noise(self, rng):
        """One draw from N(0, Q) using the factored form of Q.

        eps = sum_k M_k^T (sqrt(w_k) * z_k) with z_k standard normal has
        covariance sum_k M_k^T w_k M_k = Q exactly. Factors are visited in
        model order, which fixes the stream layout for reproducibility.
        """
        out = None
        for op, weights in self.factors:
            z = standard_normal_vector(rng, op.out_dim)
            z *= np.sqrt(weights)
            t = op.adjoint_apply(z)
            out = t if out is None else out + t
        return out


def densify_precision(precision, max_entries=DENSIFY_CAP):
    """Dense symmetric Q for small oracles; `SizeCapError` past ``max_entries``."""
    # densify reads only in_dim, out_dim and apply.
    square = LinearOperator(precision.dim, precision.dim)
    square.apply = precision.apply
    matrix = densify(square, max_entries).matrix
    # apply() is symmetric up to rounding; make the oracle exactly so.
    return 0.5 * (matrix + matrix.T)


class ConjugateSet:
    """Unit-norm directions that are mutually conjugate w.r.t. one precision.

    Stores the directions (rows of ``directions``), the curvatures
    c_n = d_n^T Q d_n, all strictly positive, and the precision. The images
    Q d_n are not kept by the build; ``q_directions`` applies the precision
    to each direction on first access and keeps the result.
    """

    __slots__ = ("directions", "curvatures", "precision", "_q_directions")

    def __init__(self, directions, curvatures, precision):
        self.directions = directions
        self.curvatures = curvatures
        self.precision = precision
        self._q_directions = None

    def __len__(self):
        return self.directions.shape[0]

    @property
    def q_directions(self):
        """Q d_n for every direction, as rows."""
        if self._q_directions is None:
            self._q_directions = np.array([self.precision.apply(d) for d in self.directions])
        return self._q_directions

    def conjugacy_defect(self):
        """max over i != j of |d_i^T Q d_j| / sqrt(c_i c_j)."""
        if len(self) < 2:
            return 0.0
        gram = self.directions @ self.q_directions.T
        scale = np.sqrt(np.outer(self.curvatures, self.curvatures))
        off = np.abs(gram) / scale
        np.fill_diagonal(off, 0.0)
        return float(off.max())


def build_conjugate_set(precision, d1, n_dirs):
    """Grow up to ``n_dirs`` mutually conjugate unit directions from seed d1.

    Parameters
    ----------
    precision : PrecisionModel or any object with ``dim`` and ``apply``
    d1 : array
        Seed direction (kept first, normalized). Must be nonzero.
    n_dirs : int
        Requested number of directions, at most the space dimension.

    Each raw candidate is Q times the most recent direction, so the set spans
    the Krylov space K_k(Q, d1). In exact arithmetic Q d_{k-1} is conjugate
    to all kept directions but d_{k-1} and d_{k-2}; the three-term step
    (CG/Lanczos) removes those two Q-projections. Rounding leaks the
    candidate onto the older directions, which is removed in two tiers. The
    first ``BLOCK`` directions each get one classical Gram-Schmidt pass in
    the Q inner product over all earlier directions. After them each step is
    the three-term step alone, and when a block of ``BLOCK`` directions
    fills, and once more before returning, one block step conjugates the
    block against all older directions and among itself: with C the block's
    Q-projections onto the older directions and L the Cholesky factor of the
    block's Q-Gram after projection, the rows L^{-1} (D_blk - C D_old) are
    Q-orthonormal, and one matrix-matrix product forms them. The three-term
    step keeps the set conjugate to rounding over a block (the leak grows
    only as Ritz values converge), so the O(n_dirs^2 * dim) re-conjugation
    reads the older directions once per block instead of once per
    direction, and no image Q d is updated: after a block step Q is applied
    again to its last two rows only, for the next three-term step. If a
    block direction has leaked more than ``BLOCK_TOL`` onto the older ones
    (near-full sets), one block step cannot be trusted to clean it: it and
    the rest of the block are dropped, and the build finishes with one full
    pass per step.

    Construction stops early -- returning a shorter set -- when the candidate
    collapses during orthogonalization (Krylov breakdown, e.g. repeated
    eigenvalues) or when a curvature falls below 1e-12 times the first one.

    Raises
    ------
    DegenerateDirectionError
        If d1 is exactly zero.
    IndefinitePrecisionError
        If the seed direction has non-positive curvature.
    """
    n = precision.dim
    n_dirs = int(n_dirs)
    if n_dirs < 1:
        raise ValueError(f"n_dirs must be >= 1, got {n_dirs}")
    if n_dirs > n:
        raise DimensionError(f"n_dirs {n_dirs} exceeds dimension {n}")
    d1 = np.asarray(d1, dtype=float)
    if d1.shape != (n,):
        raise DimensionError(f"d1 has shape {d1.shape}, expected ({n},)")
    seed_norm = sqrt(d1 @ d1)
    if seed_norm == 0.0:
        raise DegenerateDirectionError("seed direction is zero")

    # One block for the directions and their images: freed together, it
    # leaves the C allocator one free region, which it keeps for the next
    # call. Separate blocks together crossed glibc's heap-trim threshold, so
    # every call returned the pages to the OS and faulted them in again.
    store = np.empty((2 * n_dirs, n))
    dirs, imgs = store[:n_dirs], store[n_dirs:]
    curv = np.empty(n_dirs)

    v = d1 / seed_norm
    q = precision.apply(v)
    c = v @ q
    if c <= 0.0:
        raise IndefinitePrecisionError(f"seed curvature {c} is not positive")
    dirs[0], imgs[0], curv[0] = v, q, c
    drop = CURVATURE_DROP * c

    # Rows start:k form the open block; rows :start are conjugated already.
    # A full pass per step runs while start is 0.
    k, start, stop = 1, 0, min(BLOCK, n_dirs)
    while True:
        k, stopped = _extend(precision, dirs, imgs, curv, k, stop, not start, drop)
        if start:
            kept = _conjugate_block(dirs, imgs, curv, start, k)
            if kept < k:
                # Leaked too far for one block step: finish one row at a time
                # with full passes, on fresh images of the re-combined rows.
                for i in range(BLOCK, kept):
                    imgs[i] = precision.apply(dirs[i])
                k, start, stop = kept, 0, n_dirs
                continue
        if stopped or k == n_dirs:
            break
        if start:
            # The next three-term steps read the images of the last two rows.
            for i in (k - 2, k - 1):
                imgs[i] = precision.apply(dirs[i])
        start, stop = k, min(k + BLOCK, n_dirs)

    return ConjugateSet(dirs[:k], curv[:k], precision)


def _extend(precision, dirs, imgs, curv, k, stop, full, drop):
    """Add rows k..stop-1 by the three-term step, plus, when ``full``, a
    pass over all earlier rows.

    Returns the new row count and whether the build stopped early.
    """
    while k < stop:
        cand = imgs[k - 1].copy()
        pre_norm = sqrt(cand @ cand)
        for lo in (max(k - 2, 0), 0) if full else (k - 2,):
            coef = (imgs[lo:k] @ cand) / curv[lo:k]
            cand -= coef @ dirs[lo:k]
        norm = sqrt(cand @ cand)
        if norm <= BREAKDOWN_TOL * pre_norm:
            return k, True
        v = cand / norm
        q = precision.apply(v)
        c = v @ q
        if c <= drop:
            return k, True
        dirs[k], imgs[k], curv[k] = v, q, c
        k += 1
    return k, False


def _conjugate_block(dirs, imgs, curv, start, stop):
    """Conjugate rows start:stop against rows :start and among themselves.

    Reads the images of rows start:stop and leaves them stale. A row whose
    defect against the older rows, max_j |d_i^T Q d_j| / sqrt(c_i c_j),
    exceeds ``BLOCK_TOL`` is dropped with every later row, and so is the
    whole block if its projected Q-Gram is not positive definite. Returns
    the row count kept.
    """
    old = slice(0, start)
    # Q inner products of the block with every row: C and the block's Gram.
    inner = imgs[start:stop] @ dirs[:stop].T
    coef = inner[:, old] / curv[old]
    defect = (np.abs(coef) * np.sqrt(curv[old])).max(axis=1) / np.sqrt(curv[start:stop])
    leaked = np.flatnonzero(defect > BLOCK_TOL)
    stop = start + leaked[0] if leaked.size else stop
    blk, coef = slice(start, stop), coef[:stop - start]
    # The block's Q-Gram after projection. The guard keeps its second term
    # below rounding, but with it G is exact for any tolerance.
    gram = inner[:stop - start, blk] - (coef * curv[old]) @ coef.T
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return start
    # numpy's solve, not scipy's triangular one: scipy's OpenBLAS keeps a
    # thread pool of its own, which at the default thread count contended
    # with numpy's on the GEMMs and made the k=150 build 57 ms, not 22.
    mix = np.linalg.solve(chol, np.hstack([-coef, np.eye(stop - start)]))
    # Rows of [-L^{-1} C | L^{-1}] D are Q-orthonormal, so a unit row's
    # curvature is 1 / |row|^2.
    rows = np.matmul(mix, dirs[:stop], out=imgs[blk])
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    np.divide(rows, norms[:, None], out=dirs[blk])
    curv[blk] = 1.0 / norms**2
    return stop


def sample_along(precision, cset, x0, rng, gradient=None):
    """Exact conditional Gaussian draw along a conjugate set, from point x0.

    Each coefficient is independent:
    alpha_n ~ Normal(d_n^T g / c_n, 1 / c_n) with g = Q x0 - b, and the new
    point is x0 - sum_n alpha_n d_n. Returns (x_new, alphas); the alphas are
    kept for diagnostics.

    ``gradient`` may pass a precomputed Q x0 - b to save one operator
    application.
    """
    curv = cset.curvatures
    if curv.min() <= 0.0:
        raise IndefinitePrecisionError("conjugate set holds a non-positive curvature")
    g = precision.gradient(x0) if gradient is None else gradient
    means = (cset.directions @ g) / curv
    alphas = means + standard_normal_vector(rng, len(cset)) / np.sqrt(curv)
    return x0 - alphas @ cset.directions, alphas
