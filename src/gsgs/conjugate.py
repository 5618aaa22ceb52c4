"""Conjugate direction sets and exact Gaussian sampling along them.

A precision has two faces. Its pixel face is ``dim``, ``b`` (= Q m) and
``apply`` (Q x) on pixel vectors, plus ``encode`` and ``decode``, an
orthogonal change to the coordinates the engine's x-step runs in and back,
and ``coordinates``, the same precision there. That coordinate face is
``dim``, ``b``, ``apply``, ``gradient`` (Q u - b), ``draw_noise`` (one
N(0, Q) draw) and ``sample`` (one exact N(m, Q^{-1}) draw), all on
coordinate vectors. Coordinates may differ from the pixels and hold more
values than there are pixels: the spectral super-resolution precision runs
in Fourier alias coordinates, where its product needs no FFT.
`PrecisionModel`, the generic precision in factored form, runs in the
pixels, so it is its own coordinate face.

`build_conjugate_set` grows, in whatever coordinates its precision works in,
a set of directions that are mutually conjugate with respect to Q (a
three-term Krylov recurrence; a set of at most ``BLOCK`` directions is
re-conjugated per step against all earlier ones, and a larger one once per
block of ``BLOCK`` directions, by a block step that records its Gram-Schmidt
coefficients in a triangular transform of the rows instead of rewriting
them), and `sample_along` draws the exact Gaussian coefficients of the target
N(m, Q^{-1}) along those directions. With a full set (as many directions as
dimensions) one call produces an exact draw from the target; with fewer it
is an exact draw from the conditional restricted to the spanned affine
subspace. The build writes each direction in place in its row of one store,
which also holds the images Q d of at most ``BLOCK`` + 2 rows.

Vector products on the per-iteration path, here and in the engine, the
operators and the models, call ``ndarray.dot``, not ``@``: at these shapes
numpy 2.4's matmul ufunc costs 0.35-0.6 us more per call (16-vector dot
0.79 against 0.43 us, 4,352-vector 1.54 against 1.12), with the same bits.
"""

from math import sqrt

import numpy as np

from .diagnostics import cholesky_oracle_sample
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

    def sample(self, rng):
        """One exact draw from N(m, Q^{-1}): Cholesky of the densified Q."""
        return cholesky_oracle_sample(densify_precision(self), self.b, rng)


def densify_precision(precision, max_entries=DENSIFY_CAP):
    """Dense symmetric Q for small oracles; `SizeCapError` past ``max_entries``."""
    # densify reads only in_dim, out_dim and apply, which it hands stacks of
    # unit vectors; a precision applies to one vector at a time.
    square = LinearOperator(precision.dim, precision.dim)
    square.apply = lambda units: np.array([precision.apply(unit) for unit in units])
    matrix = densify(square, max_entries).matrix
    # apply() is symmetric up to rounding; make the oracle exactly so.
    return 0.5 * (matrix + matrix.T)


class ConjugateSet:
    """Directions that are mutually conjugate w.r.t. one precision.

    The directions are ``transform @ rows``: ``rows`` holds unit rows as the
    build left them, and ``transform`` a lower-triangular matrix that
    re-conjugates them, or None where the rows are the directions already
    (sets of at most ``BLOCK`` directions, and sets the build finished with
    full passes). ``directions`` forms them on first access. ``curvatures``
    holds c_n = d_n^T Q d_n, all strictly positive. The images Q d_n are
    not kept by the build; ``q_directions`` applies the precision to each
    direction on first access and keeps the result.
    """

    __slots__ = ("rows", "transform", "curvatures", "precision", "_directions",
                 "_q_directions")

    def __init__(self, rows, curvatures, precision, transform=None):
        self.rows = rows
        self.transform = transform
        self.curvatures = curvatures
        self.precision = precision
        self._directions = None
        self._q_directions = None

    def __len__(self):
        return self.rows.shape[0]

    @property
    def directions(self):
        """The directions d_n, as rows."""
        if self._directions is None:
            tf = self.transform
            self._directions = self.rows if tf is None else tf @ self.rows
        return self._directions

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
    """Grow up to ``n_dirs`` mutually conjugate directions from seed d1.

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
    candidate onto the older directions, which is removed in one of two
    ways. In a set of at most ``BLOCK`` directions each direction gets one
    classical Gram-Schmidt pass in the Q inner product over all earlier
    directions. In a larger set each step is the three-term step alone, and
    when a block of ``BLOCK`` rows fills, the first included, and once more
    before returning, one block step records the block's classical
    Gram-Schmidt coefficients, against the older directions and among its
    own rows, without applying them: the directions are D = T R, with R the
    unit rows the three-term step built and T lower triangular, and a
    block's rows of T are [-C T_old | I - E], with C the rows'
    Q-projections onto the older directions and E the strictly lower ones
    among the block's rows. One matrix-matrix product, the block's images
    against every row, gives both. The three-term step keeps the set
    conjugate to rounding over a block (the leak grows only as Ritz values
    converge), so the O(n_dirs^2 * dim) re-conjugation reads the rows once
    per block instead of once per direction, and what one first-order step
    leaves is second order in the leak. Before the next three-term step the
    block's last two rows are replaced by their directions and Q applied to
    them. Only the open block and those two rows read their images, so the
    build keeps a window of ``BLOCK`` + 2 images, the two rows' at its top.
    If a block row has leaked more than ``BLOCK_TOL`` onto any earlier row
    (near-full sets), one block step cannot be trusted to clean it: it and
    the rest of the block are dropped, every row is replaced by its
    direction and gets its image, and the build finishes with one full pass
    per step.

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
    seed_norm = sqrt(d1.dot(d1))
    if seed_norm == 0.0:
        raise DegenerateDirectionError("seed direction is zero")

    # One block for the rows and their images: freed together, it leaves the
    # C allocator one free region, which it keeps for the next call. Separate
    # blocks together crossed glibc's heap-trim threshold, so every call
    # returned the pages to the OS and faulted them in again.
    store = np.empty((n_dirs + min(n_dirs, BLOCK + 2), n))
    dirs, imgs = store[:n_dirs], store[n_dirs:]
    curv = np.empty(n_dirs)
    # The directions are tf @ dirs; without tf, the rows are the directions.
    tf = np.eye(n_dirs) if n_dirs > BLOCK else None

    q = precision.apply(np.divide(d1, seed_norm, out=dirs[0]))
    c = dirs[0].dot(q)
    if c <= 0.0:
        raise IndefinitePrecisionError(f"seed curvature {c} is not positive")
    imgs[0], curv[0] = q, c
    drop = CURVATURE_DROP * c

    # Rows start:k form the open block; rows :start are conjugated already.
    # Without tf, imgs holds every row's image and each step runs a full
    # pass; with it, imgs holds the images of rows base:k only.
    k, start, stop = 1, 0, min(BLOCK, n_dirs)
    while True:
        base = max(start - 2, 0)
        k, stopped = _extend(precision, dirs[base:], imgs, curv[base:], k - base,
                             stop - base, tf is None, drop)
        k += base
        if tf is not None:
            kept = _conjugate_block(dirs, imgs[start - base:k - base], curv, tf, start, k)
            if kept < k:
                # Leaked too far for one block step: finish one row at a time
                # with full passes, on the directions and their images.
                imgs = np.empty((n_dirs, n))
                _materialize(precision, dirs, imgs, curv, tf, 0, kept)
                k, start, stop, tf = kept, 0, n_dirs, None
                continue
        if stopped or k == n_dirs:
            break
        if tf is not None:
            # The next three-term steps read the last two directions, whose
            # images go to the top of the window.
            _materialize(precision, dirs, imgs, curv, tf, k - 2, k)
        start, stop = k, min(k + BLOCK, n_dirs)

    return ConjugateSet(dirs[:k], curv[:k], precision, None if tf is None else tf[:k, :k])


def _extend(precision, dirs, imgs, curv, k, stop, full, drop):
    """Add rows k..stop-1 by the three-term step, plus, when ``full``, a
    pass over all earlier rows.

    Returns the new row count and whether the build stopped early.
    """
    while k < stop:
        prev, lo, v = imgs[k - 1], max(k - 2, 0), dirs[k]
        # Its last entry, |Q d_{k-1}|^2, is the candidate's squared norm.
        inner = imgs[lo:k].dot(prev)
        np.subtract(prev, (inner / curv[lo:k]).dot(dirs[lo:k]), out=v)
        if full:
            v -= (imgs[:k].dot(v) / curv[:k]).dot(dirs[:k])
        norm = sqrt(v.dot(v))
        if norm <= BREAKDOWN_TOL * sqrt(inner[-1]):
            return k, True
        v /= norm
        q = precision.apply(v)
        c = v.dot(q)
        if c <= drop:
            return k, True
        imgs[k], curv[k] = q, c
        k += 1
    return k, False


def _conjugate_block(dirs, imgs, curv, tf, start, stop):
    """Record in ``tf`` the re-conjugation of rows start:stop, whose images
    are ``imgs``, against the directions tf[:start] @ dirs and among
    themselves.

    A row whose defect against any earlier row, |d_i^T Q d_j| / sqrt(c_i c_j),
    exceeds ``BLOCK_TOL`` is dropped with every later row. Returns the row
    count kept.
    """
    if stop == start:
        return start
    old, blk = slice(0, start), slice(start, stop)
    # Q inner products of the block's rows with every row, then with the
    # older directions; within the block only those with earlier rows count.
    inner = imgs @ dirs[:stop].T
    cross = np.hstack([inner[:, old] @ tf[old, old].T, np.tril(inner[:, blk], -1)])
    scale = np.sqrt(curv[:stop])
    defect = (np.abs(cross) / scale).max(axis=1) / scale[blk]
    leaked = np.flatnonzero(defect > BLOCK_TOL)
    stop = start + leaked[0] if leaked.size else stop
    # The curvatures keep the rows' own: the block step changes them at
    # second order in the leak only.
    coef = cross[:stop - start, :stop] / curv[:stop]
    tf[start:stop, old] = -coef[:, old] @ tf[old, old]
    tf[start:stop, start:stop] -= coef[:, start:]
    return stop


def _materialize(precision, dirs, imgs, curv, tf, lo, hi):
    """Replace rows lo:hi by their directions, with their curvatures, and
    write their images to imgs[:hi - lo]."""
    dirs[lo:hi] = tf[lo:hi, :hi] @ dirs[:hi]
    tf[lo:hi] = np.eye(hi - lo, len(tf), lo)
    for i in range(lo, hi):
        imgs[i - lo] = precision.apply(dirs[i])
        curv[i] = dirs[i] @ imgs[i - lo]


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
    tf = cset.transform
    # With D = T R: D g = T (R g), and alpha^T D = (alpha^T T) R.
    proj = cset.rows.dot(g)
    means = (proj if tf is None else tf.dot(proj)) / curv
    alphas = means + standard_normal_vector(rng, len(cset)) / np.sqrt(curv)
    return x0 - (alphas if tf is None else alphas.dot(tf)).dot(cset.rows), alphas
