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
three-term Krylov recurrence plus one re-conjugation pass), and
`sample_along` draws the exact Gaussian coefficients of the target
N(m, Q^{-1}) along those directions. With a full set (as many directions as
dimensions) one call produces an exact draw from the target; with fewer it is
an exact draw from the conditional restricted to the spanned affine subspace.
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

    Stores the directions (rows of ``directions``), their images under Q and
    the curvatures c_n = d_n^T Q d_n, all strictly positive.
    """

    __slots__ = ("directions", "q_directions", "curvatures")

    def __init__(self, directions, q_directions, curvatures):
        self.directions = directions
        self.q_directions = q_directions
        self.curvatures = curvatures

    def __len__(self):
        return self.directions.shape[0]

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
    (CG/Lanczos) removes those two Q-projections. One classical Gram-Schmidt
    pass against *all* kept directions in the Q inner product then removes
    what rounding leaks onto the older ones. That pass, O(n_dirs^2 * dim),
    is over nine tenths of the build at n_dirs = 150 on a 64x64 image in
    alias coordinates, where a Q-apply takes no FFT.

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

    # One block for directions and their images: freed together, it leaves
    # the C allocator one free region, which it keeps for the next call. Two
    # separate blocks together crossed glibc's heap-trim threshold, so every
    # call returned the pages to the OS and faulted them in again.
    dirs, qdirs = np.empty((2, n_dirs, n))
    curv = np.empty(n_dirs)

    v = d1 / seed_norm
    q = precision.apply(v)
    c = v @ q
    if c <= 0.0:
        raise IndefinitePrecisionError(f"seed curvature {c} is not positive")
    dirs[0], qdirs[0], curv[0] = v, q, c
    drop = CURVATURE_DROP * c

    k = 1
    while k < n_dirs:
        cand = qdirs[k - 1].copy()
        pre_norm = sqrt(cand @ cand)
        # The three-term step on the two latest directions, then one full pass.
        for lo in (max(k - 2, 0), 0):
            coef = (qdirs[lo:k] @ cand) / curv[lo:k]
            cand -= coef @ dirs[lo:k]
        norm = sqrt(cand @ cand)
        if norm <= BREAKDOWN_TOL * pre_norm:
            break
        v = cand / norm
        q = precision.apply(v)
        c = v @ q
        if c <= drop:
            break
        dirs[k], qdirs[k], curv[k] = v, q, c
        k += 1

    return ConjugateSet(dirs[:k], qdirs[:k], curv[:k])


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
