"""Oracles and statistical machinery backing the validation suites.

The Cholesky sampler is the ground-truth draw for small dense problems; the
moment summaries and comparisons turn "the chain targets the right
distribution" into explicit pass/fail reports with standard-error bands.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import DimensionError
from .operators import DenseOperator


@dataclass
class MomentSummary:
    """Empirical (or exact) first and second moments of a vector sample.

    ``n_samples is None`` marks an exact summary (zero standard error), used
    when one side of a comparison is a closed-form target.
    """

    n_samples: object
    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.variance = np.asarray(self.variance, dtype=float)
        if (self.variance < 0).any():
            raise ValueError("variance must be nonnegative")
        self.covariance = np.asarray(self.covariance, dtype=float)

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def se(self):
        """Per-coordinate standard error of the mean (zero when exact)."""
        if self.n_samples is None:
            return np.zeros(self.dim)
        return np.sqrt(self.variance / self.n_samples)


def summarize(samples):
    """MomentSummary of a (n_samples, dim) array."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"expected (n_samples, dim), got shape {samples.shape}")
    n = samples.shape[0]
    cov = np.cov(samples, rowvar=False).reshape(samples.shape[1], samples.shape[1])
    return MomentSummary(
        n_samples=n,
        mean=samples.mean(axis=0),
        variance=samples.var(axis=0),
        covariance=cov,
    )


def exact_summary(mean, covariance):
    """Summary of a known distribution, for use as a comparison target."""
    covariance = np.asarray(covariance, dtype=float)
    return MomentSummary(n_samples=None, mean=mean, variance=np.diag(covariance).copy(),
                         covariance=covariance)


def cholesky_oracle_sample(q_dense, b, rng, size=None):
    """Exact draw(s) from Normal(m, Q^{-1}) with Q m = b, via Cholesky.

    Q must be symmetric positive definite (the factorization raises
    otherwise). With Q = L L^T the draw is m + L^{-T} z for standard normal z.
    ``size=None`` returns one vector; an integer returns a (size, dim) array.
    """
    if isinstance(q_dense, DenseOperator):
        q_dense = q_dense.matrix
    q_dense = np.asarray(q_dense, dtype=float)
    n = q_dense.shape[0]
    if q_dense.shape != (n, n):
        raise DimensionError(f"Q must be square, got {q_dense.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionError(f"b has shape {b.shape}, expected ({n},)")
    lower = np.linalg.cholesky(q_dense)
    mean = cho_solve((lower, True), b)
    if size is None:
        z = rng.generator.standard_normal(n)
        return mean + solve_triangular(lower.T, z, lower=False)
    z = rng.generator.standard_normal((int(size), n))
    return mean + solve_triangular(lower.T, z.T, lower=False).T


@dataclass
class MomentComparison:
    """Itemized result of comparing two moment summaries."""

    passed: bool
    mean_failures: list = field(default_factory=list)
    max_mean_sigma: float = 0.0
    cov_gap: float = 0.0
    cov_allowed: float = 0.0

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "mean_failures": [
                {"coordinate": int(i), "diff": float(d), "allowed": float(a)}
                for i, d, a in self.mean_failures
            ],
            "max_mean_sigma": float(self.max_mean_sigma),
            "cov_gap": float(self.cov_gap),
            "cov_allowed": float(self.cov_allowed),
        }

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"{verdict}: max mean deviation {self.max_mean_sigma:.2f} combined SE; "
            f"second-moment gap {self.cov_gap:.4f} (allowed {self.cov_allowed:.4f})"
        ]
        for i, d, a in self.mean_failures:
            lines.append(f"  coordinate {i}: |mean diff| {d:.4g} > allowed {a:.4g}")
        return "\n".join(lines)


def moment_compare(a, b, mean_tol_se, cov_tol_rel):
    """Compare two summaries: means per coordinate, second moments in Frobenius.

    A coordinate passes when |mean_a - mean_b| <= mean_tol_se * combined SE
    (SEs added in quadrature; an exact summary contributes zero). Covariances
    pass when ||C_a - C_b||_F <= cov_tol_rel * max(||C_a||_F, ||C_b||_F).
    The pass/fail outcome is symmetric in (a, b).
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    combined_se = np.sqrt(a.se**2 + b.se**2)
    diff = np.abs(a.mean - b.mean)
    allowed = mean_tol_se * combined_se
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(combined_se > 0, diff / combined_se, np.where(diff > 0, np.inf, 0.0))
    failures = [
        (int(i), float(diff[i]), float(allowed[i]))
        for i in np.nonzero(diff > allowed)[0]
    ]

    ca, cb = a.covariance, b.covariance
    scale = max(np.linalg.norm(ca), np.linalg.norm(cb))
    gap = float(np.linalg.norm(ca - cb) / scale) if scale > 0 else 0.0

    return MomentComparison(
        passed=(not failures) and gap <= cov_tol_rel,
        mean_failures=failures,
        max_mean_sigma=float(sigmas.max()),
        cov_gap=gap,
        cov_allowed=float(cov_tol_rel),
    )


def autocorrelation(series, max_lag):
    """Biased-normalized autocorrelation estimates for lags 0..max_lag.

    Lag 0 is identically 1. Needs more than 4 * max_lag points. A constant
    series has no defined correlation structure: lag 0 is returned as 1 and
    every other lag as NaN, flagging the degenerate case to the caller.
    """
    series = np.asarray(series, dtype=float)
    max_lag = int(max_lag)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if series.ndim != 1 or series.size <= 4 * max_lag:
        raise ValueError(
            f"series of length {series.size} too short for max_lag {max_lag}"
        )
    centered = series - series.mean()
    denom = centered @ centered
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if denom == 0.0:
        out[1:] = np.nan
        return out
    for lag in range(1, max_lag + 1):
        out[lag] = (centered[:-lag] @ centered[lag:]) / denom
    return out
