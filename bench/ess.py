"""Effective sample size, owned by the benchmark.

Rank-normalized ESS in the framing of Vehtari et al. (2021, Bayesian
Analysis), truncated with Geyer's initial monotone sequence. It lives here,
not in ``gsgs.diagnostics``, so that a change to the package cannot move the
benchmark's ESS metrics.
"""

import numpy as np
from scipy.special import ndtri


def rank_normalize(values):
    """Normal scores of the ranks: Phi^-1((r - 3/8) / (n + 1/4))."""
    values = np.asarray(values, dtype=float)
    ranks = np.empty(values.size)
    ranks[np.argsort(values, kind="stable")] = np.arange(1, values.size + 1)
    return ndtri((ranks - 0.375) / (values.size + 0.25))


def _autocovariance(chain):
    """Biased (1/n) autocovariance at every lag, by FFT."""
    n = chain.size
    centred = chain - chain.mean()
    spectrum = np.fft.rfft(centred, 2 * n)
    return np.fft.irfft(spectrum * np.conj(spectrum), 2 * n)[:n] / n


def ess(values):
    """Effective sample size of one chain: n / tau.

    The chain is rank-normalized, its autocorrelations are summed in
    adjacent pairs, truncated at the first negative pair and made monotone
    (Geyer 1992). The chain is not split in halves as in split-R-hat: on the
    drifting desk chains that turns ESS into a measure of the drift, which
    the benchmark reports apart, as chain health.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"need a 1-D chain, got shape {values.shape}")
    n = values.size
    if n < 4:
        raise ValueError(f"chain of {n} draws is too short for ESS")
    acov = _autocovariance(rank_normalize(values))
    if not acov[0] > 0:
        raise ValueError("chain has zero variance")
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0.0)
    if negative.size:
        pairs = pairs[: negative[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    return n / max(tau, 1.0 / np.log10(n))
