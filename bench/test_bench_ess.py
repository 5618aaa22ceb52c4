"""The benchmark's ESS estimator against the closed form for AR(1).

x_t = phi x_{t-1} + e_t has integrated autocorrelation time
tau = (1 + phi) / (1 - phi), so ESS = n / tau.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from ess import ess

N = 200_000


def ar1(phi, n, seed):
    innovations = np.random.default_rng(seed).standard_normal(n + 1000)
    return lfilter([1.0], [1.0, -phi], innovations)[1000:]


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ess_matches_ar1_closed_form(phi, seed):
    tau = (1.0 + phi) / (1.0 - phi)
    got = N / ess(ar1(phi, N, seed))
    assert got == pytest.approx(tau, rel=0.1)


def test_rank_normalization_ignores_monotone_transforms():
    chain = ar1(0.7, 20_000, 3)
    assert ess(np.exp(chain)) == pytest.approx(ess(chain), rel=1e-12)


def test_drifting_chain_has_few_effective_draws():
    chain = ar1(0.5, 20_000, 4) + np.linspace(0.0, 50.0, 20_000)
    assert ess(chain) < 10.0
