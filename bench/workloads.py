"""Benchmark workloads: their inputs, the model built from them, and an
independent numpy evaluation of the precision they imply.

Inputs (the truth scene and the noisy data) come from this file's own numpy
code, so a change inside ``gsgs`` cannot change them. The program receives only the
geometry and the data, through ``make_circulant``, ``DecimationOperator`` and
``SuperResModel``.
"""

from dataclasses import dataclass

import numpy as np

import gsgs

LAPLACIAN = ((0.0, -1.0, 0.0), (-1.0, 4.0, -1.0), (0.0, -1.0, 0.0))


@dataclass(frozen=True)
class Workload:
    """One closed-loop chain: geometry, priors, direction count, run lengths.

    ``burn_in + ess_draws`` iterations form the fixed window ESS is taken
    over; an untraced run never stops before ``min_iters`` iterations, so
    the window is always complete. ``replay_iters`` is the prefix a second
    same-seed chain re-runs to check determinism, and the least a traced run
    steps. ``pinned`` workloads keep one fixed noise draw and one fixed chain
    seed too; only their check points follow the workload seed.
    ``ess_meaningful`` is false where the chain runs away, so ESS measures
    the drift rather than mixing; it is still reported there. ``max_iters``,
    when set, ends a run early: a runaway chain stays clear of the range
    where its draws would fail, however fast the program gets.
    """

    name: str
    shape: tuple
    factor: int
    offsets: tuple
    blur: tuple
    penalty: tuple
    hyperprior: float
    n_dirs: int
    dense: bool
    burn_in: int
    ess_draws: int
    min_iters: int
    replay_iters: int
    pinned: bool = False
    ess_meaningful: bool = True
    max_iters: int = 0

    @property
    def ess_window(self):
        return self.burn_in + self.ess_draws


_DESK = dict(
    shape=(64, 64), factor=2, offsets=((0, 0), (1, 0), (0, 1)),
    blur=((1.0 / 25.0,) * 5,) * 5, penalty=LAPLACIAN, hyperprior=0.0, dense=False,
)

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-k10",
            n_dirs=10, burn_in=500, ess_draws=1500, min_iters=2000, replay_iters=200, **_DESK,
        ),
        Workload(
            name="desk-k150",
            n_dirs=150, burn_in=20, ess_draws=60, min_iters=80, replay_iters=8,
            ess_meaningful=False, max_iters=300, **_DESK,
        ),
        Workload(
            name="toy-hier-n16",
            shape=(1, 16), factor=1, offsets=((0, 0),), blur=((0.2, 0.6, 0.2),),
            penalty=((-1.0, 2.0, -1.0),), hyperprior=0.1, n_dirs=4, dense=True,
            burn_in=10_000, ess_draws=150_000, min_iters=160_000, replay_iters=10_000,
            pinned=True,
        ),
    )
}


# The toy-hier suite draws its one noise vector from stream 21. On 16
# unknowns the posterior shape hangs on that one draw: across data seeds the
# ESS per iteration of gamma_n ranged 0.04-0.71, which would measure the data
# rather than the sampler, so this workload keeps the suite's data.
TOY_DATA_SEED = 21
# Its chain seed is the suite's too. With the data fixed, the chain's gamma_x
# ESS per iteration still spread 0.07 and 0.18 of its median in two sets of
# ten chain seeds (quartiles, 200,000 draws each): the autocorrelations keep
# a slow tail that the truncated sum catches differently from chain to
# chain. That is noise of the estimate, not of the program; with the chain
# seed fixed, ESS per iteration repeats exactly and ess_per_s varies only as
# wall time does.
TOY_CHAIN_SEED = 22


def streams(wl, seed):
    """(data generator, check-point generator, chain seed): independent
    streams from one workload seed, or fixed ones for a pinned workload."""
    data, check, chain = np.random.SeedSequence(int(seed)).spawn(3)
    check_gen = np.random.default_rng(check)
    if wl.pinned:
        return np.random.default_rng(TOY_DATA_SEED), check_gen, TOY_CHAIN_SEED
    return np.random.default_rng(data), check_gen, int(chain.generate_state(1)[0])


def periodic_filter(img, stencil, adjoint=False):
    """Periodic convolution with a centred stencil, by shifted sums (no FFT)."""
    stencil = np.asarray(stencil, dtype=float)
    kr, kc = stencil.shape
    ar, ac = (kr - 1) // 2, (kc - 1) // 2
    sign = -1 if adjoint else 1
    out = np.zeros_like(img)
    for (a, b), w in np.ndenumerate(stencil):
        if w:
            out += w * np.roll(img, (sign * (a - ar), sign * (b - ac)), axis=(0, 1))
    return out


def decimate(img, wl):
    f = wl.factor
    return np.concatenate([img[dr::f, dc::f].ravel() for dr, dc in wl.offsets])


def decimate_adjoint(y, wl):
    out = np.zeros(wl.shape)
    f = wl.factor
    frames = np.split(y, len(wl.offsets))
    for (dr, dc), frame in zip(wl.offsets, frames):
        out[dr::f, dc::f] += frame.reshape(out[dr::f, dc::f].shape)
    return out


def scene(shape):
    """The validation suites' fixed scene: two Gaussian bumps on a ramp.

    Only the noise follows the workload seed. With random scenes instead,
    desk-k10's gamma_n ESS over its 1,500-draw window ranged 3.5-6.7 across
    seeds, which measured the scenes rather than the sampler.
    """
    rows, cols = shape
    r = (np.arange(rows) + 0.5) / rows
    c = (np.arange(cols) + 0.5) / cols
    rr, cc = np.meshgrid(r, c, indexing="ij")
    img = 6.0 * cc + 3.0 * rr
    img += 14.0 * np.exp(-((rr - 0.35) ** 2 + (cc - 0.30) ** 2) / (2 * 0.12**2))
    img += 9.0 * np.exp(-((rr - 0.68) ** 2 + (cc - 0.72) ** 2) / (2 * 0.07**2))
    return img


def make_data(wl, gen):
    """Noisy observation stack of ``scene`` with unit noise precision."""
    clean = decimate(periodic_filter(scene(wl.shape), wl.blur), wl)
    return clean + gen.standard_normal(clean.size)


def reference_precision_apply(wl, gamma_n, gamma_x, x, magnitude=False):
    """gamma_n B^T D^T D B x + gamma_x P^T P x, evaluated without gsgs.

    ``magnitude=True`` takes the same products with |B|, |P| and |x|: the
    scale rounding errors live on, which stays meaningful where the terms of
    Q x cancel (a smooth x under a large gamma_x).
    """
    img = np.asarray(x, dtype=float).reshape(wl.shape)
    blur, penalty = np.asarray(wl.blur), np.asarray(wl.penalty)
    if magnitude:
        img, blur, penalty = np.abs(img), np.abs(blur), np.abs(penalty)
    data_term = periodic_filter(
        decimate_adjoint(decimate(periodic_filter(img, blur), wl), wl),
        blur, adjoint=True,
    )
    prior_term = periodic_filter(periodic_filter(img, penalty), penalty, adjoint=True)
    return (gamma_n * data_term + gamma_x * prior_term).ravel()


def build_chain(wl, data, chain_seed):
    """Everything from the inputs to a chain that is ready to step.

    Returns (theta_model, state, cfg).
    """
    ops = (
        gsgs.make_circulant(wl.shape, wl.blur),
        gsgs.DecimationOperator(wl.shape, wl.factor, wl.offsets),
        gsgs.make_circulant(wl.shape, wl.penalty),
    )
    blur, decimation, penalty = (gsgs.densify(op) for op in ops) if wl.dense else ops
    h = wl.hyperprior
    model = gsgs.SuperResModel(
        blur=blur, decimation=decimation, penalty=penalty, data=data,
        hr_shape=wl.shape, alpha_n=h, beta_n=h, alpha_x=h, beta_x=h,
    )
    theta_model = gsgs.SuperResThetaModel(model)
    cfg = gsgs.GsgsConfig(n_dirs=wl.n_dirs, max_iters=1, perturbation="factored_q")
    state = gsgs.ChainState(
        x=model.backprojection(), theta=None, t=0, rng=gsgs.RngState(chain_seed)
    )
    return theta_model, state, cfg
