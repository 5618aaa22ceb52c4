"""Statistical validation suites.

Each suite turns a batch of distributional claims into explicit pass/fail
checks with pinned tolerances: operator exactness, conjugate-sampler
completeness, one-step invariance of the Gibbs kernel, hierarchical-posterior
agreement against exact-Gibbs references, and the desk-scale
super-resolution behavior (estimates, direction-count trade-off, high-noise
recovery, no-perturbation pathology).

Every check reports its measurements; checks marked non-gating are recorded
but never fail a suite.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .conjugate import PrecisionModel, build_conjugate_set, sample_along
from .diagnostics import (
    cholesky_oracle_sample,
    exact_summary,
    moment_compare,
    summarize,
)
from .engine import ChainState, FixedGaussianModel, GsgsConfig, gsgs_step
from .operators import (
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    densify,
    make_circulant,
    max_adjoint_defect,
)
from .rng import RngState, gamma_draw, standard_normal_vector
from .superres import (
    SuperResModel,
    exact_gibbs_reference,
    phantom,
    run_superres,
    simulate_data,
)

DESK_SHAPE = (64, 64)
DESK_OFFSETS = ((0, 0), (1, 0), (0, 1))
DESK_BLUR = 5
DESK_FACTOR = 2


@dataclass
class CheckResult:
    """One named check: verdict, wall time and the numbers behind it."""

    name: str
    passed: bool
    seconds: float
    gating: bool = True
    details: dict = field(default_factory=dict)

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        if not self.gating:
            verdict += " (informational)" if self.passed else "*(informational)"
        info = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{verdict}] {self.name} ({self.seconds:.1f}s) {info}"

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "gating": self.gating,
            "seconds": round(self.seconds, 3),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _timed(name, fn, gating=True):
    start = time.perf_counter()
    passed, details = fn()
    return CheckResult(
        name=name, passed=passed, seconds=time.perf_counter() - start,
        gating=gating, details=details,
    )


def _random_spd_precision(n, seed, eig_lo=0.5, eig_hi=4.0):
    gen = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
    q_dense = basis @ np.diag(np.linspace(eig_lo, eig_hi, n)) @ basis.T
    factor = np.linalg.cholesky(q_dense).T
    b = gen.standard_normal(n)
    return PrecisionModel(n, [(DenseOperator(factor), 1.0)], b), q_dense


# ---------------------------------------------------------------- operators


def suite_operators(seed=0):
    rng = RngState(seed)
    results = []

    def adjoints():
        ops = {
            "circulant": make_circulant((8, 8), np.full((5, 5), 0.04)),
            "decimation": DecimationOperator((8, 8), 2, DESK_OFFSETS),
            "composed": ComposedOperator([
                DecimationOperator((8, 8), 2, DESK_OFFSETS),
                make_circulant((8, 8), np.full((5, 5), 0.04)),
            ]),
            "dense": DenseOperator(rng.generator.standard_normal((9, 13))),
        }
        defects = {k: max_adjoint_defect(op, rng, trials=100) for k, op in ops.items()}
        return max(defects.values()) <= 1e-10, {"max_defect": max(defects.values())}

    results.append(_timed("operators.adjoint_identity", adjoints))

    def circulant_vs_direct():
        worst = 0.0
        for shape, kernel, anchor in (
            ((6, 6), np.array([[0.0, -1, 0], [-1, 4, -1], [0, -1, 0]]), (1, 1)),
            ((16, 16), np.full((5, 5), 0.04), (2, 2)),
            ((5, 7), np.arange(6.0).reshape(2, 3), (0, 2)),
        ):
            op = make_circulant(shape, kernel, anchor=anchor)
            kr, kc = kernel.shape
            for _ in range(3):
                grid = rng.generator.standard_normal(shape)
                direct = np.zeros(shape)
                for p in range(shape[0]):
                    for q in range(shape[1]):
                        acc = 0.0
                        for i in range(kr):
                            for j in range(kc):
                                acc += kernel[i, j] * grid[
                                    (p - (i - anchor[0])) % shape[0],
                                    (q - (j - anchor[1])) % shape[1],
                                ]
                        direct[p, q] = acc
                worst = max(worst, np.abs(op.apply(grid.ravel()) - direct.ravel()).max())
        return worst <= 1e-12, {"max_abs_err": worst}

    results.append(_timed("operators.circulant_vs_direct", circulant_vs_direct))

    def dense_agreement():
        op = ComposedOperator([
            DecimationOperator((8, 8), 2, DESK_OFFSETS),
            make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0)),
        ])
        dense = densify(op)
        worst = 0.0
        for _ in range(20):
            x = rng.generator.standard_normal(op.in_dim)
            worst = max(worst, np.abs(dense.apply(x) - op.apply(x)).max())
        return worst <= 1e-13, {"max_abs_err": worst}

    results.append(_timed("operators.densify_agreement", dense_agreement))

    def normal_moments():
        draws = standard_normal_vector(rng, 10**6)
        mean, var = draws.mean(), draws.var()
        ok = abs(mean) < 0.004 and 0.994 < var < 1.006
        from scipy import stats

        ks = stats.kstest(draws[: 10**4], "norm").statistic
        ok = ok and ks < 1.63 / 100.0
        return ok, {"mean": mean, "var": var, "ks": ks}

    results.append(_timed("operators.normal_moments", normal_moments))

    def gamma_moments():
        checks = {}
        ok = True
        for shape, scale in ((2.0, 3.0), (0.5, 2.0)):
            draws = np.array([gamma_draw(rng, shape, scale) for _ in range(10**5)])
            target_mean = shape * scale
            target_var = shape * scale**2
            se_mean = np.sqrt(target_var / draws.size)
            se_var = target_var * np.sqrt(2.0 / shape / draws.size) * np.sqrt(shape + 3)
            ok_mean = abs(draws.mean() - target_mean) < 4 * se_mean
            ok_var = abs(draws.var() - target_var) < 4 * max(se_var, 0.01 * target_var)
            checks[f"gamma({shape},{scale})"] = (draws.mean(), draws.var())
            ok = ok and ok_mean and ok_var
        n = 32
        resid = standard_normal_vector(rng, n)
        r = float(resid @ resid)
        draws = np.array([gamma_draw(rng, n / 2.0, 2.0 / r) for _ in range(10**5)])
        ok = ok and abs(draws.mean() - n / r) / (n / r) < 0.03
        checks["precision_conditional_mean"] = draws.mean()
        return ok, {k: _jsonable(v) for k, v in checks.items()}

    results.append(_timed("operators.gamma_moments", gamma_moments))
    return results


# ---------------------------------------------------------------- conjugate


def suite_conjugate(seed=0):
    results = []

    def conjugacy():
        worst = 0.0
        model, _ = _random_spd_precision(6, seed + 1)
        gen = np.random.default_rng(seed + 2)
        cset = build_conjugate_set(model, gen.standard_normal(6), 6)
        worst = max(worst, cset.conjugacy_defect())
        model40, _ = _random_spd_precision(40, seed + 3, eig_lo=0.1, eig_hi=30.0)
        cset40 = build_conjugate_set(model40, gen.standard_normal(40), 12)
        worst = max(worst, cset40.conjugacy_defect())
        return worst <= 1e-8, {"max_defect": worst}

    results.append(_timed("conjugate.mutual_conjugacy", conjugacy))

    def completeness():
        n = 6
        model, q_dense = _random_spd_precision(n, seed + 4)
        mean = np.linalg.solve(q_dense, model.b)
        gen = np.random.default_rng(seed + 5)
        rng = RngState(seed + 6)
        draws = np.empty((10**5, n))
        for i in range(draws.shape[0]):
            cset = build_conjugate_set(model, gen.standard_normal(n), n)
            x0 = gen.standard_normal(n) * 2
            draws[i], _ = sample_along(model, cset, x0, rng)
        report = moment_compare(
            summarize(draws), exact_summary(mean, np.linalg.inv(q_dense)), 4.0, 0.05
        )
        return report.passed, {
            "max_mean_sigma": report.max_mean_sigma, "cov_gap": report.cov_gap,
        }

    results.append(_timed("conjugate.full_set_completeness", completeness))

    def partial_span():
        n = 8
        model, _ = _random_spd_precision(n, seed + 7)
        gen = np.random.default_rng(seed + 8)
        rng = RngState(seed + 9)
        worst = 0.0
        for _ in range(50):
            x0 = gen.standard_normal(n)
            cset = build_conjugate_set(model, gen.standard_normal(n), 3)
            x_new, _ = sample_along(model, cset, x0, rng)
            delta = x_new - x0
            _, residual, _, _ = np.linalg.lstsq(cset.directions.T, delta, rcond=None)
            resid = np.sqrt(residual[0]) if residual.size else 0.0
            worst = max(worst, resid / np.linalg.norm(delta))
        return worst <= 1e-10, {"max_rel_residual": worst}

    results.append(_timed("conjugate.partial_sweep_span", partial_span))

    def early_termination():
        factor = DenseOperator(np.diag(np.sqrt([1.0, 1.0, 2.0])))
        model = PrecisionModel(3, [(factor, 1.0)], np.zeros(3))
        cset = build_conjugate_set(model, np.array([1.0, 0.0, 0.0]), 3)
        return len(cset) < 3, {"set_size": len(cset)}

    results.append(_timed("conjugate.krylov_early_termination", early_termination))
    return results


# ---------------------------------------------------------------- invariance


def suite_invariance(seed=0, n_trials=10**5):
    """One-step stationarity of the x-kernel at every direction count and
    perturbation mode: start from exact target draws, apply one step, and
    compare the output moments with the target at the pinned tolerances
    (means within 4 SE per coordinate, covariance within 5 percent in
    Frobenius norm).
    """
    n = 8
    model, q_dense = _random_spd_precision(n, seed + 11)
    mean = np.linalg.solve(q_dense, model.b)
    q_inv = np.linalg.inv(q_dense)
    fixed = FixedGaussianModel(model)
    results = []
    suite_start = time.perf_counter()

    for perturbation in ("none", "iid_normal", "factored_q"):
        for n_dirs in (1, 3, n):
            def one_combo(perturbation=perturbation, n_dirs=n_dirs):
                oracle_rng = RngState(seed + 100 + n_dirs)
                starts = cholesky_oracle_sample(q_dense, model.b, oracle_rng,
                                                size=n_trials)
                cfg = GsgsConfig(n_dirs=n_dirs, max_iters=1,
                                 perturbation=perturbation, seed=0)
                rng = RngState(seed + 200 + n_dirs)
                out = np.empty((n_trials, n))
                for i in range(n_trials):
                    state = ChainState(x=starts[i], theta=None, t=0, rng=rng)
                    out[i] = gsgs_step(fixed, state, cfg).x
                report = moment_compare(
                    summarize(out), exact_summary(mean, q_inv), 4.0, 0.05
                )
                return report.passed, {
                    "max_mean_sigma": report.max_mean_sigma,
                    "cov_gap": report.cov_gap,
                    "n_trials": n_trials,
                }

            results.append(
                _timed(f"invariance.one_step[pert={perturbation},n_dirs={n_dirs}]",
                       one_combo)
            )

    total = time.perf_counter() - suite_start
    results.append(CheckResult(
        name="invariance.runtime_budget", passed=total < 120.0, seconds=total,
        details={"seconds": total, "budget": 120.0},
    ))
    return results


# ----------------------------------------------------------------- toy-hier


def build_toy_model(seed=0):
    """Pinned 1-D deconvolution toy: 16 unknowns, 16 observations.

    Three-tap blur (0.2, 0.6, 0.2), periodic second-difference penalty, unit
    true noise precision. Hyperpriors are weakly informative
    (all parameters 0.1) rather than flat: with a flat prior this model's
    smoothness-precision posterior has a non-integrable logarithmic tail, and
    every sampler, exact ones included, eventually random-walks to infinity.
    Operators are stored dense: the chains are long and the grids tiny.
    """
    truth = phantom((1, 16))
    blur = make_circulant((1, 16), [[0.2, 0.6, 0.2]])
    penalty = make_circulant((1, 16), [[-1.0, 2.0, -1.0]])
    decimation = DecimationOperator((1, 16), 1, [(0, 0)])
    data_rng = RngState(seed)
    clean = decimation.apply(blur.apply(truth.ravel()))
    data = clean + standard_normal_vector(data_rng, clean.shape[0])
    return SuperResModel(
        blur=densify(blur), decimation=densify(decimation),
        penalty=densify(penalty), data=data, hr_shape=(1, 16),
        alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1, truth=truth,
    )


def suite_toy_hier(seed=0):
    """Hierarchical toy equivalence: the directional chain's hyperparameter
    posterior against an exact-Gibbs oracle that redraws the whole image by
    Cholesky every iteration. Gates: means within 5 percent, standard
    deviations within 15 percent.
    """
    results = []
    model = build_toy_model(seed + 21)
    start = time.perf_counter()

    cfg = GsgsConfig(n_dirs=4, max_iters=10**5, burn_in=10**4,
                     perturbation="factored_q", seed=seed + 22)
    run = run_superres(model, cfg)
    ref = exact_gibbs_reference(model, 40_000, 4_000, seed=seed + 23)

    def gate(name, got, want, tol):
        rel = abs(got / want - 1.0)
        return CheckResult(
            name=f"toy_hier.{name}", passed=rel <= tol, seconds=0.0,
            details={"chain": got, "oracle": want, "rel_gap": rel, "tol": tol},
        )

    elapsed = time.perf_counter() - start
    results.append(gate("gamma_n_mean", run.gamma_n_mean, ref.gamma_n_mean, 0.05))
    results.append(gate("gamma_x_mean", run.gamma_x_mean, ref.gamma_x_mean, 0.05))
    results.append(gate("gamma_n_std", run.gamma_n_std, ref.gamma_n_std, 0.15))
    results.append(gate("gamma_x_std", run.gamma_x_std, ref.gamma_x_std, 0.15))
    results[0].seconds = elapsed
    results.append(CheckResult(
        name="toy_hier.runtime_budget", passed=elapsed < 300.0, seconds=elapsed,
        details={"seconds": elapsed, "budget": 300.0},
    ))
    return results


# ------------------------------------------------------------ superres-desk


def build_desk_model(seed=0, gamma_n_true=1.0):
    """The pinned desk-scale scene: 64x64 truth, three 32x32 frames,
    5-pixel uniform blur, flat hyperpriors."""
    return simulate_data(
        phantom(DESK_SHAPE), DESK_FACTOR, DESK_OFFSETS, DESK_BLUR,
        gamma_n_true, RngState(seed),
    )


def suite_superres_desk(seed=0):
    results = []
    model = build_desk_model(seed + 31, gamma_n_true=1.0)

    # Reconstruction run (shared by the estimate, trade-off and pathology
    # checks) plus the exact reference on the same data.
    start = time.perf_counter()
    cfg10 = GsgsConfig(n_dirs=10, max_iters=2000, burn_in=500,
                       perturbation="factored_q", seed=seed + 32)
    run10 = run_superres(model, cfg10)
    ref = exact_gibbs_reference(model, 300, 60, seed=seed + 33)
    t3_seconds = time.perf_counter() - start

    gamma_n = run10.gamma_n_mean
    results.append(CheckResult(
        name="desk.gamma_n_estimate", passed=0.9 <= gamma_n <= 1.1,
        seconds=t3_seconds,
        details={"gamma_n": gamma_n, "band": [0.9, 1.1],
                 "reference_gamma_n": ref.gamma_n_mean},
    ))
    gx_gap = abs(run10.gamma_x_mean / ref.gamma_x_mean - 1.0)
    results.append(CheckResult(
        name="desk.gamma_x_vs_reference", passed=gx_gap <= 0.15, seconds=0.0,
        details={"gamma_x": run10.gamma_x_mean,
                 "reference_gamma_x": ref.gamma_x_mean, "rel_gap": gx_gap,
                 "tol": 0.15},
    ))
    results.append(CheckResult(
        name="desk.runtime_budget", passed=t3_seconds < 600.0, seconds=t3_seconds,
        details={"seconds": t3_seconds, "budget": 600.0},
    ))

    # Direction-count trade-off: per-iteration cost ratios and agreement of
    # the noise-precision estimates (the smallest direction count gets a
    # four-fold iteration budget).
    start = time.perf_counter()
    run150 = run_superres(model, GsgsConfig(
        n_dirs=150, max_iters=800, burn_in=200,
        perturbation="factored_q", seed=seed + 34))
    run2 = run_superres(model, GsgsConfig(
        n_dirs=2, max_iters=8000, burn_in=2000,
        perturbation="factored_q", seed=seed + 35))
    t4_seconds = time.perf_counter() - start
    wall150 = run150.record.median_wall_ms(skip=5)
    wall10 = run10.record.median_wall_ms(skip=5)
    wall2 = run2.record.median_wall_ms(skip=5)
    results.append(CheckResult(
        name="desk.tradeoff_timing", seconds=t4_seconds,
        passed=(wall150 >= 5.0 * wall10) and (wall10 >= 2.0 * wall2),
        details={"ms_per_iter": {"150": wall150, "10": wall10, "2": wall2}},
    ))
    estimates = {150: run150.gamma_n_mean, 10: gamma_n, 2: run2.gamma_n_mean}
    spread = max(estimates.values()) / min(estimates.values())
    results.append(CheckResult(
        name="desk.tradeoff_gamma_n_agreement", seconds=0.0,
        passed=spread <= 1.1,
        details={"gamma_n_by_n_dirs": {str(k): v for k, v in estimates.items()},
                 "max_over_min": spread, "tol": 1.1},
    ))

    # High-noise recovery.
    start = time.perf_counter()
    noisy = build_desk_model(seed + 36, gamma_n_true=0.01)
    run_noisy = run_superres(noisy, GsgsConfig(
        n_dirs=10, max_iters=2000, burn_in=500,
        perturbation="factored_q", seed=seed + 37))
    results.append(CheckResult(
        name="desk.high_noise_gamma_n",
        passed=0.009 <= run_noisy.gamma_n_mean <= 0.011,
        seconds=time.perf_counter() - start,
        details={"gamma_n": run_noisy.gamma_n_mean, "band": [0.009, 0.011]},
    ))

    # No-perturbation pathology: over-regularization direction. Observational.
    start = time.perf_counter()
    run_none = run_superres(model, GsgsConfig(
        n_dirs=10, max_iters=2000, burn_in=500,
        perturbation="none", seed=seed + 38))
    ratio = run_none.gamma_x_mean / run10.gamma_x_mean
    results.append(CheckResult(
        name="desk.no_perturbation_overregularizes", passed=ratio >= 1.5,
        seconds=time.perf_counter() - start, gating=False,
        details={"gamma_x_none": run_none.gamma_x_mean,
                 "gamma_x_perturbed": run10.gamma_x_mean, "ratio": ratio},
    ))
    return results


SUITES = {
    "operators": suite_operators,
    "conjugate": suite_conjugate,
    "invariance": suite_invariance,
    "toy-hier": suite_toy_hier,
    "superres-desk": suite_superres_desk,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)


def format_results(results):
    lines = [r.line() for r in results]
    gating = [r for r in results if r.gating]
    n_pass = sum(r.passed for r in gating)
    lines.append(f"{n_pass}/{len(gating)} gating checks passed")
    return "\n".join(lines)


def results_report(name, seed, results):
    return {
        "suite": name,
        "seed": seed,
        "passed": all(r.passed for r in results if r.gating),
        "checks": [r.to_dict() for r in results],
    }
