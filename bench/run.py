"""Benchmark of the gsgs sampler: one closed-loop chain per run.

    python3 bench/run.py --workload desk-k10 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the same chain with per-layer spans and counters and
reports the per-layer metrics. Either run checks the program's outputs,
prints a report (environment, checks, chain health, every metric with its
unit and sample count) and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Each run steps one chain, each iteration waiting for the previous one, for at
least ``--seconds`` seconds and at least the workload's ``min_iters``
iterations (``replay_iters`` when traced; at most ``max_iters``, where set),
in one process with BLAS pinned to one thread. It imports ``gsgs`` from
``src/`` next to this directory and fails without it.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import environment

environment.pin_threads()

import numpy as np  # noqa: E402  (after pinning the BLAS threads)
from ess import ess  # noqa: E402
from tracing import (  # noqa: E402
    CountingGenerator, Tracer, counting_ffts, instrument_operator,
    instrument_theta_model, replaced,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_EVERY_S = 0.5
PRECISION_RTOL = 1e-12
DEFECT_TOL = 1e-8
# Highest plausible chain speed; bounds the preallocated per-iteration arrays.
MAX_ITERS_PER_S = 100_000


def import_gsgs():
    """gsgs from ``src/`` of this checkout; ``workloads`` imports it too, so
    it is imported only after this."""
    sys.path.insert(0, str(SRC))
    try:
        import gsgs
        import gsgs.engine
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gsgs from {SRC}: {exc}")
    if not Path(gsgs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: gsgs imported from {gsgs.__file__}, not from {SRC}")
    return gsgs


@dataclass
class Chain:
    """What one closed-loop chain produced."""

    iter_s: np.ndarray
    gamma_n: np.ndarray
    gamma_x: np.ndarray
    dirs: np.ndarray
    attempted: int
    failed: int
    nonfinite: int
    skipped: int
    defects: list = field(default_factory=list)

    @property
    def n(self):
        return self.iter_s.size


def step_chain(gsgs, wl, parts, min_seconds, min_iters, max_iters,
              tracer=None, after_step=None):
    """Step ``parts = (theta_model, state, cfg)`` until both ``min_seconds``
    and ``min_iters`` are reached (or ``max_iters``).

    One iteration is what ``gsgs.run_chain`` does per iteration: one
    ``gsgs_step`` plus ``theta_scalars`` and ``ChainRecord.observe``. Only
    that is timed; the finiteness check and ``after_step`` run outside it.
    An iteration that raises is counted as failed and the chain goes on.
    """
    theta_model, state, cfg = parts
    step = gsgs.gsgs_step
    iter_s = np.empty(max_iters)
    dirs = np.empty(max_iters, dtype=np.int64)
    record = None
    attempted = failed = nonfinite = skipped = 0
    n = 0
    deadline = time.perf_counter() + min_seconds
    while n < max_iters and (n < min_iters or time.perf_counter() < deadline):
        attempted += 1
        tick = time.perf_counter()
        try:
            if tracer is None:
                step(theta_model, state, cfg)
            else:
                span = tracer.begin("engine.step")
                try:
                    step(theta_model, state, cfg)
                finally:
                    tracer.end(span)
        except (gsgs.GsgsError, ValueError, np.linalg.LinAlgError):
            failed += 1
            if tracer is not None:
                tracer.discard_iteration()
            continue
        stepped = time.perf_counter()
        if tracer is not None:
            span = tracer.begin("engine.record")
        scalars = theta_model.theta_scalars(state.theta)
        if record is None:
            record = gsgs.ChainRecord(
                dim=state.x.shape[0], max_iters=max_iters, burn_in=wl.burn_in,
                thinning=0, seed=state.rng.seed, theta_names=tuple(scalars),
            )
        record.observe(
            t=state.t, theta_values=[scalars[k] for k in record.theta_names],
            potential=state.last_step["potential"],
            alpha_norm=state.last_step["alpha_norm"],
            wall_ms=(stepped - tick) * 1e3, x=state.x,
        )
        if tracer is not None:
            tracer.end(span)
            tracer.end_iteration()
        iter_s[n] = time.perf_counter() - tick
        if not (np.isfinite(state.x).all() and np.isfinite(record.theta_trace[n]).all()):
            nonfinite += 1
        dirs[n] = state.last_step["n_dirs"]
        skipped += bool(state.last_step["skipped"])
        n += 1
        if after_step is not None:
            after_step(n)
    if record is None:
        raise SystemExit("bench: no chain iteration succeeded")
    return Chain(
        iter_s=iter_s[:n], gamma_n=record.theta_column("gamma_n").copy(),
        gamma_x=record.theta_column("gamma_x").copy(), dirs=dirs[:n],
        attempted=attempted, failed=failed, nonfinite=nonfinite, skipped=skipped,
    )


class DefectSampler:
    """Samples ``conjugacy_defect()`` of the sets a chain builds.

    ``keep`` sees every set the wrapped build returns and holds the newest;
    ``after_step`` takes its defect every ``every``-th iteration, after the
    iteration and outside its timing.
    """

    def __init__(self, every):
        self.every = every
        self.defects = []
        self._latest = None

    def keep(self, args, cset):
        self._latest = cset

    def wrap(self, build):
        def kept(*args, **kwargs):
            cset = build(*args, **kwargs)
            self._latest = cset
            return cset

        return kept

    def after_step(self, n):
        if self._latest is not None and (n - 1) % self.every == 0:
            self.defects.append(self._latest.conjugacy_defect())
        self._latest = None


def check_precision(gsgs, wl, theta_model, points):
    """Largest relative gap between the model's Q-apply and the numpy
    evaluation in ``workloads.reference_precision_apply``, relative to the
    magnitude of the products summed."""
    import workloads

    worst = 0.0
    for gamma_n, gamma_x, x in points:
        precision = theta_model.precision_at(gsgs.Hyperparams(gamma_n=gamma_n, gamma_x=gamma_x))
        want = workloads.reference_precision_apply(wl, gamma_n, gamma_x, x)
        scale = workloads.reference_precision_apply(wl, gamma_n, gamma_x, x, magnitude=True)
        got = precision.apply(np.array(x))
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(scale)))
    return worst


def precision_points(chain, state, gen, dim):
    """Random points plus the chain's own last state."""
    return [
        (1.0, 1.0, gen.standard_normal(dim)),
        (float(gen.uniform(0.1, 10.0)), float(gen.uniform(0.1, 10.0)), gen.standard_normal(dim)),
        (float(chain.gamma_n[-1]), float(chain.gamma_x[-1]), state.x.copy()),
    ]


def percentile_ms(iter_s, q):
    return float(np.percentile(iter_s, q) * 1e3)


def metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def failed_frac(chain):
    """Iterations that raised or went non-finite, over those attempted.

    Reported, not a benchmark metric: it is zero on every workload. The
    result line carries the same as ``failed`` over ``attempted``.
    """
    failed = chain.failed + chain.nonfinite
    return {"failed_frac": metric(failed / chain.attempted, "fraction", chain.attempted)}


def health(wl, chain):
    """Chain-health fields: reported, never gated."""
    burn = min(wl.burn_in, chain.n) - 1
    return {
        "iterations": chain.n,
        "gamma_x_end_of_burn_in": float(chain.gamma_x[burn]),
        "gamma_x_end_of_chain": float(chain.gamma_x[-1]),
        "gamma_n_end_of_chain": float(chain.gamma_n[-1]),
        "dirs_reached_min": int(chain.dirs.min()),
        "conjugacy_defect_max": max(chain.defects) if chain.defects else None,
        "conjugacy_defect_samples": len(chain.defects),
        "skipped_steps": chain.skipped,
    }


def max_iters_for(wl, seconds):
    return wl.max_iters or max(wl.min_iters, int(seconds * MAX_ITERS_PER_S))


def end_to_end(gsgs, wl, seed, seconds):
    """Untimed set-up repeats, one timed chain, one same-seed replay."""
    from workloads import build_chain, make_data, streams

    data_gen, gen, seed_chain = streams(wl, seed)
    data = make_data(wl, data_gen)

    def set_up():
        tick = time.perf_counter()
        parts = build_chain(wl, data, seed_chain)
        setup_s.append(time.perf_counter() - tick)
        return parts

    # Set-up is repeated between iterations all through the chain, outside
    # their timing, so its median sees the same machine as the chain does.
    setup_s = []
    parts = set_up()
    next_setup = time.perf_counter()

    # The chain's record grows with its length, and a run's length grows
    # with the machine's speed; peak memory is read after a fixed number of
    # iterations so that a faster program does not read as a larger one.
    rss_mb = []

    def between_iterations(n):
        nonlocal next_setup
        if n == wl.min_iters:
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if time.perf_counter() >= next_setup:
            set_up()
            next_setup = time.perf_counter() + SETUP_EVERY_S

    chain = step_chain(gsgs, wl, parts, seconds, wl.min_iters, max_iters_for(wl, seconds),
                       after_step=between_iterations)
    theta_model, state, _ = parts
    precision_gap = check_precision(
        gsgs, wl, theta_model, precision_points(chain, state, gen, state.x.size)
    )

    # Same seed again, for a prefix: bit-identical theta and sampled defects.
    replay_n = min(chain.n, wl.replay_iters)
    sampler = DefectSampler(max(1, replay_n // 20))
    engine = gsgs.engine
    with replaced(engine, "build_conjugate_set", sampler.wrap(engine.build_conjugate_set)):
        replay = step_chain(gsgs, wl, build_chain(wl, data, seed_chain), 0.0,
                            replay_n, replay_n, after_step=sampler.after_step)
    chain.defects = replay_defects = sampler.defects

    # ESS comes from a fixed window of iterations, so that it repeats for a
    # fixed seed; the time that window takes is charged at the whole run's
    # rate, which averages the machine's speed over more of the run.
    window = slice(wl.burn_in, wl.ess_window)
    ess_n = ess(chain.gamma_n[window])
    ess_x = ess(chain.gamma_x[window])
    chain_s = float(chain.iter_s.sum())
    window_s = wl.ess_window * chain_s / chain.n

    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "iters_per_s": metric(chain.n / chain_s, "1/s", chain.n),
        "iter_ms.p95": metric(percentile_ms(chain.iter_s, 95), "ms", chain.n),
        "ess_per_s.gamma_n": metric(ess_n / window_s, "1/s", wl.ess_draws),
        "ess_per_s.gamma_x": metric(ess_x / window_s, "1/s", wl.ess_draws),
        "peak_rss_mb": metric(rss_mb[0], "MB", 1),
    }
    checks = {
        "precision_matches_numpy": {
            "passed": precision_gap <= PRECISION_RTOL, "rel_gap": precision_gap,
            "tol": PRECISION_RTOL,
        },
        "conjugacy_defect": {
            "passed": bool(replay_defects) and max(replay_defects) <= DEFECT_TOL,
            "max": max(replay_defects, default=None), "samples": len(replay_defects),
            "tol": DEFECT_TOL,
        },
        "iterates_finite": {"passed": chain.nonfinite == 0 and replay.nonfinite == 0,
                            "nonfinite": chain.nonfinite + replay.nonfinite},
        "same_seed_bit_identical": {
            "passed": _identical(chain, replay, replay_n), "iterations": replay_n,
        },
    }
    info = {
        "health": health(wl, chain),
        "ess": {"gamma_n": ess_n, "gamma_x": ess_x, "window": [wl.burn_in, wl.ess_window],
                "window_s": window_s, "meaningful": wl.ess_meaningful},
        "reported": {
            "iter_ms.p50": metric(percentile_ms(chain.iter_s, 50), "ms", chain.n),
            **failed_frac(chain),
        },
    }
    return metrics, checks, info, chain


def _identical(a, b, n):
    return bool(
        np.array_equal(a.gamma_n[:n], b.gamma_n[:n])
        and np.array_equal(a.gamma_x[:n], b.gamma_x[:n])
    )


def pair_us(op, gen, seconds=0.2):
    """Median time of one apply + adjoint_apply pair, in microseconds."""
    x = gen.standard_normal(op.in_dim)
    y = gen.standard_normal(op.out_dim)
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 50 or time.perf_counter() < deadline:
        tick = time.perf_counter()
        op.apply(x)
        op.adjoint_apply(y)
        times.append(time.perf_counter() - tick)
    return statistics.median(times) * 1e6, len(times)


def per_layer(gsgs, wl, seed, seconds):
    """Traced chain, then the untraced chain on the same seed for the first
    eighth of its iterations: the traces must match bit for bit, and the
    ratio of their speeds is the tracing overhead."""
    import scipy.fft

    from workloads import build_chain, make_data, streams

    data_gen, gen, seed_chain = streams(wl, seed)
    data = make_data(wl, data_gen)

    circulant = gsgs.make_circulant(wl.shape, wl.blur)
    decimation = gsgs.DecimationOperator(wl.shape, wl.factor, wl.offsets)
    circulant_us, circulant_n = pair_us(circulant, gen)
    decimation_us, decimation_n = pair_us(decimation, gen)

    tracer = Tracer()
    parts = build_chain(wl, data, seed_chain)
    theta_model, state, _ = parts
    model = theta_model.model
    for op in (model.blur, model.decimation, model.penalty):
        instrument_operator(tracer, op)
    instrument_theta_model(tracer, theta_model)
    state.rng.generator = CountingGenerator(state.rng.generator, tracer)

    sampler = DefectSampler(max(1, wl.replay_iters // 4))
    engine = gsgs.engine
    with replaced(engine, "build_conjugate_set",
                  tracer.wrap("conjugate.build", engine.build_conjugate_set, sampler.keep)), \
            replaced(engine, "sample_along",
                     tracer.wrap("conjugate.sample_along", engine.sample_along)), \
            counting_ffts(tracer, (np.fft, scipy.fft)):
        chain = step_chain(gsgs, wl, parts, seconds, wl.replay_iters,
                           max_iters_for(wl, seconds), tracer=tracer,
                           after_step=sampler.after_step)
    chain.defects = defects = sampler.defects
    # The instruments stay on; what runs after the chain must not count.
    counts = Counter(tracer.counts)
    precision_gap = check_precision(
        gsgs, wl, theta_model, precision_points(chain, state, gen, state.x.size)
    )

    compare_n = max(1, chain.n // 8)
    plain = step_chain(gsgs, wl, build_chain(wl, data, seed_chain), 0.0, compare_n, compare_n)
    speed_ratio = float(plain.iter_s.sum() / chain.iter_s[:compare_n].sum())

    it = tracer.iterations
    calls = tracer.calls
    build_ms = tracer.per_call_ms("conjugate.build")
    build_self_ms = tracer.per_call_ms("conjugate.build", use_self=True)
    metrics = {
        "operators.circulant_us": metric(circulant_us, "us", circulant_n),
        "operators.decimation_us": metric(decimation_us, "us", decimation_n),
        "operators.ffts_per_iter": metric(counts["operators.ffts"] / it, "count", it),
        "operators.bytes_per_iter": metric(
            counts["operators.bytes"] / it, "bytes_computed", it),
        "conjugate.q_apply_ms": metric(
            tracer.per_call_ms("conjugate.q_apply"), "ms", calls["conjugate.q_apply"]),
        "conjugate.q_applies_per_iter": metric(calls["conjugate.q_apply"] / it, "count", it),
        "conjugate.build_ms": metric(build_ms, "ms", calls["conjugate.build"]),
        "conjugate.build_orth_ms": metric(build_self_ms, "ms", calls["conjugate.build"]),
        "conjugate.build_q_share": metric(
            1.0 - build_self_ms / build_ms if build_ms else 0.0, "fraction",
            calls["conjugate.build"]),
        "conjugate.dirs_reached": metric(chain.dirs.mean(), "count", chain.n),
        "conjugate.sample_along_ms": metric(
            tracer.per_call_ms("conjugate.sample_along"), "ms",
            calls["conjugate.sample_along"]),
        "superres.theta_ms": metric(
            tracer.per_call_ms("superres.theta"), "ms", calls["superres.theta"]),
        "superres.perturbation_ms": metric(
            tracer.per_call_ms("superres.perturbation"), "ms", calls["superres.perturbation"]),
        "superres.precision_ms": metric(
            tracer.per_call_ms("superres.precision"), "ms", calls["superres.precision"]),
        "engine.step_ms": metric(tracer.per_call_ms("engine.step"), "ms", calls["engine.step"]),
        "engine.step_self_ms": metric(
            tracer.per_call_ms("engine.step", use_self=True), "ms", calls["engine.step"]),
        "engine.record_ms": metric(
            tracer.per_call_ms("engine.record"), "ms", calls["engine.record"]),
        "engine.skipped_steps": metric(chain.skipped, "count", chain.n),
        "rng.normals_per_iter": metric(counts["rng.normals"] / it, "count", it),
        "rng.calls_per_iter": metric(calls["rng.draw"] / it, "count", it),
        "rng.draw_ms": metric(1e3 * tracer.total_s["rng.draw"] / it, "ms", calls["rng.draw"]),
        "trace.speed_ratio": metric(speed_ratio, "ratio", compare_n),
    }
    checks = {
        "precision_matches_numpy": {
            "passed": precision_gap <= PRECISION_RTOL, "rel_gap": precision_gap,
            "tol": PRECISION_RTOL,
        },
        "conjugacy_defect": {
            "passed": bool(defects) and max(defects) <= DEFECT_TOL,
            "max": max(defects, default=None), "samples": len(defects), "tol": DEFECT_TOL,
        },
        "iterates_finite": {"passed": chain.nonfinite == 0 and plain.nonfinite == 0,
                            "nonfinite": chain.nonfinite + plain.nonfinite},
        "traced_matches_untraced_bit_identical": {
            "passed": _identical(chain, plain, compare_n), "iterations": compare_n,
        },
    }
    info = {
        "health": health(wl, chain),
        "layers": {
            name: {"calls": calls[name], "total_ms": 1e3 * tracer.total_s[name],
                   "self_ms": 1e3 * tracer.self_s[name]}
            for name in sorted(calls)
        },
        "counts_per_iter": {name: count / it for name, count in sorted(counts.items())},
        "bases": {
            "conjugate.build_q_share": "Q-apply time inside conjugate.build over "
                                       "conjugate.build time (conjugate.build_ms)",
            "trace.speed_ratio": "traced over untraced iters_per_s on the same seed, "
                                 "over the traced chain's first eighth",
            "operators.bytes_per_iter": "computed from array sizes: input plus output "
                                        "bytes of every operator apply/adjoint",
        },
        "reported": failed_frac(chain),
    }
    return metrics, checks, info, chain


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    env = environment.capture(ROOT)
    gsgs = import_gsgs()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    metrics, checks, info, chain = run(gsgs, wl, args.seed, args.seconds)
    correct = all(check["passed"] for check in checks.values())
    failed = chain.failed + chain.nonfinite if correct else chain.attempted
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment.finish(env),
        "checks": checks, **info, "metrics": metrics,
    }
    print(json.dumps(report, indent=1, default=float))
    for name, m in {**metrics, **info["reported"]}.items():
        print(f"{wl.name:>13} {name:<30} {m['value']:>14.6g} {m['unit']:<15} n={m['n']}")
    print(json.dumps({
        "correct": correct,
        "attempted": chain.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
