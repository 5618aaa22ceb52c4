"""Command-line interface: simulate, run, diagnose, validate.

All commands resolve their settings from defaults, an optional JSON config
file (flat keys) and command-line flags, in that order of precedence, and
echo the fully resolved configuration next to their outputs so any result
can be reproduced from its own metadata.
"""

import argparse
import csv
import ctypes
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import autocorrelation
from .engine import BOOKKEEPING_COLUMNS, PERTURBATIONS, GsgsConfig
from .errors import ConfigurationError, GsgsError
from .imgio import read_image_f64, write_image_f64, write_image_pgm16
from .rng import RngState
from .superres import (
    SuperResModel,
    check_hyperpriors,
    check_noise_precision,
    geometry_operators,
    phantom,
    run_superres,
    simulate_data,
)
from .validate import SUITES, format_results, results_report, run_suite

logger = logging.getLogger(__name__)


# Keys of settings that are gone, and the one value each still reads as:
# config files written before they went hold these values.
RETIRED_KEYS = {"perturbation_period": 1, "paper_literal_shapes": False}


@dataclass
class RunConfig:
    """Resolved settings for simulate/run; flat, JSON-serializable."""

    rows: int = 64
    cols: int = 64
    factor: int = 2
    offsets: list = field(default_factory=lambda: [[0, 0], [1, 0], [0, 1]])
    blur_width: int = 5
    gamma_n_true: float = 1.0
    alpha_n: float = 0.0
    beta_n: float = 0.0
    alpha_x: float = 0.0
    beta_x: float = 0.0
    n_dirs: int = 10
    perturbation: str = "factored_q"
    max_iters: int = 2000
    burn_in: int = 500
    thinning: int = 10
    seed: int = 0
    output_dir: str = "gsgs-out"
    data_dir: str = ""

    @classmethod
    def resolve(cls, args, data_keys=()):
        """defaults <- json file <- command-line flags.

        ``data_keys`` are settings the command reads from its data directory;
        setting one in the file or by a flag is an error that names it.
        """
        values = asdict(cls())
        given = set()
        if getattr(args, "config", None):
            with open(args.config) as fh:
                try:
                    loaded = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"config file {args.config} is not valid JSON: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigurationError(
                    f"config file {args.config} must hold a JSON object of settings")
            for key, only in RETIRED_KEYS.items():
                value = loaded.pop(key, only)
                if type(value) is not type(only) or value != only:
                    raise ConfigurationError(f"config key {key!r} in {args.config} is "
                                             f"retired and reads only as {only!r}, got {value!r}")
            unknown = set(loaded) - set(values)
            if unknown:
                raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
            loaded = {key: _read_float(key, value) for key, value in loaded.items()}
            for key, value in loaded.items():
                # A float setting also takes a JSON integer; bool is not int.
                kind = type(values[key])
                if type(value) not in ((int, float) if kind is float else (kind,)):
                    raise ConfigurationError(
                        f"config key {key!r} in {args.config} must be "
                        f"{kind.__name__}, got {value!r}")
            offsets = loaded.get("offsets", [])
            if not all(type(o) is list and len(o) == 2 and all(type(v) is int for v in o)
                       for o in offsets):
                raise ConfigurationError(
                    f"config key 'offsets' in {args.config} must be a list of "
                    f"[row, col] integer pairs, got {offsets!r}")
            values.update(loaded)
            given.update(loaded)
        for key in values:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
                given.add(key)
        clash = [key for key in data_keys if key in given]
        if clash:
            raise GsgsError(
                f"{clash} come from meta.json in the data directory; do not "
                f"set them by flag or config file"
            )
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("grid dimensions must be positive")
        # geometry_operators, the superres checks and GsgsConfig hold the
        # rules for the geometry, the model parameters and the chain settings.
        geometry_operators((self.rows, self.cols), self.factor, self.offsets, self.blur_width)
        check_hyperpriors(alpha_n=self.alpha_n, beta_n=self.beta_n,
                          alpha_x=self.alpha_x, beta_x=self.beta_x)
        if self.gamma_n_true is not None:  # None: a data directory that records none
            check_noise_precision(self.gamma_n_true)
        self.chain_config()

    def chain_config(self, seed=None):
        return GsgsConfig(
            n_dirs=self.n_dirs,
            max_iters=self.max_iters,
            burn_in=self.burn_in,
            perturbation=self.perturbation,
            thinning=self.thinning,
            seed=self.seed if seed is None else seed,
        )

    def dump(self, path):
        _write_json(path, asdict(self))


FLOAT_KEYS = frozenset(f.name for f in fields(RunConfig) if f.type is float)
NON_FINITE = ("inf", "-inf", "nan")


def _write_json(path, obj):
    """Write ``obj`` as strict JSON, each non-finite float as the string
    "inf", "-inf" or "nan"."""
    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return str(value)
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    with open(path, "w") as fh:
        json.dump(finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _read_float(key, value):
    """A setting as read from JSON: a float setting's "inf", "-inf" or "nan"
    reads as that float."""
    return float(value) if key in FLOAT_KEYS and value in NON_FINITE else value


def _ensure_writable(directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    probe = directory / ".write-probe"
    try:
        probe.write_text("")
    finally:
        if probe.exists():
            probe.unlink()
    return directory


def _frame_stack_image(data, n_frames, lr_shape):
    """Lay the observation vector out as vertically stacked frames."""
    return data.reshape(n_frames * lr_shape[0], lr_shape[1])


def cmd_simulate(args):
    cfg = RunConfig.resolve(args)
    out = _ensure_writable(cfg.output_dir)
    truth = phantom((cfg.rows, cfg.cols))
    model = simulate_data(
        truth, cfg.factor, [tuple(o) for o in cfg.offsets], cfg.blur_width,
        cfg.gamma_n_true, RngState(cfg.seed),
        alpha_n=cfg.alpha_n, beta_n=cfg.beta_n,
        alpha_x=cfg.alpha_x, beta_x=cfg.beta_x,
    )
    lr_shape = model.decimation.lr_shape
    write_image_f64(out / "truth.f64", truth)
    write_image_f64(out / "y.f64",
                    _frame_stack_image(model.data, len(cfg.offsets), lr_shape))
    meta = {
        "seed": cfg.seed,
        "n_pixels": model.n_pixels,
        "n_data": model.n_data,
        "lr_shape": list(lr_shape),
        "blur_anchor": "centered",
        "config": asdict(cfg),
    }
    _write_json(out / "meta.json", meta)
    cfg.dump(out / "resolved_config.json")
    print(f"wrote {out}/y.f64 ({model.n_data} values), truth.f64, meta.json")
    return 0


GEOMETRY_KEYS = ("rows", "cols", "factor", "offsets", "blur_width")
# What `gsgs run` takes from the data directory rather than from its flags:
# the geometry, and the noise precision the data were simulated with.
DATA_KEYS = GEOMETRY_KEYS + ("gamma_n_true",)


def _data_settings(cfg):
    """The DATA_KEYS settings recorded in the data directory's meta.json
    ("config" keys): the geometry, which must be there, and gamma_n_true,
    None when not recorded."""
    data_dir = Path(cfg.data_dir or cfg.output_dir)
    meta_path = data_dir / "meta.json"
    if not meta_path.exists():
        raise GsgsError(f"no data found in {data_dir} (missing meta.json)")
    try:
        with open(meta_path) as fh:
            recorded = json.load(fh).get("config", {})
    except json.JSONDecodeError as exc:
        raise GsgsError(f"{meta_path} is not valid JSON: {exc}") from exc
    missing = [key for key in GEOMETRY_KEYS if key not in recorded]
    if missing:
        raise GsgsError(f"{meta_path} lacks config keys {missing}")
    return {key: _read_float(key, recorded.get(key)) for key in DATA_KEYS}


def _load_model(cfg):
    """The model of a data directory: the geometry recorded in meta.json,
    the stacked frames in y.f64, and truth.f64 for scoring when present.
    Hyperprior parameters come from the run config."""
    data_dir = Path(cfg.data_dir or cfg.output_dir)
    geometry = _data_settings(cfg)
    shape = (int(geometry["rows"]), int(geometry["cols"]))
    blur, decimation, penalty = geometry_operators(
        shape, geometry["factor"], geometry["offsets"], geometry["blur_width"]
    )
    data = read_image_f64(data_dir / "y.f64").ravel()
    if data.size != decimation.out_dim:
        raise GsgsError(
            f"data in {data_dir} has {data.size} values; geometry expects "
            f"{decimation.out_dim}"
        )
    truth_path = data_dir / "truth.f64"
    truth = read_image_f64(truth_path) if truth_path.exists() else None
    if truth is not None and truth.shape != shape:
        raise GsgsError(f"truth in {data_dir} has shape {truth.shape}; geometry is {shape}")
    return SuperResModel(
        blur, decimation, penalty, data, shape,
        alpha_n=cfg.alpha_n, beta_n=cfg.beta_n,
        alpha_x=cfg.alpha_x, beta_x=cfg.beta_x, truth=truth,
    )


# Thread-count getters exported by the OpenBLAS builds numpy ships with or
# links to.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Threads of the OpenBLAS mapped into this process, or None without one.

    Reports record it because sums split over more threads round
    differently, so long chains read different digits at different counts.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in _OPENBLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _single_run(cfg, seed, out):
    model = _load_model(cfg)
    start = time.perf_counter()
    result = run_superres(model, cfg.chain_config(seed=seed))
    total_s = time.perf_counter() - start
    out = _ensure_writable(out)
    write_image_f64(out / "pm.f64", result.posterior_mean)
    write_image_pgm16(out / "pm.pgm", result.posterior_mean)
    write_image_f64(out / "psd.f64", result.posterior_std)
    write_image_pgm16(out / "psd.pgm", result.posterior_std)
    result.record.save(out, image_shape=model.hr_shape)
    report = {
        "seed": seed,
        "gamma_n_hat": result.gamma_n_mean,
        "sigma_gamma_n": result.gamma_n_std,
        "gamma_x_hat": result.gamma_x_mean,
        "sigma_gamma_x": result.gamma_x_std,
        "loop_ms": result.record.mean_wall_ms(),
        "total_s": total_s,
        "blas_threads": _blas_threads(),
    }
    if model.truth is not None:
        err = result.posterior_mean - model.truth
        report["truth_rel_error"] = float(
            np.linalg.norm(err) / np.linalg.norm(model.truth)
        )
    _write_json(out / "report.json", report)
    cfg.dump(out / "resolved_config.json")
    return report


def _chain_worker(payload):
    cfg_values, seed, out = payload
    cfg = RunConfig(**cfg_values)
    return _single_run(cfg, seed, out)


def _print_estimate_table(reports):
    cols = ["gamma_n_hat", "sigma_gamma_n", "gamma_x_hat", "sigma_gamma_x",
            "loop_ms", "total_s"]
    header = "seed  " + "  ".join(f"{c:>13s}" for c in cols)
    print(header)
    for rep in reports:
        row = f"{rep['seed']:>4d}  " + "  ".join(f"{rep[c]:13.6g}" for c in cols)
        print(row)


def cmd_run(args):
    chains = args.chains
    if chains < 1:
        raise ConfigurationError(f"chains must be >= 1, got {chains}")
    cfg = RunConfig.resolve(args, data_keys=DATA_KEYS)
    # Record the settings the run actually uses.
    cfg = replace(cfg, **_data_settings(cfg))
    cfg.validate()
    workers = chains
    cap = os.environ.get("GSGS_THREADS") if chains > 1 else None
    if cap:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            raise GsgsError(f"GSGS_THREADS must be an integer, got {cap!r}") from None
    out = _ensure_writable(cfg.output_dir)
    if chains == 1:
        reports = [_single_run(cfg, cfg.seed, out)]
    else:
        payloads = [
            (asdict(cfg), cfg.seed + i, str(out / f"chain_{i:02d}"))
            for i in range(chains)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_chain_worker, payloads))
        merged = {
            "chains": reports,
            "gamma_n_hat": float(np.mean([r["gamma_n_hat"] for r in reports])),
            "gamma_x_hat": float(np.mean([r["gamma_x_hat"] for r in reports])),
            "blas_threads": _blas_threads(),
        }
        _write_json(out / "report.json", merged)
        cfg.dump(out / "resolved_config.json")
    _print_estimate_table(reports)
    return 0


def cmd_diagnose(args):
    chain_path = Path(args.chain)
    if not chain_path.exists():
        raise GsgsError(f"chain file {chain_path} not found")
    with open(chain_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise GsgsError(f"chain file {chain_path} has no header row")
        rows = []
        for row in reader:
            where = f"chain file {chain_path}, line {reader.line_num}"
            if len(row) != len(header):
                raise GsgsError(f"{where}: {len(row)} values for {len(header)} columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise GsgsError(f"{where}: {exc}") from None
    rows = np.array(rows)
    burn = args.burn_in
    if burn < 0:
        raise GsgsError(f"burn_in {burn} is negative")
    if burn >= rows.shape[0]:
        raise GsgsError(f"burn_in {burn} is not below the chain length {rows.shape[0]}")
    report = {"chain": str(chain_path), "iterations": int(rows.shape[0]),
              "burn_in": burn, "columns": {}}
    max_lag = min(args.max_lag, (rows.shape[0] - burn - 1) // 4)
    for j, name in enumerate(header):
        if name in BOOKKEEPING_COLUMNS:
            continue
        series = rows[burn:, j]
        entry = {"mean": float(series.mean()), "std": float(series.std())}
        if max_lag >= 1:
            acf = autocorrelation(series, max_lag)
            entry["autocorrelation"] = [None if np.isnan(v) else float(v)
                                        for v in acf]
        report["columns"][name] = entry
    text_lines = [f"chain {chain_path}: {rows.shape[0]} iterations, "
                  f"burn-in {burn}"]
    for name, entry in report["columns"].items():
        line = f"  {name}: mean={entry['mean']:.6g} std={entry['std']:.6g}"
        acf = entry.get("autocorrelation")
        if acf and acf[min(1, len(acf) - 1)] is not None and len(acf) > 1:
            line += f" lag1={acf[1]:.3f}"
        text_lines.append(line)
    print("\n".join(text_lines))
    if args.report:
        _write_json(args.report, report)
    return 0


def cmd_validate(args):
    results = run_suite(args.suite, seed=args.seed)
    print(format_results(results))
    if args.report:
        _write_json(args.report, {**results_report(args.suite, args.seed, results),
                                  "blas_threads": _blas_threads()})
    return 0 if all(r.passed for r in results if r.gating) else 1


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file (flat keys)")
    parser.add_argument("--rows", type=int)
    parser.add_argument("--cols", type=int)
    parser.add_argument("--factor", type=int)
    parser.add_argument("--blur-width", type=int, dest="blur_width")
    parser.add_argument("--gamma-n", type=float, dest="gamma_n_true",
                        help="true noise precision for simulation")
    parser.add_argument("--alpha-n", type=float, dest="alpha_n")
    parser.add_argument("--beta-n", type=float, dest="beta_n")
    parser.add_argument("--alpha-x", type=float, dest="alpha_x")
    parser.add_argument("--beta-x", type=float, dest="beta_x")
    parser.add_argument("--n-dirs", type=int, dest="n_dirs")
    parser.add_argument("--perturbation", choices=PERTURBATIONS)
    parser.add_argument("--max-iters", type=int, dest="max_iters")
    parser.add_argument("--burn-in", type=int, dest="burn_in")
    parser.add_argument("--thinning", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output-dir", "-o", dest="output_dir")
    parser.add_argument("--data-dir", dest="data_dir",
                        help="directory holding y.f64/meta.json (default: output dir)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsgs",
        description="Gradient-scan Gibbs sampling for unsupervised "
        "super-resolution: simulate data, run chains, diagnose them, and "
        "run the statistical validation suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic observations")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="run the sampler on a data directory")
    _add_config_flags(p_run)
    p_run.add_argument("--chains", type=int, default=1,
                       help="fan out this many seeds across worker processes "
                       "(capped by GSGS_THREADS)")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="summarize a chain.csv")
    p_diag.add_argument("--chain", required=True, help="path to chain.csv")
    p_diag.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p_diag.add_argument("--max-lag", type=int, default=50, dest="max_lag")
    p_diag.add_argument("--report", help="write a JSON report here")
    p_diag.set_defaults(func=cmd_diagnose)

    p_val = sub.add_parser("validate", help="run a named validation suite")
    p_val.add_argument("suite", choices=sorted(SUITES))
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--report", help="write a JSON report here")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GsgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
