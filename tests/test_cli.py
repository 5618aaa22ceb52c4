"""Command-line interface: file outputs, exit codes, reproducibility."""

import argparse
import json
import logging
import re
import time
from pathlib import Path

import numpy as np
import pytest

from gsgs import RngState, phantom, read_image_f64, simulate_data, write_image_f64
from gsgs.cli import RunConfig, _load_model, build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


# The grid goes to `simulate` only: `run` reads it from the data directory.
GRID = ["--rows", "16", "--cols", "16"]
SMALL = ["--n-dirs", "4", "--max-iters", "120", "--burn-in", "30", "--thinning", "30",
         "--alpha-n", "0.1", "--beta-n", "0.1", "--alpha-x", "0.1", "--beta-x", "0.1"]


def test_simulate_default_geometry(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "-o", out) == 0
    stacked = read_image_f64(out / "y.f64")
    assert stacked.size == 3 * 32 * 32
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_data"] == 3072
    assert meta["seed"] == 0
    assert meta["blur_anchor"] == "centered"
    assert (out / "resolved_config.json").exists()


def test_simulate_seed_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("simulate", "-o", out, "--seed", "7", *GRID, *SMALL) == 0
    assert (a / "y.f64").read_bytes() == (b / "y.f64").read_bytes()
    assert (a / "truth.f64").read_bytes() == (b / "truth.f64").read_bytes()


def test_simulate_high_noise_residual_variance(tmp_path):
    out = tmp_path / "noisy"
    assert run_cli("simulate", "-o", out, "--gamma-n", "0.01", "--seed", "3") == 0
    data = read_image_f64(out / "y.f64").ravel()
    clean_model = simulate_data(
        phantom((64, 64)), 2, [(0, 0), (1, 0), (0, 1)], 5, float("inf"), RngState(3)
    )
    resid = data - clean_model.data
    assert abs(resid.var() / 100.0 - 1.0) < 0.1


def test_run_produces_outputs_and_report(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    for name in ("pm.f64", "pm.pgm", "psd.f64", "psd.pgm", "chain.csv",
                 "report.json", "resolved_config.json"):
        assert (out / name).exists(), name
    pm = read_image_f64(out / "pm.f64")
    assert pm.shape == (16, 16)
    report = json.loads((out / "report.json").read_text())
    assert report["gamma_n_hat"] > 0
    assert "truth_rel_error" in report
    assert len(list(out.glob("snap_*.f64"))) == 3
    header = (out / "chain.csv").read_text().splitlines()[0]
    assert header == "t,gamma_n,gamma_x,J,alpha_norm,n_dirs,skipped,wall_ms"


def test_reports_record_blas_threads_and_directions_reached(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    assert run_cli("validate", "operators", "--report", tmp_path / "ops.json") == 0
    for path in (out / "report.json", tmp_path / "ops.json"):
        threads = json.loads(path.read_text())["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)
    rows = (out / "chain.csv").read_text().splitlines()
    header = rows[0].split(",")
    columns = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert (columns[:, header.index("n_dirs")] == 4).all()
    assert (columns[:, header.index("alpha_norm")] > 0).all()


def test_run_without_truth_reports_no_truth_error(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    (sim / "truth.f64").unlink()
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gamma_n_hat"] > 0
    assert "truth_rel_error" not in report


def test_run_on_hand_written_geometry(tmp_path, capsys):
    # Only the geometry keys (bad JSON or a missing key is an error), a grid
    # and frames the simulate defaults never produce, and no truth: the data
    # alone drive the run.
    data_dir, out = tmp_path / "data", tmp_path / "run"
    data_dir.mkdir()
    geometry = {"rows": 8, "cols": 12, "factor": 2, "offsets": [[0, 0], [1, 1]],
                "blur_width": 3}
    frames = simulate_data(phantom((8, 12)), 2, [(0, 0), (1, 1)], 3, 4.0, RngState(1)).data
    write_image_f64(data_dir / "y.f64", frames.reshape(8, 6))
    (data_dir / "meta.json").write_text('{"config": ')
    assert run_cli("run", "--data-dir", data_dir, "-o", out, *SMALL) == 1
    assert "not valid JSON" in capsys.readouterr().err
    partial = {k: v for k, v in geometry.items() if k != "blur_width"}
    (data_dir / "meta.json").write_text(json.dumps({"config": partial}))
    assert run_cli("run", "--data-dir", data_dir, "-o", out, *SMALL) == 1
    assert "blur_width" in capsys.readouterr().err
    (data_dir / "meta.json").write_text(json.dumps({"config": geometry}))
    assert run_cli("run", "--data-dir", data_dir, "-o", out, "--seed", "3", *SMALL) == 0
    assert read_image_f64(out / "pm.f64").shape == (8, 12)
    assert "truth_rel_error" not in json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("name, shape, expected", [
    ("y.f64", (2, 95), ["190", "192"]),
    ("truth.f64", (8, 8), ["(8, 8)", "(16, 16)"]),
])
def test_run_rejects_files_that_do_not_fit_the_geometry(tmp_path, capsys, name, shape,
                                                        expected):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    write_image_f64(sim / name, np.zeros(shape))
    assert run_cli("run", "--data-dir", sim, "-o", tmp_path / "run", *SMALL) == 1
    err = capsys.readouterr().err
    assert all(count in err for count in expected)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _bad_header(path):
    path.write_bytes(b"GSGS-IMG x 4\n" + path.read_bytes().split(b"\n", 1)[1])


@pytest.mark.parametrize("name, spoil", [
    ("y.f64", _bad_header), ("y.f64", _truncate), ("truth.f64", _bad_header),
])
def test_run_reports_malformed_image_files(tmp_path, capsys, name, spoil):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    spoil(sim / name)
    assert run_cli("run", "--data-dir", sim, "-o", tmp_path / "run", *SMALL) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("flag, key", [
    ("--rows", "rows"), ("--cols", "cols"), ("--factor", "factor"),
    ("--blur-width", "blur_width"), ("--gamma-n", "gamma_n_true"),
])
def test_run_rejects_data_settings_as_flags(tmp_path, capsys, flag, key):
    # The data directory fixes these; a flag for one would be ignored and
    # misrecorded, so it is an error naming the setting.
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    capsys.readouterr()
    assert run_cli("run", "--data-dir", sim, "-o", tmp_path / "run", flag, "3",
                   *SMALL) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_run_rejects_data_settings_in_config_file(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"offsets": [[0, 0]], "gamma_n_true": 7.0, "seed": 3}))
    assert run_cli("run", "--config", cfg_path, "--data-dir", sim,
                   "-o", tmp_path / "run", *SMALL) == 1
    err = capsys.readouterr().err
    assert "offsets" in err and "gamma_n_true" in err and "seed" not in err


@pytest.mark.parametrize("flag, value", [("--n-dirs", "0"), ("--burn-in", "500")])
def test_run_rejects_bad_chain_settings_before_writing(tmp_path, capsys, flag, value):
    # A usage error, raised before the output directory exists: SMALL runs
    # 120 iterations, so a burn-in of 500 leaves no sample.
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    capsys.readouterr()
    assert run_cli("run", "--data-dir", sim, "-o", out, *SMALL, flag, value) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, key", [
    ("simulate", "--gamma-n", "-1", "gamma_n_true"),
    ("simulate", "--gamma-n", "0", "gamma_n_true"),
    ("simulate", "--gamma-n", "nan", "gamma_n_true"),
    ("simulate", "--alpha-n", "-1", "alpha_n"),
    ("simulate", "--beta-x", "-2", "beta_x"),
    ("run", "--alpha-n", "-1", "alpha_n"),
    ("run", "--beta-x", "-2", "beta_x"),
    ("run", "--alpha-n", "nan", "alpha_n"),
    ("run", "--beta-x", "inf", "beta_x"),
])
def test_bad_model_parameters_are_usage_errors_before_writing(tmp_path, capsys, command,
                                                              flag, value, key):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    capsys.readouterr()
    where = ["--data-dir", sim] if command == "run" else GRID
    assert run_cli(command, *where, "-o", out, *SMALL, flag, value) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-2"])
def test_simulate_rejects_bad_blur_width_before_writing(tmp_path, capsys, width):
    out = tmp_path / "sim"
    assert run_cli("simulate", "-o", out, *GRID, "--blur-width", width) == 2
    assert "blur_width" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chains", ["0", "-1"])
def test_run_rejects_bad_chain_count_before_writing(tmp_path, capsys, chains):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    capsys.readouterr()
    assert run_cli("run", "--data-dir", sim, "-o", out, *SMALL, "--chains", chains) == 2
    assert "chains" in capsys.readouterr().err
    assert not out.exists()


def test_run_records_the_data_directory_settings(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", "--blur-width", "3",
                   "--gamma-n", "4", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    meta = json.loads((sim / "meta.json").read_text())["config"]
    for key in ("rows", "cols", "factor", "offsets", "blur_width", "gamma_n_true"):
        assert resolved[key] == meta[key], key
    assert (resolved["rows"], resolved["blur_width"], resolved["gamma_n_true"]) == (16, 3, 4.0)
    # A hand-written geometry records no simulation noise level.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "y.f64").write_bytes((sim / "y.f64").read_bytes())
    geometry = {key: meta[key] for key in ("rows", "cols", "factor", "offsets", "blur_width")}
    (data_dir / "meta.json").write_text(json.dumps({"config": geometry}))
    multi = tmp_path / "multi"
    assert run_cli("run", "--data-dir", data_dir, "-o", multi, "--chains", "2", *SMALL) == 0
    for path in (multi / "resolved_config.json", multi / "chain_01" / "resolved_config.json"):
        resolved = json.loads(path.read_text())
        assert {key: resolved[key] for key in geometry} == geometry
        assert resolved["gamma_n_true"] is None


def test_load_model_matches_simulated_model(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    cfg = RunConfig(data_dir=str(sim), alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1)
    loaded = _load_model(cfg)
    simulated = simulate_data(
        phantom((16, 16)), 2, [(0, 0), (1, 0), (0, 1)], 5, 1.0, RngState(5),
        alpha_n=0.1, beta_n=0.1, alpha_x=0.1, beta_x=0.1,
    )
    assert loaded.data.tobytes() == simulated.data.tobytes()
    assert loaded.backprojection().tobytes() == simulated.backprojection().tobytes()
    assert loaded.truth.tobytes() == simulated.truth.tobytes()
    assert loaded.hr_shape == simulated.hr_shape


def test_run_is_seed_deterministic(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "9", *SMALL) == 0
        outs.append(read_image_f64(out / "pm.f64"))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_run_warns_without_perturbation(tmp_path, capsys, caplog):
    # The library's warning, once per chain; the CLI prints no second copy.
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    with caplog.at_level(logging.WARNING, logger="gsgs.superres"):
        assert run_cli("run", "--data-dir", sim, "-o", out, "--perturbation", "none",
                       "--seed", "5", *SMALL) == 0
    assert "convergence is not guaranteed" in caplog.text
    assert "convergence is not guaranteed" not in capsys.readouterr().err


def test_run_without_data_errors(tmp_path):
    assert run_cli("run", "-o", tmp_path / "nowhere") == 1


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rows": 16, "cols": 16, "seed": 11}))
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "-o", out, "--seed", "12") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["rows"] == 16
    assert resolved["seed"] == 12  # flag wins over file


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rowz": 8}))
    assert run_cli("simulate", "--config", cfg_path, "-o", tmp_path / "x") == 2


# A resolved_config.json as `gsgs simulate -o gsgs-out` wrote it before
# paper_literal_shapes was retired: every key of that version.
OLD_RESOLVED_CONFIG = """{
  "alpha_n": 0.0,
  "alpha_x": 0.0,
  "beta_n": 0.0,
  "beta_x": 0.0,
  "blur_width": 5,
  "burn_in": 500,
  "cols": 64,
  "data_dir": "",
  "factor": 2,
  "gamma_n_true": 1.0,
  "max_iters": 2000,
  "n_dirs": 10,
  "offsets": [
    [
      0,
      0
    ],
    [
      1,
      0
    ],
    [
      0,
      1
    ]
  ],
  "output_dir": "gsgs-out",
  "paper_literal_shapes": false,
  "perturbation": "factored_q",
  "rows": 64,
  "seed": 0,
  "thinning": 10
}
"""


def test_resolved_config_with_the_retired_literal_shapes_still_reads(tmp_path):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sim"
    cfg_path.write_text(OLD_RESOLVED_CONFIG)
    assert run_cli("simulate", "--config", cfg_path, "-o", out) == 0
    old = json.loads(OLD_RESOLVED_CONFIG)
    resolved = json.loads((out / "resolved_config.json").read_text())
    del old["paper_literal_shapes"], old["output_dir"], resolved["output_dir"]
    assert resolved == old


def test_config_with_the_retired_perturbation_period_of_one_still_reads(tmp_path):
    # Earlier resolved_config.json files record "perturbation_period": 1.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sim"
    cfg_path.write_text(json.dumps({"rows": 16, "cols": 16, "perturbation_period": 1}))
    assert run_cli("simulate", "--config", cfg_path, "-o", out) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["rows"] == 16 and "perturbation_period" not in resolved


@pytest.mark.parametrize("text, named", [
    ('{"n_dirs": 4', "cfg.json"),  # invalid JSON
    ('["n_dirs"]', "cfg.json"),  # not an object
    ('{"n_dirs": "four"}', "n_dirs"),  # wrong type
    ('{"gamma_n_true": true}', "gamma_n_true"),  # bool is not a number
    ('{"offsets": [5]}', "offsets"),  # an offset that is not a pair
    ('{"offsets": [["a", 0]]}', "offsets"),  # a pair that is not integers
    ('{"offsets": [[true, 0]]}', "offsets"),  # bool is not an integer
    ('{"perturbation_period": 3}', "perturbation_period"),  # retired, only 1 reads
    ('{"paper_literal_shapes": true}', "paper_literal_shapes"),  # retired, only false reads
    ('{"alpha_n": "-inf"}', "alpha_n"),  # reads as -inf, which is not a hyperprior
    ('{"n_dirs": "inf"}', "n_dirs"),  # only a float setting reads "inf" as a number
])
def test_malformed_config_file_is_usage_error_before_writing(tmp_path, capsys, text, named):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sim"
    cfg_path.write_text(text)
    assert run_cli("simulate", "--config", cfg_path, "-o", out, *GRID) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def read_strict_json(path):
    """A JSON file parsed with a parser that rejects Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_noise_free_settings_are_strict_json_and_read_back(tmp_path):
    # A noise-free simulation records gamma_n_true = inf as the string "inf",
    # which `run` (meta.json) and `--config` read back as the float.
    sim, out, again = tmp_path / "sim", tmp_path / "run", tmp_path / "again"
    assert run_cli("simulate", "-o", sim, "--gamma-n", "inf", "--seed", "5", *GRID,
                   *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    assert read_strict_json(sim / "meta.json")["config"]["gamma_n_true"] == "inf"
    for path in (sim / "resolved_config.json", out / "resolved_config.json"):
        assert read_strict_json(path)["gamma_n_true"] == "inf"
    read_strict_json(out / "report.json")
    cfg = RunConfig.resolve(argparse.Namespace(config=str(sim / "resolved_config.json")))
    assert cfg.gamma_n_true == float("inf")
    assert run_cli("simulate", "--config", sim / "resolved_config.json", "-o", again) == 0
    assert (again / "y.f64").read_bytes() == (sim / "y.f64").read_bytes()
    assert read_strict_json(again / "meta.json")["config"]["gamma_n_true"] == "inf"


def test_multi_chain_fanout(tmp_path, monkeypatch):
    monkeypatch.setenv("GSGS_THREADS", "2")
    sim, out = tmp_path / "sim", tmp_path / "multi"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--chains", "2",
                   "--seed", "5", *SMALL) == 0
    merged = json.loads((out / "report.json").read_text())
    assert len(merged["chains"]) == 2
    assert (out / "chain_00" / "pm.f64").exists()
    assert (out / "chain_01" / "pm.f64").exists()
    seeds = {c["seed"] for c in merged["chains"]}
    assert seeds == {5, 6}


def test_diagnose_reads_chain(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--seed", "5", *SMALL) == 0
    report_path = tmp_path / "diag.json"
    assert run_cli("diagnose", "--chain", out / "chain.csv", "--burn-in", "30",
                   "--max-lag", "10", "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    assert set(report["columns"]) == {"gamma_n", "gamma_x", "J"}
    assert report["columns"]["gamma_n"]["autocorrelation"][0] == 1.0


def test_multi_chain_rejects_non_integer_thread_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GSGS_THREADS", "two")
    sim, out = tmp_path / "sim", tmp_path / "multi"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--chains", "2",
                   "--seed", "5", *SMALL) == 1
    err = capsys.readouterr().err
    assert "GSGS_THREADS" in err and "'two'" in err
    assert not out.exists()


def test_diagnose_missing_chain_errors(tmp_path):
    assert run_cli("diagnose", "--chain", tmp_path / "absent.csv") == 1


@pytest.mark.parametrize("text, named", [
    ("", "no header row"),
    ("t,gamma_n\n1,0.5\n2,abc\n", "line 3"),
    ("t,gamma_n\n1,0.5\n2,0.7\n3\n", "line 4"),
])
def test_diagnose_reports_malformed_chain_files(tmp_path, capsys, text, named):
    chain = tmp_path / "chain.csv"
    chain.write_text(text)
    assert run_cli("diagnose", "--chain", chain) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(chain) in err and named in err


@pytest.mark.parametrize("max_lag", ["0", "50"])
def test_diagnose_rejects_negative_burn_in(tmp_path, capsys, max_lag):
    chain = tmp_path / "chain.csv"
    chain.write_text("t,gamma_n\n" + "".join(f"{t},{1.0 + t % 3}\n" for t in range(20)))
    assert run_cli("diagnose", "--chain", chain, "--burn-in", "-3",
                   "--max-lag", max_lag) == 1
    assert "burn_in -3" in capsys.readouterr().err


def test_validate_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("validate", "not-a-suite")
    assert err.value.code == 2


def test_validate_operators_passes_quickly(tmp_path):
    report_path = tmp_path / "ops.json"
    start = time.perf_counter()
    code = run_cli("validate", "operators", "--report", report_path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_readme_names_only_flags_the_parser_knows():
    # Every --flag token in README.md is an option of some subcommand.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    known = {flag for command in commands.values() for action in command._actions
             for flag in action.option_strings}
    assert sorted(named - known) == []


def test_every_config_flag_sets_a_run_config_field():
    # RunConfig.resolve reads a flag only through a RunConfig field of its
    # dest, so a flag whose field is gone would parse and do nothing.
    fields = set(RunConfig.__dataclass_fields__)
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name in ("simulate", "run"):
        dests = {action.dest for action in commands[name]._actions
                 if action.option_strings and action.dest != "help"}
        assert sorted(dests - fields - {"config", "chains"}) == [], name
        assert sorted(fields - dests - {"offsets"}) == [], name
