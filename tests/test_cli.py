"""Command-line interface: file outputs, exit codes, reproducibility."""

import json
import time

import numpy as np
import pytest

from gsgs import RngState, phantom, read_image_f64, simulate_data, write_image_f64
from gsgs.cli import RunConfig, _load_model, main


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
    assert header == "t,gamma_n,gamma_x,J,wall_ms"


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


def test_run_warns_without_perturbation(tmp_path, capsys):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", out, "--perturbation", "none",
                   "--seed", "5", *SMALL) == 0
    assert "convergence is not guaranteed" in capsys.readouterr().err


def test_run_literal_shapes_flag_is_recorded_and_active(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "-o", sim, "--seed", "5", *GRID, *SMALL) == 0
    plain, literal = tmp_path / "plain", tmp_path / "literal"
    assert run_cli("run", "--data-dir", sim, "-o", plain, "--seed", "5", *SMALL) == 0
    assert run_cli("run", "--data-dir", sim, "-o", literal, "--seed", "5",
                   "--paper-literal-shapes", *SMALL) == 0
    cfg = json.loads((literal / "resolved_config.json").read_text())
    assert cfg["paper_literal_shapes"] is True
    a = json.loads((plain / "report.json").read_text())["gamma_x_hat"]
    b = json.loads((literal / "report.json").read_text())["gamma_x_hat"]
    assert a != b


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


def test_diagnose_missing_chain_errors(tmp_path):
    assert run_cli("diagnose", "--chain", tmp_path / "absent.csv") == 1


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
