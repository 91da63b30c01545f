import json
import math

import numpy as np
import pytest

from alpha_lab import cli
from alpha_lab.cli import main
from alpha_lab.datasets import GmmSpec, sample_gmm
from alpha_lab.slqc import SlqcCertificate, check_slqc_at, risk_oracle, sample_audit_points
from alpha_lab.training import TrainConfig, train_gd

from oracles import seed_gradient_floor


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def body_bytes(path):
    with open(path) as fh:
        return "\n".join(l for l in fh.read().splitlines() if not l.startswith("#"))


def write_gmm(tmp_path, name="gmm.json", **overrides):
    cfg = {
        "prior_minus": 0.5,
        "mean_minus": [-1.0, -1.0],
        "mean_plus": [1.0, 1.0],
        "cov_minus": [[1.0, 0.0], [0.0, 1.0]],
        "cov_plus": [[1.0, 0.0], [0.0, 1.0]],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_tilt_binomial(tmp_path):
    out = tmp_path / "tilt.csv"
    rc = main(["tilt", "--pmf", "binomial:20,0.5", "--alphas", "0.5,1,3", "--out", str(out)])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert any("subcommand: tilt" in c for c in comments)
    assert header == ["outcome", "pmf", "alpha_0.5", "alpha_1", "alpha_3"]
    assert len(rows) == 21
    cols = np.array([[float(v) for v in row] for row in rows])
    # every tilt column is a pmf; the alpha = 1 column equals the input
    for j in range(2, 5):
        assert abs(cols[:, j].sum() - 1.0) <= 1e-9
    assert np.allclose(cols[:, 2 + 1], cols[:, 1], atol=1e-12)


def test_tilt_bad_pmf_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.9")
    rc = main(["tilt", "--pmf", str(bad), "--alphas", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["tilt", "--pmf", "binomial:0,0.5", "--alphas", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_landscape_grid_one(tmp_path):
    gmm = write_gmm(tmp_path)
    out = tmp_path / "land.csv"
    rc = main([
        "landscape", "--gmm", gmm, "--alpha", "1", "--radius", "1.0",
        "--grid", "1", "--n", "200", "--out", str(out),
    ])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["theta1", "theta2", "risk"]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(math.log(2), rel=1e-12)


def test_landscape_saturation_flag(tmp_path):
    gmm = write_gmm(tmp_path)
    out = tmp_path / "sat.csv"
    rc = main([
        "landscape", "--gmm", gmm, "--alpha", "10", "--radius", "1.0", "--grid", "9",
        "--n", "400", "--out", str(out), "--compare-infinity", "--strict",
    ])
    assert rc == 0
    comments, _, _ = read_csv(out)
    assert any("value_ok: true" in c for c in comments)
    rc = main([
        "landscape", "--gmm", gmm, "--alpha", "0.5", "--radius", "1.0", "--grid", "5",
        "--n", "100", "--out", str(out), "--compare-infinity",
    ])
    assert rc == 2  # saturation audit needs alpha >= 1


def test_landscape_rejects_non_2d(tmp_path):
    gmm = write_gmm(
        tmp_path, name="gmm3.json",
        mean_minus=[-1.0, -1.0, 0.0], mean_plus=[1.0, 1.0, 0.0],
        cov_minus=np.eye(3).tolist(), cov_plus=np.eye(3).tolist(),
    )
    rc = main(["landscape", "--gmm", gmm, "--alpha", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_synth_single_run_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["synth", "--scenario", "clean", "--alphas", "1", "--runs", "1", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert body_bytes(out1 / "summary.csv") == body_bytes(out2 / "summary.csv")
    assert body_bytes(out1 / "predictors.csv") == body_bytes(out2 / "predictors.csv")
    comments, header, rows = read_csv(out1 / "summary.csv")
    assert header[0] == "alpha" and len(rows) == 1
    _, _, runs = read_csv(out1 / "predictors.csv")
    assert f"# converged_runs: {runs[0][2]}" in comments
    assert f"# capped_runs: {1 - int(runs[0][2])}" in comments


def test_synth_unknown_scenario(tmp_path):
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "alpha_lab.cli", "synth", "--scenario", "clean",
         "--alphas", "nonsense", "--runs", "1", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_bounds_scaling(tmp_path):
    query = tmp_path / "q.json"
    query.write_text(json.dumps([
        {"alpha": 2.0, "r": 1.0, "d": 2, "n": 250, "delta": 0.05},
        {"alpha": 2.0, "r": 1.0, "d": 2, "n": 1000, "delta": 0.05},
        {"alpha": 0.5, "r": 1.0, "d": 2, "n": 250, "delta": 0.05},
    ]))
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--query", str(query), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    i_rad = header.index("rademacher_bound")
    assert float(rows[1][i_rad]) == pytest.approx(float(rows[0][i_rad]) / 2.0, rel=1e-12)
    # uniform bound undefined below alpha = 1
    assert rows[2][header.index("uniform_discrepancy_bound")] == "nan"


def test_bounds_audit_columns(tmp_path):
    gmm = write_gmm(tmp_path)
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"alpha": 1.0, "r": 1.0, "d": 2, "n": 300, "delta": 0.2}))
    out = tmp_path / "bounds_audit.csv"
    rc = main([
        "bounds", "--query", str(query), "--gmm", gmm, "--trials", "3",
        "--pop-samples", "50000", "--out", str(out), "--strict",
    ])
    assert rc == 0
    _, header, rows = read_csv(out)
    gap = float(rows[0][header.index("measured_sup_gap")])
    frac = float(rows[0][header.index("audit_pass_fraction")])
    bound = float(rows[0][header.index("rademacher_bound")])
    assert gap <= bound and frac == 1.0


def test_trend_strict_violation_exit_code(tmp_path):
    # reversed sample-size grid makes the measured gap increase
    gmm = write_gmm(tmp_path)
    rc = main([
        "trend", "--gmm", gmm, "--alpha", "1", "--ns", "1000,50", "--runs", "3",
        "--seed", "2", "--out", str(tmp_path / "t.csv"), "--strict",
    ])
    assert rc == 4


def test_trend_subcommand(tmp_path):
    gmm = write_gmm(tmp_path)
    out = tmp_path / "trend.csv"
    rc = main([
        "trend", "--gmm", gmm, "--alpha", "1", "--ns", "50,200", "--runs", "3",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert header == ["n", "mean_gap", "se_gap"]
    assert len(rows) == 2
    assert any("bayes_risk" in c for c in comments)
    assert any("conditional" in c for c in comments)
    manifest = dict(c[2:].split(": ", 1) for c in comments)
    converged = [int(v) for v in manifest["converged_runs"].split(",")]
    capped = [int(v) for v in manifest["capped_runs"].split(",")]
    assert len(converged) == 2 and [c + k for c, k in zip(converged, capped)] == [3, 3]


def test_slqc_audit_small(tmp_path):
    gmm = write_gmm(tmp_path)
    out = tmp_path / "slqc.csv"
    rc = main([
        "slqc-audit", "--gmm", gmm, "--alpha0", "1", "--targets", "1.02,50",
        "--samples", "24", "--n", "200", "--seed", "3", "--out", str(out), "--strict",
    ])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert any("violations: 0" in c for c in comments)
    manifest = dict(c[2:].split(": ", 1) for c in comments)
    assert manifest["theta0_converged"] in ("true", "false")
    assert int(manifest["theta0_iterations"]) >= 0
    assert float(manifest["theta0_stop_statistic"]) >= 0.0
    assert int(manifest["gradient_floor_alphas"]) == 254  # 1, 1.25, ..., 64 and inf
    verdict_col = header.index("verdict")
    verdicts = {row[verdict_col] for row in rows}
    assert "fails" not in verdicts
    # the far target is inadmissible at every point
    far = [row for row in rows if row[0] == "50"]
    assert far and all(row[verdict_col] == "range_exceeded" for row in far)
    assert manifest["descent_checks"] == "0,0"
    assert recheck_audit_rows(header, rows, n=200, samples=24, radius=1.0, seed=3) == {}
    # a small radius and eps0 admit evolved and bootstrapped certificates
    # that need the descent condition
    rc = main([
        "slqc-audit", "--gmm", gmm, "--alpha0", "1", "--targets", "1.0002,1.001",
        "--samples", "24", "--n", "200", "--radius", "0.2", "--eps0", "0.005", "--seed", "3",
        "--out", str(out), "--strict",
    ])
    assert rc == 0
    comments, header, rows = read_csv(out)
    manifest = dict(c[2:].split(": ", 1) for c in comments)
    descent = recheck_audit_rows(header, rows, n=200, samples=24, radius=0.2, seed=3)
    assert descent["1.0002"] > 0 and descent["1.0009999999999999"] > 0
    assert manifest["descent_checks"] == f"{descent['1.0002']},{descent['1.0009999999999999']}"
    assert {row[verdict_col] for row in rows} >= {"condition1", "condition2"}


def recheck_audit_rows(header, rows, n, samples, radius, seed):
    """Check each row's certificates pointwise; returns descent checks per target."""
    spec = GmmSpec(0.5, [-1.0, -1.0], [1.0, 1.0], np.eye(2), np.eye(2))
    data = sample_gmm(spec, n, seed=(seed, 11), normalize=True)
    theta0, _ = train_gd(data, TrainConfig(alpha=1.0, radius=radius, seed=seed))
    thetas = sample_audit_points(2, radius, samples, seed=(seed, 12))
    col = {name: header.index(name) for name in header}
    descent = {}
    for row in rows:
        oracle = risk_oracle(data, float(row[0]), validate=False)
        for verdict, eps, kappa in (("verdict", "eps", "kappa"),
                                    ("boot_verdict", "boot_eps", "boot_kappa")):
            if row[col[verdict]] == "range_exceeded":
                continue
            cert = SlqcCertificate(float(row[col[eps]]), float(row[col[kappa]]), theta0.theta)
            check = check_slqc_at(oracle, thetas[int(row[1])], cert)
            assert check.verdict.value == row[col[verdict]]
            descent[row[0]] = descent.get(row[0], 0) + (check.grad_norm is not None)
    return descent


def test_gradient_floor_bit_identical_to_seed_form():
    spec = GmmSpec(0.5, [-1.0, -1.0], [1.0, 1.0], np.eye(2), np.eye(2))
    for seed in range(3):
        data = sample_gmm(spec, 500, seed=(seed, 11), normalize=True)
        for radius in (0.2, 1.0):
            thetas = sample_audit_points(2, radius, 32, seed=(seed, 12))
            for alpha0 in (1.0, 1.5):
                ref = seed_gradient_floor(thetas, data.X, data.y.astype(float), alpha0)
                assert np.array_equal(cli._gradient_floor(thetas, data, alpha0), ref)


def test_linalg_error_is_numeric_failure(tmp_path, monkeypatch, capsys):
    def singular(args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "cmd_tilt", singular)
    rc = main(["tilt", "--pmf", "binomial:4,0.3", "--alphas", "1", "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_alpha_literal_inf(tmp_path):
    out = tmp_path / "tilt_inf.csv"
    rc = main(["tilt", "--pmf", "binomial:4,0.3", "--alphas", "inf", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header[-1] == "alpha_inf"
    col = np.array([float(r[-1]) for r in rows])
    assert col.max() == 1.0  # point mass on the mode
