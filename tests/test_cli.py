import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import alpha_lab
from alpha_lab import cli
from alpha_lab.cli import main
from alpha_lab.datasets import GmmSpec, sample_gmm
from alpha_lab.logistic import (
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    risk_gradient_batch,
    theta_lipschitz_constant,
)
from alpha_lab.slqc import (
    RangeExceeded,
    SlqcCertificate,
    bootstrap_slqc,
    check_slqc_at,
    evolve_slqc,
    gradient_floor,
    risk_oracle,
    sample_audit_points,
)
from alpha_lab.training import TrainConfig, saturation_report, train_gd


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


COLD_START = """
import json, sys
import alpha_lab, alpha_lab.cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
main = alpha_lab.cli.main
at_import = loaded()
gmm, out = sys.argv[1], sys.argv[2]
with open(out + ".json", "w") as fh:
    json.dump({"alpha": 1, "r": 1, "d": 2, "n": 100, "delta": 0.2}, fh)
runs = [
    ["synth", "--scenario", "clean", "--alphas", "1", "--runs", "1"],
    ["slqc-audit", "--gmm", gmm, "--targets", "1.5", "--samples", "8", "--n", "100",
     "--radius", "0.2"],
    ["landscape", "--gmm", gmm, "--alpha", "1", "--grid", "5", "--n", "100"],
    ["bounds", "--query", out + ".json", "--gmm", gmm, "--trials", "1", "--pop-samples", "1000"],
]
rcs = [main(args + ["--out", f"{out}.{k}"]) for k, args in enumerate(runs)]
after_runs = loaded()
rcs.append(main(["trend", "--gmm", gmm, "--ns", "200", "--runs", "1", "--out", out]))
after_trend = loaded()
with open(out + ".pmf", "w") as fh:
    fh.write("0.2 0.3 0.5")
rcs.append(main(["tilt", "--pmf", out + ".pmf", "--alphas", "1", "--out", out]))
after_tilt = loaded()
skewed = alpha_lab.GmmSpec(0.12, (-0.18, 1.49), (-0.01, 0.16),
                           [[3.20, -2.02], [-2.02, 2.71]], [[4.19, 1.27], [1.27, 0.90]])
w, b = alpha_lab.bayes_direction(skewed)
after_fallback = loaded()
rcs.append(main(["tilt", "--pmf", "binomial:6,0.3", "--alphas", "2", "--out", out]))
print(json.dumps({"at_import": at_import, "after_runs": after_runs, "after_trend": after_trend,
                  "after_tilt": after_tilt, "after_fallback": after_fallback, "rcs": rcs,
                  "after_binomial": loaded(), "w": w.tolist(), "b": b}))
"""


def test_import_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(alpha_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-c", COLD_START, write_gmm(tmp_path), str(out)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["rcs"] == [0] * 7
    # the import, and synth, slqc-audit, landscape, bounds, trend (its
    # Gaussian tails come from math.erfc) and a tilt of a pmf file, load no
    # scipy module
    assert got["at_import"] == [] and got["after_runs"] == []
    assert got["after_trend"] == [] and got["after_tilt"] == []
    # the lazy imports still work: the unequal-covariance fallback loads
    # scipy.optimize (and not scipy.stats), a binomial tilt loads scipy.stats
    assert "scipy.optimize" in got["after_fallback"]
    assert not any(m.startswith("scipy.stats") for m in got["after_fallback"])
    assert "scipy.stats" in got["after_binomial"]
    _, _, rows = read_csv(out)
    assert len(rows) == 7
    w, b = alpha_lab.bayes_direction(GmmSpec(
        0.12, (-0.18, 1.49), (-0.01, 0.16), [[3.20, -2.02], [-2.02, 2.71]], [[4.19, 1.27], [1.27, 0.90]]
    ))
    assert got["w"] == w.tolist() and got["b"] == b


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


def test_landscape_saturation_flag(tmp_path, capsys):
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
    assert rc == 2
    assert "saturation audit needs alpha >= 1" in capsys.readouterr().err


def test_landscape_saturation_shares_the_risk_grid(tmp_path):
    gmm = write_gmm(tmp_path)
    args = ["landscape", "--gmm", gmm, "--alpha", "10", "--radius", "1.0", "--grid", "7",
            "--n", "300", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "sat.csv"), "--compare-infinity"]) == 0
    assert body_bytes(tmp_path / "sat.csv") == body_bytes(tmp_path / "plain.csv")
    # the manifest keys are the report of the standalone audit
    data = sample_gmm(cli.load_gmm(gmm), 300, seed=(3, 1), normalize=True)
    _, _, report = saturation_report(data, 1.0, 7, 10.0)
    comments, _, _ = read_csv(tmp_path / "sat.csv")
    for key, val in report.items():
        assert f"# {key}: {cli._fmt(val)}" in comments


def test_landscape_rejects_non_2d(tmp_path, capsys):
    gmm = write_gmm(
        tmp_path, name="gmm3.json",
        mean_minus=[-1.0, -1.0, 0.0], mean_plus=[1.0, 1.0, 0.0],
        cov_minus=np.eye(3).tolist(), cov_plus=np.eye(3).tolist(),
    )
    rc = main(["landscape", "--gmm", gmm, "--alpha", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "landscape grids are defined for d = 2" in capsys.readouterr().err


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
    manifest = dict(c[2:].split(": ", 1) for c in comments)
    # a capped run takes exactly max_iterations steps, a converged one fewer
    assert (int(manifest["gd_row_iterations"]) == 200_000) == (runs[0][2] == "0")


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
    comments, header, rows = read_csv(out)
    i_rad = header.index("rademacher_bound")
    assert float(rows[1][i_rad]) == pytest.approx(float(rows[0][i_rad]) / 2.0, rel=1e-12)
    # uniform bound undefined below alpha = 1
    assert rows[2][header.index("uniform_discrepancy_bound")] == "nan"
    assert "# population_passes: 0" in comments and "# population_margins: 0" in comments


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
    comments, header, rows = read_csv(out)
    gap = float(rows[0][header.index("measured_sup_gap")])
    frac = float(rows[0][header.index("audit_pass_fraction")])
    bound = float(rows[0][header.index("rademacher_bound")])
    assert gap <= bound and frac == 1.0
    assert "# pop_samples: 50000" in comments
    assert "# population_passes: 1" in comments
    assert "# population_margins: 5000000" in comments


def test_bounds_queries_share_population_passes(tmp_path):
    # two balls -> two passes; each row equals the query audited alone
    gmm = write_gmm(tmp_path)
    items = [
        {"alpha": 2.0, "r": 1.0, "d": 2, "n": 200, "delta": 0.2},
        {"alpha": "inf", "r": 0.5, "d": 2, "n": 300, "delta": 0.2},
        {"alpha": 0.5, "r": 1.0, "d": 2, "n": 300, "delta": 0.2},
    ]
    flags = ["--gmm", gmm, "--trials", "2", "--pop-samples", "20000", "--seed", "3"]
    query = tmp_path / "q.json"
    query.write_text(json.dumps(items))
    out = tmp_path / "all.csv"
    assert main(["bounds", "--query", str(query), "--out", str(out)] + flags) == 0
    comments, _, rows = read_csv(out)
    assert "# population_passes: 2" in comments
    assert "# population_margins: 4000000" in comments
    for item, row in zip(items, rows):
        query.write_text(json.dumps(item))
        alone = tmp_path / "one.csv"
        assert main(["bounds", "--query", str(query), "--out", str(alone)] + flags) == 0
        assert read_csv(alone)[2] == [row]


@pytest.mark.parametrize("flag,value,name", [
    ("--pop-samples", "0", "pop_n"),
    ("--pop-samples", "-5", "pop_n"),
    ("--trials", "0", "trials"),
])
@pytest.mark.parametrize("strict", [False, True])
def test_bounds_rejects_empty_audit_sizes(tmp_path, capsys, flag, value, name, strict):
    gmm = write_gmm(tmp_path)
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"alpha": 1.0, "r": 1.0, "d": 2, "n": 100, "delta": 0.2}))
    out = tmp_path / "bad.csv"
    argv = ["bounds", "--query", str(query), "--gmm", gmm, flag, value, "--out", str(out)]
    rc = main(argv + ["--strict"] * strict)
    assert rc == 2
    assert f"configuration error: {name} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--samples", "0", "samples must be >= 1, got 0"),
    ("--samples", "-4", "samples must be >= 1, got -4"),
    ("--eps0", "nan", "eps0 must be finite and positive, got nan"),
    ("--eps0", "inf", "eps0 must be finite and positive, got inf"),
    ("--eps0", "0", "eps0 must be finite and positive, got 0.0"),
    ("--radius", "nan", "radius must be finite and positive, got nan"),
    ("--radius", "inf", "radius must be finite and positive, got inf"),
    ("--radius", "-1", "radius must be finite and positive, got -1.0"),
])
def test_slqc_audit_rejects_bad_samples_and_eps0(tmp_path, capsys, monkeypatch, flag, value, message):
    # rejected before any data is drawn or any model trained
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the arguments were checked")

    monkeypatch.setattr(cli, "sample_gmm", must_not_run)
    monkeypatch.setattr(cli, "train_gd", must_not_run)
    out = tmp_path / "bad.csv"
    rc = main([
        "slqc-audit", "--gmm", write_gmm(tmp_path), "--targets", "1.001", "--radius", "0.2",
        flag, value, "--out", str(out),
    ])
    assert rc == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--targets", "0.9"], "need alpha >= alpha0 at every target"),
    (["--targets", "1.001", "--eps0", "5"], "evolution assumes rho0 = eps0/kappa0 <= r"),
    (["--targets", "1.001,0.9"], "need alpha >= alpha0 at every target"),
])
def test_slqc_audit_rejects_targets_below_alpha0_and_wide_eps0(tmp_path, capsys, flags, message):
    # the certificate sweep rejects them, after training and before any file
    # is written; a target below alpha0 has no floor, wherever it is listed
    out = tmp_path / "bad.csv"
    rc = main(["slqc-audit", "--gmm", write_gmm(tmp_path), "--radius", "0.2", "--samples", "8",
               "--n", "100", *flags, "--out", str(out)])
    assert rc == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("compare", [False, True])
def test_landscape_rejects_bad_radius(tmp_path, capsys, radius, compare):
    out = tmp_path / "bad.csv"
    rc = main([
        "landscape", "--gmm", write_gmm(tmp_path), "--alpha", "10", "--radius", radius,
        "--grid", "3", "--n", "50", "--out", str(out),
    ] + ["--compare-infinity"] * compare)
    assert rc == 2
    assert "configuration error: radius must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_trend_strict_violation_exit_code(tmp_path):
    # reversed sample-size grid makes the measured gap increase; the
    # manifest records it with or without --strict
    gmm = write_gmm(tmp_path)
    for strict in (False, True):
        rc = main([
            "trend", "--gmm", gmm, "--alpha", "1", "--ns", "1000,50", "--runs", "3",
            "--seed", "2", "--out", str(tmp_path / "t.csv"),
        ] + ["--strict"] * strict)
        assert rc == (4 if strict else 0)
        comments, _, _ = read_csv(tmp_path / "t.csv")
        assert comments[-1] == "# violations: 1"


def test_trend_rejects_zero_runs(tmp_path, capsys):
    gmm = write_gmm(tmp_path)
    rc = main(["trend", "--gmm", gmm, "--ns", "50", "--runs", "0",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "need at least one run" in capsys.readouterr().err


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
    iterations = [int(v) for v in manifest["gd_row_iterations"].split(",")]
    for i, c, k in zip(iterations, converged, capped):
        # a capped run takes exactly max_iterations steps, a converged one fewer
        assert 200_000 * k <= i <= 200_000 * k + 199_999 * c


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
    # one count of zero floors per target, in target order
    zero = [int(v) for v in manifest["gradient_floor_zero"].split(",")]
    assert len(zero) == 2 and all(0 <= z <= 24 for z in zero)
    verdict_col = header.index("verdict")
    verdicts = {row[verdict_col] for row in rows}
    assert "fails" not in verdicts
    # the far target is inadmissible at every point
    far = [row for row in rows if row[0] == "50"]
    assert far and all(row[verdict_col] == "range_exceeded" for row in far)
    assert manifest["descent_checks"] == "0,0"
    assert recheck_audit_rows(header, rows, n=200, samples=24, radius=1.0, eps0=0.05, seed=3) == {}
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
    descent = recheck_audit_rows(header, rows, n=200, samples=24, radius=0.2, eps0=0.005, seed=3)
    assert descent["1.0002"] > 0 and descent["1.0009999999999999"] > 0
    assert manifest["descent_checks"] == f"{descent['1.0002']},{descent['1.0009999999999999']}"
    assert {row[verdict_col] for row in rows} >= {"condition1", "condition2"}
    # at alpha0 every row carries (eps0, kappa0) and no bootstrap; at inf
    # every row carries only its sup
    rc = main([
        "slqc-audit", "--gmm", gmm, "--alpha0", "1", "--targets", "1,1.001,inf",
        "--samples", "64", "--n", "200", "--radius", "0.2", "--eps0", "0.005", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    comments, header, rows = read_csv(out)
    manifest = dict(c[2:].split(": ", 1) for c in comments)
    recheck_audit_rows(header, rows, n=200, samples=64, radius=0.2, eps0=0.005, seed=3)
    at = {t: [row[2:10] for row in rows if row[0] == t] for t in ("1", "inf")}
    assert len(at["1"]) == len(at["inf"]) == 64
    assert all(r[1:3] == ["0.0050000000000000001", manifest["kappa0"]] and r[4] == ""
               and r[5:] == ["range_exceeded", "", ""] for r in at["1"])
    assert all(r[:4] == ["range_exceeded", "", "", ""] and float(r[4]) > 0.0
               and r[5:] == ["range_exceeded", "", ""] for r in at["inf"])
    # above alpha0 = 1 the alpha0^2 factors and the lambda formula's order count
    rc = main([
        "slqc-audit", "--gmm", gmm, "--alpha0", "1.5", "--targets", "1.5001,2",
        "--samples", "24", "--n", "200", "--radius", "0.5", "--eps0", "0.01", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)[1:]
    assert {row[header.index("boot_verdict")] for row in rows} != {"range_exceeded"}
    recheck_audit_rows(header, rows, n=200, samples=24, radius=0.5, eps0=0.01, seed=3, alpha0=1.5)


def recheck_audit_rows(header, rows, n, samples, radius, eps0, seed, alpha0=1.0):
    """Recompute each row's certificates from one-row evolve_slqc and
    bootstrap_slqc calls, bit for bit, and check them pointwise; returns
    descent checks per target."""
    spec = GmmSpec(0.5, [-1.0, -1.0], [1.0, 1.0], np.eye(2), np.eye(2))
    data = sample_gmm(spec, n, seed=(seed, 11), normalize=True)
    theta0, _ = train_gd(data, TrainConfig(alpha=alpha0, radius=radius))
    thetas = sample_audit_points(2, radius, samples, seed=(seed, 12))
    kappa0 = theta_lipschitz_constant(alpha0, radius, 2)
    grad0 = np.linalg.norm(risk_gradient_batch(thetas, data, alpha0), axis=1)
    floors = {}  # each target's floor from a one-target call
    col = {name: header.index(name) for name in header}
    descent = {}
    for row in rows:
        target, i = float(row[0]), int(row[1])
        if target not in floors:
            floors[target] = gradient_floor(thetas, data, alpha0, [target])[1][0]
        floor = floors[target]
        L, J = alpha_lipschitz_risk(thetas[i]), alpha_lipschitz_gradient(thetas[i])
        cells = [""] * 6
        try:
            eps, kappa = evolve_slqc(alpha0, eps0, kappa0, grad0[i], L, J, radius, target)
            cells[:3] = eps, kappa, eps / kappa
        except RangeExceeded as exc:
            cells[3] = exc.admissible_sup
        if floor[i] > 0.0:
            # alpha_lambda = alpha0 + lam alpha0^2 g / (J (1 + 2 r / rho0)) is the target
            lam = (target - alpha0) * J * (1.0 + 2.0 * radius / (eps0 / kappa0)) / (
                alpha0**2 * floor[i]
            )
            if 0.0 < lam < 1.0:
                _, eps_b, rho_b = bootstrap_slqc(alpha0, eps0, kappa0, floor[i], L, J, radius, lam)
                cells[4:] = eps_b, eps_b / rho_b
        names = ["eps", "kappa", "rho", "admissible_sup", "boot_eps", "boot_kappa"]
        assert [row[col[c]] for c in names] == [cli._fmt(v) for v in cells]
        oracle = risk_oracle(data, target, validate=False)
        for verdict, eps, kappa in (("verdict", "eps", "kappa"),
                                    ("boot_verdict", "boot_eps", "boot_kappa")):
            if row[col[verdict]] == "range_exceeded":
                continue
            cert = SlqcCertificate(float(row[col[eps]]), float(row[col[kappa]]), theta0.theta)
            check = check_slqc_at(oracle, thetas[i], cert)
            assert check.verdict.value == row[col[verdict]]
            descent[row[0]] = descent.get(row[0], 0) + (check.grad_norm is not None)
    return descent


def test_linalg_error_is_numeric_failure(tmp_path, monkeypatch, capsys):
    def singular(args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "cmd_tilt", singular)
    rc = main(["tilt", "--pmf", "binomial:4,0.3", "--alphas", "1", "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_alpha_literal_inf(tmp_path):
    bodies = set()
    for alphas in ("inf", "INF", " Infinity ", "+inf"):
        out = tmp_path / "tilt_inf.csv"
        rc = main(["tilt", "--pmf", "binomial:4,0.3", "--alphas", alphas, "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header[-1] == "alpha_inf"
        col = np.array([float(r[-1]) for r in rows])
        assert col.max() == 1.0  # point mass on the mode
        bodies.add(body_bytes(out))
    assert len(bodies) == 1  # every spelling is the same alpha


@pytest.mark.parametrize("alphas", ["nan", "0", "-1", "abc", "1,-inf"])
def test_alphas_reject_what_is_not_a_positive_alpha(tmp_path, capsys, alphas):
    out = tmp_path / "tilt.csv"
    rc = main(["tilt", "--pmf", "binomial:4,0.3", "--alphas", alphas, "--out", str(out)])
    assert rc == 2
    assert "configuration error: bad alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"r": math.nan}, {"r": math.inf}, {"d": 2.9}, {"n": 500.5}])
def test_bounds_rejects_a_malformed_query_entry(tmp_path, capsys, entry):
    # rejected before the audit runs: a NaN radius used to audit NaN vectors
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"alpha": 1.0, "r": 1.0, "d": 2, "n": 500, "delta": 0.05,
                                 **entry}))
    out = tmp_path / "bounds.csv"
    argv = ["bounds", "--query", str(query), "--gmm", write_gmm(tmp_path), "--out", str(out)]
    assert main(argv) == 2
    assert "configuration error: invalid bound query entry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"mean_minus": [math.nan, -1.0]},
    {"cov_plus": [[math.inf, 0.0], [0.0, 1.0]]},
    {"mean_plus": [1.0, -math.inf]},
])
@pytest.mark.parametrize("argv", [
    ["landscape", "--alpha", "2", "--grid", "3", "--n", "50"],
    ["slqc-audit", "--targets", "1.001", "--samples", "4", "--n", "50"],
    ["trend", "--ns", "50", "--runs", "2"],
])
def test_non_finite_mixture_is_a_config_error(tmp_path, capsys, entry, argv):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--gmm", write_gmm(tmp_path, **entry), "--out", str(out)])
    assert rc == 2
    assert "configuration error: invalid GMM config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [5, None, [], [5]])
@pytest.mark.parametrize("strict", [False, True])
def test_bounds_rejects_a_query_that_is_not_objects(tmp_path, capsys, payload, strict):
    # anything but an object or a non-empty list of objects is a
    # configuration error; an empty list would report an audit of nothing
    # as clean
    query = tmp_path / "q.json"
    query.write_text(json.dumps(payload))
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--query", str(query), "--out", str(out)] + ["--strict"] * strict)
    assert rc == 2
    assert "must hold an object or a non-empty list of objects" in capsys.readouterr().err
    assert not out.exists()


def test_tilt_pmf_of_objects_is_a_config_error(tmp_path, capsys):
    pmf = tmp_path / "pmf.json"
    pmf.write_text(json.dumps([{"a": 1}]))
    rc = main(["tilt", "--pmf", str(pmf), "--alphas", "1", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert f"configuration error: malformed pmf in {pmf}" in capsys.readouterr().err


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    directory = tmp_path / "dir"
    directory.mkdir()
    tilt = ["tilt", "--pmf", "binomial:4,0.3", "--alphas", "1", "--out"]
    # a file where the output directory should be, for a CSV and for synth
    assert main(tilt + [str(blocker / "x.csv")]) == 2
    assert main(["synth", "--scenario", "clean", "--alphas", "1", "--runs", "1",
                 "--out", str(blocker)]) == 2
    # a directory where the CSV should be: the rename fails after the write
    assert main(tilt + [str(directory)]) == 2
    assert capsys.readouterr().err.count("configuration error: [Errno") == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]  # no temporary file left
    assert not any(directory.iterdir())


AUDITED = {
    "landscape": ["--gmm", "g.json", "--alpha", "1"],
    "slqc-audit": ["--gmm", "g.json", "--targets", "1.5"],
    "bounds": ["--query", "q.json"],
    "trend": ["--gmm", "g.json", "--ns", "50"],
}


@pytest.mark.parametrize("command", sorted(AUDITED))
@pytest.mark.parametrize("strict", [False, True])
def test_main_alone_turns_a_violation_into_exit_4(tmp_path, monkeypatch, capsys, command, strict):
    func = "cmd_" + command.replace("-", "_")
    argv = [command, *AUDITED[command], "--out", str(tmp_path / "x.csv")] + ["--strict"] * strict
    monkeypatch.setattr(cli, func, lambda args: f"{args.command} violation")
    assert main(argv) == (4 if strict else 0)
    assert capsys.readouterr().err == (f"{command} violation\n" if strict else "")
    monkeypatch.setattr(cli, func, lambda args: None)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["tilt", "--pmf", "binomial:4,0.3", "--alphas", "1"],
    ["synth", "--scenario", "clean"],
])
def test_tilt_and_synth_reject_strict(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x"), "--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


OPTIONS = {
    "tilt": {"--pmf", "--alphas"},
    "landscape": {"--gmm", "--alpha", "--radius", "--grid", "--n", "--compare-infinity",
                  "--strict"},
    "synth": {"--scenario", "--alphas", "--runs"},
    "slqc-audit": {"--gmm", "--alpha0", "--targets", "--samples", "--n", "--radius", "--eps0",
                   "--strict"},
    "bounds": {"--query", "--gmm", "--trials", "--pop-samples", "--strict"},
    "trend": {"--gmm", "--alpha", "--ns", "--runs", "--strict"},
}


def test_each_subcommand_has_its_options_and_the_shared_pair(tmp_path):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.choices).choices
    assert set(commands) == set(OPTIONS)
    for name, sub in commands.items():
        got = {opt for action in sub._actions for opt in action.option_strings}
        assert got == OPTIONS[name] | {"-h", "--help", "--seed", "--out"}, name
        with pytest.raises(SystemExit):  # --out stays required
            parser.parse_args([name, *AUDITED.get(name, [])])


@pytest.mark.parametrize("value,text", [
    (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"), (1e300, "1.0000000000000001e+300"),
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
    (np.float64(-0.0), "-0"), (True, "true"), (np.bool_(False), "false"), (3, "3"),
    (np.int64(-7), "-7"), (np.uint8(255), "255"), ([1, 0.5, True, math.inf], "1,0.5,true,inf"),
    (np.array([0.25, np.nan]), "0.25,nan"), ("x", "x"),
])
def test_fmt_writes_each_value_type(value, text):
    # Python floats take the first branch; numpy scalars, flags and ints keep theirs
    assert cli._fmt(value) == text


# Manifest lines after the shared head (subcommand, config, seed, out,
# version, timestamp) at seed 1 on the write_gmm mixture, frozen from
# version 0.6.0: floats with 17 significant digits, flags as true/false,
# per-arm counts comma-separated.  NEAR values come from numpy's vectorized
# exp/log1p passes, whose last digits may move with the CPU dispatch level.
TINY_RUNS = {
    "tilt": (["--pmf", "binomial:4,0.3", "--alphas", "1"], "binomial:4,0.3", []),
    "landscape": (
        ["--gmm", "{gmm}", "--alpha", "10", "--grid", "3", "--n", "50", "--compare-infinity"],
        "{gmm}",
        [("alpha", "10"), ("grid", "3"), ("radius", "1"), ("single_basin", "true"),
         ("max_value_gap", "0.022813608959244447"), ("max_value_bound", "0.2261911382079608"),
         ("max_grad_gap", "0.0079115199548332217"), ("max_grad_bound", "0.26493763417914745"),
         ("value_ok", "true"), ("grad_ok", "true"), ("violations", "0")],
    ),
    "synth": (
        ["--scenario", "imbalance", "--alphas", "0.65,1", "--runs", "1"],
        "imbalance",
        [("runs", "1"), ("converged_runs", "1,1"), ("capped_runs", "0,0"),
         ("gd_row_iterations", "4884,15671")],
    ),
    "slqc-audit": (
        ["--gmm", "{gmm}", "--targets", "1.0002,1.001", "--samples", "8", "--n", "100",
         "--radius", "0.2", "--eps0", "0.005"],
        "{gmm}",
        [("alpha0", "1"), ("eps0", "0.0050000000000000001"), ("kappa0", "0.80644540502570949"),
         ("theta0_converged", "true"), ("theta0_iterations", "341"),
         ("theta0_stop_statistic", "4.4296528148022635e-05"), ("gradient_floor_zero", "0,0"),
         ("descent_checks", "16,16"), ("violations", "0")],
    ),
    "bounds": (
        ["--query", "{query}", "--gmm", "{gmm}", "--trials", "1", "--pop-samples", "1000"],
        "{query}",
        [("pop_samples", "1000"), ("population_passes", "1"), ("population_margins", "100000"),
         ("violations", "0")],
    ),
    "trend": (
        ["--gmm", "{gmm}", "--ns", "400,800", "--runs", "1"],
        "{gmm}",
        [("alpha", "1"), ("bayes_risk", "0.078649603525142567"),
         ("note", "trend is conditional on the linear model attaining the minimal risk; "
                  "this assumption is not verified"),
         ("converged_runs", "1,1"), ("capped_runs", "0,0"), ("gd_row_iterations", "19032,19277"),
         ("violations", "0")],
    ),
}
NEAR = {"max_value_gap", "max_value_bound", "max_grad_gap", "max_grad_bound", "kappa0",
        "theta0_stop_statistic"}


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_manifest_keys_in_order_and_value_formats(tmp_path, command):
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"alpha": 2.0, "r": 1.0, "d": 2, "n": 100, "delta": 0.2}))
    paths = {"gmm": write_gmm(tmp_path), "query": str(query)}
    argv, config, entries = TINY_RUNS[command]
    out = tmp_path / "out"
    assert main([command, *(a.format(**paths) for a in argv), "--seed", "1", "--out", str(out)]) == 0
    comments, _, _ = read_csv(out / "summary.csv" if command == "synth" else out)
    got = [tuple(c[2:].split(": ", 1)) for c in comments]
    assert got[:5] == [("subcommand", command), ("config", config.format(**paths)),
                       ("seed", "1"), ("out", str(out)), ("version", alpha_lab.__version__)]
    assert got[5][0] == "timestamp"
    assert [key for key, _ in got[6:]] == [key for key, _ in entries]
    for (key, val), (_, want) in zip(got[6:], entries):
        if key in NEAR:
            assert val == format(float(val), ".17g"), key
            assert float(val) == pytest.approx(float(want), rel=1e-12), key
        else:
            assert val == want, key
