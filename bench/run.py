"""alpha-lab benchmark: seeded workloads driven through the public CLI and library.

Run from the repository root; the library is imported from ``src/``:

    python3 bench/run.py --workload synth --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0      # one table, every workload
    python3 bench/selftest.py                         # tiny-size self-test

Load shape: a closed loop with one client.  Each workload run is one
fresh process that issues its operations one after another and starts no
threads of its own; the library's only pool is ``audit_certificate``'s,
sized by ``os.cpu_count()``.  The workload seed reaches the library only
through ``--seed`` and ``seed=`` arguments.

A *unit* is one pass over a workload's operations.  ``--trace 0`` runs
units 0, 1, 2, ... (unit k uses CLI seed ``1000 * seed + k``) until
``--seconds`` are used up and reports end-to-end metrics as medians over
units.  ``--trace 1`` alternates an untraced and a traced run of unit 0
for the same time, reports per-layer metrics from the traced runs
(medians), the tracing overhead, a kernel probe and, for ``audit``, the
single-thread baseline of the certificate sweep.  The last stdout line is
the JSON result; spans go to ``.bench_run/trace-<workload>-seed<seed>.json``.

Every operation is checked (exit code, CSV schema and row counts, finite
values, zero certificate violations, saturation ``value_ok``/``grad_ok``,
accuracies in [0, 1]); at seed 0, unit 0 is also compared with
``reference.json`` (relative tolerance stated there; rebuild it with
``--write-reference`` when results change on purpose).  A failed check or a
raising operation counts in ``failed``; ``fail_frac`` = failed / attempted.

Besides files under the checkout, the manifest reads the CPU model from
``/proc/cpuinfo`` and cache sizes from ``/sys/devices/system/cpu``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 3
REFERENCE_SEED = 0
WORKLOADS = ("synth", "audit", "bulk")

# Why each workload (see the BENCHMARK.json "why" lines):
#   synth: small-batch GD (<=1e4 elements per step) where numpy dispatch
#          dominates; alpha=4 always runs to the iteration cap and 0.65 vs
#          {1, 4} cover both branches of the GD weight kernel.
#   audit: per-point, latency-bound logistic/slqc calls, projected GD at a
#          KKT point, the gradient floor and the threaded certificate sweep.
#          At radius 0.2 the constrained minimizer lies on the sphere for all
#          300 data seeds tried (unconstrained minimizer norms 0.215 to 1.9),
#          so train_gd always spends its full iteration budget at the KKT
#          point; at radius 1 some seeds converge inside the ball and the run
#          time swings with the seed.
#   bulk:  the same training/logistic/losses layers on >=1e5-element arrays:
#          Monte-Carlo bound audits, a landscape grid and the n=5000 trend.
SIZES = {
    "synth": {"runs": 1, "alphas": "0.65,1,4"},
    "audit": {"samples": 128, "targets": "1.001,1.003", "radius": 0.2, "sweep": 4096},
    "bulk": {"pop": 200_000, "trials": 10, "grid": 51, "trend_runs": 3, "trend_n": 5000},
}
TINY_SIZES = {
    "synth": {"runs": 1, "alphas": "0.65,1"},
    "audit": {"samples": 8, "targets": "1.001", "radius": 0.2, "sweep": 64},
    "bulk": {"pop": 20_000, "trials": 2, "grid": 11, "trend_runs": 2, "trend_n": 500},
}

GMM = {
    "prior_minus": 0.5,
    "mean_minus": [-1.0, -1.0],
    "mean_plus": [1.0, 1.0],
    "cov_minus": [[1.0, 0.0], [0.0, 1.0]],
    "cov_plus": [[1.0, 0.0], [0.0, 1.0]],
}
QUERIES = [{"alpha": a, "r": 1.0, "d": 2, "n": 500, "delta": 0.05} for a in (0.5, 1, 2, "inf")]

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = ("synth", "slqc-audit", "bounds", "landscape", "trend")
PROBE_ALPHAS = ((0.65, "0.65"), (1.0, "1"), (4.0, "4"), (math.inf, "inf"))
# (elements, label, calls per batch, batches): one call at 1e7 keeps the probe near 10 s.
PROBE_SIZES = ((10_000, "1e4", 100, 5), (10_000_000, "1e7", 1, 1))
# One float64 read and one written per element; computed, not measured.
PROBE_BYTES_PER_ELEM = 16
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "ALPHA_LAB_THREADS")

lab = None  # the alpha_lab package, set by import_library()


def import_library():
    global lab
    if not (SRC / "alpha_lab" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'alpha_lab'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import alpha_lab
    import alpha_lab.cli  # noqa: F401  (not imported by the package itself)

    if SRC.resolve() not in Path(alpha_lab.__file__).resolve().parents:
        sys.exit(f"bench: imported alpha_lab from {alpha_lab.__file__}, not from {SRC}")
    lab = alpha_lab


def write_inputs(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "gmm.json").write_text(json.dumps(GMM))
    (directory / "queries.json").write_text(json.dumps(QUERIES))


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


def run_cli(argv):
    rc = lab.cli.main([str(a) for a in argv])
    need(rc == 0, f"alpha-lab {argv[0]} exited with {rc}")


def read_csv(path: Path, header, rows):
    """(manifest, records, sha256 of the body) of a CLI output CSV."""
    manifest, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            manifest[key] = val
        else:
            body.append(line)
    need(body and body[0] == ",".join(header), f"{path.name}: header {body[:1]}")
    records = [line.split(",") for line in body[1:]]
    need(len(records) == rows, f"{path.name}: {len(records)} rows, expected {rows}")
    need(all(len(r) == len(header) for r in records), f"{path.name}: ragged rows")
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    return manifest, [dict(zip(header, r)) for r in records], {path.name: digest}


def need_finite(record, columns, allow_empty=False):
    for col in columns:
        if allow_empty and record[col] == "":
            continue
        need(math.isfinite(float(record[col])), f"{col}={record[col]!r} is not finite")


def need_unit_interval(record, columns):
    for col in columns:
        need(0.0 <= float(record[col]) <= 1.0, f"{col}={record[col]!r} outside [0, 1]")


# ------------------------------------------------------------- workloads
#
# Each operation is (label, run, check): run() is timed and returns what
# check(result) needs; check raises on a failed correctness check and
# returns (digests of CSV bodies, reference values).

SYNTH_SUMMARY = ["alpha", "angle_deg", "acc_minus", "acc_plus", "acc_overall",
                 "rel_gain_pct", "gain_sign", "theta1", "theta2"]
SYNTH_RUNS = ["alpha", "run", "converged", "theta1", "theta2"]
AUDIT_HEADER = ["target_alpha", "theta_index", "verdict", "eps", "kappa", "rho",
                "admissible_sup", "boot_verdict", "boot_eps", "boot_kappa", "detail"]
VERDICTS = ("condition1", "condition2", "range_exceeded")
BOUNDS_HEADER = ["alpha", "r", "d", "n", "delta", "rademacher_bound",
                 "uniform_discrepancy_bound", "measured_sup_gap", "audit_pass_fraction"]


def synth_ops(ctx, seed):
    s = ctx.sizes
    out = ctx.dir / "synth"
    alphas = s["alphas"].split(",")

    def run():
        run_cli(["synth", "--scenario", "imbalance", "--alphas", s["alphas"],
                 "--runs", s["runs"], "--seed", seed, "--out", out])

    def check(_):
        _, summary, d1 = read_csv(out / "summary.csv", SYNTH_SUMMARY, len(alphas))
        _, runs, d2 = read_csv(out / "predictors.csv", SYNTH_RUNS, len(alphas) * s["runs"])
        refs = {}
        for r in summary:
            need_finite(r, SYNTH_SUMMARY[1:])
            need_unit_interval(r, ["acc_minus", "acc_plus", "acc_overall"])
            refs[f"acc_overall@{r['alpha']}"] = float(r["acc_overall"])
            refs[f"angle_deg@{r['alpha']}"] = float(r["angle_deg"])
        for r in runs:
            need_finite(r, ["theta1", "theta2"])
            need(r["converged"] in ("0", "1"), f"converged={r['converged']!r}")
        refs["converged_runs"] = sum(r["converged"] == "1" for r in runs)
        return {**d1, **d2}, refs

    return [("synth", run, check)]


def sweep_inputs(ctx, seed):
    """Certificate sweep on the alpha=1 risk, where any (eps, kappa=C_d, theta0)
    certificate must hold (convex and C_d-Lipschitz on the ball)."""
    spec = lab.GmmSpec(**GMM)
    data = lab.sample_gmm(spec, 500, seed=(seed, 11), normalize=True)
    oracle = lab.risk_oracle(data, 1.0, validate=False)
    theta0 = lab.sample_audit_points(2, 0.5, 2, seed=(seed, 13))[0]
    cert = lab.SlqcCertificate(0.05, lab.theta_lipschitz_constant(1.0, 1.0, 2), theta0)
    thetas = lab.sample_audit_points(2, 1.0, ctx.sizes["sweep"], seed=(seed, 12))
    return oracle, cert, thetas


def audit_ops(ctx, seed):
    s = ctx.sizes
    out = ctx.dir / "audit.csv"
    n_targets = len(s["targets"].split(","))

    def run_cli_audit():
        run_cli(["slqc-audit", "--gmm", ctx.dir / "gmm.json", "--alpha0", "1",
                 "--targets", s["targets"], "--samples", s["samples"], "--radius", s["radius"],
                 "--seed", seed, "--out", out])

    def check_cli_audit(_):
        manifest, rows, digest = read_csv(out, AUDIT_HEADER, n_targets * s["samples"])
        need(manifest.get("violations") == "0", f"violations: {manifest.get('violations')}")
        refs = {"kappa0": float(manifest["kappa0"])}
        for r in rows:
            need(r["verdict"] in VERDICTS, f"verdict {r['verdict']!r}")
            need(r["boot_verdict"] in VERDICTS, f"boot_verdict {r['boot_verdict']!r}")
            need_finite(r, ["eps", "kappa", "rho", "admissible_sup", "boot_eps", "boot_kappa"],
                        allow_empty=True)
            for col in ("verdict", "boot_verdict"):
                key = f"{col}.{r[col]}"
                refs[key] = refs.get(key, 0) + 1
        return digest, refs

    def run_sweep():
        oracle, cert, thetas = sweep_inputs(ctx, seed)
        return thetas.shape[0], lab.audit_certificate(oracle, cert, thetas)

    def check_sweep(result):
        points, res = result
        need(res.n_fails == 0, f"certificate sweep: {res.n_fails} fails")
        need(res.n_condition1 + res.n_condition2 == points, "sweep verdicts do not add up")
        verdicts = "".join(c.verdict.value[-1] for c in res.checks)
        digest = hashlib.sha256(verdicts.encode()).hexdigest()
        return {"sweep": digest}, {"sweep.condition1": res.n_condition1,
                                   "sweep.condition2": res.n_condition2}

    return [("slqc-audit", run_cli_audit, check_cli_audit),
            ("audit_certificate", run_sweep, check_sweep)]


def bulk_ops(ctx, seed):
    s = ctx.sizes
    gmm = ctx.dir / "gmm.json"
    paths = {k: ctx.dir / f"{k}.csv" for k in ("bounds", "landscape", "trend")}

    def run_bounds():
        run_cli(["bounds", "--query", ctx.dir / "queries.json", "--gmm", gmm,
                 "--trials", s["trials"], "--pop-samples", s["pop"], "--seed", seed,
                 "--out", paths["bounds"]])

    def check_bounds(_):
        _, rows, digest = read_csv(paths["bounds"], BOUNDS_HEADER, len(QUERIES))
        refs = {}
        for r in rows:
            need_finite(r, ["rademacher_bound", "measured_sup_gap"])
            need_unit_interval(r, ["audit_pass_fraction"])
            alpha = float(r["alpha"])
            if alpha >= 1.0:
                need_finite(r, ["uniform_discrepancy_bound"])
                refs[f"uniform_discrepancy_bound@{r['alpha']}"] = float(r["uniform_discrepancy_bound"])
            else:
                need(r["uniform_discrepancy_bound"] == "nan", "discrepancy bound below alpha=1")
            for col in ("rademacher_bound", "measured_sup_gap", "audit_pass_fraction"):
                refs[f"{col}@{r['alpha']}"] = float(r[col])
        return digest, refs

    def run_landscape():
        run_cli(["landscape", "--gmm", gmm, "--alpha", "10", "--grid", s["grid"],
                 "--compare-infinity", "--seed", seed, "--out", paths["landscape"]])

    def check_landscape(_):
        manifest, rows, digest = read_csv(paths["landscape"], ["theta1", "theta2", "risk"],
                                          s["grid"] ** 2)
        for r in rows:
            need_finite(r, ["theta1", "theta2", "risk"])
        need(manifest.get("value_ok") == "true", "saturation value_ok is not true")
        need(manifest.get("grad_ok") == "true", "saturation grad_ok is not true")
        risks = [float(r["risk"]) for r in rows]
        return digest, {"risk.min": min(risks), "risk.max": max(risks),
                        "max_value_gap": float(manifest["max_value_gap"]),
                        "max_grad_gap": float(manifest["max_grad_gap"])}

    def run_trend():
        run_cli(["trend", "--gmm", gmm, "--alpha", "1", "--ns", s["trend_n"],
                 "--runs", s["trend_runs"], "--seed", seed, "--out", paths["trend"]])

    def check_trend(_):
        manifest, rows, digest = read_csv(paths["trend"], ["n", "mean_gap", "se_gap"], 1)
        need_finite(rows[0], ["mean_gap", "se_gap"])
        return digest, {"mean_gap": float(rows[0]["mean_gap"]),
                        "se_gap": float(rows[0]["se_gap"]),
                        "bayes_risk": float(manifest["bayes_risk"])}

    return [("bounds", run_bounds, check_bounds),
            ("landscape", run_landscape, check_landscape),
            ("trend", run_trend, check_trend)]


OPS = {"synth": synth_ops, "audit": audit_ops, "bulk": bulk_ops}


class Context:
    def __init__(self, workload, sizes, directory):
        self.workload = workload
        self.sizes = sizes
        self.dir = directory


class Unit:
    """Timings and outcomes of one pass over a workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.refs = {}
        self.spans = []


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_unit(ctx, seed):
    unit = Unit()
    for label, run, check in OPS[ctx.workload](ctx, seed):
        unit.attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an operation that raises is counted as failed
            unit.failures.append(f"{label}: {exc!r}")
            continue
        finally:
            unit.wall += time.perf_counter() - t0
            unit.cpu += cpu_seconds() - c0
        try:
            digests, refs = check(result)
        except (CheckFailed, ValueError, KeyError, OSError) as exc:
            unit.failures.append(f"{label}: {exc}")
            continue
        unit.digests.update(digests)
        unit.refs.update(refs)
    return unit


# ---------------------------------------------------------------- tracing


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _rows(data):
    return len(data.X) if hasattr(data, "X") else len(data[0])


def _gd_counts(args, kwargs, result):
    reports = result[1]
    iters = [r.iterations for r in reports]
    converged = sum(r.converged for r in reports)
    return {"row_iters": sum(iters), "steps": max(iters) + 1,
            "converged": converged, "capped": len(reports) - converged}


TRACE_TARGETS = [
    ("alpha_lab.cli", "main", lambda a, k: "cli." + _arg(a, k, 0, "argv")[0], None),
    ("alpha_lab.cli", "write_csv", "cli.write_csv",
     lambda a, k, r: {"rows": len(_arg(a, k, 3, "rows"))}),
    ("alpha_lab.training", "_batched_gd", "training.gd", _gd_counts),
    ("alpha_lab.datasets", "corrupt", "datasets.corrupt", None),
    ("alpha_lab.datasets", "sample_gmm", "datasets.sample_gmm",
     lambda a, k, r: {"samples": int(_arg(a, k, 1, "n"))}),
    ("alpha_lab.losses", "margin_alpha_loss", "losses.margin_alpha_loss",
     lambda a, k, r: {"elements": np.size(_arg(a, k, 1, "z"))}),
    ("alpha_lab.util", "softplus", "util.softplus",
     lambda a, k, r: {"elements": np.size(_arg(a, k, 0, "x"))}),
    ("alpha_lab.util", "log_sigmoid", "util.log_sigmoid",
     lambda a, k, r: {"elements": np.size(_arg(a, k, 0, "x"))}),
    ("alpha_lab.logistic", "risk_batch", "logistic.risk_batch",
     lambda a, k, r: {"elements": np.size(r) * _rows(_arg(a, k, 1, "data"))}),
    ("alpha_lab.logistic", "risk_gradient_batch", "logistic.risk_gradient_batch",
     lambda a, k, r: {"elements": len(r) * _rows(_arg(a, k, 1, "data"))}),
    ("alpha_lab.logistic", "risk_gradient", "logistic.risk_gradient", None),
    ("alpha_lab.logistic", "empirical_alpha_risk", "logistic.empirical_alpha_risk", None),
    ("alpha_lab.slqc", "check_slqc_at", "slqc.check_slqc_at",
     lambda a, k, r: {"fails": int(r.verdict.value == "fails")}),
    ("alpha_lab.slqc", "evolve_slqc", "slqc.evolve_slqc", lambda a, k, r: {"evolved": 1}),
    ("alpha_lab.slqc", "audit_certificate", "slqc.audit_certificate", None),
    ("alpha_lab.bounds", "_population_risks", "bounds.population_mc",
     lambda a, k, r: {"margins": len(_arg(a, k, 0, "thetas")) * int(_arg(a, k, 3, "pop_n"))}),
    ("alpha_lab.bounds", "optimality_trend", "bounds.optimality_trend", None),
]

PER_LAYER_UNITS = {
    "training.gd.self_s": "s", "training.gd.step_us": "us/step",
    "training.gd.row_iters": "count", "training.gd.converged": "count",
    "training.gd.capped": "count", "training.gd.converged_frac": "frac",
    "datasets.corrupt.self_s": "s", "datasets.sample_gmm.self_s": "s",
    "datasets.sample_gmm.samples": "count",
    "losses.margin_alpha_loss.self_s": "s", "losses.margin_alpha_loss.elements": "count",
    "losses.margin_alpha_loss.ns_per_elem": "ns/elem",
    "util.softplus.self_s": "s", "util.softplus.elements": "count",
    "util.log_sigmoid.self_s": "s", "util.log_sigmoid.elements": "count",
    "logistic.risk_batch.self_s": "s", "logistic.risk_batch.elements": "count",
    "logistic.risk_gradient_batch.self_s": "s", "logistic.risk_gradient_batch.calls": "count",
    "logistic.risk_gradient_batch.elements": "count",
    "logistic.risk_gradient.calls": "count", "logistic.risk_gradient.self_s": "s",
    "logistic.empirical_alpha_risk.calls": "count", "logistic.empirical_alpha_risk.self_s": "s",
    "slqc.check_slqc_at.calls": "count", "slqc.check_slqc_at.us_per_call": "us/call",
    "slqc.audit_certificate.s": "s", "slqc.audit_certificate.serial_s": "s",
    "slqc.audit_certificate.workers": "count", "slqc.audit_certificate.points": "count",
    "slqc.evolved_frac": "frac", "slqc.fails": "count",
    "bounds.population_mc.self_s": "s", "bounds.population_mc.margins": "count",
    "bounds.optimality_trend.s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "cli.write_csv.self_s": "s", "cli.write_csv.rows": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{f"probe.{label}.bytes_computed": "B" for _, label, _, _ in PROBE_SIZES},
}


# (span-style name, module, function, alpha or None) of each probed kernel
PROBE_KERNELS = [("util.softplus", "util", "softplus", None),
                 ("util.log_sigmoid", "util", "log_sigmoid", None),
                 ("losses.sigmoid", "losses", "sigmoid", None)] + [
    (f"losses.{fn}.a{label}", "losses", fn, alpha)
    for fn in ("margin_alpha_loss", "margin_loss_derivative", "margin_loss_second_derivative")
    for alpha, label in PROBE_ALPHAS]
PER_LAYER_UNITS.update({f"probe.{name}.{label}.ns_per_elem": "ns/elem"
                        for name, *_ in PROBE_KERNELS for _, label, _, _ in PROBE_SIZES})


def layer_metrics(spans):
    rows = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name):
        return rows.get(name, empty)

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    gd = get("training.gd")
    conv, capped = count("training.gd", "converged"), count("training.gd", "capped")
    m["training.gd.self_s"] = gd["self_s"]
    m["training.gd.step_us"] = ratio(gd["self_s"], count("training.gd", "steps"), 1e6)
    m["training.gd.row_iters"] = count("training.gd", "row_iters")
    m["training.gd.converged"] = conv
    m["training.gd.capped"] = capped
    m["training.gd.converged_frac"] = ratio(conv, conv + capped)
    m["datasets.corrupt.self_s"] = get("datasets.corrupt")["self_s"]
    m["datasets.sample_gmm.self_s"] = get("datasets.sample_gmm")["self_s"]
    m["datasets.sample_gmm.samples"] = count("datasets.sample_gmm", "samples")
    loss = get("losses.margin_alpha_loss")
    elements = count("losses.margin_alpha_loss", "elements")
    m["losses.margin_alpha_loss.self_s"] = loss["self_s"]
    m["losses.margin_alpha_loss.elements"] = elements
    m["losses.margin_alpha_loss.ns_per_elem"] = ratio(loss["self_s"], elements, 1e9)
    for name in ("util.softplus", "util.log_sigmoid", "logistic.risk_batch",
                 "logistic.risk_gradient_batch"):
        m[f"{name}.self_s"] = get(name)["self_s"]
        m[f"{name}.elements"] = count(name, "elements")
    for name in ("logistic.risk_gradient_batch", "logistic.risk_gradient",
                 "logistic.empirical_alpha_risk", "slqc.check_slqc_at"):
        m[f"{name}.calls"] = get(name)["calls"]
    for name in ("logistic.risk_gradient", "logistic.empirical_alpha_risk",
                 "bounds.population_mc"):
        m[f"{name}.self_s"] = get(name)["self_s"]
    check = get("slqc.check_slqc_at")
    m["slqc.check_slqc_at.us_per_call"] = ratio(check["total_s"], check["calls"], 1e6)
    m["slqc.evolved_frac"] = ratio(count("slqc.evolve_slqc", "evolved"),
                                   get("slqc.evolve_slqc")["calls"])
    m["slqc.fails"] = count("slqc.check_slqc_at", "fails")
    m["bounds.population_mc.margins"] = count("bounds.population_mc", "margins")
    m["bounds.optimality_trend.s"] = get("bounds.optimality_trend")["total_s"]
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = get(f"cli.{sub}")["total_s"]
    m["cli.write_csv.self_s"] = get("cli.write_csv")["self_s"]
    m["cli.write_csv.rows"] = count("cli.write_csv", "rows")
    m["trace.spans"] = len(spans)
    return m


def probe(seed):
    """ns per element of the transcendental and loss kernels at 1e4 and 1e7.

    Bytes moved are computed from array sizes (one float64 in, one out) and
    ignore temporaries and cache misses.  No bandwidth ratio is reported:
    1e7 float64 (80 MB) is below four times the last-level cache.
    """
    rng = lab.util.derive_rng(seed, 900)
    out = {}
    for size, label, reps, batches in PROBE_SIZES:
        z = rng.normal(0.0, 8.0, size)
        for name, module, fname, alpha in PROBE_KERNELS:
            fn = getattr(getattr(lab, module), fname)
            args = (z,) if alpha is None else (alpha, z)
            per_call = []
            for _ in range(batches):
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn(*args)
                per_call.append((time.perf_counter() - t0) / reps)
            out[f"probe.{name}.{label}.ns_per_elem"] = statistics.median(per_call) / size * 1e9
        out[f"probe.{label}.bytes_computed"] = PROBE_BYTES_PER_ELEM * size
    return out


def sweep_baseline(ctx, seed, repeats):
    """Certificate sweep timed untraced with the default pool and with one worker."""
    oracle, cert, thetas = sweep_inputs(ctx, seed)
    default, serial = [], []
    for _ in range(repeats):
        for workers, times in ((None, default), (1, serial)):
            t0 = time.perf_counter()
            lab.audit_certificate(oracle, cert, thetas, max_workers=workers)
            times.append(time.perf_counter() - t0)
    return {"slqc.audit_certificate.s": statistics.median(default),
            "slqc.audit_certificate.serial_s": statistics.median(serial),
            "slqc.audit_certificate.workers": lab.util.thread_count(),
            "slqc.audit_certificate.points": len(thetas)}


# ---------------------------------------------------------------- manifest


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_manifest():
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if level:
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = \
                _read(index / "size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "caches_per_instance": caches,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ------------------------------------------------------------------- runs


def measure_setup(workload, directory: Path):
    """Median seconds for a fresh interpreter to import alpha_lab and write inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--setup-only", str(directory / f"setup{i}")], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_boxed(seconds, step):
    """Call step() until the next call would likely end past ``seconds``."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        last = elapsed / len(results)
        if elapsed + 0.5 * last >= seconds:
            return results


def check_reference(workload, refs):
    """Compare unit-0 values at the reference seed; returns a failure or None."""
    table = json.loads(REFERENCE.read_text())
    expected, rtol = table[workload], table["rtol"]
    if set(expected) != set(refs):
        return f"reference keys differ: {sorted(set(expected) ^ set(refs))}"
    bad = [k for k, v in expected.items() if not math.isclose(refs[k], v, rel_tol=rtol, abs_tol=1e-12)]
    return f"outside rtol {rtol} of reference: {bad}" if bad else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store unit-0 values at seed {REFERENCE_SEED} in reference.json")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.workload == "all":
        return run_all(args)
    import_library()
    if args.setup_only:
        write_inputs(Path(args.setup_only))
        return 0

    sizes = (TINY_SIZES if args.tiny else SIZES)[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, workdir)
        write_inputs(workdir)
        ctx = Context(args.workload, sizes, workdir)
        result, trace_file = measure(ctx, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace_file:
        print(f"spans: {trace_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def measure(ctx, args, setup_s):
    base = 1000 * args.seed
    manifest = {**machine_manifest(), "workload": ctx.workload, "seed": args.seed,
                "sizes": ctx.sizes, "seconds": args.seconds, "trace": args.trace,
                "setup_repeats": SETUP_REPEATS}
    print("manifest: " + json.dumps(manifest), flush=True)
    attempted, failures = 0, []

    if args.trace:
        def pair(_):
            plain = run_unit(ctx, base)
            tracer = Tracer()
            with tracer.installed(TRACE_TARGETS):
                traced = run_unit(ctx, base)
            traced.spans = tracer.spans
            return plain, traced

        pairs = time_boxed(args.seconds, pair)
        units = [u for p in pairs for u in p]
        first = units[0]
        for unit in units[1:]:
            attempted += 1
            if unit.digests != first.digests:
                failures.append("CSV bodies differ between traced/untraced runs of unit 0")
        layers = [layer_metrics(t.spans) for _, t in pairs]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(t.wall for _, t in pairs)
                                       - statistics.median(p.wall for p, _ in pairs))
        metrics.update(probe(args.seed))
        if ctx.workload == "audit":
            metrics.update(sweep_baseline(ctx, base, repeats=1 if args.tiny else 3))
        else:
            metrics.update({"slqc.audit_certificate.s": 0.0, "slqc.audit_certificate.serial_s": 0.0,
                            "slqc.audit_certificate.workers": 0, "slqc.audit_certificate.points": 0})
        units_out = [{"spans": t.spans} for _, t in pairs]
        trace_file = WORK / f"trace-{ctx.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"manifest": manifest, "units": units_out}))
        out = {k: {"value": metrics[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
    else:
        units = time_boxed(args.seconds, lambda k: run_unit(ctx, base + k))
        trace_file = None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(u.wall for u in units), "setup_s": setup_s,
                  "cpu_s": statistics.median(u.cpu for u in units), "peak_rss_mb": rss_mb}
        out = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    for k, unit in enumerate(units):
        print(f"unit {k}: wall {unit.wall:.4f} s, cpu {unit.cpu:.4f} s, "
              f"{len(unit.failures)} of {unit.attempted} operations failed")
        attempted += unit.attempted
        failures += unit.failures
    if args.seed == REFERENCE_SEED and not args.tiny:
        attempted += 1
        if args.write_reference:
            table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"rtol": 1e-6}
            table[ctx.workload] = units[0].refs
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        problem = check_reference(ctx.workload, units[0].refs)
        if problem:
            failures.append(problem)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} "
          f"operations; {len(units)} units)")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": out}
    return result, trace_file


def run_all(args):
    """Run each workload in its own process and print one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = sorted(next(iter(results.values()))["metrics"])
    print("workload " + " ".join(names) + " fail_frac")
    for workload, res in results.items():
        cells = [f"{res['metrics'][n]['value']:.4g}{res['metrics'][n]['unit']}" for n in names]
        cells.append(f"{res['failed'] / res['attempted']:.3g}({res['failed']}/{res['attempted']})")
        print(workload + " " + " ".join(cells))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
