"""Command-line front end: every experiment and audit as a seeded subcommand.

Subcommands
-----------
tilt        tilted posteriors of a pmf across tuning values
landscape   empirical-risk grid over the 2-D parameter plane (+ saturation audit)
synth       imbalance / noise / clean Gaussian-mixture training experiments
slqc-audit  pointwise certificate sweep with evolved and bootstrapped targets
bounds      generalization-bound values for a JSON query list
trend       excess 0-1 risk of trained predictors across sample sizes

Every output CSV starts with '#'-prefixed manifest comments (subcommand,
config, seed, version, timestamp).  Bodies are deterministic under a
fixed seed; timestamps live only in the comments.  Exit codes: 0 success,
2 configuration error, 3 numeric failure (including np.linalg.LinAlgError),
4 audit violation under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import Dict, List, Sequence

import numpy as np

from . import __version__, logistic, slqc
from .bounds import BoundQuery, rademacher_bound, uniform_discrepancy_bound
from .datasets import CorruptionSpec, GmmSpec, sample_gmm
from .info import tilt_posterior
from .losses import as_pmf, canon_alpha
from .training import (
    TrainConfig,
    landscape_grid,
    run_synthetic_experiment,
    saturation_report,
    single_basin,
    train_gd,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_AUDIT = 4

SCENARIOS: Dict[str, CorruptionSpec] = {
    "imbalance": CorruptionSpec(class_counts=(2, 98)),
    "noise": CorruptionSpec(flip_probability=(0.2, 0.0), class_counts=(50, 50)),
    "clean": CorruptionSpec(class_counts=(50, 50)),
}


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def parse_alpha(token: str) -> float:
    token = token.strip().lower()
    if token in ("inf", "infinity"):
        return math.inf
    try:
        return canon_alpha(float(token))
    except ValueError as exc:
        raise ConfigError(f"bad alpha {token!r}: {exc}") from exc


def parse_alpha_list(raw: str) -> List[float]:
    vals = [parse_alpha(tok) for tok in raw.split(",") if tok.strip()]
    if not vals:
        raise ConfigError("empty alpha list")
    return vals


def load_gmm(path: str) -> GmmSpec:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read GMM config {path}: {exc}") from exc
    try:
        return GmmSpec(
            prior_minus=float(cfg["prior_minus"]),
            mean_minus=cfg["mean_minus"],
            mean_plus=cfg["mean_plus"],
            cov_minus=cfg["cov_minus"],
            cov_plus=cfg["cov_plus"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid GMM config {path}: {exc}") from exc


def write_csv(path: str, manifest: Dict[str, object], header: Sequence[str], rows) -> None:
    """Atomic CSV write: manifest comments, header row, 17-digit floats."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for key, val in manifest.items():
                fh.write(f"# {key}: {val}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(args, subcommand: str, config: str = "-") -> Dict[str, object]:
    return {
        "subcommand": subcommand,
        "config": config,
        "seed": getattr(args, "seed", "-"),
        "out": getattr(args, "out", "-"),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _pmf_from_source(source: str) -> np.ndarray:
    if source.startswith("binomial:"):
        try:
            n_str, p_str = source.split(":", 1)[1].split(",")
            n, p = int(n_str), float(p_str)
        except ValueError as exc:
            raise ConfigError(f"bad binomial spec {source!r}") from exc
        if n < 1 or not 0.0 < p < 1.0:
            raise ConfigError("binomial needs n >= 1 and p in (0, 1)")
        from scipy.stats import binom

        return as_pmf(binom.pmf(np.arange(n + 1), n, p))
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read pmf file {source}: {exc}") from exc
    try:
        if text.lstrip().startswith("["):
            masses = json.loads(text)
        else:
            masses = [float(tok) for tok in text.replace(",", " ").split()]
        return as_pmf(masses)
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed pmf in {source}: {exc}") from exc


def cmd_tilt(args) -> int:
    pmf = _pmf_from_source(args.pmf)
    alphas = parse_alpha_list(args.alphas)
    columns = [tilt_posterior(pmf, a) for a in alphas]
    header = ["outcome", "pmf"] + [f"alpha_{_fmt(a)}" for a in alphas]
    rows = [
        [i, pmf[i]] + [col[i] for col in columns] for i in range(pmf.size)
    ]
    write_csv(args.out, _manifest(args, "tilt", args.pmf), header, rows)
    return EXIT_OK


def cmd_landscape(args) -> int:
    spec = load_gmm(args.gmm)
    if spec.dim != 2:
        raise ConfigError("landscape requires a 2-D GMM spec")
    alpha = parse_alpha(args.alpha)
    data = sample_gmm(spec, args.n, seed=(args.seed, 1), normalize=True)
    axis, risks = landscape_grid(data, alpha, args.radius, args.grid)
    manifest = _manifest(args, "landscape", args.gmm)
    manifest["alpha"] = _fmt(alpha)
    manifest["grid"] = args.grid
    manifest["radius"] = _fmt(args.radius)
    manifest["single_basin"] = _fmt(single_basin(risks))
    rows = []
    saturation = None
    if args.compare_infinity:
        if not canon_alpha(alpha) >= 1.0:
            raise ConfigError("--compare-infinity requires alpha >= 1")
        saturation = saturation_report(data, args.radius, args.grid, alpha)
        for key, val in saturation.items():
            manifest[key] = _fmt(val)
    for i, t1 in enumerate(axis):
        for j, t2 in enumerate(axis):
            rows.append([t1, t2, risks[i, j]])
    write_csv(args.out, manifest, ["theta1", "theta2", "risk"], rows)
    if args.strict and saturation is not None and not (
        saturation["value_ok"] and saturation["grad_ok"]
    ):
        print("saturation audit violation", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; pick one of {sorted(SCENARIOS)}")
    spec = GmmSpec.symmetric()
    corruption = SCENARIOS[args.scenario]
    alphas = parse_alpha_list(args.alphas)
    config = TrainConfig(seed=args.seed)
    summary = run_synthetic_experiment(spec, corruption, alphas, args.runs, config)
    os.makedirs(args.out, exist_ok=True)
    manifest = _manifest(args, "synth", args.scenario)
    manifest["runs"] = args.runs
    manifest["converged_runs"] = ",".join(str(int(c)) for c in summary.run_converged.sum(axis=1))
    manifest["capped_runs"] = ",".join(str(int(c)) for c in (~summary.run_converged).sum(axis=1))
    rows = [
        [
            _fmt(a),
            summary.angles_degrees[i],
            summary.accuracy_minus[i],
            summary.accuracy_plus[i],
            summary.accuracy_overall[i],
            summary.relative_gain_pct[i],
            int(summary.gain_sign[i]),
        ]
        + list(summary.averaged_theta[i])
        for i, a in enumerate(summary.alphas)
    ]
    write_csv(
        os.path.join(args.out, "summary.csv"),
        manifest,
        ["alpha", "angle_deg", "acc_minus", "acc_plus", "acc_overall",
         "rel_gain_pct", "gain_sign", "theta1", "theta2"],
        rows,
    )
    run_rows = []
    for i, a in enumerate(summary.alphas):
        for r in range(summary.runs):
            run_rows.append(
                [_fmt(a), r, int(summary.run_converged[i, r])] + list(summary.run_thetas[i, r])
            )
    write_csv(
        os.path.join(args.out, "predictors.csv"),
        manifest,
        ["alpha", "run", "converged", "theta1", "theta2"],
        run_rows,
    )
    return EXIT_OK


def _floor_grid(alpha0) -> List[float]:
    """Tuning grid {alpha0, alpha0 + 0.25, ..., 64, inf} of the gradient floor."""
    return list(np.arange(alpha0, 64.0 + 1e-9, 0.25)) + [np.inf]


def _gradient_floor(thetas, data, alpha0) -> np.ndarray:
    """Caller-audited lower bound on the gradient norm over alpha' >= alpha0.

    Minimum over the tuning grid of ``_floor_grid`` with a 5% safety
    margin, per theta.
    """
    grads = logistic.risk_gradients(thetas, data, _floor_grid(alpha0))
    return 0.95 * np.linalg.norm(grads, axis=2).min(axis=0)


def _check_certificates(oracle, thetas, theta0, certs) -> Dict[int, slqc.SlqcCheck]:
    """Verdicts {i: check} of the certificates {i: (eps, kappa)} at thetas[i], in one batch."""
    if not certs:
        return {}
    idx = list(certs)
    eps, kappa = np.array([certs[i] for i in idx]).T
    return dict(zip(idx, slqc.check_slqc_points(oracle, thetas[idx], theta0, eps, eps / kappa)))


def cmd_slqc_audit(args) -> int:
    spec = load_gmm(args.gmm)
    alpha0 = parse_alpha(args.alpha0)
    if not (alpha0 >= 1.0 and np.isfinite(alpha0)):
        raise ConfigError("alpha0 must be finite and >= 1 for certificate evolution")
    targets = parse_alpha_list(args.targets)
    data = sample_gmm(spec, args.n, seed=(args.seed, 11), normalize=True)
    config = TrainConfig(alpha=alpha0, radius=args.radius, seed=args.seed)
    theta0, report0 = train_gd(data, config)
    kappa0 = logistic.theta_lipschitz_constant(alpha0, args.radius, spec.dim)
    rho0 = args.eps0 / kappa0
    thetas = slqc.sample_audit_points(spec.dim, args.radius, args.samples, seed=(args.seed, 12))

    grad0 = np.linalg.norm(logistic.risk_gradient_batch(thetas, data, alpha0), axis=1)
    g_floor = _gradient_floor(thetas, data, alpha0)
    L = [logistic.alpha_lipschitz_risk(th) for th in thetas]
    J = [logistic.alpha_lipschitz_gradient(th) for th in thetas]
    rows = []
    violations = 0
    descent_checks = []
    for target in targets:
        # per-theta certificates {i: (eps, kappa)}: single-step evolution,
        # and the bootstrapped reach toward the same target
        evolved, booted = {}, {}
        sups = [""] * len(thetas)
        for i in range(len(thetas)):
            try:
                evolved[i] = slqc.evolve_slqc(
                    alpha0, args.eps0, kappa0, grad0[i], L[i], J[i], args.radius, target
                )
            except slqc.RangeExceeded as exc:
                sups[i] = exc.admissible_sup
            if g_floor[i] > 0.0 and np.isfinite(target):
                lam = (target - alpha0) * J[i] * (1.0 + 2.0 * args.radius / rho0) / (
                    alpha0**2 * g_floor[i]
                )
                if 0.0 < lam < 1.0:
                    _, eps_b, rho_lb = slqc.bootstrap_slqc(
                        alpha0, args.eps0, kappa0, g_floor[i], L[i], J[i], args.radius, lam
                    )
                    booted[i] = (eps_b, eps_b / rho_lb)
        oracle = slqc.risk_oracle(data, target, validate=False) if np.isfinite(target) else None
        ev_checks = _check_certificates(oracle, thetas, theta0.theta, evolved)
        boot_checks = _check_certificates(oracle, thetas, theta0.theta, booted)
        done = [*ev_checks.values(), *boot_checks.values()]
        violations += sum(c.verdict is slqc.Verdict.FAILS for c in done)
        descent_checks.append(sum(c.grad_norm is not None for c in done))
        for i in range(len(thetas)):
            verdict, eps_s, kappa_s, rho_s, detail = "range_exceeded", "", "", "", ""
            if i in evolved:
                eps_s, kappa_s = evolved[i]
                rho_s = eps_s / kappa_s
                verdict, detail = ev_checks[i].verdict.value, ev_checks[i].detail
            boot_verdict, boot_eps, boot_kappa = "range_exceeded", "", ""
            if i in booted:
                boot_verdict = boot_checks[i].verdict.value
                boot_eps, boot_kappa = booted[i]
            rows.append([
                _fmt(target), i, verdict, eps_s, kappa_s, rho_s, sups[i],
                boot_verdict, boot_eps, boot_kappa, detail,
            ])
    manifest = _manifest(args, "slqc-audit", args.gmm)
    manifest["alpha0"] = _fmt(alpha0)
    manifest["eps0"] = _fmt(args.eps0)
    manifest["kappa0"] = _fmt(kappa0)
    manifest["theta0_converged"] = _fmt(report0.converged)
    manifest["theta0_iterations"] = report0.iterations
    manifest["theta0_stop_statistic"] = _fmt(report0.grad_norm)
    manifest["gradient_floor_alphas"] = len(_floor_grid(alpha0))
    manifest["descent_checks"] = ",".join(str(c) for c in descent_checks)
    manifest["violations"] = violations
    write_csv(
        args.out,
        manifest,
        ["target_alpha", "theta_index", "verdict", "eps", "kappa", "rho",
         "admissible_sup", "boot_verdict", "boot_eps", "boot_kappa", "detail"],
        rows,
    )
    if args.strict and violations:
        print(f"{violations} certificate violations", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        with open(args.query) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read bound query {args.query}: {exc}") from exc
    if isinstance(payload, dict):
        payload = [payload]
    audit_spec = load_gmm(args.gmm) if args.gmm else None
    rows = []
    all_passed = True
    for item in payload:
        try:
            q = BoundQuery(
                alpha=parse_alpha(str(item["alpha"])),
                r=float(item["r"]),
                d=int(item["d"]),
                n=int(item["n"]),
                delta=float(item["delta"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid bound query entry {item!r}: {exc}") from exc
        rad = rademacher_bound(q)
        try:
            unif = uniform_discrepancy_bound(q)
        except ValueError:
            unif = float("nan")
        measured, frac = float("nan"), float("nan")
        if audit_spec is not None:
            from .bounds import audit_generalization

            audit = audit_generalization(
                audit_spec, q, trials=args.trials, n_theta=100,
                pop_n=args.pop_samples, seed=args.seed,
            )
            measured, frac = float(audit.measured.max()), audit.pass_fraction
            all_passed &= frac >= 1.0 - q.delta
        rows.append([
            _fmt(q.alpha), q.r, q.d, q.n, q.delta, rad, unif, measured, frac,
        ])
    write_csv(
        args.out,
        _manifest(args, "bounds", args.query),
        ["alpha", "r", "d", "n", "delta", "rademacher_bound",
         "uniform_discrepancy_bound", "measured_sup_gap", "audit_pass_fraction"],
        rows,
    )
    if args.strict and audit_spec is not None and not all_passed:
        print("bound audit violation", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_trend(args) -> int:
    from .bounds import optimality_trend

    spec = load_gmm(args.gmm)
    alpha = parse_alpha(args.alpha)
    ns = [int(tok) for tok in args.ns.split(",") if tok.strip()]
    if not ns:
        raise ConfigError("empty sample-size list")
    result = optimality_trend(spec, alpha, ns, args.runs, seed=args.seed)
    manifest = _manifest(args, "trend", args.gmm)
    manifest["alpha"] = _fmt(alpha)
    manifest["bayes_risk"] = _fmt(result.bayes)
    manifest["note"] = result.conditional
    manifest["converged_runs"] = ",".join(str(int(c)) for c in result.converged)
    manifest["capped_runs"] = ",".join(str(int(c)) for c in result.capped)
    rows = [
        [n, result.mean_gap[i], result.se_gap[i]] for i, n in enumerate(result.ns)
    ]
    write_csv(args.out, manifest, ["n", "mean_gap", "se_gap"], rows)
    if args.strict and not result.non_increasing_within_se():
        print("trend audit violation: gap not non-increasing within 1 SE", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpha-lab",
        description="Tunable-loss classification experiments and audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tilt", help="tilted posteriors of a pmf")
    p.add_argument("--pmf", required=True, help="pmf file or binomial:n,p")
    p.add_argument("--alphas", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tilt)

    p = sub.add_parser("landscape", help="risk grid over the parameter plane")
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=51)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--compare-infinity", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("synth", help="imbalance/noise/clean training experiments")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--alphas", default="0.65,1,4")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("slqc-audit", help="pointwise certificate sweep")
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha0", default="1")
    p.add_argument("--targets", required=True)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--eps0", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_slqc_audit)

    p = sub.add_parser("bounds", help="generalization bound values")
    p.add_argument("--query", required=True, help="JSON object or list of objects")
    p.add_argument("--gmm", default=None, help="enable the empirical audit columns")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--pop-samples", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("trend", help="excess 0-1 risk across sample sizes")
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--ns", required=True)
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_trend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so its arm must come first
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, KeyError, IndexError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
