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
fixed seed for one version, numpy build and CPU dispatch level;
timestamps live only in the comments.  Each ``cmd_*`` returns None or
an audit violation message.  Exit codes: 0 success, 2 configuration error
(including unreadable inputs and unwritable outputs), 3 numeric failure
(including np.linalg.LinAlgError), 4 audit violation under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, logistic, slqc
from .bounds import (
    BoundQuery,
    audit_generalizations,
    population_groups,
    rademacher_bound,
    uniform_discrepancy_bound,
)
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

# parameter vectors per population pass of the bounds audit
AUDIT_THETAS = 100

SCENARIOS: Dict[str, CorruptionSpec] = {
    "imbalance": CorruptionSpec(class_counts=(2, 98)),
    "noise": CorruptionSpec(flip_probability=(0.2, 0.0), class_counts=(50, 50)),
    "clean": CorruptionSpec(class_counts=(50, 50)),
}


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in x)
    return str(x)


def parse_alpha(token: str) -> float:
    try:
        return canon_alpha(float(token))
    except ValueError as exc:
        raise ConfigError(f"bad alpha {token!r}: {exc}") from exc


def parse_alpha_list(raw: str) -> List[float]:
    vals = [parse_alpha(tok) for tok in raw.split(",") if tok.strip()]
    if not vals:
        raise ConfigError("empty alpha list")
    return vals


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_gmm(path: str) -> GmmSpec:
    cfg = _read_json(path, "GMM config")
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
    """Atomic CSV write: manifest comments, header row, rows; every value through ``_fmt``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for key, val in manifest.items():
                fh.write(f"# {key}: {_fmt(val)}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(args, subcommand: str, config: str, **entries) -> Dict[str, object]:
    """The run's identity, then the subcommand's ``entries`` in order."""
    return {
        "subcommand": subcommand,
        "config": config,
        "seed": args.seed,
        "out": args.out,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **entries,
    }


def _gd_counts(converged, capped, iterations) -> Dict[str, object]:
    """Per-arm GD counts: runs that met the stop rule, runs at the cap, row iterations."""
    return {"converged_runs": converged, "capped_runs": capped, "gd_row_iterations": iterations}


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
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed pmf in {source}: {exc}") from exc


def cmd_tilt(args) -> None:
    pmf = _pmf_from_source(args.pmf)
    alphas = parse_alpha_list(args.alphas)
    columns = [tilt_posterior(pmf, a) for a in alphas]
    header = ["outcome", "pmf"] + [f"alpha_{_fmt(a)}" for a in alphas]
    rows = [
        [i, pmf[i]] + [col[i] for col in columns] for i in range(pmf.size)
    ]
    write_csv(args.out, _manifest(args, "tilt", args.pmf), header, rows)


def cmd_landscape(args) -> Optional[str]:
    spec = load_gmm(args.gmm)
    alpha = parse_alpha(args.alpha)
    data = sample_gmm(spec, args.n, seed=(args.seed, 1), normalize=True)
    saturation = None
    if args.compare_infinity:
        axis, risks, saturation = saturation_report(data, args.radius, args.grid, alpha)
    else:
        axis, (risks,) = landscape_grid(data, [alpha], args.radius, args.grid)
    violations = 0
    if saturation is not None:
        violations = (not saturation["value_ok"]) + (not saturation["grad_ok"])
    manifest = _manifest(
        args, "landscape", args.gmm, alpha=alpha, grid=args.grid, radius=args.radius,
        single_basin=single_basin(risks), **(saturation or {}), violations=violations,
    )
    rows = []
    for i, t1 in enumerate(axis):
        for j, t2 in enumerate(axis):
            rows.append([t1, t2, risks[i, j]])
    write_csv(args.out, manifest, ["theta1", "theta2", "risk"], rows)
    return "saturation audit violation" if violations else None


def cmd_synth(args) -> None:
    spec = GmmSpec.symmetric()
    corruption = SCENARIOS[args.scenario]
    alphas = parse_alpha_list(args.alphas)
    summary = run_synthetic_experiment(spec, corruption, alphas, args.runs, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    conv = summary.run_converged
    manifest = _manifest(
        args, "synth", args.scenario, runs=args.runs,
        **_gd_counts(conv.sum(axis=1), (~conv).sum(axis=1), summary.run_iterations.sum(axis=1)),
    )
    rows = [
        [
            a,
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
            run_rows.append([a, r, int(conv[i, r])] + list(summary.run_thetas[i, r]))
    write_csv(
        os.path.join(args.out, "predictors.csv"),
        manifest,
        ["alpha", "run", "converged", "theta1", "theta2"],
        run_rows,
    )


def cmd_slqc_audit(args) -> Optional[str]:
    spec = load_gmm(args.gmm)
    alpha0 = parse_alpha(args.alpha0)
    if not (alpha0 >= 1.0 and np.isfinite(alpha0)):
        raise ConfigError("alpha0 must be finite and >= 1 for certificate evolution")
    targets = parse_alpha_list(args.targets)
    if args.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {args.samples}")
    if not 0.0 < args.eps0 < math.inf:
        raise ConfigError(f"eps0 must be finite and positive, got {args.eps0}")
    if not 0.0 < args.radius < math.inf:
        raise ConfigError(f"radius must be finite and positive, got {args.radius}")
    data = sample_gmm(spec, args.n, seed=(args.seed, 11), normalize=True)
    theta0, report0 = train_gd(data, TrainConfig(alpha=alpha0, radius=args.radius))
    kappa0 = logistic.theta_lipschitz_constant(alpha0, args.radius, spec.dim)
    thetas = slqc.sample_audit_points(spec.dim, args.radius, args.samples, seed=(args.seed, 12))
    floors, sups, sweeps = slqc.certificate_sweep(
        data, thetas, theta0.theta, alpha0, args.eps0, kappa0, args.radius, targets
    )
    rows, violations, descent_checks = [], 0, []
    for target, ((eps, kappa, checks), (b_eps, b_kappa, b_checks)) in zip(targets, sweeps):
        done = [c for c in checks + b_checks if c is not None]
        violations += sum(c.verdict is slqc.Verdict.FAILS for c in done)
        descent_checks.append(sum(c.grad_norm is not None for c in done))
        for i, (c, b) in enumerate(zip(checks, b_checks)):
            # an evolved certificate's rho is that of its check
            evolved = (["range_exceeded", "", "", "", sups[i]] if c is None
                       else [c.verdict.value, eps[i], kappa[i], c.rho, ""])
            booted = (["range_exceeded", "", ""] if b is None
                      else [b.verdict.value, b_eps[i], b_kappa[i]])
            rows.append([target, i, *evolved, *booted, "" if c is None else c.detail])
    manifest = _manifest(
        args, "slqc-audit", args.gmm, alpha0=alpha0, eps0=args.eps0, kappa0=kappa0,
        theta0_converged=report0.converged, theta0_iterations=report0.iterations,
        theta0_stop_statistic=report0.grad_norm, gradient_floor_zero=(floors == 0.0).sum(axis=1),
        descent_checks=descent_checks, violations=violations,
    )
    write_csv(
        args.out,
        manifest,
        ["target_alpha", "theta_index", "verdict", "eps", "kappa", "rho",
         "admissible_sup", "boot_verdict", "boot_eps", "boot_kappa", "detail"],
        rows,
    )
    return f"{violations} certificate violations" if violations else None


def _parse_query(item) -> BoundQuery:
    try:
        return BoundQuery(
            alpha=parse_alpha(str(item["alpha"])),
            r=float(item["r"]),
            d=item["d"],
            n=item["n"],
            delta=float(item["delta"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid bound query entry {item!r}: {exc}") from exc


def cmd_bounds(args) -> Optional[str]:
    payload = _read_json(args.query, "bound query")
    if isinstance(payload, dict):
        payload = [payload]
    if not (isinstance(payload, list) and payload and all(isinstance(q, dict) for q in payload)):
        raise ConfigError(
            f"bound query {args.query} must hold an object or a non-empty list of objects"
        )
    queries = [_parse_query(item) for item in payload]
    audit_spec = load_gmm(args.gmm) if args.gmm else None
    audits = [None] * len(queries)
    passes = 0
    if audit_spec is not None:
        audits = audit_generalizations(
            audit_spec, queries, trials=args.trials, n_theta=AUDIT_THETAS,
            pop_n=args.pop_samples, seed=args.seed,
        )
        passes = len(population_groups(queries))
    rows = []
    violations = 0
    for q, audit in zip(queries, audits):
        rad = rademacher_bound(q)
        try:
            unif = uniform_discrepancy_bound(q)
        except ValueError:
            unif = float("nan")
        measured, frac = float("nan"), float("nan")
        if audit is not None:
            measured, frac = float(audit.measured.max()), audit.pass_fraction
            violations += frac < 1.0 - q.delta
        rows.append([q.alpha, q.r, q.d, q.n, q.delta, rad, unif, measured, frac])
    manifest = _manifest(
        args, "bounds", args.query, pop_samples=args.pop_samples if passes else 0,
        population_passes=passes, population_margins=passes * AUDIT_THETAS * args.pop_samples,
        violations=violations,
    )
    write_csv(
        args.out,
        manifest,
        ["alpha", "r", "d", "n", "delta", "rademacher_bound",
         "uniform_discrepancy_bound", "measured_sup_gap", "audit_pass_fraction"],
        rows,
    )
    return "bound audit violation" if violations else None


def cmd_trend(args) -> Optional[str]:
    from .bounds import optimality_trend

    spec = load_gmm(args.gmm)
    alpha = parse_alpha(args.alpha)
    ns = [int(tok) for tok in args.ns.split(",") if tok.strip()]
    if not ns:
        raise ConfigError("empty sample-size list")
    result = optimality_trend(spec, alpha, ns, args.runs, seed=args.seed)
    violations = int(not result.non_increasing_within_se())
    manifest = _manifest(
        args, "trend", args.gmm, alpha=alpha, bayes_risk=result.bayes, note=result.conditional,
        **_gd_counts(result.converged, result.capped, result.iterations), violations=violations,
    )
    rows = [
        [n, result.mean_gap[i], result.se_gap[i]] for i, n in enumerate(result.ns)
    ]
    write_csv(args.out, manifest, ["n", "mean_gap", "se_gap"], rows)
    if violations:
        return "trend audit violation: gap not non-increasing within 1 SE"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpha-lab",
        description="Tunable-loss classification experiments and audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--out", required=True)
    audited = argparse.ArgumentParser(add_help=False, parents=[seeded])
    audited.add_argument("--strict", action="store_true", help="exit 4 on an audit violation")

    p = sub.add_parser("tilt", help="tilted posteriors of a pmf", parents=[seeded])
    p.add_argument("--pmf", required=True, help="pmf file or binomial:n,p")
    p.add_argument("--alphas", required=True)
    p.set_defaults(func=cmd_tilt)

    p = sub.add_parser("landscape", help="risk grid over the parameter plane", parents=[audited])
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=51)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--compare-infinity", action="store_true")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("synth", help="imbalance/noise/clean training experiments",
                       parents=[seeded])
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--alphas", default="0.65,1,4")
    p.add_argument("--runs", type=int, default=100)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("slqc-audit", help="pointwise certificate sweep", parents=[audited])
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha0", default="1")
    p.add_argument("--targets", required=True)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--eps0", type=float, default=0.05)
    p.set_defaults(func=cmd_slqc_audit)

    p = sub.add_parser("bounds", help="generalization bound values", parents=[audited])
    p.add_argument("--query", required=True, help="JSON object or non-empty list of objects")
    p.add_argument("--gmm", default=None, help="enable the empirical audit columns")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--pop-samples", type=int, default=200_000)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("trend", help="excess 0-1 risk across sample sizes", parents=[audited])
    p.add_argument("--gmm", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--ns", required=True)
    p.add_argument("--runs", type=int, default=30)
    p.set_defaults(func=cmd_trend)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; only ``main`` turns a violation message into exit 4."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        violation = args.func(args)
    # LinAlgError subclasses ValueError, so its arm must come first
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if violation and getattr(args, "strict", False):
        print(violation, file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
