"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance, printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
Budgets are asserted as wall-clock upper bounds per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import norm

import alpha_lab as al
from alpha_lab.datasets import CorruptionSpec, GmmSpec, sample_gmm
from alpha_lab.logistic import (
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    empirical_alpha_risk,
    empirical_second_moment,
    hessian_min_eigenvalue,
    risk_gradient,
    risk_gradient_batch,
    risk_hessian,
    theta_lipschitz_constant,
)
from alpha_lab.training import TrainConfig, _batched_gd, run_synthetic_experiment, saturation_report

from oracles import central_diff_grad, central_diff_hessian

SYMMETRIC = GmmSpec.symmetric()

# anisotropic shared-covariance config used for the saturation audit
SATURATION_SPEC = GmmSpec(
    prior_minus=0.5,
    mean_minus=(-0.91, 0.50),
    mean_plus=(-0.27, 0.20),
    cov_minus=[[1.38, 0.55], [0.55, 2.18]],
    cov_plus=[[1.38, 0.55], [0.55, 2.18]],
)

DEADBAND_DEG = 1.0


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:02d} ({description}): PASS ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_margin_loss_spot_values():
    with criterion(1, "margin-loss spot values", 1.0):
        assert al.margin_alpha_loss(0.5, -1.0) == pytest.approx(np.e, rel=1e-2)
        assert al.margin_alpha_loss(0.5, -5.0) == pytest.approx(np.exp(5.0), rel=1e-2)
        assert al.margin_alpha_loss(1.44, -1.0) == pytest.approx(1.08, rel=1e-2)
        assert al.margin_alpha_loss(1.44, -5.0) == pytest.approx(2.56, rel=1e-2)


def test_criterion_02_gradient_hessian_agreement():
    with criterion(2, "analytic gradient/Hessian vs finite differences", 10.0):
        rng = np.random.default_rng(2024)
        alphas = [0.5, 0.8, 1.0, 1.44, 2.0, 8.0, np.inf]
        for d in (1, 2, 5):
            for alpha in alphas:
                for _ in range(50):
                    n = 12
                    X = rng.random((n, d))
                    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
                    theta = rng.standard_normal(d)
                    theta *= rng.random() / np.linalg.norm(theta)
                    g = risk_gradient(theta, (X, y), alpha)
                    fd = central_diff_grad(
                        lambda t: empirical_alpha_risk(t, (X, y), alpha), theta
                    )
                    assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-6)
                    H = risk_hessian(theta, (X, y), alpha)
                    fd_h = central_diff_hessian(
                        lambda t: risk_gradient(t, (X, y), alpha), theta
                    )
                    assert np.max(np.abs(H - fd_h)) <= 1e-5


def test_criterion_03_minimal_risk_identity():
    with criterion(3, "minimal-risk identity vs simplex enumeration", 30.0):
        rng = np.random.default_rng(33)
        for shape in ((2, 2), (3, 3)):
            for _ in range(25):
                t = rng.random(shape) + 0.02
                t /= t.sum()
                for alpha in (0.5, 2.0, 5.0, np.inf):
                    closed = al.minimal_alpha_risk(t, alpha)
                    brute = al.brute_force_minimal_risk(t, alpha)
                    assert abs(closed - brute) <= 1e-4


def test_criterion_04_calibration():
    with criterion(4, "classification calibration + conditional-risk minimizer", 10.0):
        etas = np.linspace(0.01, 0.99, 99)
        etas = etas[np.abs(etas - 0.5) > 1e-9]
        step = 0.01
        fgrid = np.arange(-25.0, 25.0 + step / 2, step)
        for alpha in (0.3, 0.5, 1.0, 1.44, 4.0, np.inf):
            lpos = al.margin_alpha_loss(alpha, fgrid)
            lneg = al.margin_alpha_loss(alpha, -fgrid)
            cond = np.outer(etas, lpos) + np.outer(1.0 - etas, lneg)
            best = fgrid[np.argmin(cond, axis=1)]
            for eta, b in zip(etas, best):
                fstar = al.optimal_classifier(eta, alpha)
                assert np.sign(fstar) == np.sign(2 * eta - 1)
                assert np.sign(b) == np.sign(2 * eta - 1)
                if np.isfinite(fstar):
                    assert abs(b - fstar) <= 2 * step + 1e-12


def test_criterion_05_min_conditional_risk_values_and_concavity():
    with criterion(5, "minimum conditional risk values + concavity", 10.0):
        assert al.min_conditional_risk(0.2, 0.5) == pytest.approx(0.8, abs=1e-12)
        assert al.min_conditional_risk(0.5, 1.0) == pytest.approx(np.log(2), abs=1e-12)
        assert al.min_conditional_risk(0.3, np.inf) == pytest.approx(0.3, abs=1e-12)
        etas = np.linspace(0.001, 0.999, 999)
        for alpha in (0.3, 0.5, 0.77, 1.0, 1.44, np.inf):
            vals = al.min_conditional_risk(etas, alpha)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert second.max() <= 1e-8


def test_criterion_06_curvature_witnesses():
    with criterion(6, "strong-convexity curvature witnesses", 30.0):
        rng = np.random.default_rng(66)
        r = 1.0
        for _ in range(100):
            d = int(rng.integers(2, 4))
            n = 30
            X = rng.random((n, d))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            theta = rng.standard_normal(d)
            theta *= r * rng.random() / np.linalg.norm(theta)
            sig_min = np.linalg.eigvalsh(empirical_second_moment((X, y))).min()
            for alpha in (0.3, 0.7, 1.0):
                lam = al.strong_convexity_modulus(alpha, r * np.sqrt(d))
                assert (
                    hessian_min_eigenvalue(theta, (X, y), alpha)
                    >= lam * sig_min - 1e-8
                )
        # small-radius analogue on admissible instances
        r, d = 0.3, 2
        for _ in range(50):
            X = rng.random((30, d))
            y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
            theta = rng.standard_normal(d)
            theta *= r * rng.random() / np.linalg.norm(theta)
            sig_min = np.linalg.eigvalsh(empirical_second_moment((X, y))).min()
            for alpha in (1.05, 1.2):
                lam = al.small_radius_modulus(alpha, r * np.sqrt(d))
                assert (
                    hessian_min_eigenvalue(theta, (X, y), alpha)
                    >= lam * sig_min - 1e-8
                )


def _projected_minimizer(X, y, alpha, radius, lr=0.1, tol=1e-10, max_iter=100_000):
    theta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        g = risk_gradient(theta, (X, y), alpha)
        if np.linalg.norm(g) <= tol and np.linalg.norm(theta) < radius - 1e-9:
            break
        new = theta - lr * g
        nrm = np.linalg.norm(new)
        if nrm > radius:
            new *= radius / nrm
        if np.linalg.norm(new - theta) <= 1e-14:
            theta = new
            break
        theta = new
    return theta


def test_criterion_07_ngd_guarantee():
    with criterion(7, "NGD suboptimality guarantee on 100 instances", 120.0):
        rng = np.random.default_rng(77)
        eps = 0.05
        r = 0.6
        successes = 0
        for trial in range(100):
            d = int(rng.integers(2, 4))
            n = 40
            X = rng.random((n, d))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            alpha = float(rng.choice([0.5, 0.7, 0.85, 1.0]))
            sig_min = np.linalg.eigvalsh(empirical_second_moment((X, y))).min()
            assert sig_min > 0.0
            theta_star = _projected_minimizer(X, y, alpha, r)
            f_star = empirical_alpha_risk(theta_star, (X, y), alpha)
            kappa = theta_lipschitz_constant(alpha, r, d)
            cert = al.SlqcCertificate(eps, kappa, theta_star)
            theta1 = np.zeros(d)
            T = al.ngd_iteration_bound(cert, np.linalg.norm(theta1 - theta_star))
            oracle = al.risk_oracle((X, y), alpha, validate=False)
            res = al.ngd(
                oracle,
                al.NgdConfig(eps / kappa, T, theta1),
                domain=(np.zeros(d), r),
            )
            if res.best_value - f_star <= eps:
                successes += 1
        assert successes == 100


def test_criterion_08_saturation_grid():
    with criterion(8, "saturation of the risk and gradient landscapes", 60.0):
        data = sample_gmm(SATURATION_SPEC, 2000, seed=88, normalize=True)
        _, _, rep = saturation_report(data, radius=1.0, grid_size=101, alpha=10.0)
        assert rep["max_value_gap"] <= rep["max_value_bound"]
        assert rep["max_grad_gap"] <= rep["max_grad_bound"]


def _audit_instance(seed=99, n=400, r=1.0):
    data = sample_gmm(SYMMETRIC, n, seed=seed, normalize=True)
    theta_probe = np.array([0.35, 0.28])
    grid = [1.0, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, np.inf]
    gnorms = [np.linalg.norm(risk_gradient(theta_probe, data, a)) for a in grid]
    g_lower = 0.95 * min(gnorms)
    L = alpha_lipschitz_risk(theta_probe)
    J = alpha_lipschitz_gradient(theta_probe)
    return data, theta_probe, g_lower, L, J


def test_criterion_09_bootstrap_consistency():
    with criterion(9, "bootstrap sequences, linearity, certificate recheck", 60.0):
        data, theta_probe, g, L, J = _audit_instance()
        r = 1.0
        alpha0 = 1.0
        kappa0 = theta_lipschitz_constant(alpha0, r, 2)

        # (a) the step-1/N recursion approaches the closed forms at N = 1e4;
        # rho0 sized so the recursion takes a nontrivial number of steps
        lam = 0.25
        N = 10_000
        c_target = 6.0 / (lam * N)
        rho0 = 2.0 * r / (g / (J * c_target) - 1.0)
        eps0 = rho0 * kappa0
        alpha_lam, eps_lam, rho_lb = al.bootstrap_slqc(alpha0, eps0, kappa0, g, L, J, r, lam)
        seq = al.bootstrap_sequences(alpha0, eps0, rho0, g, L, J, r, N)
        n_lam = int(np.floor(lam * rho0 / (rho0 + 2 * r) * alpha0**2 * g / J * N))
        assert n_lam >= 5
        assert abs(seq.alphas[n_lam] - alpha_lam) <= 1e-3
        assert abs(seq.epsilons[n_lam] - eps_lam) <= 1e-3
        assert seq.rhos[n_lam] > rho0 * (1 - lam) / 2.0

        # (b) eps_lambda is affine in lambda to 1e-10 for a tight certificate
        eps0_tight = 1e-4
        lams = np.linspace(0.05, 0.95, 19)
        eps_vals = np.array(
            [al.bootstrap_slqc(alpha0, eps0_tight, kappa0, g, L, J, r, l)[1] for l in lams]
        )
        design = np.stack([np.ones_like(lams), lams], axis=1)
        coef, *_ = np.linalg.lstsq(design, eps_vals, rcond=None)
        residual = np.max(np.abs(eps_vals - design @ coef))
        assert residual <= 1e-10

        # (c) evolved certificates pass the pointwise check at 512 samples;
        # admissible widths scale with the local gradient norm, so the
        # targets sit just above alpha0
        config = TrainConfig(alpha=alpha0, radius=r)
        theta0, _ = al.train_gd(data, config)
        eps0_c = 0.05
        thetas = al.sample_audit_points(2, r, budget=512, seed=91)
        grad0 = np.linalg.norm(risk_gradient_batch(thetas, data, alpha0), axis=1)
        violations = 0
        evolved = 0
        for target in (1.001, 1.003):
            oracle = al.risk_oracle(data, target, validate=False)
            for i, th in enumerate(thetas):
                L_i = alpha_lipschitz_risk(th)
                J_i = alpha_lipschitz_gradient(th)
                try:
                    eps, kappa = al.evolve_slqc(
                        alpha0, eps0_c, kappa0, grad0[i], L_i, J_i, r, target
                    )
                except al.RangeExceeded:
                    continue
                evolved += 1
                check = al.check_slqc_at(
                    oracle, th, al.SlqcCertificate(eps, kappa, theta0.theta)
                )
                violations += check.verdict is al.Verdict.FAILS
        assert evolved >= 256  # the targets are admissible over most of the ball
        assert violations == 0


def _ordered(a_deg: float, b_deg: float) -> bool:
    """a < b up to the 1-degree dead-band (differences inside it are ties)."""
    return a_deg < b_deg + DEADBAND_DEG


def _corruption_experiments():
    # saturating members under corruption push the iterate norm out
    # slowly, so the gradient-tolerance stop is backed by a fixed cap;
    # termination causes are recorded per run
    config = TrainConfig(max_iterations=120_000)
    alphas = [0.65, 1.0, 4.0]
    out = {}
    for name, corruption in (
        ("imbalance", CorruptionSpec(class_counts=(2, 98))),
        ("noise", CorruptionSpec(flip_probability=(0.2, 0.0), class_counts=(50, 50))),
        ("clean", CorruptionSpec(class_counts=(50, 50))),
    ):
        out[name] = run_synthetic_experiment(
            SYMMETRIC, corruption, alphas, runs=100, config=config, seed=310
        )
    return out


def _dispersion_deg(summary):
    from alpha_lab.training import angle_between

    bayes = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return np.array([
        np.degrees([angle_between(t, bayes) for t in summary.run_thetas[i]]).std()
        for i in range(len(summary.alphas))
    ])


def test_criterion_10_robustness_orderings():
    with criterion(10, "imbalance/noise/clean predictor orderings", 300.0):
        experiments = _corruption_experiments()
        imb = experiments["imbalance"].angles_degrees
        noise = experiments["noise"].angles_degrees
        clean = experiments["clean"].angles_degrees
        print(
            f"\n  angles(deg) imbalance={np.round(imb, 3)} "
            f"noise={np.round(noise, 3)} clean={np.round(clean, 3)}"
        )
        # per-run directional dispersion: the stable robustness witness
        for name, s in experiments.items():
            print(f"  per-run angle std [0.65, 1, 4] {name}: {np.round(_dispersion_deg(s), 2)}")
        # alphas are ordered [0.65, 1, 4]; orderings carry a 1-degree
        # dead-band (differences inside the band count as ties)
        assert _ordered(imb[0], imb[1])          # angle(0.65) < angle(1)
        assert _ordered(imb[1], imb[2])          # angle(4) largest
        assert _ordered(imb[0], imb[2])
        assert _ordered(noise[2], noise[1])      # angle(4) < angle(1)
        assert np.all(clean < 5.0)


def test_criterion_11_generalization_audits():
    with criterion(11, "uniform-bound audits over seeded trials", 300.0):
        delta = 0.2
        queries = [
            al.BoundQuery(alpha=alpha, r=1.0, d=2, n=500, delta=delta)
            for alpha in (0.5, 1.0, 2.0, np.inf)
        ]
        audits = al.audit_generalizations(
            SYMMETRIC, queries, trials=50, n_theta=200, pop_n=1_000_000, seed=111
        )
        for audit in audits:
            assert audit.pass_fraction >= 1.0 - delta
        q10 = al.BoundQuery(alpha=10.0, r=1.0, d=2, n=500, delta=delta)
        audit10 = al.audit_uniform_discrepancy(
            SYMMETRIC, q10, trials=50, n_theta=200, pop_n=1_000_000, seed=112
        )
        assert bool(np.all(audit10.passed))


def test_criterion_12_excess_risk_trend():
    with criterion(12, "excess 0-1 risk trend toward the Bayes risk", 300.0):
        trend = al.optimality_trend(
            SYMMETRIC, 1.0, n_grid=[50, 200, 1000, 5000], runs=30, seed=121
        )
        assert trend.bayes == pytest.approx(norm.sf(np.sqrt(2.0)), abs=1e-12)
        assert trend.non_increasing_within_se()
        assert trend.mean_gap[-1] < 0.01
