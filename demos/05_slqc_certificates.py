"""Pointwise quasi-convexity certificates and normalized gradient descent.

Builds an empirical-risk oracle on unit-box Gaussian-mixture data,
audits a Lipschitz certificate over sampled parameters, evolves it to a
larger tuning value, and runs NGD with the certificate-derived budget.
"""

import numpy as np

from alpha_lab import (
    GmmSpec,
    NgdConfig,
    SlqcCertificate,
    TrainConfig,
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    audit_certificate,
    bootstrap_slqc,
    evolve_slqc,
    ngd,
    ngd_iteration_bound,
    risk_gradient,
    risk_oracle,
    sample_audit_points,
    sample_gmm,
    theta_lipschitz_constant,
    train_gd,
)
from alpha_lab.slqc import evolution_range

R = 1.0
data = sample_gmm(GmmSpec.symmetric(), 500, seed=3, normalize=True)
alpha0 = 1.0
kappa0 = theta_lipschitz_constant(alpha0, R, 2)
theta0, report = train_gd(data, TrainConfig(alpha=alpha0, radius=R))
print(f"reference point: trained log-loss minimizer {np.round(theta0.theta, 4)} "
      f"({report.cause} after {report.iterations} iterations)")

cert = SlqcCertificate(0.05, kappa0, theta0.theta)
points = sample_audit_points(2, R, budget=256, seed=5)
oracle = risk_oracle(data, alpha0)
audit = audit_certificate(oracle, cert, points)
print(f"certificate (eps=0.05, kappa={kappa0:.3f}) audit over 256 points: "
      f"{audit.n_condition1} value / {audit.n_condition2} descent / {audit.n_fails} fails")

# the admissible evolution width scales with the local gradient norm,
# which is small near the minimizer: probe a high-gradient point
theta_probe = np.array([-0.6, 0.7])
gnorm = float(np.linalg.norm(risk_gradient(theta_probe, data, alpha0)))
L = alpha_lipschitz_risk(theta_probe)
J = alpha_lipschitz_gradient(theta_probe)
width = evolution_range(alpha0, gnorm, J, R, kappa0, 0.05)
target = alpha0 + 0.5 * width
eps, kappa = evolve_slqc(alpha0, 0.05, kappa0, gnorm, L, J, R, target)
print(f"single-step evolution: admissible width {width:.2e}; at alpha={target:.6f}: "
      f"eps={eps:.6f} kappa={kappa:.3f} rho={eps / kappa:.6f}")

alpha_lam, eps_lam, rho_lb = bootstrap_slqc(alpha0, 0.05, kappa0, 0.9 * gnorm, L, J, R, 0.5)
print(f"bootstrapped (lambda=0.5): alpha={alpha_lam:.6f} eps={eps_lam:.6f} rho>={rho_lb:.5f} "
      f"(reach {(alpha_lam - alpha0) / width:.2f}x the single-step width)")

ngd_cert = SlqcCertificate(0.05, kappa0, theta0.theta)
T = ngd_iteration_bound(ngd_cert, float(np.linalg.norm(theta0.theta)))
res = ngd(oracle, NgdConfig(ngd_cert.rho, T, np.zeros(2)), domain=(np.zeros(2), R))
print(f"NGD with certificate budget T={T}: best value {res.best_value:.6f} "
      f"vs reference {oracle.value(theta0.theta):.6f} (gap <= eps holds: "
      f"{res.best_value - oracle.value(theta0.theta) <= 0.05})")
