"""Uniform generalization bounds, their empirical audit, and the
excess-risk trend of trained predictors as the sample size grows."""

import numpy as np

from alpha_lab import (
    BoundQuery,
    GmmSpec,
    audit_generalizations,
    optimality_trend,
    rademacher_bound,
    uniform_discrepancy_bound,
)

SPEC = GmmSpec.symmetric()

print("bound values at r=1, d=2, delta=0.05")
for n in (100, 1000, 10_000):
    row = []
    for alpha in (0.5, 1.0, 2.0, 10.0, np.inf):
        q = BoundQuery(alpha=alpha, r=1.0, d=2, n=n, delta=0.05)
        row.append(f"{rademacher_bound(q):.4f}")
    print(f"  n={n:>6}: " + "  ".join(row))

print("\nuniform discrepancy vs the alpha=inf population risk (n=10000)")
for alpha in (2.0, 10.0, 100.0, np.inf):
    q = BoundQuery(alpha=alpha, r=1.0, d=2, n=10_000, delta=0.05)
    label = "inf" if np.isinf(alpha) else f"{alpha:g}"
    print(f"  alpha={label:>5}: {uniform_discrepancy_bound(q):.4f}")

print("\nsmall empirical audit (10 trials, n=500, delta=0.2)")
q = BoundQuery(alpha=1.0, r=1.0, d=2, n=500, delta=0.2)
(audit,) = audit_generalizations(SPEC, [q], trials=10, n_theta=100, pop_n=200_000, seed=9)
print(f"  measured sup gaps: max={audit.measured.max():.4f} vs bound={audit.bound:.4f} "
      f"(pass fraction {audit.pass_fraction:.2f})")

print("\nexcess 0-1 risk of trained predictors (log-loss member, 10 runs)")
trend = optimality_trend(SPEC, 1.0, n_grid=[50, 200, 1000], runs=10, seed=12)
for i, n in enumerate(trend.ns):
    print(f"  n={n:>5}: gap to Bayes = {trend.mean_gap[i]:.5f} +- {trend.se_gap[i]:.5f}")
print(f"  Bayes risk: {trend.bayes:.5f}\n  note: {trend.conditional}")
