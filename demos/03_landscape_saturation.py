"""Risk landscapes over the parameter plane and the 1/alpha saturation.

Evaluates the empirical risk of a 2-D Gaussian-mixture sample over a
parameter lattice for several tuning values (single-basin check for the
convex members) and audits how fast the landscape approaches its
alpha = inf limit.
"""

from alpha_lab import GmmSpec, landscape_grid, sample_gmm, saturation_report, single_basin

# anisotropic mixture with unequal covariances and a 12% minority class
SPEC = GmmSpec(
    prior_minus=0.12,
    mean_minus=(-0.18, 1.49),
    mean_plus=(-0.01, 0.16),
    cov_minus=[[3.20, -2.02], [-2.02, 2.71]],
    cov_plus=[[4.19, 1.27], [1.27, 0.90]],
)

data = sample_gmm(SPEC, 2000, seed=4, normalize=True)

print("landscape survey over the radius-5 parameter square (61 x 61 lattice)")
survey_alphas = (0.95, 1.0, 2.0, 10.0)
_, surveys = landscape_grid(data, survey_alphas, radius=5.0, grid_size=61)
for alpha, risks in zip(survey_alphas, surveys):
    print(
        f"  alpha={alpha:>5g}: min={risks.min():.4f} max={risks.max():.4f} "
        f"single_basin={single_basin(risks)}"
    )

print("\nsaturation toward the alpha = inf landscape (radius-1 lattice)")
for alpha in (5.0, 10.0, 20.0):
    _, _, rep = saturation_report(data, radius=1.0, grid_size=51, alpha=alpha)
    print(
        f"  alpha={alpha:>4g}: max|R_a - R_inf| = {rep['max_value_gap']:.5f} "
        f"<= {rep['max_value_bound']:.5f};  max grad gap = {rep['max_grad_gap']:.5f} "
        f"<= {rep['max_grad_bound']:.5f}"
    )
