"""Imbalance / label-noise / clean training experiments (reduced runs).

Trains linear predictors on corrupted two-Gaussian data for several
tuning values and reports the angle of the averaged predictor to the
Bayes direction plus balanced-test accuracies.  20 runs for speed; the
acceptance suite runs the full 100-run protocol.
"""

from alpha_lab import CorruptionSpec, GmmSpec, TrainConfig, run_synthetic_experiment

SPEC = GmmSpec.symmetric()
SCENARIOS = {
    "imbalance (2 vs 98)": CorruptionSpec(class_counts=(2, 98)),
    "label noise (20% on the minus class)": CorruptionSpec(
        flip_probability=(0.2, 0.0), class_counts=(50, 50)
    ),
    "clean balanced": CorruptionSpec(class_counts=(50, 50)),
}

config = TrainConfig(max_iterations=60_000)
for name, corruption in SCENARIOS.items():
    summary = run_synthetic_experiment(SPEC, corruption, [0.65, 1.0, 4.0], 20, config, seed=11)
    print(name)
    for i, a in enumerate(summary.alphas):
        print(
            f"  alpha={a:<5g} angle_to_bayes={summary.angles_degrees[i]:6.2f} deg   "
            f"acc(-1)={summary.accuracy_minus[i]:.3f} acc(+1)={summary.accuracy_plus[i]:.3f} "
            f"overall={summary.accuracy_overall[i]:.3f} rel_gain={summary.relative_gain_pct[i]:.2f}%"
        )
    print()
