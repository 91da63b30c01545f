import math
import warnings
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alpha_lab.datasets
from alpha_lab.datasets import (
    CorruptionSpec,
    GmmSpec,
    bayes_direction,
    bayes_risk,
    corrupt,
    gaussian_linear_error,
    normalize_features,
    sample_balanced_gmm,
    sample_gmm,
)
from alpha_lab.cli import SCENARIOS
from alpha_lab.logistic import risk_gradient
from alpha_lab.slqc import NgdConfig
from alpha_lab.training import (
    _SEQUENTIAL_ROW_SUM,
    _STREAM_CORRUPT,
    _STREAM_DATA,
    TRAIN_POOL,
    NumericTrainingError,
    TrainConfig,
    _batched_gd,
    angle_between,
    landscape_grid,
    lattice_strict_local_minima,
    relative_accuracy_gain,
    run_synthetic_experiment,
    saturation_report,
    single_basin,
    train_gd,
)
from alpha_lab.util import _EXP_MAX

from oracles import (
    MP_DPS,
    TINY,
    FrozenNumericError,
    agrees_with_frozen,
    frozen_batched_gd,
    frozen_lattice_strict_local_minima,
    mp_gaussian_linear_error,
    seed_batched_gd,
    seed_gaussian_linear_error,
)

SYMMETRIC = GmmSpec.symmetric()

# anisotropic two-component config with unequal covariances (landscape demos)
SKEWED = GmmSpec(
    prior_minus=0.12,
    mean_minus=(-0.18, 1.49),
    mean_plus=(-0.01, 0.16),
    cov_minus=[[3.20, -2.02], [-2.02, 2.71]],
    cov_plus=[[4.19, 1.27], [1.27, 0.90]],
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GmmSpec(1.5, (0, 0), (1, 1), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        GmmSpec(0.5, (0, 0), (1, 1), [[1, 0.5], [0.4, 1]], np.eye(2))  # asymmetric
    with pytest.raises(ValueError):
        GmmSpec(0.5, (0, 0), (1, 1), [[1, 2], [2, 1]], np.eye(2))  # indefinite
    with pytest.raises(ValueError, match="mean_plus must be finite"):
        GmmSpec(0.5, (0, 0), (1, np.nan), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="cov_minus must be finite"):
        GmmSpec(0.5, (0, 0), (1, 1), [[np.inf, 0], [0, 1]], np.eye(2))


def test_sampling_determinism_and_prior():
    d1 = sample_gmm(SYMMETRIC, 10_000, seed=42)
    d2 = sample_gmm(SYMMETRIC, 10_000, seed=42)
    assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)
    frac_minus = np.mean(d1.y == -1)
    sigma = np.sqrt(0.25 / 10_000)
    assert abs(frac_minus - 0.5) <= 3 * sigma


def test_zero_covariance_collapses_to_means():
    spec = GmmSpec(0.5, (-1.0, -1.0), (1.0, 1.0), np.zeros((2, 2)), np.zeros((2, 2)))
    data = sample_gmm(spec, 50, seed=1)
    for label, mean in ((-1, (-1.0, -1.0)), (1, (1.0, 1.0))):
        rows = data.X[data.y == label]
        assert np.allclose(rows, mean)


def test_normalization_unit_box():
    data = sample_gmm(SYMMETRIC, 1000, seed=3, normalize=True)
    assert data.normalized
    assert data.X.min() >= 0.0 and data.X.max() <= 1.0
    raw = np.array([[-7.0, 0.0], [7.0, 6.0]])
    boxed = normalize_features(raw)
    assert np.allclose(boxed, [[0.0, 0.5], [1.0, 1.0]])


def test_corrupt_identity():
    data = sample_gmm(SYMMETRIC, 200, seed=5)
    n_minus, n_plus = data.class_sizes()
    spec = CorruptionSpec(flip_probability=(0.0, 0.0), class_counts=(n_minus, n_plus))
    out = corrupt(data, spec, seed=9)
    assert np.array_equal(out.X, data.X)
    assert np.array_equal(out.y, data.y)
    assert not out.flipped.any()


def test_corrupt_exact_counts():
    data = sample_gmm(SYMMETRIC, 400, seed=6)
    out = corrupt(data, CorruptionSpec(class_counts=(2, 98)), seed=7)
    assert out.class_sizes() == (2, 98)
    assert out.n == 100
    with pytest.raises(ValueError):
        corrupt(data, CorruptionSpec(class_counts=(1000, 10)), seed=7)


def test_corrupt_flip_fraction_and_provenance():
    spec = GmmSpec.symmetric()
    data = sample_gmm(spec, 20_000, seed=8)
    out = corrupt(data, CorruptionSpec(flip_probability=(0.2, 0.0)), seed=11)
    minus_origin = out.origin == -1
    flipped_fraction = out.flipped[minus_origin].mean()
    sigma = np.sqrt(0.2 * 0.8 / minus_origin.sum())
    assert abs(flipped_fraction - 0.2) <= 3 * sigma
    assert not out.flipped[out.origin == 1].any()
    # flipped rows now carry the opposite label but remember their class
    assert np.all(out.y[out.flipped] == 1)
    assert np.all(out.origin[out.flipped] == -1)


def test_train_gd_separable_toy():
    X = np.array([[1.0, 0.2], [0.9, 0.1]])
    y = np.array([1, -1])
    data_ok = sample_gmm(SYMMETRIC, 4, seed=0)  # placeholder for type
    from alpha_lab.datasets import LabeledDataset

    toy = LabeledDataset(X, y, np.zeros(2, bool), y.copy())
    theta, report = train_gd(toy, TrainConfig(alpha=1.0, max_iterations=20_000))
    margins = y * (X @ theta.theta)
    assert np.all(margins > 0)
    assert report.cause in ("gradient_tolerance", "max_iterations")


def test_train_gd_symmetry_axis():
    # mirrored pair keeps the iterate on the span of x
    x = np.array([0.6, 0.8])
    from alpha_lab.datasets import LabeledDataset

    toy = LabeledDataset(
        np.stack([x, -x]), np.array([1, -1]), np.zeros(2, bool), np.array([1, -1])
    )
    theta, _ = train_gd(toy, TrainConfig(alpha=0.8, max_iterations=5000))
    cross = theta.theta[0] * x[1] - theta.theta[1] * x[0]
    assert abs(cross) <= 1e-12


def test_train_gd_projection_respects_radius():
    data = sample_gmm(SYMMETRIC, 100, seed=13)
    theta, _ = train_gd(data, TrainConfig(alpha=1.0, radius=0.2, max_iterations=2000))
    assert np.linalg.norm(theta.theta) <= 0.2 + 1e-12


@pytest.mark.parametrize("shape", [(1, 100, 2), (4, 100, 2), (2, 500, 3)])
def test_batched_gd_bit_identical_to_seed_loop(shape):
    R, n, d = shape
    rng = np.random.default_rng(R * n * d)
    X = 0.7 * rng.normal(size=shape)
    y = np.where(rng.random((R, n)) < 0.4, -1.0, 1.0)
    for alpha in (0.65, 1.0, 4.0, np.inf):
        # a long step and a loose tolerance mix converged and capped runs
        cfg = TrainConfig(
            alpha=alpha, learning_rate=0.3, optimality_parameter=1e-3, max_iterations=400
        )
        ref_theta, ref_iters, ref_norms, ref_causes = seed_batched_gd(
            X, y, alpha, cfg.learning_rate, cfg.optimality_parameter, cfg.max_iterations
        )
        theta, reports = _batched_gd(X, y, cfg)
        assert agrees_with_frozen(theta, ref_theta).all()
        assert np.array_equal([r.iterations for r in reports], ref_iters)
        assert agrees_with_frozen([r.grad_norm for r in reports], ref_norms).all()
        assert [r.cause for r in reports] == list(ref_causes)
        # a radius the iterates never reach changes nothing
        far, far_reports = _batched_gd(X, y, replace(cfg, radius=50.0))
        assert np.array_equal(far, theta) and far_reports == reports
        # each run trained alone equals its row of the batch
        for r in range(R):
            alone, (rep,) = _batched_gd(X[r : r + 1], y[r : r + 1], cfg)
            assert np.array_equal(alone[0], theta[r]) and rep == reports[r]


def _assert_matches_frozen(X, y, cfg):
    """_batched_gd equals the frozen 0.2.0 loop bit for bit; returns the reports."""
    ref_theta, ref_reports = frozen_batched_gd(
        X, y, cfg.alpha, cfg.learning_rate, cfg.optimality_parameter,
        cfg.max_iterations, cfg.radius,
    )
    theta, reports = _batched_gd(X, y, cfg)
    assert np.array_equal(theta, ref_theta)
    assert [(*astuple(r), r.cause) for r in reports] == ref_reports
    return reports


# d < _SEQUENTIAL_ROW_SUM takes the one-run loop once one run is left, d = 8 does not
@pytest.mark.parametrize("n, R, d", [
    pytest.param(n, R, d, id=f"{n}-{R}" if d == 2 else f"{n}-{R}-d{d}")
    for n in (100, 500, 5000) for R in (1, 3, 5) for d in (1, 2, 3, 7, 8)
])
def test_batched_gd_bit_identical_to_frozen_loop(n, R, d):
    rng = np.random.default_rng(10 * R + n)
    # rows of different spread stop at different steps; the last one to
    # stop is handed to the one-run loop
    spread = np.linspace(0.4, 1.6, R)[:, None, None]
    X = spread * rng.normal(size=(R, n, d)) + np.linspace(0.3, -0.1, d)
    y = np.where(rng.random((R, n)) < 0.35, -1.0, 1.0)
    causes = set()
    for alpha in (0.5, 0.65, 1.0, 4.0, np.inf):
        for radius in (np.inf, 0.2, 50.0):
            cfg = TrainConfig(alpha=alpha, learning_rate=0.3, optimality_parameter=1e-3,
                              max_iterations=300, radius=radius)
            causes |= {r.cause for r in _assert_matches_frozen(X, y, cfg)}
    assert causes == {"gradient_tolerance", "max_iterations"}


@pytest.mark.parametrize("d", range(1, _SEQUENTIAL_ROW_SUM))
def test_one_run_gd_premises_hold(d):
    # the one-run loop sums a short row left to right in Python floats and
    # takes both products with ndarray.dot; each must give the batched loop's bits
    rng = np.random.default_rng(d)
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150):
        rows = scale * rng.normal(size=(2000, 1, d))
        for row in rows:
            total = 0.0
            for v in row[0].tolist():
                total += v
            assert np.add.reduce(row, axis=1)[0] == total
    # n up to 20,000 reaches OpenBLAS's threaded gemv
    for n in (1, 7, 100, 500, 5000, 20_000):
        A = rng.normal(size=(3, n, d))
        theta = rng.normal(size=(3, d))
        margins = np.matmul(A, theta[:, :, None])[:, :, 0]
        grads = np.matmul(margins[:, None, :], A)[:, 0, :]
        for r in range(3):
            assert A[r].dot(theta[r]).tobytes() == margins[r].tobytes()
            assert margins[r].dot(A[r]).tobytes() == grads[r].tobytes()
            alone = np.matmul(A[r : r + 1], theta[r, None, :, None])[0, :, 0]
            assert alone.tobytes() == margins[r].tobytes()


def test_batched_gd_bit_identical_to_frozen_loop_on_synth_draw():
    # the first three runs of `synth --scenario imbalance` at seed 0
    runs = [
        corrupt(sample_gmm(SYMMETRIC, TRAIN_POOL, seed=(0, _STREAM_DATA, r)),
                SCENARIOS["imbalance"], seed=(0, _STREAM_CORRUPT, r))
        for r in range(3)
    ]
    X = np.stack([d.X for d in runs])
    y = np.stack([d.y for d in runs]).astype(float)
    for alpha in (0.65, 1.0, 4.0):
        cfg = TrainConfig(alpha=alpha, max_iterations=12_000)
        reports = _assert_matches_frozen(X, y, cfg)
        if alpha == 0.65:
            assert any(r.converged for r in reports)
        _assert_matches_frozen(X[:1], y[:1], cfg)  # the one-row batch of the benchmark


def _growing_run(n, outlier=None, seed=0):
    """(X, y) of one run whose points, labelled +1, lie at x0 in [1, 1.5],
    so theta_0 grows.  With ``outlier`` = K the last point moves to
    (-K, 0), still labelled +1, and its signed margin K theta_0 grows with
    it; a negative K puts that point far out on the correct side."""
    rng = np.random.default_rng(seed)
    X = np.stack([1.0 + 0.5 * rng.random(n), 0.3 * rng.normal(size=n)], axis=1)
    if outlier is not None:
        X[-1] = (-outlier, 0.0)
    return X, np.ones(n)


def _signed_margin_maxima(X, y, cfg, steps):
    """Per step k < ``steps`` and run: the largest signed margin -y x . theta_k
    (the sign of every alpha != 1) and the bound max ||x|| * ||theta_k||,
    replayed with the frozen loop."""
    maxima, bounds = [], []
    for k in range(steps):
        theta, _ = frozen_batched_gd(X, y, cfg.alpha, cfg.learning_rate,
                                     cfg.optimality_parameter, k, cfg.radius)
        maxima.append(np.einsum("rn,rnd,rd->rn", -y, X, theta).max(axis=1))
        bounds.append(np.linalg.norm(X, axis=2).max(axis=1) * np.linalg.norm(theta, axis=1))
    return np.array(maxima), np.array(bounds)


# alpha = 4 takes the beta < 1 form and its margins grow step by step;
# alpha = 0.8 takes the beta > 1 form, whose weights grow with the outlier's
# margin, so its margins cross only by an overshoot, which the radius bounds
@pytest.mark.parametrize("cfg", [
    TrainConfig(alpha=4.0, learning_rate=0.3, optimality_parameter=0.11, max_iterations=40),
    TrainConfig(alpha=0.8, learning_rate=10.0, max_iterations=40, radius=1.0),
])
@pytest.mark.parametrize("R", [1, 2])
def test_one_run_gd_bit_identical_where_margins_cross_the_guard(cfg, R):
    X, y = _growing_run(201, outlier=1000.0)
    if R == 2:
        # a second run that stops before the first one crosses hands it to
        # the one-run loop below the guard's threshold
        companion = 3.0 * X
        companion[-1] = companion[0]
        X, y = np.stack([X, companion]), np.stack([y, y])
    else:
        X, y = X[None], y[None]
    reports = _assert_matches_frozen(X, y, cfg)
    maxima, _ = _signed_margin_maxima(X, y, cfg, cfg.max_iterations)
    above = maxima[:, 0] > _EXP_MAX
    # the step at which the one-run loop takes over is below the threshold
    start = reports[1].iterations + 1 if R == 2 else 0
    assert (R == 1 or reports[1].converged) and not above[start] and above[start:].sum() >= 10


@pytest.mark.parametrize("alpha, lr", [(4.0, 0.1), (0.65, 0.03)])
@pytest.mark.parametrize("R", [1, 2])
def test_one_run_gd_bit_identical_where_only_the_margin_bound_crosses(alpha, lr, R):
    # separable data: theta grows along e0, and with it the bound of the
    # far point, while every signed margin -y x . theta stays negative
    X, y = _growing_run(100, outlier=-1000.0)
    X, y = np.stack([X] * R), np.stack([y] * R)
    if R == 2:
        X[1] *= 0.0  # stops at step 0
    cfg = TrainConfig(alpha=alpha, learning_rate=lr, max_iterations=60)
    _assert_matches_frozen(X, y, cfg)
    maxima, bounds = _signed_margin_maxima(X, y, cfg, cfg.max_iterations)
    crossed = bounds[:, 0] > _EXP_MAX
    assert (maxima[:, 0] <= _EXP_MAX).all() and not crossed[:5].any() and crossed[-20:].all()


# R = 1 with d = 2 is decided by the one-run loop; d = 8 and R = 2 by the
# batched loop, which hands the second run of (2, 2) on to the one-run loop
@pytest.mark.parametrize("R, d", [(1, 2), (1, 8), (2, 2)])
def test_stop_test_at_the_tolerance_boundary(R, d):
    # a tolerance equal to run 0's first stop statistic stops it at step 0,
    # one ulp below it does not.  Radius 1e-4 projects the first step, so
    # there the statistic is the gradient-mapping norm
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(R, 100, d)) + 0.2
        y = np.where(rng.random((R, 100)) < 0.4, -1.0, 1.0)
        for radius in (np.inf, 1e-4):
            _, [(_, _, stat0, _), *_] = frozen_batched_gd(X, y, 1.0, max_iterations=0,
                                                          radius=radius)
            for tol, stops in ((stat0, True), (math.nextafter(stat0, 0.0), False)):
                cfg = TrainConfig(optimality_parameter=tol, max_iterations=3, radius=radius)
                report = _assert_matches_frozen(X, y, cfg)[0]
                assert (report.converged and report.iterations == 0) == stops


# one scale per run: one run takes the one-run loop's raise, two the batched loop's
@pytest.mark.parametrize("scale, cfg, iteration, theta", [
    (1e160, TrainConfig(alpha=1.0), 0, [0.0, 0.0]),
    (1e3, TrainConfig(alpha=0.3, learning_rate=1.0), 1, [-159.8230869, -178.83186071]),
    pytest.param((1e160, 1e160), TrainConfig(alpha=1.0), 0, [0.0, 0.0], id="R2-1e+160"),
    pytest.param((1e3, 1e3), TrainConfig(alpha=0.3, learning_rate=1.0), 1,
                 [382.0388244, 70.05412445], id="R2-1000.0"),
    pytest.param((1e3, 1e3), TrainConfig(alpha=0.3, learning_rate=1.0, radius=500.0), 1,
                 [382.0388244, 70.05412445], id="R2-1000.0-radius"),
    # only the second run goes non-finite, so its iterate is the one reported
    pytest.param((1.0, 1e3), TrainConfig(alpha=0.3, learning_rate=1.0), 1,
                 [111.52595132, 123.648876], id="R2-second-run"),
])
def test_nonfinite_gradient_raises_like_frozen_loop_without_warning(scale, cfg, iteration, theta):
    rng = np.random.default_rng(0)
    R = np.size(scale)
    X = np.reshape(scale, (-1, 1, 1)) * rng.normal(size=(R, 100, 2))
    y = np.where(rng.random((R, 100)) < 0.5, -1.0, 1.0)
    with np.errstate(invalid="ignore"), pytest.raises(FrozenNumericError) as frozen:
        frozen_batched_gd(X, y, cfg.alpha, cfg.learning_rate, cfg.optimality_parameter,
                          cfg.max_iterations, cfg.radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericTrainingError) as err:
            _batched_gd(X, y, cfg)
    assert err.value.iteration == frozen.value.iteration == iteration
    assert np.array_equal(err.value.theta, frozen.value.theta)
    assert np.allclose(err.value.theta, theta, rtol=1e-9, atol=0.0)


def test_projected_gd_stops_at_kkt_point():
    data = sample_gmm(SYMMETRIC, 500, seed=(0, 11), normalize=True)
    cfg = TrainConfig(alpha=1.0, radius=0.2)
    theta, report = train_gd(data, cfg)
    assert report.converged and report.cause == "gradient_tolerance"
    assert report.iterations < 5000
    assert report.grad_norm <= cfg.optimality_parameter
    assert abs(np.linalg.norm(theta.theta) - 0.2) <= 1e-12
    # -grad points out of the ball and its tangential part is near zero
    descent = -risk_gradient(theta.theta, data, 1.0)
    u = theta.theta / np.linalg.norm(theta.theta)
    assert descent @ u > 0.0
    assert np.linalg.norm(descent - (descent @ u) * u) <= 2.0 * cfg.optimality_parameter


def test_bayes_direction_closed_form():
    w, b = bayes_direction(SYMMETRIC)
    assert np.allclose(w, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    # scaling both means leaves the direction unchanged
    spec2 = GmmSpec.symmetric(mean=(2.0, 2.0))
    w2, _ = bayes_direction(spec2)
    assert np.allclose(w2, w, atol=1e-12)


def test_bayes_direction_grid_fallback_agrees():
    shared = GmmSpec(0.5, (-1.0, -0.5), (1.0, 0.5), np.eye(2), np.eye(2))
    w_closed, b_closed = bayes_direction(shared)
    forced = GmmSpec(
        0.5, (-1.0, -0.5), (1.0, 0.5), np.eye(2), np.eye(2) + np.diag([1e-9, 0.0])
    )
    assert not forced.shared_covariance
    w_grid, b_grid = bayes_direction(forced)
    assert np.degrees(angle_between(w_grid, w_closed)) <= 1.0
    assert abs(b_grid - b_closed) <= 0.05


def test_gaussian_linear_error_bayes_value():
    w, b = bayes_direction(SYMMETRIC)
    err = gaussian_linear_error(SYMMETRIC, w, b)
    from scipy.stats import norm

    assert err == pytest.approx(norm.sf(np.sqrt(2)), rel=1e-12)
    # Monte-Carlo cross-check
    data = sample_gmm(SYMMETRIC, 1_000_000, seed=17)
    pred = np.where(data.X @ w >= b, 1, -1)
    mc = np.mean(pred != data.y)
    assert abs(mc - err) <= 3 * np.sqrt(err * (1 - err) / data.n)


# a point mass at each mean: the zero-spread branch of the error
DEGENERATE = GmmSpec(0.3, (-1.0, 0.5), (1.0, 2.0), np.zeros((2, 2)), np.zeros((2, 2)))

# Error allowed to one term prior * Phi(+-u) of gaussian_linear_error, in
# units of EPS: (TAIL_EPS_U2 * u^2 + TAIL_EPS) relative to the exact term.
# - The argument erfc sees, fl(fl(fl(offset - m) / s) / fl(sqrt 2)), carries
#   four roundings, so it is within 2 EPS of x = u / sqrt 2 relative.
# - erfc's condition number |x erfc'(x) / erfc(x)| is below 2x^2 + 1 = u^2 + 1:
#   for x >= 0 from erfc(x) > 2 e^{-x^2} / (sqrt(pi) (x + sqrt(x^2 + 2))), and
#   it is below 0.5 for x < 0.  So the argument costs (2 u^2 + 2) EPS.
# - math.erfc itself was within 2.4 EPS of mpmath on 120,000 points in
#   [-6, 27.3]; 4 EPS are allowed.  Halving is exact, and prior * tail
#   rounds once (1 EPS, with slack).
# The sum of the two terms rounds once more, EPS / 2 of the total.  Where a
# term falls below the normal range, up to TINY absolute passes.  The worst
# error measured, over 5,000 draws of the strategy below and 20,000 rules
# on SYMMETRIC and SKEWED with u in [-10, 40], was 0.20 of this allowance
# (0.38 for the frozen scipy.stats form).
EPS = 2.0**-52
TAIL_EPS_U2, TAIL_EPS = 2, 7


def meets_tail_bound(got, terms):
    """``got`` is within the allowance above of mp_gaussian_linear_error's ``terms``."""
    with mpmath.workdps(MP_DPS):
        exact = [prior * tail for prior, _, tail in terms]
        truth = mpmath.fsum(exact)
        allowed = EPS / 2 * truth + mpmath.fsum(
            term * (TAIL_EPS_U2 * u**2 + TAIL_EPS) * EPS
            for term, (_, u, _) in zip(exact, terms) if u is not None)
        if any(0 < term < TINY for term in exact):
            allowed += TINY
        return abs(mpmath.mpf(got) - truth) <= allowed


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from([SYMMETRIC, SKEWED, DEGENERATE]),
    w=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).filter(lambda v: any(v)),
    offset=st.floats(-1e4, 1e4),
)
def test_gaussian_linear_error_within_tail_bound_of_mpmath(spec, w, offset):
    assert meets_tail_bound(gaussian_linear_error(spec, w, offset),
                            mp_gaussian_linear_error(spec, w, offset))


@settings(max_examples=40, deadline=None)
@given(
    mean=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(
        lambda v: np.hypot(*v) > 1e-3
    ),
    cov_scale=st.floats(0.05, 20.0),
)
def test_bayes_risk_is_the_linear_error_at_the_bayes_rule(mean, cov_scale):
    spec = GmmSpec.symmetric(mean, cov_scale)
    w, b = bayes_direction(spec)
    got = bayes_risk(spec)
    assert got.hex() == gaussian_linear_error(spec, w, b).hex()
    # the frozen scipy.stats form of the error meets the same bound
    terms = mp_gaussian_linear_error(spec, w, b)
    assert meets_tail_bound(got, terms)
    assert meets_tail_bound(seed_gaussian_linear_error(spec, w, b), terms)


def test_fallback_bayes_direction_agrees_with_seed_form(monkeypatch):
    # the unequal-covariance fallback optimizes the error; with the frozen
    # scipy.stats form substituted it must take the same path to the same
    # direction.  The offset moved by 7.7e-13 when the tails moved to
    # math.erfc: minimize_scalar stops once its bracket is within its xatol,
    # 1e-5, so a change of a few ulps in the error moves where it stops by
    # far less than that; 1e-9 is allowed.
    w, b = bayes_direction(SKEWED)
    monkeypatch.setattr(alpha_lab.datasets, "gaussian_linear_error", seed_gaussian_linear_error)
    w_seed, b_seed = bayes_direction(SKEWED)
    assert w.tobytes() == w_seed.tobytes()
    assert abs(b - b_seed) <= 1e-9


def test_bayes_risk_grid_integration_close_to_linear_error():
    rs = bayes_risk(SKEWED)
    # sanity: a valid probability, below coin flipping, above zero
    assert 0.0 < rs < 0.5
    w, b = bayes_direction(SKEWED)
    assert rs <= gaussian_linear_error(SKEWED, w, b) + 1e-6


def test_angle_between_range():
    assert angle_between([1, 0], [0, 1]) == pytest.approx(np.pi / 2)
    assert angle_between([1, 0], [-1, 0]) == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        angle_between([0, 0], [1, 0])


def test_relative_accuracy_gain():
    gain, sign = relative_accuracy_gain(0.9, 0.9)
    assert gain == 0.0 and sign == 0
    g1, s1 = relative_accuracy_gain(0.99, 0.9)
    g2, s2 = relative_accuracy_gain(0.81, 0.9)
    assert g1 == pytest.approx(10.0) and s1 == 1
    assert g2 == pytest.approx(10.0) and s2 == -1


def test_landscape_grid_shapes_and_constant_dataset():
    from alpha_lab.datasets import LabeledDataset

    X = np.zeros((10, 2))
    y = np.array([1, -1] * 5)
    const = LabeledDataset(X, y, np.zeros(10, bool), y.copy())
    axis, (risks,) = landscape_grid(const, [1.0], radius=1.0, grid_size=5)
    assert risks.shape == (5, 5)
    assert np.allclose(risks, np.log(2))
    axis1, (risks1,) = landscape_grid(const, [1.0], radius=1.0, grid_size=1)
    assert axis1[0] == 0.0 and risks1.shape == (1, 1)


def test_lattice_minima_and_single_basin():
    vals = np.array(
        [
            [3, 3, 3, 3, 3],
            [3, 2, 3, 3, 3],
            [3, 3, 3, 1, 3],
            [3, 3, 3, 3, 3],
            [3, 3, 3, 3, 3],
        ],
        dtype=float,
    )
    minima = lattice_strict_local_minima(vals)
    assert set(minima) == {(1, 1), (2, 3)}
    assert not single_basin(vals)
    bowl = np.add.outer(np.arange(-3, 4) ** 2, np.arange(-3, 4) ** 2).astype(float)
    assert single_basin(bowl)


_LATTICE_CELLS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, np.nan, np.inf]),  # ties, plateaus, NaN
    st.floats(min_value=-3.0, max_value=3.0),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    data=st.data(),
)
def test_lattice_minima_match_frozen_scan(shape, data):
    cells = data.draw(st.lists(_LATTICE_CELLS, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    vals = np.array(cells, dtype=float).reshape(shape)
    got = lattice_strict_local_minima(vals)
    assert got == frozen_lattice_strict_local_minima(vals)
    assert all(type(i) is int and type(j) is int for i, j in got)
    assert all(not np.isnan(vals[i, j]) for i, j in got)


def test_landscape_single_basin_for_convex_member():
    data = sample_gmm(SKEWED, 1500, seed=19, normalize=True)
    _, (risks,) = landscape_grid(data, [0.95], radius=5.0, grid_size=41)
    assert single_basin(risks)


def test_landscape_grid_many_alphas_equal_one_alpha_calls():
    data = sample_gmm(SKEWED, 600, seed=21, normalize=True)
    alphas = [0.5, 1.0, 4.0, np.inf]
    axis, risks = landscape_grid(data, alphas, radius=2.0, grid_size=9)
    assert risks.shape == (4, 9, 9)
    for alpha, got in zip(alphas, risks):
        axis1, (one,) = landscape_grid(data, [alpha], radius=2.0, grid_size=9)
        assert axis1.tobytes() == axis.tobytes()
        assert got.tobytes() == one.tobytes()
    # an even grid has no point at 0
    axis2, _ = landscape_grid(data, [1.0], radius=2.0, grid_size=2)
    assert axis2.tolist() == [-2.0, 2.0]


def test_saturation_matrix_is_the_landscape_grid():
    data = sample_gmm(SKEWED, 600, seed=22, normalize=True)
    axis, risks, _ = saturation_report(data, radius=1.0, grid_size=11, alpha=10.0)
    ref_axis, ref = landscape_grid(data, [10.0], radius=1.0, grid_size=11)
    assert axis.tobytes() == ref_axis.tobytes()
    assert risks.tobytes() == ref[0].tobytes()


def test_saturation_report_bounds_hold():
    data = sample_gmm(SKEWED, 1500, seed=23, normalize=True)
    _, _, rep = saturation_report(data, radius=1.0, grid_size=21, alpha=10.0)
    assert rep["value_ok"] and rep["grad_ok"]
    with pytest.raises(ValueError):
        saturation_report(data, radius=1.0, grid_size=5, alpha=0.5)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
def test_lattice_audits_reject_bad_radius(radius):
    data = sample_gmm(SKEWED, 50, seed=24, normalize=True)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        landscape_grid(data, [1.0], radius, 3)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        saturation_report(data, radius, 3)


def test_train_config_rejects_nan_and_nonpositive_radius():
    for radius in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            TrainConfig(radius=radius)
    assert TrainConfig(radius=np.inf).radius == np.inf  # unconstrained training


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(learning_rate=np.nan),
    lambda: TrainConfig(optimality_parameter=np.nan),
    lambda: TrainConfig(max_iterations=np.nan),
    lambda: NgdConfig(np.nan, 10, np.zeros(2)),
    lambda: NgdConfig(0.1, np.nan, np.zeros(2)),
], ids=["train-lr", "train-tol", "train-iterations", "ngd-lr", "ngd-iterations"])
def test_configs_reject_nan(make):
    # NaN fails every comparison, so the checks are written as "not x > 0"
    with pytest.raises(ValueError):
        make()


def test_experiment_single_run_equals_single_predictor():
    corruption = CorruptionSpec(class_counts=(50, 50))
    summary = run_synthetic_experiment(SYMMETRIC, corruption, [1.0], runs=1, seed=7)
    assert summary.runs == 1
    assert np.allclose(summary.averaged_theta[0], summary.run_thetas[0, 0])
    assert 0.0 <= summary.angle_to_bayes[0] <= np.pi
    assert summary.relative_gain_pct[0] == 0.0


def test_experiment_determinism():
    corruption = CorruptionSpec(class_counts=(30, 70))
    s1 = run_synthetic_experiment(SYMMETRIC, corruption, [0.65, 1.0], 2, seed=123)
    s2 = run_synthetic_experiment(SYMMETRIC, corruption, [0.65, 1.0], 2, seed=123)
    assert np.array_equal(s1.averaged_theta, s2.averaged_theta)
    assert np.array_equal(s1.accuracy_overall, s2.accuracy_overall)
    assert np.array_equal(s1.run_thetas, s2.run_thetas)


def test_experiment_seed_is_an_argument_not_a_config_field():
    # a seed in the config was ignored by every trainer, so it is not settable there
    with pytest.raises(TypeError):
        TrainConfig(seed=5)
    assert len(astuple(TrainConfig())) == 5
    corruption = CorruptionSpec(class_counts=(50, 50))
    s0, s1 = (run_synthetic_experiment(SYMMETRIC, corruption, [1.0], 1, seed=s) for s in (0, 1))
    assert not np.array_equal(s0.run_thetas, s1.run_thetas)


def test_balanced_test_sets_are_balanced():
    test = sample_balanced_gmm(SYMMETRIC, 500, seed=31)
    assert test.class_sizes() == (500, 500)
