"""Full-batch gradient-descent training and the seeded experiment harness.

``train_gd`` minimizes the empirical risk with a fixed learning rate,
projecting onto the parameter ball when a finite radius is set.  A run
stops once its stop statistic is at most the optimality parameter: the
gradient norm, or, when the projection moved the step, the
gradient-mapping norm ||theta - P(theta - lr * grad)|| / lr, which
vanishes at a constrained minimizer on the sphere.  Runs of one shape
train as one batch, and each run is reported at its stop step.
``run_synthetic_experiment`` repeats draw/corrupt/train over seeded runs
for several tuning values, averages the trained linear predictors, and
reports their angles to the Bayes reference plus balanced-test
accuracies.  ``landscape_grid`` evaluates the empirical risk over a 2-D
parameter lattice for many tuning values in one pass, and
``saturation_report`` audits that lattice's approach to alpha = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import logistic
from .datasets import (
    CorruptionSpec,
    GmmSpec,
    LabeledDataset,
    bayes_direction,
    corrupt,
    sample_balanced_gmm,
    sample_gmm,
)
from .losses import _beta, canon_alpha
from .util import _EXP_MAX, _log1p_exp

# Reserved seed-stream tags so data, corruption and test draws never collide.
_STREAM_DATA = 101
_STREAM_CORRUPT = 102
_STREAM_TEST = 103

TEST_PER_CLASS = 1000
TRAIN_POOL = 400  # training samples drawn per run, before corruption


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of full-batch gradient descent."""

    alpha: float = 1.0
    learning_rate: float = 0.01
    optimality_parameter: float = 1e-4
    max_iterations: int = 200_000
    radius: float = np.inf

    def __post_init__(self):
        if not (self.learning_rate > 0.0 and self.optimality_parameter > 0.0):
            raise ValueError("learning rate and optimality parameter must be positive")
        if not self.max_iterations >= 1:
            raise ValueError("need at least one iteration")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class ConvergenceReport:
    """How one training run ended.

    ``grad_norm`` is the stop statistic at the returned iterate: the
    gradient norm, or the gradient-mapping norm when the projection onto
    the radius ball moved that iterate's step.  ``iterations`` counts the
    steps taken before it.
    """

    converged: bool
    iterations: int
    grad_norm: float

    @property
    def cause(self) -> str:
        """``"gradient_tolerance"`` if the stop rule held, else ``"max_iterations"``."""
        return "gradient_tolerance" if self.converged else "max_iterations"


class NumericTrainingError(RuntimeError):
    """Gradient went non-finite; carries the offending iterate."""

    def __init__(self, iteration: int, theta: np.ndarray):
        self.iteration = iteration
        self.theta = theta
        super().__init__(
            f"non-finite gradient at iteration {iteration}; iterate dump: {theta.tolist()}"
        )


def _gd_step_weights(beta: float):
    """Unsigned F1 weight w(z) = sigmoid(z)^(1-beta) * sigmoid(-z), chosen once per beta.

    Returns ``(sign, weights, bare)``.  ``weights(S, T)`` overwrites the
    margins S = sign * z, with z = y * x.theta, by w, and uses ``T`` (same
    shape) as scratch; the caller ignores overflow.  The risk gradient is
    then -sign * (w @ (sign * y * X)) / n.  Each beta gets the form with
    the fewest array passes:

    - beta = 1: w = sigmoid(-z) = 1 / (1 + e^z), with sign +1.
    - beta < 1: w = E * (1 + E)^(beta - 2) with E = e^min(-z, 709), sign -1.
      The clip keeps E finite.  Precision is lost only at margins below
      about -708 / (2 - beta), where (1 + E)^(beta - 2) leaves the normal
      range, as sigmoid(z) does in the sigmoid form below -708.
    - beta > 1: w = exp(-z - (2 - beta) * softplus(-z)), sign -1; the log
      domain keeps the weight finite until e^((beta - 1) * |z|) overflows.

    ``bare`` is ``weights`` without its overflow guard (the clip for
    beta < 1, softplus's max-reduction for beta > 1), for margins known to
    be at most ``_EXP_MAX``: the guard acts only above it, so there both
    give the same bits.  The batched loop always runs the guard.

    This stays apart from ``losses._grad_weights``: GD needs one alpha per
    step and takes the sigmoid forms above, while ``risk_gradients`` shares
    one log-sigmoid pair of the margins across many alphas.
    """
    # 0-d operands: numpy converts a Python float operand on every call
    one, clip, expo = np.array(1.0), np.array(_EXP_MAX), np.array(beta - 2.0)
    # closure cells cost less per step than np.<name> lookups
    exp, add, power, minimum = np.exp, np.add, np.power, np.minimum
    if beta == 1.0:
        def weights(Z, T):
            exp(Z, Z)
            Z += one
            np.reciprocal(Z, Z)
        return 1.0, weights, weights
    if beta < 1.0:
        def bare(M, T):
            exp(M, M)
            add(M, one, T)
            power(T, expo, T)
            M *= T

        def weights(M, T):
            minimum(M, clip, out=M)  # a positional out is deprecated here
            bare(M, T)
        return -1.0, weights, bare

    def bare(M, T, m_max=_EXP_MAX):
        _log1p_exp(M, T, m_max)  # softplus(-z)
        T *= expo
        M += T
        exp(M, M)

    def weights(M, T):
        bare(M, T, None)
    return -1.0, weights, bare


# numpy's add.reduce sums a row of fewer than 8 elements left to right, as
# the one-run loop's Python sums do; from 8 elements on it sums in 8 lanes
# and rounds differently, so wider runs stay on the batched path.
_SEQUENTIAL_ROW_SUM = 8


def _gd_one_run(A, theta, it, beta, config: TrainConfig):
    """Finish one run of ``_batched_gd`` from iterate ``theta`` at step ``it``.

    A is the run's (n, d) signed design, d < ``_SEQUENTIAL_ROW_SUM``, for
    the GD weights of ``beta`` = 1/alpha.  The margins and weights live in
    1-D buffers and both products are gemv calls through ``ndarray.dot``,
    which round as the batched matmuls do.  The d-vector work runs on Python
    floats, whose ``/``, ``*``, ``-`` and ``math.sqrt`` are numpy's
    correctly rounded operations, and each squared norm is summed left to
    right (not with ``sum``, which compensates from Python 3.12 on), so
    every step has the batched loop's bits.  Each entry of the next iterate
    is written into the 1-D operand of the margin product, through a
    memoryview, as soon as it is formed.

    A step runs the weights' overflow guard only when the bound
    max_i ||a_i|| * ||theta|| on its margins, with a 1e-9 relative slack,
    is above ``_EXP_MAX`` or NaN; ||theta||^2 is summed as the iterate is
    formed, and is the radius squared after a projection.  Skipping the
    guard keeps the bits: for any summation order |fl(a . theta)| <=
    (1 + gamma_d) ||a|| ||theta||, the slack covers gamma_d and the
    rounding of both norms, and the guard changes no margin at or below
    ``_EXP_MAX``.  Returns (theta as a list, ConvergenceReport).
    """
    n, d = A.shape
    sign, guarded, bare = _gd_step_weights(beta)
    scale = -sign * n
    lr, tol, radius = config.learning_rate, config.optimality_parameter, config.radius
    cap, bounded, sqrt, inf = config.max_iterations, radius < math.inf, math.sqrt, math.inf
    reach = float(np.sqrt((A * A).sum(axis=1)).max()) * (1.0 + 1e-9)  # max_i ||a_i||
    margins, scratch, grad = np.empty(n), np.empty(n), np.empty(d)
    vec, th = np.array(theta), theta.tolist()
    margins_of, grad_of, entries = A.dot, margins.dot, memoryview(vec)
    sq = sum(v * v for v in th)  # bounds the margins only, so any order will do
    while True:
        margins_of(vec, margins)
        if sqrt(sq) * reach <= _EXP_MAX:
            bare(margins, scratch)
        else:
            guarded(margins, scratch)
        grad_of(A, grad)
        ss, sq, nxt = 0.0, 0.0, []
        for i, v in enumerate(grad.tolist()):
            v /= scale
            ss += v * v
            t = th[i] - v * lr
            sq += t * t
            nxt.append(t)
            entries[i] = t  # vec holds the next iterate from here on
        if not ss < inf:  # also catches NaN
            raise NumericTrainingError(it, np.array(th))
        stat = sqrt(ss)
        if bounded:
            norm = sqrt(sq)
            if norm > radius:
                shrink = radius / norm
                nxt = [v * shrink for v in nxt]
                vec[:] = nxt
                moved_sq = 0.0
                for t, v in zip(th, nxt):
                    moved = t - v
                    moved_sq += moved * moved
                stat = sqrt(moved_sq) / lr
                sq = radius * radius
        converged = stat <= tol
        if converged or it >= cap:
            return th, ConvergenceReport(converged, it, stat)
        th = nxt
        it += 1


def _batched_gd(X: np.ndarray, y: np.ndarray, config: TrainConfig):
    """Gradient descent on R stacked datasets of identical shape.

    X is (R, n, d), y is (R, n) with entries +-1.  Stopped runs are removed
    from the working batch (and their iterates frozen), so the batched
    result is bit-identical to training each run alone.  Without a radius
    each step takes the root of the smallest squared norm only; the
    per-row norms are taken on the steps where rows stop, and are what
    their reports hold.  The margins, weights, gradients and squared norms
    of every step are written into buffers allocated once per call,
    through views built once per working-batch size; the step is applied
    to the whole working batch in place, and only then are the stopped
    rows dropped.

    Once the batch is down to one run and d < ``_SEQUENTIAL_ROW_SUM`` (from
    the first step for ``train_gd`` and one-run experiments, else for the
    last run to stop), ``_gd_one_run`` finishes that run from the current
    iterate and step.  At that size a step costs numpy call overhead, not
    arithmetic; the one-run loop keeps the bits and makes no numpy call on
    a d-element array.
    """
    R, n, d = X.shape
    beta = _beta(canon_alpha(config.alpha))
    sign, weights, _ = _gd_step_weights(beta)
    lr, tol, radius = config.learning_rate, config.optimality_parameter, config.radius
    bounded = radius < math.inf
    # 0-d operands: numpy converts a Python float operand on every call
    lr_op, tol_op, grad_scale = (np.array(v) for v in (lr, tol, -sign * n))
    theta_out = np.zeros((R, d))
    reports = [None] * R

    idx = np.arange(R)  # rows of the working batch -> original run ids
    A = (sign * y)[:, :, None] * X  # signed design; exact since y is +-1
    margins = np.empty((R, n, 1))
    scratch = np.empty((R, n))
    grad_buf = np.empty((R, 1, d))
    squares = np.empty((R, d))
    sumsq = np.empty(R)
    theta = np.zeros((R, d))

    def views(k):
        M, G3 = margins[:k], grad_buf[:k]
        S = M[:, :, 0]
        return M, S, S[:, None, :], scratch[:k], G3, G3[:, 0, :], squares[:k], sumsq[:k]

    k = R
    M, S, S_row, T, G3, G, sq, ss = views(k)
    theta_col = theta[:, :, None]
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if k == 1 and d < _SEQUENTIAL_ROW_SUM:
                r = idx[0]
                theta_out[r], reports[r] = _gd_one_run(A[0], theta[0], it, beta, config)
                break
            np.matmul(A, theta_col, out=M)
            weights(S, T)
            np.matmul(S_row, A, out=G3)
            G /= grad_scale
            np.multiply(G, G, out=sq)
            np.add.reduce(sq, axis=1, out=ss)
            lo, hi = ss.min(), ss.max()
            if not hi < math.inf:  # also catches NaN
                bad = int(np.flatnonzero(~np.isfinite(ss))[0])
                raise NumericTrainingError(it, theta[bad])
            G *= lr_op  # G now holds the step
            if bounded:
                nxt = theta - G
                stat = np.sqrt(ss)
                norms = np.sqrt((nxt * nxt).sum(axis=1))
                over = norms > radius
                if over.any():
                    nxt[over] *= (radius / norms[over])[:, None]
                    moved = theta[over] - nxt[over]
                    stat[over] = np.sqrt((moved * moved).sum(axis=1)) / lr
                newly = stat <= tol_op
                stopping = newly.any()
            else:
                stopping = math.sqrt(lo) <= tol
            capped = it >= config.max_iterations
            keep = None
            if capped or stopping:
                if not bounded:
                    stat = np.sqrt(ss)
                    newly = stat <= tol_op
                stop = newly | capped
                theta_out[idx[stop]] = theta[stop]
                for r, c, s in zip(idx[stop].tolist(), newly[stop].tolist(), stat[stop].tolist()):
                    reports[r] = ConvergenceReport(c, it, s)
                keep = ~stop
                if not keep.any():
                    break
            if bounded:
                np.copyto(theta, nxt)
            else:
                np.subtract(theta, G, out=theta)
            if keep is not None:
                idx, A, theta = idx[keep], A[keep], theta[keep]
                k = len(idx)
                M, S, S_row, T, G3, G, sq, ss = views(k)
                theta_col = theta[:, :, None]
            it += 1
    return theta_out, reports


def train_gd(data: LabeledDataset, config: TrainConfig):
    """Train one dataset by the module's stop rule; returns (ParamVector, ConvergenceReport)."""
    if data.n == 0:
        raise ValueError("empty dataset")
    theta, reports = _batched_gd(data.X[None], data.y[None].astype(float), config)
    return logistic.ParamVector(theta[0], config.radius), reports[0]


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors, in radians."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined for a zero vector")
    c = np.clip(u @ v / (nu * nv), -1.0, 1.0)
    return float(np.arccos(c))


def relative_accuracy_gain(acc_alpha: float, acc_reference: float) -> Tuple[float, int]:
    """|acc - ref| / ref * 100 and, separately, the sign of (acc - ref)."""
    if acc_reference <= 0.0:
        return float("inf") if acc_alpha > 0 else 0.0, int(np.sign(acc_alpha - acc_reference))
    return abs(acc_alpha - acc_reference) / acc_reference * 100.0, int(
        np.sign(acc_alpha - acc_reference)
    )


@dataclass
class ExperimentSummary:
    """Averaged predictors and their quality metrics, one row per alpha."""

    alphas: List[float]
    averaged_theta: np.ndarray          # (A, d)
    angle_to_bayes: np.ndarray          # radians, in [0, pi]
    accuracy_minus: np.ndarray
    accuracy_plus: np.ndarray
    accuracy_overall: np.ndarray
    relative_gain_pct: np.ndarray       # vs the alpha = 1 arm (nan if absent)
    gain_sign: np.ndarray
    run_thetas: np.ndarray              # (A, runs, d)
    run_converged: np.ndarray           # (A, runs) bool
    run_iterations: np.ndarray          # (A, runs) GD iterations
    runs: int

    @property
    def angles_degrees(self) -> np.ndarray:
        return np.degrees(self.angle_to_bayes)


def run_synthetic_experiment(
    spec: GmmSpec,
    corruption: CorruptionSpec,
    alphas: Sequence[float],
    runs: int,
    config: Optional[TrainConfig] = None,
    seed: int = 0,
) -> ExperimentSummary:
    """Seeded draw/corrupt/train loop with cross-run predictor averaging.

    Every run draws ``TRAIN_POOL`` fresh samples (seed derived from the
    master ``seed`` and the run index), corrupts them, and trains one
    predictor per alpha on the same corrupted sample.  Test accuracy is
    measured for the mean predictor over runs on a fresh clean balanced
    test set of ``TEST_PER_CLASS`` samples per class, whatever the corruption.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    alphas = [canon_alpha(a) for a in alphas]
    config = config or TrainConfig()

    datasets = []
    for r in range(runs):
        pool = sample_gmm(spec, TRAIN_POOL, seed=(seed, _STREAM_DATA, r))
        datasets.append(corrupt(pool, corruption, seed=(seed, _STREAM_CORRUPT, r)))
    sizes = {d.n for d in datasets}
    if len(sizes) != 1:
        raise ValueError("corruption produced runs of unequal size; fix class_counts")
    X = np.stack([d.X for d in datasets])
    y = np.stack([d.y for d in datasets]).astype(float)

    test = sample_balanced_gmm(spec, TEST_PER_CLASS, seed=(seed, _STREAM_TEST))
    bayes_w, _ = bayes_direction(spec)

    A = len(alphas)
    d = spec.dim
    avg_theta = np.zeros((A, d))
    run_thetas = np.zeros((A, runs, d))
    run_conv = np.zeros((A, runs), dtype=bool)
    run_iters = np.zeros((A, runs), dtype=int)
    angles = np.zeros(A)
    acc_minus = np.zeros(A)
    acc_plus = np.zeros(A)
    acc_all = np.zeros(A)
    for i, a in enumerate(alphas):
        thetas, reports = _batched_gd(X, y, replace(config, alpha=a))
        run_thetas[i] = thetas
        run_conv[i] = [rep.converged for rep in reports]
        run_iters[i] = [rep.iterations for rep in reports]
        avg = thetas.mean(axis=0)
        avg_theta[i] = avg
        angles[i] = angle_between(avg, bayes_w)
        pred = np.where(test.X @ avg >= 0.0, 1, -1)
        correct = pred == test.y
        acc_minus[i] = correct[test.y == -1].mean()
        acc_plus[i] = correct[test.y == 1].mean()
        acc_all[i] = correct.mean()

    gains = np.full(A, np.nan)
    signs = np.zeros(A)
    if 1.0 in alphas:
        ref = acc_all[alphas.index(1.0)]
        for i in range(A):
            gains[i], signs[i] = relative_accuracy_gain(acc_all[i], ref)
    return ExperimentSummary(
        alphas, avg_theta, angles, acc_minus, acc_plus, acc_all,
        gains, signs, run_thetas, run_conv, run_iters, runs,
    )


def _lattice_points(axis: np.ndarray) -> np.ndarray:
    """The len(axis)^2 points (axis[i], axis[j]) of the square lattice, row-major."""
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([t1.ravel(), t2.ravel()], axis=1)


def landscape_grid(data: LabeledDataset, alphas, radius: float, grid_size: int):
    """Empirical risks over the square lattice in the 2-D parameter plane, one pass.

    Returns (axis, risks).  ``axis`` spans [-radius, radius] in grid_size
    points; it holds 0 only for odd grid_size (grid_size 2 gives
    [-radius, radius]).  risks[k, i, j] is the risk at
    theta = (axis[i], axis[j]) for ``alphas[k]``.
    """
    if data.dim != 2:
        raise ValueError("landscape grids are defined for d = 2")
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    axis = np.zeros(1) if grid_size == 1 else np.linspace(-radius, radius, grid_size)
    risks = logistic.risks(_lattice_points(axis), data, alphas)
    return axis, risks.reshape(len(risks), grid_size, grid_size)


def saturation_report(
    data: LabeledDataset, radius: float, grid_size: int, alpha: float = 10.0
) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """Grid audit of |risk_alpha - risk_inf| against the 1/alpha rate, one risk pass.

    Both the value gap and the gradient gap are compared with the
    respective Lipschitz-in-1/alpha envelopes max L/alpha and max J/alpha
    over the same lattice.  Requires alpha >= 1 and unit-box features.
    Returns (axis, risk matrix at alpha, report); axis and matrix equal
    what ``landscape_grid`` returns for [alpha], bit for bit.
    """
    a = canon_alpha(alpha)
    if not a >= 1.0:
        raise ValueError("saturation audit needs alpha >= 1")
    if not data.normalized:
        raise ValueError("saturation envelopes assume unit-box features; normalize the data")
    axis, (r_a, r_inf) = landscape_grid(data, [a, np.inf], radius, grid_size)
    thetas = _lattice_points(axis)
    g_a, g_inf = logistic.risk_gradients(thetas, data, [a, np.inf])
    value_gap = float(np.abs(r_a - r_inf).max())
    value_bound = float((logistic.alpha_lipschitz_risk(thetas) / a).max())
    grad_gap = float(np.linalg.norm(g_a - g_inf, axis=1).max())
    grad_bound = float((logistic.alpha_lipschitz_gradient(thetas) / a).max())
    report = {
        "max_value_gap": value_gap, "max_value_bound": value_bound,
        "max_grad_gap": grad_gap, "max_grad_bound": grad_bound,
        "value_ok": value_gap <= value_bound, "grad_ok": grad_gap <= grad_bound,
    }
    return axis, r_a, report


def lattice_strict_local_minima(values: np.ndarray) -> List[Tuple[int, int]]:
    """Interior lattice points strictly below all eight neighbors, row-major.

    NaN compares false, so a NaN cell is never a minimum nor lets a neighbor be one.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or min(v.shape) < 3:
        return []
    rows, cols = v.shape
    center = v[1:-1, 1:-1]
    strict = np.logical_and.reduce([
        center < v[i : rows - 2 + i, j : cols - 2 + j]
        for i in range(3) for j in range(3) if (i, j) != (1, 1)
    ])
    return [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(strict)]


def single_basin(values: np.ndarray) -> bool:
    """True when every strict 8-neighbor local minimum is the global one."""
    v = np.asarray(values, dtype=float)
    minima = lattice_strict_local_minima(v)
    gi, gj = np.unravel_index(int(np.argmin(v)), v.shape)
    interior = (
        1 <= gi < v.shape[0] - 1 and 1 <= gj < v.shape[1] - 1
    )
    allowed = {(int(gi), int(gj))} if interior else set()
    return set(minima) <= allowed
