"""Risk, gradient, Hessian and closed-form constants in the logistic model.

The soft classifier is g_theta(x) = sigmoid(<theta, x>) with theta
constrained to the Euclidean ball of radius r and features in [0,1]^d.
The per-sample gradient weight is

    F1 = -y * g(y<theta,x>)^(1 - 1/alpha) * (1 - g(y<theta,x>))

and the Hessian weight is

    F2 = g(z)^(1 - 1/alpha) * g(-z) * (g(z) - (1 - 1/alpha) * g(-z)),

with z the margin; ``losses`` holds the one kernel for each
(``_grad_weights`` and ``margin_loss_second_derivative``).  For
alpha <= 1, F2 is bounded below on the ball by the strong-convexity
modulus; a small-radius variant covers a range of alpha > 1.  The module
also exposes the Lipschitz constants in theta and in 1/alpha that the
certificate and generalization machinery consume.  Pointwise risks and
gradients are one-row cases of ``risks`` and ``risk_gradients``, and the
constants in 1/alpha, L_d and J_d, give one value per parameter row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .losses import (
    _grad_weights,
    _log_sigmoid_pair,
    canon_alpha,
    margin_alpha_losses,
    margin_lipschitz_constant,
    margin_loss_second_derivative,
)
from .util import _float_or_array, sigmoid, softplus

BALL_SLACK = 1e-9
# Margins (samples x parameter rows) per block of a risk or gradient pass:
# each float64 temporary is 256 KB, so the few alive stay in a 2 MB L2.
# Block products take rows * m * d <= 32,768 * d multiply-adds, under
# OpenBLAS's one-thread gemm cutoff 65,536 * 4 for d <= 8, so the bits do
# not depend on the BLAS thread count; gradient blocks count m as at least
# 4, since one row at d = 1 sums by a dot product, threaded above 10,000.
BLOCK_ELEMENTS = 32_768


@dataclass(frozen=True)
class ParamVector:
    """Model parameter constrained to the Euclidean ball of radius r."""

    theta: np.ndarray
    radius: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if np.linalg.norm(self.theta) > self.radius + BALL_SLACK:
            raise ValueError(
                f"theta norm {np.linalg.norm(self.theta):.6g} exceeds ball radius {self.radius}"
            )

    @property
    def dim(self) -> int:
        return self.theta.size


def project_to_ball(theta: np.ndarray, radius: float, center=None) -> np.ndarray:
    """Euclidean projection onto the ball; identity for radius = inf."""
    if not np.isfinite(radius):
        return theta
    c = 0.0 if center is None else center
    offset = theta - c
    nrm = np.linalg.norm(offset)
    if nrm <= radius:
        return theta
    return c + offset * (radius / nrm)


def _as_theta(theta) -> np.ndarray:
    if isinstance(theta, ParamVector):
        return theta.theta
    return np.asarray(theta, dtype=float)


def _as_xy(data):
    if isinstance(data, LabeledDataset):
        X, y = data.X, data.y
    else:
        X, y = data
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    return X, y.astype(float)


def soft_classifier(theta, x):
    """g_theta(x) = sigmoid(<theta, x>); vectorized over rows of x."""
    th = _as_theta(theta)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != th.size:
        raise ValueError(f"dimension mismatch: theta has d={th.size}, x has {x.shape[-1]}")
    return _float_or_array(sigmoid(x @ th))


def empirical_alpha_risk(theta, data, alpha) -> float:
    """Mean loss over the sample: one row of ``risks``."""
    return float(risks(_as_theta(theta), data, [alpha])[0, 0])


def risk_gradient(theta, data, alpha) -> np.ndarray:
    """Gradient of the empirical risk (mean of F1 * x): one row of ``risk_gradients``."""
    return risk_gradients(_as_theta(theta), data, [alpha])[0, 0]


def risk_gradients(thetas, data, alphas, slope=False):
    """Gradients at many parameter vectors for each of several tuning values.

    Returns shape (len(alphas), len(thetas), d).  The samples run in row
    blocks of about BLOCK_ELEMENTS margins, in buffers allocated once per
    call: per block the signed block y_b X_b, one margin product and one
    log-sigmoid pair, which do not depend on alpha, then per alpha the
    weights |F1_b| and one product |F1_b|^T (y_b X_b) subtracted from that
    alpha's running sums, divided by n at the end.  Label signs are exact,
    so these are the bits of the products of the signed weights.

    With ``slope``, also returns shape (2, len(thetas)): the sample means
    of ||x_i|| w_0(z_i) and of ||x_i|| |log g(z_i)| w_0(z_i), where w_0 is
    the first tuning value's weight |F1|, taken from the same blocks.
    """
    alphas = [canon_alpha(a) for a in alphas]
    X, y = _as_xy(data)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    (n, d), m = X.shape, thetas.shape[0]
    rows = min(n, max(1, BLOCK_ELEMENTS // max(m, 4)))
    z, lp, F1 = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, m))
    yx = np.empty((rows, d))
    sums, part = np.zeros((len(alphas), m, d)), np.empty((m, d))
    if slope:
        x_norms = np.linalg.norm(X, axis=1)
        weight_sums = np.zeros((2, m))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        yxb = np.multiply(X[start:stop], y[start:stop, None], out=yx[:stop - start])
        zb = np.matmul(yxb, thetas.T, out=z[:stop - start])
        lpb, lmb = _log_sigmoid_pair(zb, lp[:stop - start], zb)
        for k, a in enumerate(alphas):
            f = _grad_weights(a, lpb, lmb, out=F1[:stop - start])
            sums[k] -= np.matmul(f.T, yxb, out=part)
            if slope and k == 0:
                weight_sums[0] += x_norms[start:stop] @ f
                f *= lpb
                weight_sums[1] -= x_norms[start:stop] @ f
    grads = np.divide(sums, n, out=sums)
    return (grads, np.divide(weight_sums, n, out=weight_sums)) if slope else grads


def risk_gradient_batch(thetas, data, alpha) -> np.ndarray:
    """Gradients at many parameter vectors at once; rows index thetas."""
    return risk_gradients(thetas, data, [alpha])[0]


def _sum_rows(stack: np.ndarray, b: int, first: bool, into: np.ndarray) -> None:
    """Column sums of ``stack[1:b + 1]`` added to the running sums ``into``,
    by way of the carry row ``stack[0]``."""
    if first:
        np.add.reduce(stack[1:b + 1], axis=0, out=into)
    else:
        stack[0] = into
        np.add.reduce(stack[:b + 1], axis=0, out=into)


def _loss_sums(thetas: np.ndarray, X: np.ndarray, y: np.ndarray, alphas, squares=False):
    """Sums over the samples of the margin losses, per tuning value and parameter row.

    Returns shape (1, len(alphas), len(thetas)), or (2, ...) with the sums
    of squared losses when ``squares``.  Signed blocks y_b X_b, as in
    ``risk_gradients``, margin products, losses (their softplus once for
    all alphas) and sums run in row blocks of about BLOCK_ELEMENTS margins
    in reused buffers.  numpy adds the rows of a C-contiguous matrix of two
    or more columns in order, so summing each block below a carry row of
    the running sums gives the bits of one ``sum(axis=0)`` of the stacked
    blocks; one column is summed pairwise and stays one block.
    """
    n, m = X.shape[0], thetas.shape[0]
    rows = n if m < 2 else min(n, max(1, BLOCK_ELEMENTS // m))
    zbuf, yx = np.empty((rows, m)), np.empty((rows, X.shape[1]))
    stack, sp_stack = np.empty((rows + 1, m)), np.empty((rows + 1, m))
    sums = np.empty((1 + bool(squares), len(alphas), m))
    for start in range(0, n, rows):
        b = min(rows, n - start)
        yxb = np.multiply(X[start:start + b], y[start:start + b, None], out=yx[:b])
        z = np.matmul(yxb, thetas.T, out=zbuf[:b])
        body, sp = stack[1:b + 1], sp_stack[1:b + 1]
        for k, vals in enumerate(margin_alpha_losses(alphas, z, out=body, sp_out=sp)):
            # the alpha = 1 losses are the softplus buffer itself
            _sum_rows(sp_stack if vals is sp else stack, b, start == 0, sums[0, k])
            if squares:
                np.square(vals, out=body)
                _sum_rows(stack, b, start == 0, sums[1, k])
    return sums


def risks(thetas, data, alphas) -> np.ndarray:
    """Empirical risks at many parameter vectors for each of several tuning values.

    Returns shape (len(alphas), len(thetas)): the ``_loss_sums`` over n,
    with the bits of ``np.mean`` over the losses of the stacked block margins.
    """
    X, y = _as_xy(data)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    (sums,) = _loss_sums(thetas, X, y, alphas)
    return np.divide(sums, X.shape[0], out=sums)


def risk_batch(thetas, data, alpha) -> np.ndarray:
    """Empirical risk at many parameter vectors at once."""
    return risks(thetas, data, [alpha])[0]


def risk_hessian(theta, data, alpha) -> np.ndarray:
    """Hessian of the empirical risk: mean of F2 * x x^T (symmetrized)."""
    X, y = _as_xy(data)
    z = X @ _as_theta(theta)
    z *= y
    f2 = margin_loss_second_derivative(alpha, z)
    H = (X * f2[:, None]).T @ X / X.shape[0]
    return 0.5 * (H + H.T)


def hessian_min_eigenvalue(theta, data, alpha) -> float:
    return float(np.linalg.eigvalsh(risk_hessian(theta, data, alpha)).min())


def empirical_second_moment(data) -> np.ndarray:
    """Sigma-hat = mean of x x^T over the sample."""
    X, _ = _as_xy(data)
    return X.T @ X / X.shape[0]


def strong_convexity_modulus(alpha, r_sqrt_d: float) -> float:
    """Lower bound on F2 over the ball, valid for alpha <= 1.

    F2 at the largest margin a = r*sqrt(d), that is
    sigma(a)^(1-1/alpha) * (sigma'(a) - (1 - 1/alpha) * sigma(-a)^2);
    positive, and decreasing in alpha.
    """
    a = canon_alpha(alpha)
    if not a <= 1.0:
        raise ValueError("modulus holds for alpha <= 1; use small_radius_modulus beyond")
    s = float(r_sqrt_d)
    if s <= 0.0:
        raise ValueError("r_sqrt_d must be positive")
    return margin_loss_second_derivative(a, s)


SMALL_RADIUS_LIMIT = float(np.arcsinh(0.5))


def small_radius_admissible_alpha(r_sqrt_d: float) -> float:
    """Largest alpha covered by the small-radius modulus at this radius."""
    s = float(r_sqrt_d)
    if not 0.0 < s < SMALL_RADIUS_LIMIT:
        raise ValueError(
            f"outside the small-radius regime: need 0 < r*sqrt(d) < {SMALL_RADIUS_LIMIT:.6f}"
        )
    return float(1.0 / (np.exp(2.0 * s) - np.exp(s)))


def small_radius_modulus(alpha, r_sqrt_d: float) -> float:
    """Curvature lower bound for alpha up to 1/(e^{2a} - e^{a}), a < arcsinh(1/2)."""
    a = canon_alpha(alpha)
    s = float(r_sqrt_d)
    limit = small_radius_admissible_alpha(s)
    if a > limit:
        raise ValueError(
            f"outside the small-radius regime: alpha={a} exceeds admissible bound {limit:.6f}"
        )
    # 1 - e^s + e^{-s}/alpha, written so that it does not cancel as alpha
    # nears the limit 1/(e^s * expm1(s)), where it is zero
    bracket = np.exp(-s) * (1.0 / a - np.exp(s) * np.expm1(s))
    return float(sigmoid(-s) ** (3.0 - 1.0 / a) * bracket)


def theta_lipschitz_constant(alpha, r: float, d: int) -> float:
    """Lipschitz constant of the risk in theta over the radius-r ball."""
    if r <= 0.0 or d <= 0:
        raise ValueError("r and d must be positive")
    return float(np.sqrt(d)) * margin_lipschitz_constant(alpha, r * np.sqrt(d))


def _alpha_lipschitz_args(theta):
    """(sqrt(d), sqrt(d) * ||theta||) per row, each norm that of ``np.linalg.norm``."""
    th = _as_theta(theta)
    sqrt_d = np.sqrt(th.shape[-1])
    return sqrt_d, np.sqrt((th[..., None, :] @ th[..., :, None])[..., 0, 0]) * sqrt_d


def alpha_lipschitz_risk(theta):
    """L_d(theta): Lipschitz constant of the risk in 1/alpha on [1, inf], per row."""
    return _float_or_array(np.square(softplus(_alpha_lipschitz_args(theta)[1])) / 2.0)


def alpha_lipschitz_gradient(theta):
    """J_d(theta): Lipschitz constant of the risk gradient in 1/alpha, per row."""
    sqrt_d, s = _alpha_lipschitz_args(theta)
    return _float_or_array(sqrt_d * softplus(s) * sigmoid(s))
