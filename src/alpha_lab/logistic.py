"""Risk, gradient, Hessian and closed-form constants in the logistic model.

The soft classifier is g_theta(x) = sigmoid(<theta, x>) with theta
constrained to the Euclidean ball of radius r and features in [0,1]^d.
The per-sample gradient weight is

    F1 = -y * g(y<theta,x>)^(1 - 1/alpha) * (1 - g(y<theta,x>))

and the Hessian weight is

    F2 = g(z)^(1 - 1/alpha) * g(-z) * (g(z) - (1 - 1/alpha) * g(-z)),

with z the margin.  For alpha <= 1, F2 is bounded below on the ball by
the strong-convexity modulus; a small-radius variant covers a range of
alpha > 1.  The module also exposes the Lipschitz constants in theta and
in 1/alpha that the certificate and generalization machinery consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .datasets import GmmSpec, LabeledDataset, sample_gmm
from .losses import canon_alpha, margin_alpha_loss, margin_lipschitz_constant
from .util import log_sigmoid, softplus

BALL_SLACK = 1e-9


@dataclass(frozen=True)
class ParamVector:
    """Model parameter constrained to the Euclidean ball of radius r."""

    theta: np.ndarray
    radius: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if np.linalg.norm(self.theta) > self.radius + BALL_SLACK:
            raise ValueError(
                f"theta norm {np.linalg.norm(self.theta):.6g} exceeds ball radius {self.radius}"
            )

    @property
    def dim(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class RiskReport:
    """Risk value with first-order (and optionally curvature) diagnostics."""

    risk: float
    gradient: np.ndarray
    gradient_norm: float
    hessian_min_eig: Optional[float] = None


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
    out = expit(x @ th)
    if out.ndim == 0:
        return float(out)
    return out


def margins(theta, X, y):
    return y * (X @ _as_theta(theta))


def empirical_alpha_risk(theta, data, alpha) -> float:
    """Mean loss over the sample, via the margin form."""
    X, y = _as_xy(data)
    z = margins(theta, X, y)
    return float(np.mean(margin_alpha_loss(alpha, z)))


def risk_with_se(theta, data, alpha):
    """(mean, standard error) of the per-sample losses."""
    X, y = _as_xy(data)
    vals = margin_alpha_loss(alpha, margins(theta, X, y))
    n = vals.size
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else np.inf


def population_alpha_risk(theta, alpha, spec: GmmSpec, n_samples: int, seed, normalize=False):
    """Monte-Carlo estimate (mean, standard error) of the population risk."""
    pool = sample_gmm(spec, n_samples, seed, normalize=normalize)
    return risk_with_se(theta, pool, alpha)


def _log_sigmoid_pair(z: np.ndarray):
    """(log g(z), log g(-z)): the alpha-free part of the F1 and F2 weights."""
    return log_sigmoid(z), log_sigmoid(-z)


def _grad_weights(alpha: float, lp: np.ndarray, lm: np.ndarray) -> np.ndarray:
    # |F1| = g(z)^(1-1/alpha) * g(-z), from (lp, lm) = _log_sigmoid_pair(z)
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    with np.errstate(over="ignore"):
        return np.exp((1.0 - b) * lp + lm)


def _curv_weights(alpha: float, z: np.ndarray) -> np.ndarray:
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    scale = _grad_weights(alpha, *_log_sigmoid_pair(z))
    return scale * (expit(z) - (1.0 - b) * expit(-z))


def risk_gradient(theta, data, alpha) -> np.ndarray:
    """Gradient of the empirical risk: mean of F1 * x."""
    a = canon_alpha(alpha)
    X, y = _as_xy(data)
    z = margins(theta, X, y)
    f1 = -y * _grad_weights(a, *_log_sigmoid_pair(z))
    return (X.T @ f1) / X.shape[0]


def risk_gradients(thetas, data, alphas) -> np.ndarray:
    """Gradients at many parameter vectors for each of several tuning values.

    Returns shape (len(alphas), len(thetas), d).  The log-sigmoid pair of
    the margins does not depend on alpha, so it is computed once; only the
    weight exponent and the matmul run per alpha.
    """
    alphas = [canon_alpha(a) for a in alphas]
    X, y = _as_xy(data)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    lp, lm = _log_sigmoid_pair((X @ thetas.T) * y[:, None])
    out = np.empty((len(alphas), thetas.shape[0], X.shape[1]))
    for k, a in enumerate(alphas):
        F1 = -y[:, None] * _grad_weights(a, lp, lm)
        out[k] = (X.T @ F1).T / X.shape[0]
    return out


def risk_gradient_batch(thetas, data, alpha) -> np.ndarray:
    """Gradients at many parameter vectors at once; rows index thetas."""
    return risk_gradients(thetas, data, [alpha])[0]


def risk_batch(thetas, data, alpha) -> np.ndarray:
    """Empirical risk at many parameter vectors at once."""
    X, y = _as_xy(data)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Z = (X @ thetas.T) * y[:, None]
    return margin_alpha_loss(alpha, Z).mean(axis=0)


def risk_hessian(theta, data, alpha) -> np.ndarray:
    """Hessian of the empirical risk: mean of F2 * x x^T (symmetrized)."""
    a = canon_alpha(alpha)
    X, y = _as_xy(data)
    z = margins(theta, X, y)
    f2 = _curv_weights(a, z)
    H = (X * f2[:, None]).T @ X / X.shape[0]
    return 0.5 * (H + H.T)


def hessian_min_eigenvalue(theta, data, alpha) -> float:
    return float(np.linalg.eigvalsh(risk_hessian(theta, data, alpha)).min())


def empirical_second_moment(data) -> np.ndarray:
    """Sigma-hat = mean of x x^T over the sample."""
    X, _ = _as_xy(data)
    return X.T @ X / X.shape[0]


def risk_report(theta, data, alpha, with_hessian: bool = False) -> RiskReport:
    g = risk_gradient(theta, data, alpha)
    return RiskReport(
        risk=empirical_alpha_risk(theta, data, alpha),
        gradient=g,
        gradient_norm=float(np.linalg.norm(g)),
        hessian_min_eig=hessian_min_eigenvalue(theta, data, alpha) if with_hessian else None,
    )


def strong_convexity_modulus(alpha, r_sqrt_d: float) -> float:
    """Lower bound on F2 over the ball, valid for alpha <= 1.

    sigma(a)^(1-1/alpha) * (sigma'(a) - (1 - 1/alpha) * sigma(-a)^2)
    with a = r*sqrt(d); positive, and decreasing in alpha.
    """
    a = canon_alpha(alpha)
    if not a <= 1.0:
        raise ValueError("modulus holds for alpha <= 1; use small_radius_modulus beyond")
    s = float(r_sqrt_d)
    if s <= 0.0:
        raise ValueError("r_sqrt_d must be positive")
    sp = expit(s) * expit(-s)
    lead = np.exp((1.0 - 1.0 / a) * log_sigmoid(s))
    return float(lead * (sp - (1.0 - 1.0 / a) * expit(-s) ** 2))


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
    return float(expit(-s) ** (3.0 - 1.0 / a) * (1.0 - np.exp(s) + np.exp(-s) / a))


def theta_lipschitz_constant(alpha, r: float, d: int) -> float:
    """Lipschitz constant of the risk in theta over the radius-r ball."""
    if r <= 0.0 or d <= 0:
        raise ValueError("r and d must be positive")
    return float(np.sqrt(d)) * margin_lipschitz_constant(alpha, r * np.sqrt(d))


def alpha_lipschitz_risk(theta) -> float:
    """L_d(theta): Lipschitz constant of the risk in 1/alpha on [1, inf]."""
    th = _as_theta(theta)
    s = np.linalg.norm(th) * np.sqrt(th.size)
    return float(softplus(s) ** 2 / 2.0)


def alpha_lipschitz_gradient(theta) -> float:
    """J_d(theta): Lipschitz constant of the risk gradient in 1/alpha."""
    th = _as_theta(theta)
    s = np.linalg.norm(th) * np.sqrt(th.size)
    return float(np.sqrt(th.size) * softplus(s) * expit(s))
