"""Strictly-local-quasi-convexity certificates and normalized gradient descent.

A certificate (epsilon, kappa, theta0) asserts, pointwise at theta, that
either the value gap f(theta) - f(theta0) is at most epsilon, or the
negative gradient points into every point of the ball of radius
rho = epsilon/kappa around theta0.  The second condition is checked
through its scalar reformulation

    <-grad f(theta), theta0 - theta>  >=  rho * ||grad f(theta)||,

which is equivalent whenever ||theta - theta0|| > rho; inside that ball
the value condition is forced (ball containment), so a large gap there
is a genuine violation.

``evolve_slqc`` maps a certificate at tuning value alpha0 >= 1 to one at
a larger alpha, ``bootstrap_slqc`` takes the infinitesimal-step limit of
that map, and ``bootstrap_sequences`` exposes the underlying finite-N
recursion with its validity horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from . import logistic
from .util import derive_rng

GRAD_EPS = 1e-12  # "nonzero gradient" threshold against float noise
# Margins (theta rows x samples) per batched risk-oracle call.  Each float64
# temporary of a block is 256 KB, so the few alive at once stay in a 2 MB L2
# cache, and a large sweep's memory does not grow with its point count.
AUDIT_BLOCK_ELEMENTS = 32_768


class Verdict(Enum):
    CONDITION_1 = "condition1"
    CONDITION_2 = "condition2"
    FAILS = "fails"


@dataclass(frozen=True)
class SlqcCertificate:
    """(epsilon, kappa, theta0) with the derived radius rho = epsilon/kappa."""

    epsilon: float
    kappa: float
    theta0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        if not (self.epsilon > 0.0 and self.kappa > 0.0):
            raise ValueError("epsilon and kappa must be positive")

    @property
    def rho(self) -> float:
        return self.epsilon / self.kappa


@dataclass(frozen=True)
class NgdConfig:
    """Learning rate, iteration budget, and the starting iterate."""

    learning_rate: float
    iterations: int
    theta1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta1", np.asarray(self.theta1, dtype=float))
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class OracleFunction:
    """Value/gradient pair over R^d, spot-checked at registration.

    The gradient is compared against central finite differences at a few
    fixed points.  ``values`` and ``grads`` are optional batch evaluators:
    given an (m, d) array of points they return the m values and the
    (m, d) gradients, and they must agree with ``value`` and ``grad``
    (checked at the same points).  Without them, ``values_at`` and
    ``grads_at`` loop over the pointwise evaluators.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int
    check_points: int = 3
    check_scale: float = 0.1
    values: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grads: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        rng = derive_rng(20211115)
        for _ in range(self.check_points):
            theta = self.check_scale * rng.standard_normal(self.dim)
            g = np.asarray(self.grad(theta), dtype=float)
            fd = finite_difference_gradient(self.value, theta)
            if np.max(np.abs(g - fd)) > 1e-5 * max(1.0, float(np.max(np.abs(g)))):
                raise ValueError("gradient evaluator disagrees with finite differences")
            if self.values is None and self.grads is None:
                continue
            v, gb = self.values_at(theta[None])[0], self.grads_at(theta[None])[0]
            if not (np.isclose(v, self.value(theta), rtol=1e-9, atol=1e-12)
                    and np.allclose(gb, g, rtol=1e-9, atol=1e-12)):
                raise ValueError("batch evaluators disagree with the pointwise ones")

    def values_at(self, thetas: np.ndarray) -> np.ndarray:
        """Values at the rows of an (m, d) array."""
        if self.values is not None:
            return np.asarray(self.values(thetas), dtype=float)
        return np.array([self.value(t) for t in thetas], dtype=float)

    def grads_at(self, thetas: np.ndarray) -> np.ndarray:
        """Gradients at the rows of an (m, d) array, shape (m, d)."""
        if self.grads is not None:
            return np.asarray(self.grads(thetas), dtype=float)
        out = np.empty((len(thetas), self.dim))
        for k, t in enumerate(thetas):
            out[k] = self.grad(t)
        return out


def finite_difference_gradient(f, theta: np.ndarray, step: float = 1e-6) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = step
        out[j] = (f(theta + e) - f(theta - e)) / (2.0 * step)
    return out


@dataclass(frozen=True)
class SlqcCheck:
    verdict: Verdict
    value_gap: float
    distance: float
    rho: float
    grad_norm: Optional[float] = None
    inner_product: Optional[float] = None
    detail: str = ""


def check_slqc_points(f: OracleFunction, thetas, theta0, epsilon, rho) -> List[SlqcCheck]:
    """Pointwise certificate verdicts at the rows of thetas, with witness data.

    Row k is checked against the certificate with value slack
    ``epsilon[k]``, radius ``rho[k]`` and reference point ``theta0``;
    scalar ``epsilon`` or ``rho`` apply to every row.  f(theta0) is
    evaluated once, and gradients only at the rows whose value gap
    exceeds epsilon outside the rho-ball.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    theta0 = np.asarray(theta0, dtype=float)
    if thetas.shape[1] != theta0.size:
        raise ValueError("theta and theta0 dimensions differ")
    m = thetas.shape[0]
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (m,))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (m,))
    if not (np.all(eps > 0.0) and np.all(rho > 0.0)):
        raise ValueError("epsilon and rho must be positive")
    gap = f.values_at(thetas) - f.values_at(theta0[None])[0]
    dist = np.linalg.norm(thetas - theta0, axis=1)
    cond1 = gap <= eps
    inside = ~cond1 & (dist <= rho)
    descent = np.flatnonzero(~cond1 & ~inside)
    grad_norm = np.full(m, np.nan)
    inner = np.full(m, np.nan)
    if descent.size:
        G = f.grads_at(thetas[descent])
        grad_norm[descent] = np.linalg.norm(G, axis=1)
        inner[descent] = -np.sum(G * (theta0 - thetas[descent]), axis=1)

    checks = []
    for c1, ins, g_k, d_k, e_k, r_k, gn_k, ip_k in zip(
        cond1.tolist(), inside.tolist(), gap.tolist(), dist.tolist(), eps.tolist(),
        rho.tolist(), grad_norm.tolist(), inner.tolist(),
    ):
        if c1:
            checks.append(SlqcCheck(Verdict.CONDITION_1, g_k, d_k, r_k))
        elif ins:
            checks.append(SlqcCheck(
                Verdict.FAILS, g_k, d_k, r_k,
                detail=f"inside the rho-ball (dist {d_k:.3g} <= rho {r_k:.3g}) the value "
                       f"condition is required, but gap {g_k:.3g} > epsilon {e_k:.3g}",
            ))
        elif gn_k <= GRAD_EPS:
            checks.append(SlqcCheck(
                Verdict.FAILS, g_k, d_k, r_k, gn_k, None,
                detail="gradient vanishes while the value gap exceeds epsilon",
            ))
        elif ip_k >= r_k * gn_k:
            checks.append(SlqcCheck(Verdict.CONDITION_2, g_k, d_k, r_k, gn_k, ip_k))
        else:
            checks.append(SlqcCheck(
                Verdict.FAILS, g_k, d_k, r_k, gn_k, ip_k,
                detail=f"descent inequality violated: <-grad, theta0-theta> = {ip_k:.6g} "
                       f"< rho*||grad|| = {r_k * gn_k:.6g}",
            ))
    return checks


def check_slqc_at(f: OracleFunction, theta, cert: SlqcCertificate) -> SlqcCheck:
    """Pointwise certificate verdict at theta, with witness data."""
    th = np.reshape(logistic._as_theta(theta), (1, -1))
    return check_slqc_points(f, th, cert.theta0, cert.epsilon, cert.rho)[0]


@dataclass
class NgdResult:
    best_theta: np.ndarray
    best_value: float
    values: List[float]
    iterations: int
    stopped_early: bool


def ngd(f: OracleFunction, config: NgdConfig, domain=None) -> NgdResult:
    """Normalized gradient descent returning the best visited iterate.

    Updates are theta - lr * grad/||grad||; a zero-gradient iterate stops
    the run early (best-so-far is returned).  ``domain=(center, radius)``
    projects every update back onto the ball.  Ties in the best value go
    to the earliest iterate.
    """
    theta = config.theta1.astype(float).copy()
    if domain is not None:
        center, radius = np.asarray(domain[0], dtype=float), float(domain[1])
        theta = logistic.project_to_ball(theta, radius, center)
    values = [float(f.value(theta))]
    best_theta, best_value = theta.copy(), values[0]
    stopped = False
    while len(values) < config.iterations:
        g = np.asarray(f.grad(theta), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= GRAD_EPS:
            stopped = True
            break
        theta = theta - config.learning_rate * g / gn
        if domain is not None:
            theta = logistic.project_to_ball(theta, radius, center)
        v = float(f.value(theta))
        values.append(v)
        if v < best_value:
            best_theta, best_value = theta.copy(), v
    return NgdResult(best_theta, best_value, values, len(values), stopped)


def ngd_iteration_bound(cert: SlqcCertificate, start_distance: float) -> int:
    """ceil(kappa^2 * dist^2 / epsilon^2), at least 1."""
    if start_distance < 0.0:
        raise ValueError("distance must be nonnegative")
    t = (cert.kappa * start_distance / cert.epsilon) ** 2
    return max(1, math.ceil(t))


class RangeExceeded(Exception):
    """Requested target alpha is beyond the admissible evolution range."""

    def __init__(self, admissible_sup: float):
        self.admissible_sup = admissible_sup
        super().__init__(f"target alpha outside admissible range (sup alpha0 + {admissible_sup:.6g})")


def evolution_range(alpha0, grad_norm, J, r, kappa0, eps0) -> float:
    """Admissible width of a single evolution step in alpha."""
    return alpha0**2 * grad_norm / (2.0 * J * (1.0 + r * kappa0 / eps0))


def evolve_slqc(alpha0, eps0, kappa0, grad_norm_at_theta, L, J, r, alpha):
    """Certificate transport from alpha0 to alpha >= alpha0 (single step).

    Returns (epsilon, kappa); requires alpha - alpha0 strictly below the
    admissible width, else raises RangeExceeded carrying the sup.  The
    radius shrinks and epsilon grows:

        eps = eps0 + 2 L (alpha-alpha0)/(alpha alpha0)
        rho = rho0 * (1 - (1 + 2 r kappa0/eps0) J (alpha-alpha0)
                        / (alpha alpha0 ||grad|| - J (alpha-alpha0)))
    """
    a0 = float(alpha0)
    a = float(alpha)
    if not (a >= a0 >= 1.0):
        raise ValueError("need alpha >= alpha0 >= 1")
    if min(eps0, kappa0, grad_norm_at_theta, J, r) <= 0.0 or L < 0.0:
        raise ValueError("constants must be positive (L nonnegative)")
    rho0 = eps0 / kappa0
    if rho0 > r:
        raise ValueError("evolution assumes rho0 = eps0/kappa0 <= r")
    if a == a0:
        return float(eps0), float(kappa0)
    sup = evolution_range(a0, grad_norm_at_theta, J, r, kappa0, eps0)
    if a - a0 >= sup:
        raise RangeExceeded(sup)
    eps = eps0 + 2.0 * L * (a - a0) / (a * a0)
    shrink = ((1.0 + 2.0 * r * kappa0 / eps0) * J * (a - a0)) / (
        a * a0 * grad_norm_at_theta - J * (a - a0)
    )
    rho = rho0 * (1.0 - shrink)
    if not rho > 0.0:
        raise RangeExceeded(sup)
    return float(eps), float(eps / rho)


def bootstrap_slqc(alpha0, eps0, kappa0, g_lower, L, J, r, lam):
    """Infinitesimal-step (bootstrapped) certificate transport.

    ``g_lower`` is a caller-audited lower bound on the gradient norm at
    theta over all alpha' >= alpha0.  Returns
    (alpha_lambda, eps_lambda, rho lower bound) for lam in (0, 1):

        alpha_lam = alpha0 + lam * alpha0^2 g / (J (1 + 2 r kappa0/eps0))
        eps_lam   = eps0 + 2 lam L (alpha_lam-alpha0)/(alpha_lam alpha0)
                         * alpha0^2 g / (J (1 + r kappa0/eps0))
        rho_lam   > rho0 (1 - lam)

    The two denominators (1 + 2r kappa0/eps0) vs (1 + r kappa0/eps0) are
    deliberately asymmetric, matching the bound exactly as derived.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly inside (0, 1)")
    a0 = float(alpha0)
    if not (a0 >= 1.0 and np.isfinite(a0)):
        raise ValueError("alpha0 must be finite and >= 1")
    if min(eps0, kappa0, g_lower, J, r) <= 0.0 or L < 0.0:
        raise ValueError("constants must be positive (L nonnegative)")
    rho0 = eps0 / kappa0
    alpha_lam = a0 + lam * a0**2 * g_lower / (J * (1.0 + 2.0 * r / rho0))
    eps_lam = eps0 + (
        2.0 * lam * L * ((alpha_lam - a0) / (alpha_lam * a0))
        * a0**2 * g_lower / (J * (1.0 + r / rho0))
    )
    return float(alpha_lam), float(eps_lam), float(rho0 * (1.0 - lam))


@dataclass(frozen=True)
class BootstrapSequences:
    """Finite-N recursion underlying the bootstrap, with validity horizon."""

    alphas: np.ndarray
    epsilons: np.ndarray
    rhos: np.ndarray
    horizon: int


def bootstrap_sequences(
    alpha0, eps0, rho0, g, L, J, r, N: int,
    grad_norm_fn: Optional[Callable[[float], float]] = None,
) -> BootstrapSequences:
    """Run the step-1/N recursion for n = 0..N.

        alpha_n = alpha_{n-1} + 1/N
        eps_n   = eps_{n-1} + 2L / (alpha_n alpha_{n-1} N)
        rho_n   = rho_{n-1} - (rho_{n-1} + 2r) J
                  / (alpha_n alpha_{n-1} G_{n-1} - J/N) / N

    ``G_{n-1}`` is the gradient norm at the current alpha when
    ``grad_norm_fn`` is given, else the uniform lower bound ``g`` (the
    worst case).  Requires N > J / (alpha0^2 g); rho stays positive for
    all n up to the returned horizon floor(rho0/(rho0+2r) * alpha0^2 g/J * N).
    """
    a0 = float(alpha0)
    if min(eps0, rho0, g, J, r) <= 0.0 or L < 0.0 or a0 < 1.0:
        raise ValueError("constants must be positive with alpha0 >= 1")
    N = int(N)
    n_min = J / (a0**2 * g)
    if not N > n_min:
        raise ValueError(f"N must exceed J/(alpha0^2 g) = {n_min:.6g}")
    alphas = np.empty(N + 1)
    epsilons = np.empty(N + 1)
    rhos = np.empty(N + 1)
    alphas[0], epsilons[0], rhos[0] = a0, eps0, rho0
    for n in range(1, N + 1):
        a_prev = alphas[n - 1]
        a_cur = a_prev + 1.0 / N
        G = g if grad_norm_fn is None else float(grad_norm_fn(a_prev))
        alphas[n] = a_cur
        epsilons[n] = epsilons[n - 1] + 2.0 * L / (a_cur * a_prev * N)
        rhos[n] = rhos[n - 1] - (rhos[n - 1] + 2.0 * r) * J / (a_cur * a_prev * G - J / N) / N
    horizon = math.floor(rho0 / (rho0 + 2.0 * r) * a0**2 * g / J * N)
    return BootstrapSequences(alphas, epsilons, rhos, min(horizon, N))


def sample_audit_points(dim: int, radius: float, budget: int = 512, seed=0, center=None) -> np.ndarray:
    """Audit sweep points: uniform ball samples plus concentric spheres."""
    rng = derive_rng(*((seed,) if isinstance(seed, int) else tuple(seed)))
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    n_ball = budget // 2
    pts = []
    u = rng.standard_normal((n_ball, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = radius * rng.random(n_ball) ** (1.0 / dim)
    pts.append(c + u * radii[:, None])
    n_sph = budget - n_ball
    fractions = (0.25, 0.5, 0.75, 1.0)
    per = [n_sph // len(fractions)] * len(fractions)
    per[-1] += n_sph - sum(per)
    for frac, k in zip(fractions, per):
        v = rng.standard_normal((k, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts.append(c + frac * radius * v)
    return np.vstack(pts)


@dataclass
class AuditResult:
    checks: List[SlqcCheck]
    n_condition1: int
    n_condition2: int
    n_fails: int

    @property
    def violations(self) -> int:
        return self.n_fails


def audit_certificate(f: OracleFunction, cert: SlqcCertificate, thetas, max_workers=None) -> AuditResult:
    """Certificate sweep over sample points, evaluated serially in batches.

    ``max_workers`` is ignored: the sweep no longer runs on a thread pool.
    It stays only because ``bench/run.py`` still passes it; remove it with
    the benchmark's next revision.
    """
    checks = check_slqc_points(f, thetas, cert.theta0, cert.epsilon, cert.rho)
    counts = {v: 0 for v in Verdict}
    for c in checks:
        counts[c.verdict] += 1
    return AuditResult(
        checks, counts[Verdict.CONDITION_1], counts[Verdict.CONDITION_2], counts[Verdict.FAILS]
    )


def _in_blocks(fn, thetas: np.ndarray, rows: int, *args) -> np.ndarray:
    """fn(block, *args) over consecutive row blocks of thetas, results stacked."""
    if thetas.shape[0] <= rows:
        return fn(thetas, *args)
    return np.concatenate([fn(thetas[i:i + rows], *args) for i in range(0, thetas.shape[0], rows)])


def risk_oracle(data, alpha, validate: bool = True) -> OracleFunction:
    """Empirical-risk oracle over the dataset at a fixed tuning value.

    Its batch evaluators process theta in blocks of at most
    ``AUDIT_BLOCK_ELEMENTS`` margins.
    """
    X, y = logistic._as_xy(data)
    rows = max(1, AUDIT_BLOCK_ELEMENTS // X.shape[0])

    def value(theta):
        return logistic.empirical_alpha_risk(theta, (X, y), alpha)

    def grad(theta):
        return logistic.risk_gradient(theta, (X, y), alpha)

    def values(thetas):
        return _in_blocks(logistic.risk_batch, thetas, rows, (X, y), alpha)

    def grads(thetas):
        return _in_blocks(logistic.risk_gradient_batch, thetas, rows, (X, y), alpha)

    return OracleFunction(
        value, grad, X.shape[1], check_points=3 if validate else 0, values=values, grads=grads
    )
