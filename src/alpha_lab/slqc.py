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

An objective is an ``OracleFunction``: one row-wise value/gradient pair.
Certificate sweeps evaluate many theta per call, and NGD's pointwise
steps are its one-row case.

``evolve_slqc`` maps a certificate at tuning value alpha0 >= 1 to one at
a larger alpha, ``bootstrap_slqc`` takes the infinitesimal-step limit of
that map, and ``bootstrap_sequences`` exposes the underlying finite-N
recursion with its validity horizon.  Both maps take parameter rows
(arrays of per-theta constants), and ``certificate_sweep`` applies both at
every sampled theta and target and checks the results there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import logistic
from .losses import _beta, canon_alpha
from .util import derive_rng, seeded_rng

GRAD_EPS = 1e-12  # "nonzero gradient" threshold against float noise


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
        if not self.learning_rate > 0.0:
            raise ValueError("learning rate must be positive")
        if not self.iterations >= 1:
            raise ValueError("need at least one iteration")


@dataclass
class OracleFunction:
    """Row-wise value/gradient pair over R^d, spot-checked at registration.

    ``values`` maps an (m, d) array of points to their m values and
    ``grads`` to their (m, d) gradients; ``value`` and ``grad`` evaluate
    one point as a one-row call.  At ``check_points`` fixed points (0.1
    times standard normals) the gradient is compared with central
    differences over the rows theta +- 1e-6 I, one ``values`` call per sign.
    """

    values: Callable[[np.ndarray], np.ndarray]
    grads: Callable[[np.ndarray], np.ndarray]
    dim: int
    check_points: int = 3

    def __post_init__(self):
        rng = derive_rng(20211115)
        step = 1e-6 * np.eye(self.dim)
        for _ in range(self.check_points):
            theta = 0.1 * rng.standard_normal(self.dim)
            g = self.grad(theta)
            fd = (self.values(theta + step) - self.values(theta - step)) / 2e-6
            if np.max(np.abs(g - fd)) > 1e-5 * max(1.0, float(np.max(np.abs(g)))):
                raise ValueError("gradient evaluator disagrees with finite differences")

    def value(self, theta) -> float:
        """Value at one point: the one-row case of ``values``."""
        return float(self.values(np.asarray(theta, dtype=float)[None])[0])

    def grad(self, theta) -> np.ndarray:
        """Gradient at one point: the one-row case of ``grads``."""
        return self.grads(np.asarray(theta, dtype=float)[None])[0]


class SlqcCheck(NamedTuple):
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
    gap = np.asarray(f.values(thetas), dtype=float) - f.value(theta0)
    dist = np.linalg.norm(thetas - theta0, axis=1)
    cond1 = gap <= eps
    inside = ~cond1 & (dist <= rho)
    descent = np.flatnonzero(~cond1 & ~inside)
    grad_norm = np.full(m, np.nan)
    inner = np.full(m, np.nan)
    if descent.size:
        G = f.grads(thetas[descent])
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
    values = [f.value(theta)]
    best_theta, best_value = theta.copy(), values[0]
    stopped = False
    while len(values) < config.iterations:
        g = f.grad(theta)
        gn = float(np.linalg.norm(g))
        if gn <= GRAD_EPS:
            stopped = True
            break
        theta = theta - config.learning_rate * g / gn
        if domain is not None:
            theta = logistic.project_to_ball(theta, radius, center)
        v = f.value(theta)
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


def evolution_range(alpha0, grad_norm, J, r, kappa0, eps0):
    """Admissible width of a single evolution step in alpha, per row for arrays."""
    return alpha0**2 * grad_norm / (2.0 * J * (1.0 + r * kappa0 / eps0))


def evolve_slqc(alpha0, eps0, kappa0, grad_norm_at_theta, L, J, r, alpha):
    """Certificate transport from alpha0 to alpha >= alpha0 (single step).

    Returns (epsilon, kappa); requires alpha - alpha0 strictly below the
    admissible width, else raises RangeExceeded carrying the sup.  The
    radius shrinks and epsilon grows:

        eps = eps0 + 2 L (alpha-alpha0)/(alpha alpha0)
        rho = rho0 * (1 - (1 + 2 r kappa0/eps0) J (alpha-alpha0)
                        / (alpha alpha0 ||grad|| - J (alpha-alpha0)))

    Arrays of rows for the gradient norm, L or J give arrays, nan at the
    rows out of range (whose sups are those of ``evolution_range``).
    """
    a0 = float(alpha0)
    a = float(alpha)
    if not (a >= a0 >= 1.0):
        raise ValueError("need alpha >= alpha0 >= 1")
    g, L, J = (np.asarray(v, dtype=float) for v in (grad_norm_at_theta, L, J))
    if not (min(eps0, kappa0, r) > 0.0 and np.all(np.minimum(g, J) > 0.0) and np.all(L >= 0.0)):
        raise ValueError("constants must be positive (L nonnegative)")
    rho0 = eps0 / kappa0
    if rho0 > r:
        raise ValueError("evolution assumes rho0 = eps0/kappa0 <= r")
    sup = evolution_range(a0, g, J, r, kappa0, eps0)
    # rows out of range (all at alpha = inf) may overflow or divide by 0: quietly, as numpy floats
    with np.errstate(all="ignore"):
        eps = eps0 + 2.0 * L * (a - a0) / (a * a0)
        shrink = ((1.0 + 2.0 * r * kappa0 / eps0) * J * (a - a0)) / (a * a0 * g - J * (a - a0))
        rho = rho0 * (1.0 - shrink)
        reached = (a - a0 < sup) & (rho > 0.0)
        eps, kappa = np.where(reached, eps, np.nan), np.where(reached, eps / rho, np.nan)
    if a == a0:
        eps, kappa = np.full_like(eps, eps0), np.full_like(kappa, kappa0)
    if np.ndim(eps) == 0 and np.isnan(eps):
        raise RangeExceeded(float(sup))
    return (eps, kappa) if np.ndim(eps) else (float(eps), float(kappa))


def gradient_floor(thetas, data, alpha0, targets):
    """Gradient norms at alpha0 and, per target t, a lower bound on them over [alpha0, t].

    Returns (grad0, floors): grad0 has one value per row of ``thetas``, with
    the bits of ``risk_gradient_batch`` at alpha0, and floors has shape
    (len(targets), len(thetas)).  [alpha0, t] is the interval that
    ``bootstrap_slqc`` needs for a certificate at t.  One ``risk_gradients``
    call at alpha0 gives grad0, S and J_emp below.  A target below alpha0
    raises ValueError.

    The bound.  The gradient is -(1/n) sum w_beta(z_i) y_i x_i with
    w_beta = g(z)^(1 - beta) g(-z) = exp((1 - beta) log g(z) + log g(-z)),
    so dw/dbeta = -log g(z) w_beta.  Since log g(z) < 0, its size
    |log g(z)| w_beta grows with beta and peaks over [0, 1/alpha0] at
    beta = 1/alpha0, where w is alpha0's weight w_0.  So

        J_emp = (1/n) sum ||x_i|| |log g(z_i)| w_0(z_i)

    is a Lipschitz constant in beta of the gradient, and of its norm, on
    [0, 1/alpha0].  Target t spans beta in [1/t, 1/alpha0], so with
    D_t = J_emp (1/alpha0 - 1/t) every norm there is at least g0 - D_t, and
    the floor is that, minus the rounding term below, and at least 0.

    Rounding.  Let u = 2^-53, S = (1/n) sum ||x_i|| w_0(z_i) and z_max =
    ||theta|| max ||x_i||, which bounds every |z_i|.  To first order in u,
    each computed norm is within rho S of its exact value, and J_emp within
    rho J_emp, where rho = u (2n + (d + 12) c (z_max + 2) + d + 16):
    2n + 4 roundings in the products, their block sums and the mean;
    (d + 12) c (z_max + 2) in each weight, from its margin's d-term
    product, a log-sigmoid pair within 8u each and exp within 4u, with
    |log g(z)| + |log g(-z)| <= |z| + 2 and c = max(1, 1/alpha0) >= |1 - beta|;
    d + 12 in the norm and in J_emp's extra factors.  S bounds the error at
    every beta because w_beta <= w_0.  The floor subtracts 2 rho (S + D_t),
    twice the first-order term, to cover the higher-order ones.
    """
    alpha0 = canon_alpha(alpha0)
    targets = [canon_alpha(t) for t in targets]
    if any(t < alpha0 for t in targets):
        raise ValueError("need alpha >= alpha0 at every target")
    X, y = logistic._as_xy(data)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    (n, d), beta0 = X.shape, _beta(alpha0)
    grads, (s0, j_emp) = logistic.risk_gradients(thetas, (X, y), [alpha0], slope=True)
    grad0 = np.linalg.norm(grads[0], axis=1)
    d_t = j_emp * np.array([beta0 - _beta(t) for t in targets])[:, None]
    z_max = np.linalg.norm(thetas, axis=1) * np.linalg.norm(X, axis=1).max()
    rho = 2.0**-53 * (2 * n + (d + 12) * max(1.0, beta0) * (z_max + 2.0) + d + 16)
    return grad0, np.maximum(grad0 - d_t - 2.0 * rho * (s0 + d_t), 0.0)


def bootstrap_slqc(alpha0, eps0, kappa0, g_lower, L, J, r, lam):
    """Infinitesimal-step (bootstrapped) certificate transport.

    ``g_lower`` is a caller-audited lower bound on the gradient norm at
    theta over [alpha0, alpha_lambda], such as ``gradient_floor``'s for
    the target alpha_lambda.  That interval is enough: the step-1/N
    recursion of ``bootstrap_sequences`` moves alpha_{n-1} to alpha_n =
    alpha_{n-1} + 1/N using the norm at alpha_{n-1} alone, the bootstrapped
    certificate is the limit of those steps up to alpha_lambda, and so only
    the norms on [alpha0, alpha_lambda] enter it.  Returns
    (alpha_lambda, eps_lambda, rho lower bound) for lam in (0, 1):

        alpha_lam = alpha0 + lam * alpha0^2 g / (J (1 + 2 r kappa0/eps0))
        eps_lam   = eps0 + 2 lam L (alpha_lam-alpha0)/(alpha_lam alpha0)
                         * alpha0^2 g / (J (1 + r kappa0/eps0))
        rho_lam   > rho0 (1 - lam)

    The two denominators (1 + 2r kappa0/eps0) vs (1 + r kappa0/eps0) are
    deliberately asymmetric, matching the bound exactly as derived.  Arrays
    of rows for ``g_lower``, L, J or lam give arrays.
    """
    if not np.all((0.0 < lam) & (lam < 1.0)):
        raise ValueError("lambda must lie strictly inside (0, 1)")
    a0 = float(alpha0)
    if not (a0 >= 1.0 and np.isfinite(a0)):
        raise ValueError("alpha0 must be finite and >= 1")
    if not (min(eps0, kappa0, r) > 0.0 and np.all(np.minimum(g_lower, J) > 0.0)
            and np.all(L >= 0.0)):
        raise ValueError("constants must be positive (L nonnegative)")
    rho0 = eps0 / kappa0
    alpha_lam = a0 + lam * a0**2 * g_lower / (J * (1.0 + 2.0 * r / rho0))
    eps_lam = eps0 + (
        2.0 * lam * L * ((alpha_lam - a0) / (alpha_lam * a0))
        * a0**2 * g_lower / (J * (1.0 + r / rho0))
    )
    out = alpha_lam, eps_lam, rho0 * (1.0 - lam)
    return out if np.ndim(alpha_lam) else tuple(float(v) for v in out)


@dataclass(frozen=True)
class BootstrapSequences:
    """Finite-N recursion underlying the bootstrap, with validity horizon."""

    alphas: np.ndarray
    epsilons: np.ndarray
    rhos: np.ndarray
    horizon: int


def bootstrap_sequences(alpha0, eps0, rho0, g, L, J, r, N: int) -> BootstrapSequences:
    """Run the step-1/N recursion for n = 0..N.

        alpha_n = alpha_{n-1} + 1/N
        eps_n   = eps_{n-1} + 2L / (alpha_n alpha_{n-1} N)
        rho_n   = rho_{n-1} - (rho_{n-1} + 2r) J
                  / (alpha_n alpha_{n-1} g - J/N) / N

    The gradient norm is held at its uniform lower bound ``g`` at every
    step (the worst case).  Requires N > J / (alpha0^2 g); rho stays
    positive for all n up to the returned horizon
    floor(rho0/(rho0+2r) * alpha0^2 g/J * N).
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
        alphas[n] = a_cur
        epsilons[n] = epsilons[n - 1] + 2.0 * L / (a_cur * a_prev * N)
        rhos[n] = rhos[n - 1] - (rhos[n - 1] + 2.0 * r) * J / (a_cur * a_prev * g - J / N) / N
    horizon = math.floor(rho0 / (rho0 + 2.0 * r) * a0**2 * g / J * N)
    return BootstrapSequences(alphas, epsilons, rhos, min(horizon, N))


def sample_audit_points(dim: int, radius: float, budget: int = 512, seed=0) -> np.ndarray:
    """Audit sweep points: ``budget // 2`` uniform ball samples, drawn first
    from the seed's stream, then points on concentric spheres.
    """
    rng = seeded_rng(seed)
    n_ball = budget // 2
    u = rng.standard_normal((n_ball, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = radius * rng.random(n_ball) ** (1.0 / dim)
    pts = [u * radii[:, None]]
    n_sph = budget - n_ball
    fractions = (0.25, 0.5, 0.75, 1.0)
    per = [n_sph // len(fractions)] * len(fractions)
    per[-1] += n_sph - sum(per)
    for frac, k in zip(fractions, per):
        v = rng.standard_normal((k, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts.append(frac * radius * v)
    return np.vstack(pts)


@dataclass
class AuditResult:
    checks: List[SlqcCheck]
    n_condition1: int
    n_condition2: int
    n_fails: int


def audit_certificate(f: OracleFunction, cert: SlqcCertificate, thetas, max_workers=None) -> AuditResult:
    """Certificate sweep over sample points, evaluated serially in batches.

    ``max_workers`` is ignored: the sweep no longer runs on a thread pool.
    It stays only because ``bench/run.py`` still passes it; remove it with
    the benchmark's next revision.
    """
    checks = check_slqc_points(f, thetas, cert.theta0, cert.epsilon, cert.rho)
    verdicts = [c.verdict for c in checks]
    return AuditResult(checks, verdicts.count(Verdict.CONDITION_1),
                       verdicts.count(Verdict.CONDITION_2), verdicts.count(Verdict.FAILS))


def risk_oracle(data, alpha, validate: bool = True) -> OracleFunction:
    """Empirical-risk oracle over the dataset at a fixed tuning value.

    Its evaluators call ``risk_batch`` and ``risk_gradient_batch`` on all
    rows at once, and their sample blocks bound the memory; one-row calls
    are those of ``empirical_alpha_risk`` and ``risk_gradient``, bit for bit.
    """
    X, y = logistic._as_xy(data)
    return OracleFunction(
        lambda thetas: logistic.risk_batch(thetas, (X, y), alpha),
        lambda thetas: logistic.risk_gradient_batch(thetas, (X, y), alpha),
        X.shape[1],
        check_points=3 if validate else 0,
    )


def certificate_sweep(data, thetas, theta0, alpha0, eps0, kappa0, r, targets):
    """Evolve and bootstrap (eps0, kappa0, theta0) from alpha0 to each target
    at every row of the (m, d) array thetas, and check the results there.

    Returns ``gradient_floor``'s per-target floors, each row's evolution
    sup, and per target the evolved and the bootstrapped (eps, kappa,
    checks) rows, nan and None where a certificate does not reach the
    target.  Bootstrapping takes the target's floor, a bound over [alpha0,
    target], and the lambda whose alpha_lambda is the target.
    """
    grad0, floors = gradient_floor(thetas, data, alpha0, targets)
    L, J = logistic.alpha_lipschitz_risk(thetas), logistic.alpha_lipschitz_gradient(thetas)
    sweeps = []
    for target, floor in zip(targets, floors):
        evolved = evolve_slqc(alpha0, eps0, kappa0, grad0, L, J, r, target)
        # the inverse of bootstrap_slqc's alpha_lambda: inf or nan at a zero floor
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (target - alpha0) * J * (1.0 + 2.0 * r / (eps0 / kappa0)) / (alpha0**2 * floor)
        b = np.flatnonzero((0.0 < lam) & (lam < 1.0))
        _, e, rho_lb = bootstrap_slqc(alpha0, eps0, kappa0, floor[b], L[b], J[b], r, lam[b])
        booted = np.full((2, len(thetas)), np.nan)
        booted[:, b] = e, e / rho_lb
        oracle = risk_oracle(data, target, validate=False)
        sweeps.append([])
        for eps, kappa in (evolved, booted):
            # one check_slqc_points call at the rows reached, None at the others
            k = ~np.isnan(eps)
            done = iter(check_slqc_points(oracle, thetas[k], theta0, eps[k], eps[k] / kappa[k])
                        if k.any() else ())
            sweeps[-1].append((eps, kappa, [next(done) if hit else None for hit in k.tolist()]))
    return floors, evolution_range(alpha0, grad0, J, r, kappa0, eps0), sweeps
