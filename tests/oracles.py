"""Independent verification oracles used by the test suite.

Deliberately simple: central finite differences, direct enumeration,
Monte-Carlo suprema and frozen copies of the original and the 0.2.0
gradient-descent loops, the lattice minimum scan, the original gradient,
margin-loss (and its two derivatives), pointwise risk, gradient and
Hessian, 1/alpha-Lipschitz constants, ball-sampler, population-risk and
Gaussian-error forms, sharing no code path with the library formulas
they check.  The mpmath references evaluate the same
quantities at 60 significant digits and round once to float64;
``mp_exact`` returns such a value unrounded, and so does
``mp_gaussian_linear_error`` for its Gaussian tails.
"""

import functools
import math

import mpmath
import numpy as np
from scipy.special import expit
from scipy.stats import norm

MP_DPS = 60
# float64's smallest normal number: below it an absolute error up to this
# much is one flush of a subnormal result
TINY = 2.0**-1022
# how far the 0.2.0 log-domain kernels may move a frozen 0.1.0 value
FROZEN_RTOL = 1e-13


def central_diff_grad(f, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        g[j] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def central_diff_hessian(grad, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros_like(theta)
        e[j] = h
        H[:, j] = (np.asarray(grad(theta + e)) - np.asarray(grad(theta - e))) / (2.0 * h)
    return 0.5 * (H + H.T)


def scalar_central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def shannon_conditional_entropy(joint):
    """H(Y|X) in nats by direct summation (no library code)."""
    t = np.asarray(joint, dtype=float)
    out = 0.0
    for row in t:
        px = row.sum()
        if px <= 0:
            continue
        for p in row:
            if p > 0:
                out -= p * np.log(p / px)
    return out


def mc_slope_sup(loss_fn, r0, n_pairs, rng):
    """Largest observed |difference quotient| of a scalar function on [-r0, r0]."""
    z1 = rng.uniform(-r0, r0, size=n_pairs)
    z2 = rng.uniform(-r0, r0, size=n_pairs)
    keep = np.abs(z1 - z2) > 1e-12
    z1, z2 = z1[keep], z2[keep]
    return float(np.max(np.abs((loss_fn(z1) - loss_fn(z2)) / (z1 - z2))))


def _seed_gd_weights(Z, y, beta):
    """Signed F1 margin weight of the original GD loop (two branches)."""
    if beta <= 1.0:
        P = expit(Z)
        return -y * P ** (1.0 - beta) * (1.0 - P)
    S = np.logaddexp(0.0, -Z)
    with np.errstate(over="ignore"):
        return -y * np.exp(-Z - (2.0 - beta) * S)


def seed_batched_gd(X, y, alpha, learning_rate=0.01, optimality_parameter=1e-4,
                    max_iterations=200_000, radius=np.inf):
    """Frozen copy of the original batched projected-GD loop.

    Stops only on the raw gradient norm.  Returns (thetas, iterations,
    grad_norms, causes) for the R stacked runs of X (R, n, d), y (R, n).
    """
    R, n, d = X.shape
    beta = 0.0 if np.isinf(alpha) else 1.0 / alpha
    theta_out = np.zeros((R, d))
    iterations = np.zeros(R, dtype=int)
    grad_norms = np.full(R, np.inf)
    done = np.zeros(R, dtype=bool)
    idx = np.arange(R)
    Xw, yw = X, y
    theta = np.zeros((R, d))
    it = 0
    while True:
        Z = np.matmul(Xw, theta[:, :, None])[:, :, 0] * yw
        W = _seed_gd_weights(Z, yw, beta)
        grads = np.matmul(W[:, None, :], Xw)[:, 0, :] / n
        gn = np.sqrt((grads * grads).sum(axis=1))
        if not np.all(np.isfinite(gn)):
            raise FloatingPointError(f"non-finite gradient at iteration {it}")
        newly = gn <= optimality_parameter
        stop = newly | (it >= max_iterations)
        if np.any(stop):
            rows = idx[stop]
            theta_out[rows] = theta[stop]
            iterations[rows] = it
            grad_norms[rows] = gn[stop]
            done[rows] = newly[stop]
            keep = ~stop
            if not np.any(keep):
                break
            idx, Xw, yw, theta, grads = idx[keep], Xw[keep], yw[keep], theta[keep], grads[keep]
        theta -= learning_rate * grads
        if np.isfinite(radius):
            norms = np.linalg.norm(theta, axis=1)
            over = norms > radius
            if np.any(over):
                theta[over] *= (radius / norms[over])[:, None]
        it += 1
    causes = np.where(done, "gradient_tolerance", "max_iterations")
    return theta_out, iterations, grad_norms, causes


# Frozen copies of the 0.2.0 GD loop before its step went in place: the
# same kernels and buffers, a fresh iterate per step and the stop test on
# the gradient norm itself.
_FROZEN_EXP_MAX = 709.0


class FrozenNumericError(RuntimeError):
    """Raised by ``frozen_batched_gd`` where the library raises NumericTrainingError."""

    def __init__(self, iteration, theta):
        self.iteration = iteration
        self.theta = theta
        super().__init__(f"non-finite gradient at iteration {iteration}")


def _frozen_log1p_exp(x, out):
    if x.size and np.fmax.reduce(x, axis=None) > _FROZEN_EXP_MAX:
        excess = np.maximum(x - _FROZEN_EXP_MAX, 0.0)
        out = np.minimum(x, _FROZEN_EXP_MAX, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += excess
        return out
    np.exp(x, out=out)
    return np.log1p(out, out=out)


def _frozen_gd_step_weights(beta):
    """(sign, weights): weights(S, T) overwrites the margins S = sign * z by
    the unsigned F1 weight, with T as scratch."""
    one, clip, power = np.array(1.0), np.array(_FROZEN_EXP_MAX), np.array(beta - 2.0)
    if beta == 1.0:
        def weights(Z, T):
            np.exp(Z, out=Z)
            Z += one
            np.reciprocal(Z, out=Z)
        return 1.0, weights
    if beta < 1.0:
        def weights(M, T):
            np.minimum(M, clip, out=M)
            np.exp(M, out=M)
            np.add(M, one, out=T)
            np.power(T, power, out=T)
            M *= T
        return -1.0, weights

    def weights(M, T):
        _frozen_log1p_exp(M, T)
        T *= power
        M += T
        np.exp(M, out=M)
    return -1.0, weights


def frozen_batched_gd(X, y, alpha, learning_rate=0.01, optimality_parameter=1e-4,
                      max_iterations=200_000, radius=np.inf):
    """Frozen copy of the 0.2.0 batched GD loop with the projected stop test.

    ``alpha`` must already be canonical.  Returns (thetas, reports), one
    (converged, iterations, grad_norm, cause) tuple per run, and raises
    FrozenNumericError on a non-finite gradient.
    """
    R, n, d = X.shape
    sign, weights = _frozen_gd_step_weights(0.0 if np.isinf(alpha) else 1.0 / alpha)
    lr = learning_rate
    lr_op, tol_op, grad_scale = (np.array(v) for v in (lr, optimality_parameter, -sign * n))
    bounded = bool(np.isfinite(radius))
    theta_out = np.zeros((R, d))
    iterations = np.zeros(R, dtype=int)
    grad_norms = np.full(R, np.inf)
    done = np.zeros(R, dtype=bool)

    idx = np.arange(R)
    A = (sign * y)[:, :, None] * X
    margins = np.empty((R, n, 1))
    scratch = np.empty((R, n))
    grad_buf = np.empty((R, 1, d))
    theta = np.zeros((R, d))
    it = 0
    with np.errstate(over="ignore"):
        while True:
            k = len(idx)
            S = np.matmul(A, theta[:, :, None], out=margins[:k])[:, :, 0]
            weights(S, scratch[:k])
            grads = np.matmul(S[:, None, :], A, out=grad_buf[:k])[:, 0, :]
            grads /= grad_scale
            gn = np.sqrt((grads * grads).sum(axis=1))
            if not gn.max() < np.inf:
                bad = int(np.flatnonzero(~np.isfinite(gn))[0])
                raise FrozenNumericError(it, theta[bad])
            grads *= lr_op
            nxt = theta - grads
            stat = gn
            if bounded:
                norms = np.sqrt((nxt * nxt).sum(axis=1))
                over = norms > radius
                if over.any():
                    nxt[over] *= (radius / norms[over])[:, None]
                    moved = theta[over] - nxt[over]
                    stat = gn.copy()
                    stat[over] = np.sqrt((moved * moved).sum(axis=1)) / lr
            newly = stat <= tol_op
            capped = it >= max_iterations
            if capped or newly.any():
                stop = newly | capped
                rows = idx[stop]
                theta_out[rows] = theta[stop]
                iterations[rows] = it
                grad_norms[rows] = stat[stop]
                done[rows] = newly[stop]
                keep = ~stop
                if not keep.any():
                    break
                idx, A, nxt = idx[keep], A[keep], nxt[keep]
            theta = nxt
            it += 1
    reports = [
        (bool(done[r]), int(iterations[r]), float(grad_norms[r]),
         "gradient_tolerance" if done[r] else "max_iterations")
        for r in range(R)
    ]
    return theta_out, reports


def frozen_lattice_strict_local_minima(values):
    """Frozen copy of the per-point lattice minimum scan."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or min(v.shape) < 3:
        return []
    out = []
    for i in range(1, v.shape[0] - 1):
        for j in range(1, v.shape[1] - 1):
            patch = v[i - 1 : i + 2, j - 1 : j + 2]
            neighbors = np.delete(patch.ravel(), 4)
            if np.all(v[i, j] < neighbors):
                out.append((i, j))
    return out


def seed_risk_gradient_batch(thetas, X, y, alpha):
    """Frozen copy of the original batched risk gradient (rows index thetas).

    Recomputes log sigmoid(+-z) = -log(1 + exp(-+z)) on every call.
    """
    beta = 0.0 if np.isinf(alpha) else 1.0 / alpha
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    Z = (X @ thetas.T) * y[:, None]
    with np.errstate(over="ignore"):
        W = np.exp((1.0 - beta) * -np.logaddexp(0.0, -Z) + -np.logaddexp(0.0, Z))
    F1 = -y[:, None] * W
    return (X.T @ F1).T / X.shape[0]


def dense_gradient_norm_min(thetas, X, y, alpha0, target=np.inf, points=1001):
    """Smallest gradient norm over ``points`` values uniform in beta = 1/alpha
    on [1/target, 1/alpha0], per theta, from ``seed_risk_gradient_batch``.

    An upper bound on the minimum over alpha' in [alpha0, target], so a
    lower bound on that minimum must not exceed it.
    """
    norms = [
        np.linalg.norm(seed_risk_gradient_batch(thetas, X, y, np.inf if b == 0.0 else 1.0 / b),
                       axis=1)
        for b in np.linspace(1.0 / alpha0, 1.0 / target, points)
    ]
    return np.min(norms, axis=0)


def seed_margin_alpha_loss(alpha, z):
    """Frozen copy of the original margin loss at one tuning value.

    ``alpha`` must already be canonical (no guard band around 1).
    """
    z = np.asarray(z, dtype=float)
    if alpha == 1.0:
        return np.logaddexp(0.0, -z)
    if np.isinf(alpha):
        return expit(-z)
    with np.errstate(over="ignore"):
        t = (1.0 / alpha - 1.0) * np.logaddexp(0.0, -z)
        return alpha / (alpha - 1.0) * -np.expm1(t)


def seed_margin_loss_derivative(alpha, z):
    """Frozen copy of the original first derivative of the margin loss.

    ``alpha`` must already be canonical; scalar z gives a float.
    """
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = -np.exp((1.0 - b) * -np.logaddexp(0.0, -z) + -np.logaddexp(0.0, z))
    return float(out) if out.ndim == 0 else out


def seed_margin_loss_second_derivative(alpha, z):
    """Frozen copy of the original second derivative (the Hessian weight F2).

    ``alpha`` must already be canonical; scalar z gives a float.
    """
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        scale = np.exp((1.0 - b) * -np.logaddexp(0.0, -z) + -np.logaddexp(0.0, z))
        out = scale * (expit(z) - (1.0 - b) * expit(-z))
    return float(out) if out.ndim == 0 else out


def seed_second_derivative_scale(alpha, z):
    """|F1| * (g(z) + |1 - 1/alpha| * g(-z)): the size of the two terms of F2,
    which cancel near its sign change at z = log(1 - 1/alpha)."""
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    z = np.asarray(z, dtype=float)
    f1 = np.abs(seed_margin_loss_derivative(alpha, z))
    with np.errstate(over="ignore"):
        return f1 * (expit(z) + abs(1.0 - b) * expit(-z))


def seed_risk_gradient_scale(thetas, X, y, alpha):
    """Mean of |F1| * |x| per parameter row and coordinate: the size of the
    terms that the risk gradient sums, which may cancel."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    W = np.abs(seed_margin_loss_derivative(alpha, (X @ thetas.T) * y[:, None]))
    return (np.abs(X).T @ W).T / X.shape[0]


def seed_risk_hessian_scale(theta, X, y, alpha):
    """Mean of the F2 term size times |x| |x|^T: the size of the Hessian's terms."""
    f = seed_second_derivative_scale(alpha, y * (X @ theta))
    return (np.abs(X) * f[:, None]).T @ np.abs(X) / X.shape[0]


def seed_empirical_alpha_risk(theta, X, y, alpha):
    """Frozen copy of the original pointwise empirical risk.

    Margins from one matrix-vector product; ``alpha`` must be canonical.
    """
    return float(np.mean(seed_margin_alpha_loss(alpha, y * (X @ theta))))


def seed_risk_gradient(theta, X, y, alpha):
    """Frozen copy of the original pointwise risk gradient (mean of F1 * x).

    ``alpha`` must be canonical.
    """
    b = 0.0 if np.isinf(alpha) else 1.0 / alpha
    z = y * (X @ theta)
    with np.errstate(over="ignore"):
        w = np.exp((1.0 - b) * -np.logaddexp(0.0, -z) + -np.logaddexp(0.0, z))
    return (X.T @ (-y * w)) / X.shape[0]


def seed_risk_hessian(theta, X, y, alpha):
    """Frozen copy of the original pointwise Hessian (mean of F2 * x x^T, symmetrized).

    ``alpha`` must be canonical.
    """
    f2 = seed_margin_loss_second_derivative(alpha, y * (X @ theta))
    H = (X * f2[:, None]).T @ X / X.shape[0]
    return 0.5 * (H + H.T)


def seed_alpha_lipschitz_risk(theta):
    """Frozen copy of the original L_d(theta) of one parameter vector."""
    s = np.linalg.norm(theta) * np.sqrt(theta.size)
    return float(np.logaddexp(0.0, s) ** 2 / 2.0)


def seed_alpha_lipschitz_gradient(theta):
    """Frozen copy of the original J_d(theta) of one parameter vector."""
    s = np.linalg.norm(theta) * np.sqrt(theta.size)
    return float(np.sqrt(theta.size) * np.logaddexp(0.0, s) * expit(s))


def seed_ball_points(dim, radius, count, seed):
    """Frozen copy of the original uniform draw of ``count`` points in the ball.

    ``seed`` is the tuple of integer keys of the stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(k) for k in seed]))
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return u * radii[:, None]


def seed_population_risks(chunks, thetas, alpha):
    """Frozen copy of the original chunked Monte-Carlo population risk.

    ``chunks`` lists the (X, y) pool arrays of each chunk in draw order;
    every chunk recomputes its margins and losses for this one alpha.
    Returns (mean, standard error) per theta.
    """
    m = thetas.shape[0]
    total = np.zeros(m)
    total_sq = np.zeros(m)
    seen = 0
    for X, y in chunks:
        Z = (X @ thetas.T) * y[:, None].astype(float)
        vals = seed_margin_alpha_loss(alpha, Z)
        total += vals.sum(axis=0)
        total_sq += (vals**2).sum(axis=0)
        seen += X.shape[0]
    mean = total / seen
    var = np.maximum(total_sq / seen - mean**2, 0.0)
    return mean, np.sqrt(var / seen)


def seed_gaussian_linear_error(spec, w, offset=0.0):
    """Frozen form of the exact 0-1 risk of predict +1 iff <w, x> >= offset,
    with the Gaussian tails taken from scipy.stats.norm."""
    w = np.asarray(w, dtype=float)
    err = 0.0
    for prior, mean, cov, label in (
        (spec.prior_minus, spec.mean_minus, spec.cov_minus, -1),
        (1.0 - spec.prior_minus, spec.mean_plus, spec.cov_plus, 1),
    ):
        m = float(w @ mean)
        s = float(np.sqrt(max(w @ cov @ w, 0.0)))
        if s == 0.0:
            wrong = (m >= offset) if label == -1 else (m < offset)
            err += prior * float(wrong)
        elif label == -1:
            err += prior * norm.sf((offset - m) / s)
        else:
            err += prior * norm.cdf((offset - m) / s)
    return float(err)


def mp_gaussian_linear_error(spec, w, offset=0.0):
    """The two terms (prior, u, tail) of the 0-1 risk of predict +1 iff
    <w, x> >= offset, minus class first.

    The projected mean m and spread s are taken in floats as the library
    takes them; u = (offset - m) / s and the wrong side's Gaussian mass,
    Phi(-u) for the minus class and Phi(u) for the plus class, are exact
    at MP_DPS digits and not rounded.  A class with s = 0 is a point mass:
    its u is None and its tail 0 or 1.
    """
    w = np.asarray(w, dtype=float)
    terms = []
    with mpmath.workdps(MP_DPS):
        for prior, mean, cov, sign in (
            (spec.prior_minus, spec.mean_minus, spec.cov_minus, -1),
            (1.0 - spec.prior_minus, spec.mean_plus, spec.cov_plus, 1),
        ):
            m = float(w @ mean)
            s = float(np.sqrt(max(w @ cov @ w, 0.0)))
            if s == 0.0:
                wrong = m >= offset if sign == -1 else m < offset
                terms.append((prior, None, mpmath.mpf(int(wrong))))
            else:
                u = (mpmath.mpf(offset) - mpmath.mpf(m)) / mpmath.mpf(s)
                # mpmath's erfc overflows near |u| = 1e154; beyond 1e6 the
                # tail is 1 at MP_DPS digits or below e^(-5e11), taken as 0
                tail = mpmath.ncdf(sign * u) if abs(u) <= 1e6 else mpmath.mpf(int(sign * u > 0))
                terms.append((prior, u, tail))
    return terms


def _mp_float(fn):
    """``fn`` evaluated on mpf arguments at MP_DPS digits, rounded to a float."""
    @functools.wraps(fn)
    def wrapped(*args):
        with mpmath.workdps(MP_DPS):
            return float(fn(*(mpmath.mpf(v) for v in args)))
    return wrapped


@_mp_float
def mp_softplus(z):
    return mpmath.log1p(mpmath.exp(z))


@_mp_float
def mp_log_sigmoid(z):
    return -mpmath.log1p(mpmath.exp(-z))


@_mp_float
def mp_sigmoid(z):
    return 1 / (1 + mpmath.exp(-z))


def _mp_beta(alpha):
    return mpmath.mpf(0) if mpmath.isinf(alpha) else 1 / alpha


@_mp_float
def mp_margin_alpha_loss(alpha, z):
    """alpha/(alpha-1) * (1 - sigmoid(z)^(1 - 1/alpha)); its limits at alpha = 1 and inf."""
    sp = mpmath.log1p(mpmath.exp(-z))  # -log sigmoid(z)
    if mpmath.isinf(alpha):
        return 1 / (1 + mpmath.exp(z))
    if alpha == 1:
        return sp
    return alpha / (alpha - 1) * -mpmath.expm1(-(alpha - 1) / alpha * sp)


def _mp_f1(alpha, z):
    return mpmath.exp(-(1 - _mp_beta(alpha)) * mpmath.log1p(mpmath.exp(-z))
                      - mpmath.log1p(mpmath.exp(z)))


@_mp_float
def mp_margin_loss_derivative(alpha, z):
    """-sigmoid(z)^(1 - 1/alpha) * sigmoid(-z)."""
    return -_mp_f1(alpha, z)


@_mp_float
def mp_margin_loss_second_derivative(alpha, z):
    """|F1| * (sigmoid(z) - (1 - 1/alpha) * sigmoid(-z))."""
    g, gm = 1 / (1 + mpmath.exp(-z)), 1 / (1 + mpmath.exp(z))
    return _mp_f1(alpha, z) * (g - (1 - _mp_beta(alpha)) * gm)


@_mp_float
def mp_margin_lipschitz_constant(alpha, r0):
    """sup of |l'| over [-r0, r0].  |l'| = sigmoid(z)^(1 - 1/alpha) * sigmoid(-z)
    rises up to its mode log(1 - 1/alpha) (alpha > 1 only) and falls after it,
    so the sup is the larger of its values at -r0 and at an interior mode."""
    mode = mpmath.log1p(-_mp_beta(alpha)) if alpha > 1 else -mpmath.inf
    return max(_mp_f1(alpha, z) for z in (-r0, mode) if z >= -r0)


@_mp_float
def mp_small_radius_admissible_alpha(s):
    """1 / (e^{2s} - e^s): the largest alpha the small-radius modulus covers."""
    return 1 / (mpmath.exp(2 * s) - mpmath.exp(s))


@_mp_float
def mp_small_radius_modulus(alpha, s):
    """sigmoid(-s)^(3 - 1/alpha) * (1 - e^s + e^{-s}/alpha)."""
    return (1 / (1 + mpmath.exp(s))) ** (3 - 1 / alpha) * (
        1 - mpmath.exp(s) + mpmath.exp(-s) / alpha)


@_mp_float
def mp_rademacher_bound(alpha, rd, n, delta):
    """C * 2 rd / sqrt(n) + 4 D * sqrt(2 log(4/delta) / n), with C the sup of |l'|
    and D the sup of l on [-rd, rd], rd = r sqrt(d)."""
    c = mp_margin_lipschitz_constant.__wrapped__(alpha, rd)
    sup = mp_margin_alpha_loss.__wrapped__(alpha, -rd)
    return c * 2 * rd / mpmath.sqrt(n) + 4 * sup * mpmath.sqrt(2 * mpmath.log(4 / delta) / n)


@_mp_float
def mp_uniform_discrepancy_bound(alpha, rd, n, delta):
    """sigmoid(rd) * (2 rd / sqrt(n) + 4 sqrt(2 log(4/delta) / n)) + softplus(rd)^2 / (2 alpha)."""
    base = (2 * rd / mpmath.sqrt(n) + 4 * mpmath.sqrt(2 * mpmath.log(4 / delta) / n)) / (
        1 + mpmath.exp(-rd))
    if mpmath.isinf(alpha):
        return base
    return base + mpmath.log1p(mpmath.exp(rd)) ** 2 / (2 * alpha)


def mp_exact(fn, *args):
    """The value of an ``_mp_float`` function at MP_DPS digits, not rounded."""
    with mpmath.workdps(MP_DPS):
        return fn.__wrapped__(*(mpmath.mpf(v) for v in args))


def meets_mp_bound(got, truth, rtol):
    """``got`` is within ``rtol`` of the unrounded mpmath value ``truth``.

    An infinite ``got`` is right only where |truth| exceeds the largest
    double, with the same sign; where |truth| is below the normal range,
    up to TINY absolute passes.
    """
    with mpmath.workdps(MP_DPS):
        if math.isinf(got):
            return abs(truth) > np.finfo(float).max and (got > 0) == (truth > 0)
        err = abs(mpmath.mpf(got) - truth)
        return bool(err <= rtol * abs(truth) or (abs(truth) < TINY and err <= TINY))


def within_ulps(got, truth, ulps=4):
    """Elementwise: |got - truth| <= ulps units in the last place of truth.

    Where |truth| is below the normal range, up to TINY absolute passes.
    Equal values, infinities included, always pass.
    """
    got, truth = np.asarray(got, dtype=float), np.asarray(truth, dtype=float)
    with np.errstate(invalid="ignore"):
        err = np.abs(got - truth)
        return (got == truth) | (err <= ulps * np.spacing(np.abs(truth))) | (
            (np.abs(truth) < TINY) & (err <= TINY))


def agrees_with_frozen(got, frozen, truth=None, scale=None):
    """Elementwise, over the flattened values: ``got`` is within FROZEN_RTOL
    of the frozen 0.1.0 value, relative to |frozen| or to ``scale``, the
    magnitude of the terms of a form that cancels.

    Where it is not, ``truth(i)`` (the mpmath value of flat element i, when
    given) must be at least as close to ``got`` as to ``frozen``, or within
    TINY of ``got`` where the true value is below the normal range.
    """
    got = np.asarray(got, dtype=float).ravel()
    frozen = np.asarray(frozen, dtype=float).ravel()
    scale = np.abs(frozen) if scale is None else np.asarray(scale, dtype=float).ravel()
    with np.errstate(invalid="ignore"):
        ok = (got == frozen) | (np.abs(got - frozen) <= FROZEN_RTOL * scale)
    if truth is not None:
        for i in np.flatnonzero(~ok):
            t = truth(i)
            err = abs(got[i] - t)
            ok[i] = err <= abs(frozen[i] - t) or (abs(t) < TINY and err <= TINY)
    return ok


def _mp_row_risk(q, alpha):
    """Minimal risk of one pmf row (mpf entries summing to 1)."""
    q = [v for v in q if v > 0]
    if mpmath.isinf(alpha):
        return 1 - max(q)
    if alpha == 1:
        return -mpmath.fsum(v * mpmath.log(v) for v in q)
    norm = mpmath.fsum(v**alpha for v in q) ** (1 / alpha)
    return alpha / (alpha - 1) * (1 - norm)


def _mp_joint_rows(joint):
    """(row mass, p(.|x)) per x-row of positive mass, and the total mass, all
    exact in mpmath.  Dividing by the total renormalises the joint:
    alpha/(1-alpha) would turn a 1e-16 drift of the float sum into a 1e-7
    error of the reference."""
    t = [[mpmath.mpf(float(v)) for v in row] for row in np.asarray(joint, dtype=float)]
    rows = [(mpmath.fsum(row), row) for row in t]
    rows = [(mass, [v / mass for v in row]) for mass, row in rows if mass > 0]
    return rows, mpmath.fsum(mass for mass, _ in rows)


def mp_minimal_alpha_risk(joint, alpha):
    """sum_x p(x) * alpha/(alpha-1) * (1 - ||p(.|x)||_alpha), with the
    Shannon conditional entropy at alpha = 1 and 1 - sum_x max_y P at inf."""
    with mpmath.workdps(MP_DPS):
        a = mpmath.mpf(alpha)
        rows, total = _mp_joint_rows(joint)
        return float(mpmath.fsum(mass * _mp_row_risk(q, a) for mass, q in rows) / total)


def mp_arimoto_conditional_entropy(joint, alpha):
    """alpha/(1-alpha) * log sum_x p(x) ||p(.|x)||_alpha; Shannon at 1, -log sum_x max_y P at inf."""
    if float(alpha) == 1.0:
        return mp_minimal_alpha_risk(joint, alpha)
    with mpmath.workdps(MP_DPS):
        a = mpmath.mpf(alpha)
        rows, total = _mp_joint_rows(joint)
        if mpmath.isinf(a):
            return float(-mpmath.log(mpmath.fsum(mass * max(q) for mass, q in rows) / total))
        s = mpmath.fsum(mass * mpmath.fsum(v**a for v in q) ** (1 / a) for mass, q in rows)
        return float(a / (1 - a) * mpmath.log(s / total))


def mp_min_conditional_risk(eta, alpha):
    """Minimal risk of the pmf (eta, 1 - eta), with 1 - eta exact."""
    with mpmath.workdps(MP_DPS):
        e = mpmath.mpf(float(eta))
        return float(_mp_row_risk([e, 1 - e], mpmath.mpf(alpha)))


def mp_alpha_loss(alpha, label_index, pmf):
    """alpha/(alpha-1) * (1 - p^(1 - 1/alpha)) at the renormalised mass p of the true label."""
    with mpmath.workdps(MP_DPS):
        masses = [mpmath.mpf(float(v)) for v in pmf]
        p = masses[label_index] / mpmath.fsum(masses)
        a = mpmath.mpf(alpha)
        if mpmath.isinf(a):
            return float(1 - p)
        if a == 1:
            return float(-mpmath.log(p))
        return float(a / (a - 1) * -mpmath.expm1((1 - 1 / a) * mpmath.log(p)))
