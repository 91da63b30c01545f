"""Independent verification oracles used by the test suite.

Deliberately simple: central finite differences, direct enumeration,
Monte-Carlo suprema and a frozen copy of the original gradient-descent
loop, sharing no code path with the library formulas they check.
"""

import numpy as np
from scipy.special import expit


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


def seed_gradient_floor(thetas, X, y, alpha0):
    """Frozen copy of the original slqc-audit gradient floor.

    0.95 times the smallest gradient norm over alpha in {alpha0,
    alpha0 + 0.25, ..., 64, inf}, one full gradient evaluation per alpha.
    """
    grid = list(np.arange(alpha0, 64.0 + 1e-9, 0.25)) + [np.inf]
    norms = np.stack([
        np.linalg.norm(seed_risk_gradient_batch(thetas, X, y, a), axis=1) for a in grid
    ])
    return 0.95 * norms.min(axis=0)
