"""Order-alpha conditional entropy and the minimal-risk identities.

For a discrete joint pmf over (X, Y), the minimal achievable risk of the
tunable loss over all per-x posteriors has a closed form through the
Arimoto conditional entropy, and the unique minimizer is the tilted
posterior proportional to p(y|x)^alpha.  In the binary-margin setting
the same identity appears as the minimum conditional risk, whose
minimizing classification function is alpha * log(eta / (1 - eta)).

One row kernel, ``_row_risks``, computes the minimal risk of a
posterior row and is the only alpha-norm here: the minimal risk weights
it by p(x), the Arimoto entropy follows from that risk through the
identity, and the minimum conditional risk is its value at (eta, 1-eta).
All entropies are in nats.  ``brute_force_minimal_risk`` is a pure
enumeration oracle kept deliberately independent of the closed forms.
"""

from __future__ import annotations

import numpy as np

from .losses import as_pmf, canon_alpha, inverse_sigmoid
from .util import _float_or_array

# Relative tolerance for detecting ties in the argmax set at alpha = inf.
_TIE_RTOL = 1e-12


def as_joint_pmf(table) -> np.ndarray:
    """Validate a joint pmf table indexed by (x symbol, y symbol)."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError("joint pmf must be a nonempty 2-D table")
    return as_pmf(t.ravel()).reshape(t.shape)


def _row_risks(q: np.ndarray, alpha: float) -> np.ndarray:
    """Minimal risk of each row of the row-normalised pmf ``q``: the one alpha-norm.

    Shannon entropy at alpha = 1; 1 - max q at alpha = inf, summed as the
    masses other than the largest so that a small risk keeps its digits;
    otherwise alpha/(1-alpha) * expm1(log ||q||_alpha).  For |alpha - 1| < 1/2 the
    log-norm is log1p(sum q * expm1((alpha-1) * log q)) / alpha, whose
    terms all share one sign, so nothing cancels near alpha = 1; beyond,
    logsumexp keeps large alpha finite.
    """
    from scipy.special import entr, logsumexp

    if alpha == 1.0:
        return entr(q).sum(axis=-1)
    if np.isinf(alpha):
        return np.sort(q, axis=-1)[..., :-1].sum(axis=-1)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    if abs(alpha - 1.0) < 0.5:
        with np.errstate(invalid="ignore"):
            terms = np.where(q > 0.0, q * np.expm1((alpha - 1.0) * logq), 0.0)
        lognorm = np.log1p(terms.sum(axis=-1)) / alpha
    else:
        lognorm = logsumexp(alpha * logq, axis=-1) / alpha
    return alpha / (1.0 - alpha) * np.expm1(lognorm)


def arimoto_conditional_entropy(joint, alpha) -> float:
    """Conditional entropy of order alpha of Y given X, in nats.

    alpha = 1 is the Shannon conditional entropy and alpha = inf is
    -log sum_x max_y P(x, y).  Zero-mass x-rows contribute nothing.
    Computed from the minimal risk R through the identity
    H = alpha/(1-alpha) * log1p((1-alpha)/alpha * R), or -log1p(-R) at inf.
    """
    a = canon_alpha(alpha)
    r = minimal_alpha_risk(joint, a)
    if a == 1.0:
        return r
    if np.isinf(a):
        return float(-np.log1p(-r))
    return float(a / (1.0 - a) * np.log1p((1.0 - a) / a * r))


def minimal_alpha_risk(joint, alpha) -> float:
    """Minimum expected loss over all per-x posteriors (closed form).

    Equals (alpha/(alpha-1)) * (1 - exp(((1-alpha)/alpha) * H_alpha)):
    the p(x)-weighted minimal risks of the posterior rows p(y|x).
    """
    a = canon_alpha(alpha)
    t = as_joint_pmf(joint)
    px = t.sum(axis=1)
    keep = px > 0.0
    return float(px[keep] @ _row_risks(t[keep] / px[keep, None], a))


def tilt_posterior(pmf, alpha) -> np.ndarray:
    """Posterior proportional to p^alpha, the per-x risk minimizer.

    alpha = 1 is the identity; alpha = inf puts uniform mass on the
    argmax set (ties detected at relative tolerance 1e-12).
    """
    a = canon_alpha(alpha)
    p = as_pmf(pmf)
    if a == 1.0:
        return p
    if np.isinf(a):
        top = p.max()
        mask = p >= top * (1.0 - _TIE_RTOL)
        out = np.zeros_like(p)
        out[mask] = 1.0 / mask.sum()
        return out
    # log-domain tilt keeps large alpha from underflowing to an all-zero vector
    with np.errstate(divide="ignore"):
        logw = a * np.log(p)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def binary_entropy(eta: float) -> float:
    """Shannon entropy of a Bernoulli(eta), in nats: the alpha = 1 minimum conditional risk."""
    return float(min_conditional_risk(eta, 1.0))


def min_conditional_risk(eta, alpha):
    """Minimum conditional risk of the margin loss at posterior eta.

    The minimal risk of the pmf (eta, 1-eta): the binary Shannon entropy
    at alpha = 1 and min(eta, 1-eta) at alpha = inf.  Symmetric about
    eta = 1/2 and concave in eta.  Vectorized over eta.
    """
    a = canon_alpha(alpha)
    e = np.asarray(eta, dtype=float)
    if not np.all((e >= 0.0) & (e <= 1.0)):  # NaN fails both comparisons
        raise ValueError("eta must lie in [0, 1]")
    return _float_or_array(_row_risks(np.stack([e, 1.0 - e], axis=-1), a))


def optimal_classifier(eta: float, alpha) -> float:
    """Risk-minimizing classification value alpha * log(eta / (1 - eta)).

    Sign-agrees with the Bayes rule sign(2*eta - 1) for every eta != 1/2.
    eta in {0, 1} gives the -inf/+inf sentinels, as does alpha = inf (the
    calibrated limit direction).
    """
    a = canon_alpha(alpha)
    e = float(eta)
    if not 0.0 <= e <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if e == 0.5:
        return 0.0
    return a * inverse_sigmoid(e)


def _candidate_losses(q: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise loss table for candidate posterior masses q."""
    if alpha == 1.0:
        with np.errstate(divide="ignore"):
            return -np.log(q)
    if np.isinf(alpha):
        return 1.0 - q
    with np.errstate(divide="ignore", over="ignore"):
        powered = np.where(q > 0.0, q ** (1.0 - 1.0 / alpha), 0.0 if alpha > 1.0 else np.inf)
    return alpha / (alpha - 1.0) * (1.0 - powered)


def _simplex_candidates(n_labels: int, step: float, lo=None, hi=None) -> np.ndarray:
    """Lattice of pmfs over n_labels outcomes, optionally boxed per coordinate."""
    if n_labels == 2:
        lo0 = 0.0 if lo is None else max(0.0, lo[0])
        hi0 = 1.0 if hi is None else min(1.0, hi[0])
        k = max(2, int(round((hi0 - lo0) / step)) + 1)
        q0 = np.linspace(lo0, hi0, k)
        return np.stack([q0, 1.0 - q0], axis=1)
    if n_labels == 3:
        lo = [0.0, 0.0] if lo is None else [max(0.0, lo[0]), max(0.0, lo[1])]
        hi = [1.0, 1.0] if hi is None else [min(1.0, hi[0]), min(1.0, hi[1])]
        g0 = np.arange(lo[0], hi[0] + step / 2, step)
        g1 = np.arange(lo[1], hi[1] + step / 2, step)
        q0, q1 = np.meshgrid(g0, g1, indexing="ij")
        q0, q1 = q0.ravel(), q1.ravel()
        keep = q0 + q1 <= 1.0 + 1e-12
        q0, q1 = q0[keep], q1[keep]
        return np.stack([q0, q1, np.clip(1.0 - q0 - q1, 0.0, 1.0)], axis=1)
    raise ValueError("enumeration oracle supports 2 or 3 labels only")


def brute_force_conditional_minimum(weights, alpha, step: float = None, refine: int = 2):
    """Grid-search the per-x minimization min_q sum_y w_y * loss(y, q).

    Pure enumeration over the simplex; after the coarse pass the grid is
    refined around the incumbent (each round shrinks the step by 50x) so
    the returned value is accurate well below 1e-4 even where the
    objective is sharply curved.  Returns (min value, argmin pmf).
    """
    w = np.asarray(weights, dtype=float)
    a = canon_alpha(alpha)
    k = w.size
    if step is None:
        step = 1e-3 if k == 2 else 1e-2
    support = w > 0.0  # zero-weight outcomes must not poison candidates via 0 * inf
    lo = hi = None
    best_q = None
    best_val = np.inf
    for _ in range(refine + 1):
        cand = _simplex_candidates(k, step, lo, hi)
        vals = _candidate_losses(cand[:, support], a) @ w[support]
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_q = cand[i]
        lo = best_q[: max(1, k - 1)] - 3 * step
        hi = best_q[: max(1, k - 1)] + 3 * step
        step /= 50.0
    return best_val, best_q


def brute_force_minimal_risk(joint, alpha, step: float = None, refine: int = 2) -> float:
    """Enumeration oracle for the minimal risk: rowwise simplex search."""
    t = as_joint_pmf(joint)
    total = 0.0
    for row in t:
        if row.sum() <= 0.0:
            continue
        val, _ = brute_force_conditional_minimum(row, alpha, step=step, refine=refine)
        total += val
    return float(total)
