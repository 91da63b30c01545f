"""Tunable loss family for binary classification.

The family is parameterized by ``alpha`` in (0, inf].  In probabilistic
form the loss of assigning mass ``p`` to the true label is

    (alpha / (alpha - 1)) * (1 - p ** (1 - 1/alpha)),

with log-loss (``alpha = 1``) and ``1 - p`` (``alpha = inf``) as the
continuous extensions; ``alpha = 1/2`` gives ``1/p - 1``.  Composed with
the logistic link this becomes a margin-based loss interpolating the
exponential, logistic and sigmoid losses.  Everything here is a pure
function, vectorized over the margin argument, and evaluated in the
log domain so large negative margins do not overflow.
"""

from __future__ import annotations

import math

import numpy as np

from . import util
from .util import _float_or_array, log_sigmoid, softplus

# Values of alpha this close to 1 are routed to the log-loss branch to
# avoid catastrophic cancellation in alpha/(alpha-1).
ALPHA_ONE_BAND = 1e-9

# Normalization drift below which a probability vector is renormalized
# instead of rejected.
PMF_DRIFT = 1e-9


def canon_alpha(alpha) -> float:
    """Validate a tuning parameter and snap the guard band around 1.

    Accepts any positive float or ``inf``; values within 1e-9 of 1 are
    returned as exactly 1.0.
    """
    a = float(alpha)
    if math.isnan(a) or a <= 0.0:
        raise ValueError(f"alpha must be a positive real or inf, got {alpha!r}")
    if math.isfinite(a) and abs(a - 1.0) <= ALPHA_ONE_BAND:
        return 1.0
    return a


def _beta(alpha: float) -> float:
    """1/alpha with the convention 1/inf = 0."""
    return 0.0 if math.isinf(alpha) else 1.0 / alpha


def as_pmf(masses) -> np.ndarray:
    """Validate a probability mass function over a finite label set.

    Renormalizes when the total mass is within 1e-9 of 1 and rejects
    otherwise; entries must be nonnegative.
    """
    p = np.asarray(masses, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pmf must be a nonempty 1-D array")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("pmf entries must be finite and nonnegative")
    total = p.sum()
    if abs(total - 1.0) > PMF_DRIFT:
        raise ValueError(f"pmf sums to {total}, outside the 1e-9 drift tolerance")
    return p / total


def alpha_loss(alpha, label_index: int, pmf) -> float:
    """Loss of a soft prediction ``pmf`` against the true ``label_index``.

    Raises on a zero-mass true label when ``alpha <= 1`` (the loss
    diverges there); for ``alpha > 1`` the zero-mass value is the finite
    supremum alpha/(alpha-1).
    """
    a = canon_alpha(alpha)
    p = as_pmf(pmf)
    idx = int(label_index)
    if not 0 <= idx < p.size:
        raise IndexError(f"label index {label_index} invalid for {p.size} labels")
    py = p[idx]
    if a <= 1.0 and py <= 0.0:
        raise ValueError("infinite loss: zero mass on the true label with alpha <= 1")
    if np.isinf(a):
        return float(1.0 - py)
    with np.errstate(divide="ignore"):
        sp = np.array(-np.log(py))
    return float(_loss_from_softplus(a, sp, sp))


def _loss_from_softplus(alpha: float, sp, out):
    """Margin loss at a finite canonical ``alpha`` from ``sp = softplus(-z)``.

    ``sp`` itself at alpha = 1; otherwise
    ``-(alpha/(alpha-1)) * expm1((1-alpha)/alpha * sp)``, written into
    ``out``.  The exponent's numerator 1 - alpha is exact near alpha = 1
    (Sterbenz), where ``1/alpha - 1`` would cancel.  Negating the constant
    instead of the array has the same bits, since rounding is symmetric.
    """
    if alpha == 1.0:
        return sp
    with np.errstate(over="ignore"):
        t = np.multiply((1.0 - alpha) / alpha, sp, out)
        np.expm1(t, t)
        return np.multiply(-(alpha / (alpha - 1.0)), t, t)


def margin_alpha_losses(alphas, z, out=None, sp_out=None):
    """Margin losses of ``z`` at each of several tuning values, in order.

    ``softplus(-z)`` is computed once, into ``sp_out`` when given, and
    only when some alpha is finite; alpha = inf is ``sigmoid(-z)``.  Every
    yielded array is either that softplus (alpha = 1, which the caller
    must not modify) or ``out`` (allocated when None), so each is valid
    only until the next one is requested, and ``out`` is free scratch
    once a value is read.
    """
    alphas = [canon_alpha(a) for a in alphas]
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty_like(z)
    sp = None
    if not all(math.isinf(a) for a in alphas):
        sp = softplus(np.negative(z, out=out), out=sp_out)
    for a in alphas:
        if math.isinf(a):
            yield util.sigmoid(np.negative(z, out=out), out=out)
        else:
            yield _loss_from_softplus(a, sp, out)


def margin_alpha_loss(alpha, z):
    """Margin-based form of the loss, vectorized over the margin ``z``.

    ``z = y*f(x)``; +inf margins give 0 loss, -inf margins give the loss
    supremum (alpha/(alpha-1) for alpha > 1, +inf otherwise).
    """
    (out,) = margin_alpha_losses([alpha], z)
    return _float_or_array(out)


def _log_sigmoid_pair(z, lp=None, lm=None):
    """(log g(z), log g(-z)), the alpha-free part of the F1 and F2 weights, written
    into ``lp`` and ``lm`` when given; ``lm`` may be ``z`` (taken after ``lp``)."""
    lm = np.empty_like(z) if lm is None else lm
    return log_sigmoid(z, out=lp), log_sigmoid(np.negative(z, out=lm), out=lm)


def _grad_weights(alpha: float, lp, lm, out=None) -> np.ndarray:
    """|F1| = g(z)^(1-1/alpha) * g(-z) = exp((1-1/alpha) * lp + lm), alpha canonical.

    ``(lp, lm) = _log_sigmoid_pair(z)``; written into ``out``, which is
    allocated when None (0-d for a scalar z).
    """
    if out is None:
        out = np.empty_like(lp)
    np.multiply(lp, 1.0 - _beta(alpha), out=out)
    out += lm
    with np.errstate(over="ignore"):
        return np.exp(out, out=out)


def margin_loss_derivative(alpha, z):
    """First derivative of the margin loss, -|F1|; strictly negative for finite z."""
    z = np.asarray(z, dtype=float)
    out = _grad_weights(canon_alpha(alpha), *_log_sigmoid_pair(z))
    return _float_or_array(np.negative(out, out=out))


def margin_loss_second_derivative(alpha, z):
    """Second derivative of the margin loss, the Hessian weight F2.

    |F1| * (g(z) - (1 - 1/alpha) * g(-z)).  Nonnegative everywhere for
    alpha <= 1; for alpha > 1 it changes sign at z = log(1 - 1/alpha).
    """
    a = canon_alpha(alpha)
    z = np.asarray(z, dtype=float)
    out = _grad_weights(a, *_log_sigmoid_pair(z))
    g = util.sigmoid(z)
    gm = np.empty_like(z)
    util.sigmoid(np.negative(z, out=gm), out=gm)
    gm *= 1.0 - _beta(a)
    g -= gm
    with np.errstate(over="ignore"):
        out *= g
    return _float_or_array(out)


def sigmoid(z):
    """Logistic sigmoid 1 / (1 + e^-z)."""
    return _float_or_array(util.sigmoid(z))


def inverse_sigmoid(p):
    """Logistic link log(p / (1-p)); returns -inf/+inf at p = 0/1."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("inverse sigmoid requires p in [0, 1]")
    with np.errstate(divide="ignore"):
        out = np.log(p) - np.log1p(-p)
    return _float_or_array(out)


def correspondence_gap(alpha, y: int, f_value: float) -> float:
    """|probabilistic loss - margin loss| for a sigmoid soft classifier.

    The two forms agree identically; the returned gap is float noise and
    scales with the loss magnitude (so keep |f| moderate for small alpha
    when asserting absolute tolerances).
    """
    if y not in (-1, 1):
        raise ValueError("label must be -1 or +1")
    f = float(f_value)
    p_plus = float(util.sigmoid(f))
    pmf = np.array([1.0 - p_plus, p_plus])
    idx = 1 if y == 1 else 0
    return abs(alpha_loss(alpha, idx, pmf) - margin_alpha_loss(alpha, y * f))


def margin_lipschitz_constant(alpha, r0: float) -> float:
    """Lipschitz constant of the margin loss over [-r0, r0].

    This is the exact supremum of |derivative| on the interval: the
    stationary point log(1 - 1/alpha) exists only for alpha > 1, and for
    alpha near 1 it falls left of -r0, in which case the supremum is
    attained at the endpoint and the alpha <= 1 expression governs.  The
    two branch formulas therefore agree at alpha = 1 and the constant is
    continuous and non-increasing in alpha.
    """
    a = canon_alpha(alpha)
    r0 = float(r0)
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    boundary = -margin_loss_derivative(a, -r0)
    if a <= 1.0:
        return boundary
    zstar = np.log1p(-1.0 / a) if np.isfinite(a) else 0.0
    if zstar < -r0:
        return boundary
    if np.isinf(a):
        return 0.25
    return float(((a - 1.0) / (2.0 * a - 1.0)) ** (1.0 - 1.0 / a) * (a / (2.0 * a - 1.0)))


def loss_sup_bound(alpha, r_sqrt_d: float) -> float:
    """Supremum of the margin loss over [-r*sqrt(d), r*sqrt(d)].

    The loss is decreasing in the margin, so the supremum is the value at
    the left endpoint; at alpha = 1 this is log(1 + e^{r*sqrt(d)}).
    """
    a = float(r_sqrt_d)
    if a <= 0.0:
        raise ValueError("r_sqrt_d must be positive")
    out, al = float(margin_alpha_loss(alpha, -a)), canon_alpha(alpha)
    if math.isinf(out) and al < 1.0:
        # -expm1(t) overflowed before the factor alpha/(1 - alpha) scaled it down
        t = (1.0 - al) / al * float(softplus(a))
        with np.errstate(over="ignore"):
            return float(np.exp(t + math.log(al / (1.0 - al))))
    return out
