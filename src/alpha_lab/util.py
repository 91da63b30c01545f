"""Shared plumbing: seeding and the softplus, log-sigmoid and sigmoid kernels."""

from __future__ import annotations

import os

import numpy as np


def derive_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator from a tuple of nonnegative integer keys.

    Identical keys always produce the identical stream, independent of
    process or platform.
    """
    flat = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise ValueError("seed keys must be nonnegative integers")
        flat.append(k)
    return np.random.default_rng(np.random.SeedSequence(flat))


def seeded_rng(seed) -> np.random.Generator:
    """``derive_rng`` of a sampler seed: one integer, or a tuple or list of them."""
    return derive_rng(*(seed if isinstance(seed, (tuple, list)) else (seed,)))


def thread_count() -> int:
    """The machine core count; only ``bench/run.py --trace 1`` reads it."""
    return os.cpu_count() or 1


# log(DBL_MAX) is 709.78: exp overflows above it, while log1p(exp(x)) is x
# to the last bit from about 37 on, so larger arguments are clipped here
# and the clipped part is added back.
_EXP_MAX = 709.0


def _log1p_exp(x: np.ndarray, out: np.ndarray, x_max=None) -> np.ndarray:
    """log(1 + e^x) written into ``out``, which may be ``x``.

    log1p(exp(x)) does not cancel for any x (Maechler 2012, "Accurately
    computing log(1 - exp(-|a|))"), so numpy's vectorized exp and log1p
    give it to about 1 ulp in two passes and no scratch array.  A
    max-reduction that skips NaN routes arrays holding an argument above
    _EXP_MAX, where exp overflows, through a clipped pass.  A caller that
    already holds an upper bound on x passes it as ``x_max``, which
    replaces the reduction.
    """
    if x_max is None:
        x_max = np.fmax.reduce(x, axis=None, initial=-np.inf)
    if x_max > _EXP_MAX:
        excess = np.maximum(x - _EXP_MAX, 0.0)
        out = np.minimum(x, _EXP_MAX, out=out)
        np.exp(out, out)
        np.log1p(out, out)
        out += excess
        return out
    np.exp(x, out)
    return np.log1p(out, out)


def _float_or_array(out):
    """A kernel's result: a 0-d result as a Python float, any other as the array itself."""
    return float(out) if out.ndim == 0 else out


def _out_for(x, out):
    x = np.asarray(x, dtype=float)
    return x, np.empty_like(x) if out is None else out


def softplus(x, out=None):
    """log(1 + e^x) for any real x, written into ``out`` when given.

    ``out`` may be ``x`` itself; a scalar gives a 0-d array.
    """
    x, out = _out_for(x, out)
    return _log1p_exp(x, out)


def log_sigmoid(x, out=None):
    """log of the logistic sigmoid, -log(1 + e^-x), written into ``out`` when given.

    ``out`` may be ``x`` itself; a scalar gives a 0-d array.
    """
    x, out = _out_for(x, out)
    np.negative(x, out=out)
    _log1p_exp(out, out)
    return np.negative(out, out=out)


def sigmoid(x, out=None):
    """Logistic sigmoid 1 / (1 + e^-x), written into ``out`` when given.

    ``out`` may be ``x`` itself; a scalar gives a 0-d array.  Below
    x = -709.78, where the true value is under 2^-1022, it returns 0.
    """
    x, out = _out_for(x, out)
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)
