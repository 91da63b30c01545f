"""Shared plumbing: seeding, stable log-sigmoid helpers."""

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
    """Reads ALPHA_LAB_THREADS; falls back to the machine core count.

    No library code uses it since the certificate sweep became serial;
    ``bench/run.py`` still reports it.  Remove it, and the variable, with
    the benchmark's next revision.
    """
    raw = os.environ.get("ALPHA_LAB_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"ALPHA_LAB_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError("ALPHA_LAB_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def softplus(x):
    """log(1 + e^x), computed without overflow for any real x."""
    return np.logaddexp(0.0, x)


def log_sigmoid(x):
    """log of the logistic sigmoid, i.e. -softplus(-x)."""
    return -np.logaddexp(0.0, -x)
