"""Two-class Gaussian-mixture data, corruption knobs, and the Bayes reference.

A ``GmmSpec`` describes the clean distribution: a prior on the label
Y in {-1, +1} and a Gaussian class-conditional per class.  ``corrupt``
composes the two training-data pathologies studied by the harness:
class imbalance (subsample to exact per-class counts, first) and
asymmetric label flips (second).  Flipped samples keep their provenance
so experiments can audit what the corruption did.

Features are optionally mapped to [0,1]^d through the fixed clipping box
``CLIP_BOX`` (the same affine map for train and test); raw-coordinate
datasets carry ``normalized=False`` and skip the unit-box invariant.

Importing this module loads numpy only, and ``gaussian_linear_error``
takes its Gaussian tails from ``math.erfc``; ``scipy.optimize`` loads on
first use by the fallback of ``bayes_direction`` and ``scipy.stats`` by
the grid of ``bayes_risk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .util import seeded_rng

CLIP_BOX = (-6.0, 6.0)
BAYES_ANGLE_STEP_DEG = 0.25
BAYES_GRID_STEP = 0.01
BAYES_GRID_HALFWIDTH = 8.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GmmSpec:
    """Two-component Gaussian mixture over features in R^d."""

    prior_minus: float
    mean_minus: np.ndarray
    mean_plus: np.ndarray
    cov_minus: np.ndarray
    cov_plus: np.ndarray

    def __post_init__(self):
        for name in ("mean_minus", "mean_plus", "cov_minus", "cov_plus"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not 0.0 < self.prior_minus < 1.0:
            raise ValueError("prior_minus must lie strictly inside (0, 1)")
        d = self.mean_minus.size
        if self.mean_plus.size != d:
            raise ValueError("class means must share a dimension")
        for cov in (self.cov_minus, self.cov_plus):
            if cov.shape != (d, d):
                raise ValueError("covariances must be d x d")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("covariances must be symmetric within 1e-12")
            if np.linalg.eigvalsh(cov).min() < -1e-10:
                raise ValueError("covariances must be positive semi-definite")

    @property
    def dim(self) -> int:
        return self.mean_minus.size

    @property
    def classes(self):
        """(label, prior, mean, covariance) of each class, Y = -1 first."""
        return (
            (-1, self.prior_minus, self.mean_minus, self.cov_minus),
            (1, 1.0 - self.prior_minus, self.mean_plus, self.cov_plus),
        )

    @property
    def shared_covariance(self) -> bool:
        return bool(np.allclose(self.cov_minus, self.cov_plus, rtol=0.0, atol=1e-12))

    @staticmethod
    def symmetric(mean=(1.0, 1.0), cov_scale: float = 1.0) -> "GmmSpec":
        """Balanced mixture with means +/-mean and isotropic covariance."""
        mean = np.asarray(mean, dtype=float)
        eye = cov_scale * np.eye(mean.size)
        return GmmSpec(0.5, -mean, mean, eye, eye)


@dataclass(frozen=True)
class CorruptionSpec:
    """Training-data corruption: per-class subsampling then label flips.

    ``flip_probability`` and ``class_counts`` are ordered (Y=-1, Y=+1);
    ``class_counts=None`` keeps every sample.
    """

    flip_probability: Tuple[float, float] = (0.0, 0.0)
    class_counts: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        for p in self.flip_probability:
            if not 0.0 <= p <= 1.0:
                raise ValueError("flip probabilities must lie in [0, 1]")
        if self.class_counts is not None:
            if len(self.class_counts) != 2 or min(self.class_counts) < 0:
                raise ValueError("class_counts must be two nonnegative integers")
            if max(self.class_counts) == 0:
                raise ValueError("at least one class count must be positive")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature/label pairs with corruption provenance flags."""

    X: np.ndarray
    y: np.ndarray
    flipped: np.ndarray
    origin: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        object.__setattr__(self, "flipped", np.asarray(self.flipped, dtype=bool))
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=int))
        n = self.X.shape[0]
        if self.X.ndim != 2:
            raise ValueError("features must be an (n, d) array")
        if self.y.shape != (n,) or self.flipped.shape != (n,) or self.origin.shape != (n,):
            raise ValueError("labels and provenance flags must have length n")
        if not np.all(np.isin(self.y, (-1, 1))) or not np.all(np.isin(self.origin, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if self.normalized and n and (self.X.min() < -1e-9 or self.X.max() > 1.0 + 1e-9):
            raise ValueError("normalized dataset has coordinates outside [0, 1]")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(
            self.X[idx], self.y[idx], self.flipped[idx], self.origin[idx], self.normalized
        )

    def class_sizes(self) -> Tuple[int, int]:
        return int(np.sum(self.y == -1)), int(np.sum(self.y == 1))


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    # eigh-based square root: works for singular (even zero) covariances
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


def normalize_features(X: np.ndarray) -> np.ndarray:
    """Fixed affine map of raw coordinates into [0,1]^d via ``CLIP_BOX``."""
    lo, hi = CLIP_BOX
    return (np.clip(X, lo, hi) - lo) / (hi - lo)


def sample_gmm(spec: GmmSpec, n: int, seed, normalize: bool = False) -> LabeledDataset:
    """Draw n labeled samples; deterministic given the seed.

    Labels come from the prior; features from the class-conditional
    Gaussian via an eigen square-root transform of standard normals.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    rng = seeded_rng(seed)
    y = np.where(rng.random(n) < spec.prior_minus, -1, 1)
    z = rng.standard_normal((n, spec.dim))
    X = np.empty((n, spec.dim))
    for label, _, mean, cov in spec.classes:
        mask = y == label
        X[mask] = mean + z[mask] @ _psd_factor(cov).T
    if normalize:
        X = normalize_features(X)
    return LabeledDataset(X, y, np.zeros(n, bool), y.copy(), normalized=normalize)


def sample_balanced_gmm(spec: GmmSpec, n_per_class: int, seed) -> LabeledDataset:
    """Exactly n_per_class samples of each label (clean test sets)."""
    rng = seeded_rng(seed)
    X = np.empty((2 * n_per_class, spec.dim))
    y = np.concatenate([-np.ones(n_per_class, int), np.ones(n_per_class, int)])
    for label, _, mean, cov in spec.classes:
        z = rng.standard_normal((n_per_class, spec.dim))
        X[y == label] = mean + z @ _psd_factor(cov).T
    return LabeledDataset(X, y, np.zeros(2 * n_per_class, bool), y.copy())


def corrupt(data: LabeledDataset, spec: CorruptionSpec, seed) -> LabeledDataset:
    """Subsample to the requested per-class counts, then flip labels.

    The clean spec (no flips, counts matching what is available) is the
    identity.  Flipped samples get ``flipped=True`` and keep their
    original class in ``origin``.
    """
    rng = seeded_rng(seed)
    idx_minus = np.flatnonzero(data.y == -1)
    idx_plus = np.flatnonzero(data.y == 1)

    if spec.class_counts is None:
        keep = np.arange(data.n)
    else:
        want_minus, want_plus = spec.class_counts
        if want_minus > idx_minus.size or want_plus > idx_plus.size:
            raise ValueError(
                f"insufficient samples: requested {spec.class_counts}, "
                f"available {(idx_minus.size, idx_plus.size)}"
            )
        parts = []
        for idx, want in ((idx_minus, want_minus), (idx_plus, want_plus)):
            if want == idx.size:
                parts.append(idx)
            else:
                parts.append(np.sort(rng.choice(idx, size=want, replace=False)))
        keep = np.sort(np.concatenate(parts))

    out = data.subset(keep)
    y = out.y.copy()
    flipped = out.flipped.copy()
    for label, p in ((-1, spec.flip_probability[0]), (1, spec.flip_probability[1])):
        if p <= 0.0:
            continue
        mask = (y == label) & (rng.random(out.n) < p)
        y[mask] = -label
        flipped[mask] = True
    return LabeledDataset(out.X, y, flipped, out.origin, out.normalized)


def gaussian_linear_error(spec: GmmSpec, w, offset: float = 0.0) -> float:
    """Exact 0-1 risk of the rule predict +1 iff <w, x> >= offset."""
    w = np.asarray(w, dtype=float)
    if not np.any(w != 0.0):
        raise ValueError("direction must be nonzero")
    err = 0.0
    for label, prior, mean, cov in spec.classes:
        m = float(w @ mean)
        s = float(np.sqrt(max(w @ cov @ w, 0.0)))
        if s == 0.0:
            wrong = (m >= offset) if label == -1 else (m < offset)
            err += prior * float(wrong)
        else:
            # the wrong side's mass Phi(label * u), u = (offset - m) / s,
            # as Phi(x) = erfc(-x / sqrt 2) / 2
            err += prior * (0.5 * math.erfc(-label * ((offset - m) / s) / _SQRT2))
    return err


def bayes_direction(spec: GmmSpec):
    """Best linear rule (unit direction, offset) for the clean mixture.

    Shared covariance: the closed form solve(Sigma, mu_plus - mu_minus)
    with the boundary through the midpoint (prior-shifted if unequal).
    Otherwise a 2-D fallback scans directions every 2 degrees, then
    within 3 degrees of the best at ``BAYES_ANGLE_STEP_DEG`` (0.25)
    resolution, optimizing the offset exactly along each direction.
    """
    if spec.shared_covariance:
        cov = spec.cov_minus
        diff = spec.mean_plus - spec.mean_minus
        try:
            w = np.linalg.solve(cov, diff)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular shared covariance") from exc
        mid = 0.5 * (spec.mean_plus + spec.mean_minus)
        b = float(w @ mid) + np.log(spec.prior_minus / (1.0 - spec.prior_minus))
        nw = np.linalg.norm(w)
        return w / nw, b / nw
    if spec.dim != 2:
        raise ValueError("numeric fallback implemented for d = 2 only")
    from scipy.optimize import minimize_scalar

    def best_offset(phi_deg):
        w = np.array([np.cos(np.radians(phi_deg)), np.sin(np.radians(phi_deg))])
        proj_stats = [(float(w @ mean), float(np.sqrt(max(w @ cov @ w, 1e-30))))
                      for _, _, mean, cov in spec.classes]
        lo = min(m - 6 * s for m, s in proj_stats)
        hi = max(m + 6 * s for m, s in proj_stats)
        res = minimize_scalar(
            lambda b: gaussian_linear_error(spec, w, b), bounds=(lo, hi), method="bounded"
        )
        return w, float(res.x), float(res.fun)

    # coarse sweep, then refine near the incumbent at the fine step
    best = (None, None, np.inf)
    for phi in np.arange(0.0, 360.0, 2.0):
        cand = best_offset(phi)
        if cand[2] < best[2]:
            best, best_phi = cand, phi
    for phi in np.arange(best_phi - 3.0, best_phi + 3.0, BAYES_ANGLE_STEP_DEG):
        cand = best_offset(phi)
        if cand[2] < best[2]:
            best = cand
    return best[0], best[1]


def bayes_risk(spec: GmmSpec) -> float:
    """True Bayes 0-1 risk of the mixture.

    Shared covariance reduces to a 1-D Gaussian tail along the optimal
    linear rule; otherwise a 2-D grid integration of min(p_- f_-, p_+ f_+)
    with step ``BAYES_GRID_STEP`` (0.01) over the square of half-width
    ``BAYES_GRID_HALFWIDTH`` (8) around the midpoint of the class means.
    """
    if spec.shared_covariance:
        w, b = bayes_direction(spec)
        return gaussian_linear_error(spec, w, b)
    if spec.dim != 2:
        raise ValueError("grid integration implemented for d = 2 only")
    from scipy.stats import multivariate_normal

    center = 0.5 * (spec.mean_minus + spec.mean_plus)
    step, half = BAYES_GRID_STEP, BAYES_GRID_HALFWIDTH
    g = np.arange(-half, half + step / 2, step)
    xx, yy = np.meshgrid(center[0] + g, center[1] + g, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dens = np.minimum(*(prior * multivariate_normal(mean, cov).pdf(pts)
                        for _, prior, mean, cov in spec.classes))
    return float(dens.sum() * step**2)

