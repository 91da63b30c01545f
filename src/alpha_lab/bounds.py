"""Uniform generalization bounds and their empirical audits.

The high-probability bound on |population risk - empirical risk| over
the radius-r parameter ball combines the margin Lipschitz constant with
the loss supremum:

    C(alpha) * 2 r sqrt(d) / sqrt(n) + 4 D(alpha) * sqrt(2 log(4/delta) / n).

A companion bound controls the uniform discrepancy between the empirical
risk at finite alpha >= 1 and the population risk at alpha = inf, with a
saturation term (log sigmoid(-r sqrt(d)))^2 / (2 alpha) that vanishes as
alpha grows.  Population risks are Monte-Carlo estimates; audits subtract
three standard errors from the measured side before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import logistic
from .datasets import GmmSpec, bayes_risk, gaussian_linear_error, sample_gmm
from .losses import canon_alpha, loss_sup_bound, margin_lipschitz_constant
from .training import TrainConfig, _batched_gd
from .slqc import sample_audit_points
from .util import sigmoid, softplus

_STREAM_POP = 701
_STREAM_THETA = 702
_STREAM_TRIAL = 703
_STREAM_TREND = 704

# Population samples per Monte-Carlo chunk.  A chunk is the unit of the
# random draw (each has its own seed), so the draws depend on this value;
# evaluation runs in smaller row blocks inside each chunk.
POP_CHUNK = 50_000


@dataclass(frozen=True)
class BoundQuery:
    """Everything a uniform bound depends on: alpha, ball, sample, confidence."""

    alpha: float
    r: float
    d: int
    n: int
    delta: float

    def __post_init__(self):
        canon_alpha(self.alpha)
        if not 0.0 < self.r < np.inf:
            raise ValueError(f"r must be finite and positive, got {self.r!r}")
        for name in ("d", "n"):
            value = getattr(self, name)
            if not (value >= 1 and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def rademacher_bound(q: BoundQuery) -> float:
    """Two-term uniform deviation bound; decreasing in n like 1/sqrt(n)."""
    a = canon_alpha(q.alpha)
    rd = q.r * np.sqrt(q.d)
    c = margin_lipschitz_constant(a, rd)
    d_sup = loss_sup_bound(a, rd)
    root = np.sqrt(2.0 * np.log(4.0 / q.delta) / q.n)
    with np.errstate(over="ignore"):
        bound = c * 2.0 * rd / np.sqrt(q.n) + 4.0 * d_sup * root
        if bound == np.inf:  # c * 2 * rd or 4 * d_sup may overflow where the bound does not
            bound = c * (2.0 * rd / np.sqrt(q.n)) + d_sup * (4.0 * root)
    return float(bound)


def uniform_discrepancy_bound(q: BoundQuery) -> float:
    """Bound on sup |empirical risk at alpha - population risk at inf|.

    Defined for alpha >= 1; the saturation term is proportional to
    1/alpha and vanishes at alpha = inf.
    """
    a = canon_alpha(q.alpha)
    if not a >= 1.0:
        raise ValueError("uniform discrepancy bound requires alpha >= 1")
    rd = q.r * np.sqrt(q.d)
    sig = float(sigmoid(rd))
    base = sig * (2.0 * rd / np.sqrt(q.n) + 4.0 * np.sqrt(2.0 * np.log(4.0 / q.delta) / q.n))
    saturation = 0.0 if np.isinf(a) else float(softplus(rd) ** 2 / (2.0 * a))
    return float(base + saturation)


def _population_risks(thetas: np.ndarray, spec: GmmSpec, alphas, pop_n: int, seed):
    """Chunked Monte-Carlo population risks and their standard errors.

    Rows index ``alphas`` and columns index ``thetas``.  Chunk b of the
    pool is drawn from seed ``(*seed, b)``.  Each chunk's loss sums and
    sums of squares come from one ``logistic._loss_sums`` pass, which
    evaluates the chunk in cache-sized row blocks, with the margins and
    their softplus computed once for every alpha.
    """
    totals = np.zeros((2, len(alphas), thetas.shape[0]))
    for block, start in enumerate(range(0, pop_n, POP_CHUNK)):
        pool = sample_gmm(spec, min(POP_CHUNK, pop_n - start), seed=(*seed, block), normalize=True)
        totals += logistic._loss_sums(thetas, pool.X, pool.y, alphas, squares=True)
    total, total_sq = totals
    mean = total / pop_n
    var = np.maximum(total_sq / pop_n - mean**2, 0.0)
    se = np.sqrt(var / pop_n)
    return mean, se


@dataclass
class GeneralizationAudit:
    """Per-trial measured sup deviations against the bound."""

    alpha: float
    bound: float
    measured: np.ndarray       # per trial: sup_theta (|gap| - 3 SE)
    passed: np.ndarray
    pass_fraction: float


def population_groups(queries: Sequence[BoundQuery]) -> Dict[Tuple[int, float], List[int]]:
    """Query indices by (d, r): the queries of one group share one population pass.

    The audited parameter vectors depend only on the ball, and the pool
    only on the mixture, its size and the seed.
    """
    groups: Dict[Tuple[int, float], List[int]] = {}
    for i, q in enumerate(queries):
        groups.setdefault((q.d, float(q.r)), []).append(i)
    return groups


def _run_audits(spec, jobs, trials, n_theta, pop_n, seed) -> List[GeneralizationAudit]:
    """One audit per (query, population alpha, bound) job, in job order.

    Each trial compares the empirical risk at the query's alpha with the
    population risk at the job's alpha, both over the same parameter
    vectors; one Monte-Carlo pass per (d, r) group serves all its jobs.
    Trial t's dataset depends only on n and t, so within a group it is
    drawn once per (n, t) and scored at every member alpha in one call.
    """
    for name, value in (("trials", trials), ("n_theta", n_theta), ("pop_n", pop_n)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    audits: List[Optional[GeneralizationAudit]] = [None] * len(jobs)
    for (d, r), members in population_groups([q for q, _, _ in jobs]).items():
        if d != spec.dim:
            raise ValueError(f"query dimension d={d} differs from the mixture's {spec.dim}")
        # the audited vectors are the uniform-ball half of a 2 * n_theta audit sweep
        thetas = sample_audit_points(d, r, 2 * n_theta, (seed, _STREAM_THETA))[:n_theta]
        pop_alphas = list(dict.fromkeys(canon_alpha(jobs[i][1]) for i in members))
        pop, pop_se = _population_risks(thetas, spec, pop_alphas, pop_n, (seed, _STREAM_POP))
        by_n: Dict[int, List[int]] = {}
        for i in members:
            by_n.setdefault(jobs[i][0].n, []).append(i)
        for n, idx in by_n.items():
            rows = [pop_alphas.index(canon_alpha(jobs[i][1])) for i in idx]
            measured = np.zeros((len(idx), trials))
            for t in range(trials):
                data = sample_gmm(spec, n, seed=(seed, _STREAM_TRIAL, t), normalize=True)
                emp = logistic.risks(thetas, data, [jobs[i][0].alpha for i in idx])
                for j, k in enumerate(rows):
                    measured[j, t] = np.max(np.abs(emp[j] - pop[k]) - 3.0 * pop_se[k])
            for j, i in enumerate(idx):
                q, _, bound = jobs[i]
                passed = measured[j] <= bound
                audits[i] = GeneralizationAudit(
                    q.alpha, bound, measured[j], passed, float(passed.mean())
                )
    return audits


def audit_generalizations(
    spec: GmmSpec,
    queries: Sequence[BoundQuery],
    trials: int,
    n_theta: int = 200,
    pop_n: int = 1_000_000,
    seed: int = 0,
) -> List[GeneralizationAudit]:
    """Measure sup_theta |empirical - population risk| for each query.

    Features are mapped to the unit box (the bound's contract).  Each
    trial draws a fresh n-sample dataset; the population side is one
    shared Monte-Carlo estimate with per-theta standard errors, and three
    standard errors of slack are subtracted from the measured gap.
    Queries sharing (d, r) share one population pool.  Returns one audit
    per query, in query order.
    """
    jobs = [(q, q.alpha, rademacher_bound(q)) for q in queries]
    return _run_audits(spec, jobs, trials, n_theta, pop_n, seed)


def audit_uniform_discrepancy(
    spec: GmmSpec,
    query: BoundQuery,
    trials: int,
    n_theta: int = 200,
    pop_n: int = 1_000_000,
    seed: int = 0,
) -> GeneralizationAudit:
    """Measure sup_theta |empirical risk at alpha - population risk at inf|."""
    job = (query, np.inf, uniform_discrepancy_bound(query))
    return _run_audits(spec, [job], trials, n_theta, pop_n, seed)[0]


@dataclass
class TrendResult:
    """Excess 0-1 risk of trained predictors as the sample size grows.

    The check is conditional on the linear model attaining the minimal
    risk for the data distribution; ``conditional`` records that caveat.
    ``converged`` and ``capped`` count, per sample size, the runs whose
    training met the stop rule and those that hit the iteration cap, and
    ``iterations`` sums their GD iterations.
    """

    alpha: float
    ns: List[int]
    mean_gap: np.ndarray
    se_gap: np.ndarray
    bayes: float
    converged: np.ndarray
    capped: np.ndarray
    iterations: np.ndarray
    conditional: str = (
        "trend is conditional on the linear model attaining the minimal risk; "
        "this assumption is not verified"
    )

    def non_increasing_within_se(self) -> bool:
        for i in range(len(self.ns) - 1):
            tol = float(np.hypot(self.se_gap[i], self.se_gap[i + 1]))
            if self.mean_gap[i + 1] > self.mean_gap[i] + tol:
                return False
        return True


def optimality_trend(
    spec: GmmSpec,
    alpha,
    n_grid: Sequence[int],
    runs: int,
    config: Optional[TrainConfig] = None,
    seed: int = 0,
) -> TrendResult:
    """Train empirical-risk minimizers at each n and report 0-1 excess risk.

    The 0-1 risk of each trained linear predictor is computed exactly via
    the Gaussian projection of the mixture, and compared with the Bayes
    risk of the clean distribution.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    a = canon_alpha(alpha)
    cfg = replace(config or TrainConfig(), alpha=a)
    rstar = bayes_risk(spec)
    mean_gap = np.zeros(len(n_grid))
    se_gap = np.zeros(len(n_grid))
    converged = np.zeros(len(n_grid), dtype=int)
    iterations = np.zeros(len(n_grid), dtype=int)
    for i, n in enumerate(n_grid):
        datasets = [
            sample_gmm(spec, int(n), seed=(seed, _STREAM_TREND, i, r)) for r in range(runs)
        ]
        X = np.stack([d.X for d in datasets])
        y = np.stack([d.y for d in datasets]).astype(float)
        thetas, reports = _batched_gd(X, y, cfg)
        converged[i] = sum(rep.converged for rep in reports)
        iterations[i] = sum(rep.iterations for rep in reports)
        gaps = np.array(
            [gaussian_linear_error(spec, th, 0.0) - rstar for th in thetas]
        )
        mean_gap[i] = gaps.mean()
        se_gap[i] = gaps.std(ddof=1) / np.sqrt(runs) if runs > 1 else np.inf
    return TrendResult(
        a, [int(n) for n in n_grid], mean_gap, se_gap, float(rstar),
        converged, runs - converged, iterations,
    )
