import numpy as np
import pytest
from scipy.stats import norm

from alpha_lab.bounds import (
    BoundQuery,
    audit_generalization,
    audit_uniform_discrepancy,
    optimality_trend,
    rademacher_bound,
    uniform_discrepancy_bound,
)
from alpha_lab.datasets import GmmSpec, bayes_risk
from alpha_lab.losses import margin_lipschitz_constant, loss_sup_bound
from alpha_lab.util import softplus

SYMMETRIC = GmmSpec.symmetric()


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(alpha=1.0, r=1.0, d=2, n=100, delta=1.5)
    with pytest.raises(ValueError):
        BoundQuery(alpha=-1.0, r=1.0, d=2, n=100, delta=0.1)
    with pytest.raises(ValueError):
        BoundQuery(alpha=1.0, r=0.0, d=2, n=100, delta=0.1)


def test_rademacher_bound_scaling_in_n():
    q1 = BoundQuery(alpha=2.0, r=1.0, d=3, n=250, delta=0.05)
    q4 = BoundQuery(alpha=2.0, r=1.0, d=3, n=1000, delta=0.05)
    assert rademacher_bound(q4) == pytest.approx(rademacher_bound(q1) / 2.0, rel=1e-12)


def test_rademacher_bound_monotone_in_alpha():
    vals = [
        rademacher_bound(BoundQuery(alpha=a, r=1.0, d=2, n=500, delta=0.05))
        for a in (0.5, 1.0, 2.0, 8.0, np.inf)
    ]
    assert np.all(np.diff(vals) <= 1e-12)


def test_rademacher_bound_formula():
    q = BoundQuery(alpha=2.0, r=1.0, d=2, n=400, delta=0.1)
    rd = np.sqrt(2.0)
    expected = margin_lipschitz_constant(2.0, rd) * 2 * rd / 20.0 + 4 * loss_sup_bound(
        2.0, rd
    ) * np.sqrt(2 * np.log(40.0) / 400.0)
    assert rademacher_bound(q) == pytest.approx(expected, rel=1e-12)


def test_uniform_discrepancy_bound_structure():
    q10 = BoundQuery(alpha=10.0, r=1.0, d=2, n=10_000, delta=0.05)
    qinf = BoundQuery(alpha=np.inf, r=1.0, d=2, n=10_000, delta=0.05)
    rd = np.sqrt(2.0)
    sig = 1.0 / (1.0 + np.exp(-rd))
    base = sig * (2 * rd / 100.0 + 4 * np.sqrt(2 * np.log(80.0) / 10_000))
    assert uniform_discrepancy_bound(qinf) == pytest.approx(base, rel=1e-12)
    assert uniform_discrepancy_bound(q10) == pytest.approx(
        base + softplus(rd) ** 2 / 20.0, rel=1e-12
    )
    # decreasing in alpha; undefined below one
    assert uniform_discrepancy_bound(q10) > uniform_discrepancy_bound(
        BoundQuery(alpha=20.0, r=1.0, d=2, n=10_000, delta=0.05)
    )
    with pytest.raises(ValueError):
        uniform_discrepancy_bound(BoundQuery(alpha=0.5, r=1.0, d=2, n=100, delta=0.05))


def test_generalization_audit_small():
    q = BoundQuery(alpha=1.0, r=1.0, d=2, n=300, delta=0.2)
    audit = audit_generalization(SYMMETRIC, q, trials=5, n_theta=50, pop_n=100_000, seed=1)
    assert audit.pass_fraction == 1.0
    assert np.all(audit.measured >= 0.0 - 1e-12)


def test_uniform_discrepancy_audit_small():
    q = BoundQuery(alpha=10.0, r=1.0, d=2, n=300, delta=0.2)
    audit = audit_uniform_discrepancy(SYMMETRIC, q, trials=5, n_theta=50, pop_n=100_000, seed=2)
    assert audit.pass_fraction == 1.0


def test_bayes_risk_of_symmetric_spec():
    assert bayes_risk(SYMMETRIC) == pytest.approx(norm.sf(np.sqrt(2.0)), rel=1e-12)


def test_optimality_trend_near_separable_sanity():
    from alpha_lab.training import TrainConfig

    spec = GmmSpec.symmetric(mean=(3.0, 3.0), cov_scale=0.01)
    # separable data: the direction settles long before the gradient-norm
    # stop would fire, so cap the iteration budget
    cfg = TrainConfig(max_iterations=3000)
    trend = optimality_trend(spec, 1.0, n_grid=[400], runs=3, config=cfg, seed=5)
    assert trend.mean_gap[0] <= 1e-2
    assert trend.converged[0] + trend.capped[0] == 3
    assert trend.bayes == pytest.approx(norm.sf(np.sqrt(18.0) / 0.1), abs=1e-12)


def test_optimality_trend_reports_conditionality():
    trend = optimality_trend(SYMMETRIC, 1.0, n_grid=[50, 200], runs=3, seed=6)
    assert "conditional" in trend.conditional
    assert len(trend.ns) == 2 and trend.mean_gap.shape == (2,)
