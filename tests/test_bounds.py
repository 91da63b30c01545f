import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from alpha_lab import bounds
from alpha_lab.bounds import (
    BoundQuery,
    audit_generalizations,
    audit_uniform_discrepancy,
    optimality_trend,
    population_groups,
    rademacher_bound,
    uniform_discrepancy_bound,
)
from alpha_lab.datasets import GmmSpec, bayes_risk, sample_gmm
from alpha_lab.losses import loss_sup_bound, margin_alpha_losses, margin_lipschitz_constant
from alpha_lab.util import softplus

from oracles import (
    agrees_with_frozen,
    meets_mp_bound,
    mp_exact,
    mp_rademacher_bound,
    mp_uniform_discrepancy_bound,
    seed_ball_points,
    seed_margin_alpha_loss,
    seed_population_risks,
)

SYMMETRIC = GmmSpec.symmetric()


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(alpha=1.0, r=1.0, d=2, n=100, delta=1.5)
    with pytest.raises(ValueError):
        BoundQuery(alpha=-1.0, r=1.0, d=2, n=100, delta=0.1)
    for bad in ({"r": 0.0}, {"r": math.nan}, {"r": math.inf}, {"d": 2.9}, {"n": 500.5}):
        with pytest.raises(ValueError):
            BoundQuery(**{"alpha": 1.0, "r": 1.0, "d": 2, "n": 100, "delta": 0.1, **bad})
    # an integral float is an integer
    q = BoundQuery(alpha=1.0, r=1.0, d=2.0, n=100.0, delta=0.1)
    assert (q.d, q.n) == (2, 100) and type(q.d) is type(q.n) is int


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


BOUND_ALPHAS = [1.0 + 2e-9, 1.0 - 2e-9, 1.0 + 1e-7, 1.0 - 1e-7, 0.3, 8.0, 1e6, np.inf]
EPS = np.finfo(float).eps


def rademacher_rtol(rd):
    # C and D each meet 4 eps max(1, rd) at the double rd (tests/test_losses.py);
    # the products, quotients and roots that combine them, and numpy's log
    # (4 ulps, conditioned by 1/log(4/delta) < 1), add less than 8 eps
    return 4.0 * EPS * max(1.0, rd) + 8.0 * EPS


# sigmoid and softplus within 4 ulps (tests/test_losses.py), the softplus
# squared, plus the log and seven roundings of the arithmetic
UNIFORM_RTOL = 16.0 * EPS


def _query_and_rd(alpha, rd, d, n, delta):
    """The query whose radius r sqrt(d) is rd up to rounding, and that radius
    as the library forms it: its rounding is the input's, not the bound's."""
    r = rd / math.sqrt(d)
    return BoundQuery(alpha=alpha, r=r, d=d, n=n, delta=delta), r * math.sqrt(d)


_BOUND_INPUTS = dict(
    # rd up to 300: from about 305 on the alpha = 0.3 bound exceeds DBL_MAX (see below)
    rd=st.floats(1e-3, 300.0), d=st.integers(1, 64), n=st.integers(1, 10**9),
    delta=st.floats(1e-12, 1.0 - 1e-9),
)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from(BOUND_ALPHAS), **_BOUND_INPUTS)
@example(alpha=0.3, rd=300.0, d=1, n=10**9, delta=1e-12)
@example(alpha=1.0 - 2e-9, rd=1e-3, d=64, n=1, delta=1.0 - 1e-9)
@example(alpha=np.inf, rd=300.0, d=3, n=7, delta=0.05)
def test_rademacher_bound_matches_mpmath(alpha, rd, d, n, delta):
    q, rd = _query_and_rd(alpha, rd, d, n, delta)
    truth = mp_exact(mp_rademacher_bound, alpha, rd, n, delta)
    assert meets_mp_bound(rademacher_bound(q), truth, rademacher_rtol(rd)), (
        rademacher_bound(q), truth)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from(BOUND_ALPHAS), **_BOUND_INPUTS)
@example(alpha=1.0 + 2e-9, rd=300.0, d=1, n=1, delta=1e-12)
@example(alpha=1e6, rd=1e-3, d=64, n=10**9, delta=1.0 - 1e-9)
def test_uniform_discrepancy_bound_matches_mpmath(alpha, rd, d, n, delta):
    q, rd = _query_and_rd(alpha, rd, d, n, delta)
    if alpha < 1.0:
        with pytest.raises(ValueError):
            uniform_discrepancy_bound(q)
        return
    truth = mp_exact(mp_uniform_discrepancy_bound, alpha, rd, n, delta)
    assert meets_mp_bound(uniform_discrepancy_bound(q), truth, UNIFORM_RTOL), (
        uniform_discrepancy_bound(q), truth)


def test_rademacher_bound_is_inf_beyond_dbl_max():
    # at alpha = 0.3 both terms exceed DBL_MAX from about rd = 305 on, whatever n
    for n in (1, 10**9):
        q, rd = _query_and_rd(0.3, 800.0, 4, n, 0.05)
        assert mp_exact(mp_rademacher_bound, 0.3, rd, n, 0.05) > np.finfo(float).max
        with np.errstate(over="ignore"):
            assert rademacher_bound(q) == np.inf


def test_rademacher_bound_finite_where_only_its_intermediates_overflow():
    # c * 2 * rd and 4 * d_sup exceed DBL_MAX here; the bound, 6.6e304 to 7.0e306, does not
    for rd in (302.0, 303.0, 304.0):
        q, rd = _query_and_rd(0.3, rd, 1, 10**8, 0.05)
        truth = mp_exact(mp_rademacher_bound, 0.3, rd, 10**8, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert meets_mp_bound(rademacher_bound(q), truth, rademacher_rtol(rd))


def test_generalization_audit_small():
    q = BoundQuery(alpha=1.0, r=1.0, d=2, n=300, delta=0.2)
    (audit,) = audit_generalizations(SYMMETRIC, [q], trials=5, n_theta=50, pop_n=100_000, seed=1)
    assert audit.pass_fraction == 1.0
    assert np.all(audit.measured >= 0.0 - 1e-12)


def test_uniform_discrepancy_audit_small():
    q = BoundQuery(alpha=10.0, r=1.0, d=2, n=300, delta=0.2)
    audit = audit_uniform_discrepancy(SYMMETRIC, q, trials=5, n_theta=50, pop_n=100_000, seed=2)
    assert audit.pass_fraction == 1.0


def _seed_pool_chunks(pop_n, seed, chunk=50_000):
    """The pool arrays of each chunk, drawn as the population pass draws them."""
    chunks = []
    for block, start in enumerate(range(0, pop_n, chunk)):
        pool = sample_gmm(SYMMETRIC, min(chunk, pop_n - start), seed=(*seed, block), normalize=True)
        chunks.append((pool.X, pool.y))
    return chunks


def test_population_risks_bit_identical_to_seed_form():
    # 120,001 draws: two full chunks and a partial one; alpha 2 appears twice
    thetas = seed_ball_points(2, 1.0, 40, (3, 5))
    seed = (3, bounds._STREAM_POP)
    alphas = [0.5, 1.0, 2.0, 10.0, np.inf, 2.0]
    chunks = _seed_pool_chunks(120_001, seed)
    assert [len(X) for X, _ in chunks] == [50_000, 50_000, 20_001]
    mean, se = bounds._population_risks(thetas, SYMMETRIC, alphas, 120_001, seed)
    assert mean.shape == se.shape == (len(alphas), 40)
    for k, a in enumerate(alphas):
        ref_mean, ref_se = seed_population_risks(chunks, thetas, a)
        assert agrees_with_frozen(mean[k], ref_mean).all()
        # the variance E[l^2] - E[l]^2 cancels near theta = 0, where the loss
        # is nearly constant: an error of E[l^2] ulps moves se by this much
        se_scale = (ref_mean**2 + 120_001 * ref_se**2) / (120_001 * ref_se)
        assert agrees_with_frozen(se[k], ref_se, scale=se_scale).all()
    assert np.array_equal(mean[2], mean[5]) and np.array_equal(se[2], se[5])
    # an alpha = inf-only pass skips the softplus and agrees bit for bit
    mean_inf, se_inf = bounds._population_risks(thetas, SYMMETRIC, [np.inf], 120_001, seed)
    assert np.array_equal(mean_inf, mean[[4]]) and np.array_equal(se_inf, se[[4]])


def _unblocked_population_risks(thetas, spec, alphas, pop_n, seed):
    """The population pass before row blocks: per chunk, one margin matrix
    and one loss matrix per alpha, each summed over the whole chunk."""
    total = np.zeros((len(alphas), thetas.shape[0]))
    total_sq = np.zeros_like(total)
    seen = 0
    block = 0
    while seen < pop_n:
        k = min(bounds.POP_CHUNK, pop_n - seen)
        pool = sample_gmm(spec, k, seed=(*seed, block), normalize=True)
        Z = pool.X @ thetas.T
        np.multiply(Z, pool.y[:, None], out=Z)
        buf = np.empty_like(Z)
        for i, vals in enumerate(margin_alpha_losses(alphas, Z, out=buf)):
            total[i] += vals.sum(axis=0)
            total_sq[i] += np.square(vals, out=buf).sum(axis=0)
        seen += k
        block += 1
    mean = total / seen
    var = np.maximum(total_sq / seen - mean**2, 0.0)
    return mean, np.sqrt(var / seen)


@pytest.mark.parametrize("m, d", [(1, 2), (2, 2), (100, 2), (37, 5)])
def test_population_risks_bit_identical_to_unblocked_pass(m, d):
    # 60,001 draws: a full chunk and a ragged one; the row blocks and the
    # carry rows of the loss sums change no bit of the means or the errors
    spec = SYMMETRIC if d == 2 else GmmSpec(0.4, -0.3 * np.ones(d), 0.5 * np.ones(d),
                                            np.eye(d), 2.0 * np.eye(d))
    thetas = seed_ball_points(d, 1.0, m, (4, 6))
    seed = (4, bounds._STREAM_POP)
    alphas = [0.65, 1.0, 4.0, np.inf, 1.0]
    got = bounds._population_risks(thetas, spec, alphas, 60_001, seed)
    ref = _unblocked_population_risks(thetas, spec, alphas, 60_001, seed)
    for g, r in zip(got, ref):
        assert g.shape == (len(alphas), m) and g.tobytes() == r.tobytes()


def _seed_audit(query, pop_alpha, trials, n_theta, pop_n, seed):
    """The original per-query audit loop on the oracle population risks.

    Returns the measured gaps and, per trial, the size of the terms whose
    difference they are: the gap cancels where the empirical and the
    population risk nearly agree.
    """
    thetas = seed_ball_points(query.d, query.r, n_theta, (seed, bounds._STREAM_THETA))
    chunks = _seed_pool_chunks(pop_n, (seed, bounds._STREAM_POP))
    pop, pop_se = seed_population_risks(chunks, thetas, pop_alpha)
    measured = np.zeros(trials)
    scale = np.zeros(trials)
    for t in range(trials):
        data = sample_gmm(SYMMETRIC, query.n, seed=(seed, bounds._STREAM_TRIAL, t), normalize=True)
        Z = (data.X @ thetas.T) * data.y[:, None]
        emp = seed_margin_alpha_loss(query.alpha, Z).mean(axis=0)
        measured[t] = np.max(np.abs(emp - pop) - 3.0 * pop_se)
        scale[t] = np.max(np.abs(emp) + np.abs(pop) + 3.0 * pop_se)
    return measured, scale


def test_grouped_audits_match_one_query_audits_and_seed_form():
    # shuffled queries over two balls, mixed sample sizes, alpha 2 twice
    queries = [
        BoundQuery(alpha=2.0, r=1.0, d=2, n=300, delta=0.2),
        BoundQuery(alpha=np.inf, r=0.5, d=2, n=200, delta=0.2),
        BoundQuery(alpha=0.5, r=1.0, d=2, n=200, delta=0.1),
        BoundQuery(alpha=1.0, r=0.5, d=2, n=300, delta=0.2),
        BoundQuery(alpha=2.0, r=1.0, d=2, n=100, delta=0.2),
        BoundQuery(alpha=10.0, r=0.5, d=2, n=100, delta=0.2),
    ]
    assert list(population_groups(queries).values()) == [[0, 2, 4], [1, 3, 5]]
    kw = dict(trials=3, n_theta=30, pop_n=60_001, seed=4)
    grouped = audit_generalizations(SYMMETRIC, queries, **kw)
    assert len(grouped) == len(queries)
    for q, audit in zip(queries, grouped):
        (alone,) = audit_generalizations(SYMMETRIC, [q], **kw)
        assert audit.alpha == alone.alpha == q.alpha
        assert audit.bound == alone.bound == rademacher_bound(q)
        assert audit.measured.tobytes() == alone.measured.tobytes()
        assert np.array_equal(audit.passed, alone.passed)
        assert audit.pass_fraction == alone.pass_fraction
        ref, scale = _seed_audit(q, q.alpha, **kw)
        assert agrees_with_frozen(audit.measured, ref, scale=scale).all()


def test_trial_datasets_drawn_once_per_group(monkeypatch):
    queries = [BoundQuery(alpha=a, r=1.0, d=2, n=200, delta=0.2) for a in (0.5, 1.0, 2.0, np.inf)]
    queries.insert(2, BoundQuery(alpha=2.0, r=1.0, d=2, n=100, delta=0.2))
    kw = dict(trials=3, n_theta=20, pop_n=5_000, seed=6)
    alone = [audit_generalizations(SYMMETRIC, [q], **kw)[0] for q in queries]
    draws = []

    def counting_sample_gmm(spec, n, seed, **kwargs):
        if seed[1] == bounds._STREAM_TRIAL:
            draws.append((n, seed[2]))
        return sample_gmm(spec, n, seed, **kwargs)

    monkeypatch.setattr(bounds, "sample_gmm", counting_sample_gmm)
    grouped = audit_generalizations(SYMMETRIC, queries, **kw)
    assert sorted(draws) == [(n, t) for n in (100, 200) for t in range(3)]
    for audit, one in zip(grouped, alone):
        assert audit.measured.tobytes() == one.measured.tobytes()


def test_uniform_discrepancy_audit_bit_identical_to_seed_form():
    q = BoundQuery(alpha=10.0, r=1.0, d=2, n=300, delta=0.2)
    kw = dict(trials=3, n_theta=30, pop_n=60_001, seed=2)
    audit = audit_uniform_discrepancy(SYMMETRIC, q, **kw)
    assert audit.bound == uniform_discrepancy_bound(q)
    ref, scale = _seed_audit(q, np.inf, **kw)
    assert agrees_with_frozen(audit.measured, ref, scale=scale).all()


@pytest.mark.parametrize("name", ["trials", "n_theta", "pop_n"])
@pytest.mark.parametrize("value", [0, -3])
def test_audits_reject_empty_sizes(name, value):
    q = BoundQuery(alpha=1.0, r=1.0, d=2, n=100, delta=0.2)
    kw = dict(trials=2, n_theta=10, pop_n=1000, seed=0)
    kw[name] = value
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        audit_generalizations(SYMMETRIC, [q], **kw)
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        audit_uniform_discrepancy(SYMMETRIC, q, **kw)


def test_audit_rejects_dimension_mismatch():
    q = BoundQuery(alpha=1.0, r=1.0, d=3, n=100, delta=0.2)
    with pytest.raises(ValueError, match="d=3"):
        audit_generalizations(SYMMETRIC, [q], trials=2, n_theta=10, pop_n=1000)


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
