import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alpha_lab.datasets import GmmSpec, sample_gmm
from alpha_lab.logistic import (
    BLOCK_ELEMENTS,
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    empirical_alpha_risk,
    risk_gradient,
    risk_gradient_batch,
    risk_gradients,
    theta_lipschitz_constant,
)
from alpha_lab.losses import canon_alpha
from alpha_lab.slqc import (
    NgdConfig,
    OracleFunction,
    RangeExceeded,
    SlqcCertificate,
    SlqcCheck,
    Verdict,
    audit_certificate,
    bootstrap_sequences,
    bootstrap_slqc,
    check_slqc_at,
    check_slqc_points,
    evolution_range,
    evolve_slqc,
    gradient_floor,
    ngd,
    ngd_iteration_bound,
    risk_oracle,
    sample_audit_points,
)

from oracles import dense_gradient_norm_min


def quadratic_oracle(center, dim):
    center = np.asarray(center, dtype=float)
    return OracleFunction(
        values=lambda T: np.sum((T - center) ** 2, axis=1),
        grads=lambda T: 2.0 * (T - center),
        dim=dim,
    )


def test_certificate_invariants():
    cert = SlqcCertificate(0.5, 2.0, np.zeros(2))
    assert cert.rho == 0.25
    with pytest.raises(ValueError):
        SlqcCertificate(-1.0, 2.0, np.zeros(2))
    with pytest.raises(ValueError):
        SlqcCertificate(1.0, 0.0, np.zeros(2))


def test_oracle_registration_rejects_wrong_gradient():
    with pytest.raises(ValueError):
        OracleFunction(
            values=lambda T: np.sum(T**2, axis=1),
            grads=lambda T: np.ones_like(T),  # wrong on purpose
            dim=3,
        )


def test_check_at_reference_point_is_condition1():
    f = quadratic_oracle(np.zeros(2), 2)
    cert = SlqcCertificate(0.1, 1.0, np.array([0.3, 0.1]))
    res = check_slqc_at(f, np.array([0.3, 0.1]), cert)
    assert res.verdict is Verdict.CONDITION_1
    assert res.value_gap == 0.0


def test_quadratic_never_fails():
    rng = np.random.default_rng(1)
    theta0 = np.array([0.2, -0.1, 0.4])
    f = quadratic_oracle(theta0, 3)
    kappa = 2.0 * 4.0  # sup gradient norm over the sampled region
    cert = SlqcCertificate(0.05, kappa, theta0)
    for _ in range(300):
        theta = rng.uniform(-2, 2, size=3)
        assert check_slqc_at(f, theta, cert).verdict is not Verdict.FAILS


def test_constructed_violation_reports_witness():
    # concave bowl: at theta = (1,0) the negative gradient ascends away
    # from a reference on the opposite side, and the value gap is large
    f = OracleFunction(
        values=lambda T: -np.sum(T**2, axis=1),
        grads=lambda T: -2.0 * T,
        dim=2,
    )
    cert = SlqcCertificate(0.01, 10.0, np.array([-3.0, 0.0]))
    res = check_slqc_at(f, np.array([1.0, 0.0]), cert)
    assert res.verdict is Verdict.FAILS
    assert res.value_gap == pytest.approx(8.0)
    assert res.inner_product is not None and res.inner_product < res.rho * res.grad_norm
    assert "violated" in res.detail


def test_ball_containment_failure_mode():
    # inside the rho-ball only the value condition counts
    f = OracleFunction(
        values=lambda T: 100.0 * np.abs(T).sum(axis=1),
        grads=lambda T: 100.0 * np.sign(T),
        dim=1,
        check_points=0,
    )
    cert = SlqcCertificate(1.0, 2.0, np.zeros(1))  # rho = 0.5
    res = check_slqc_at(f, np.array([0.3]), cert)
    assert res.verdict is Verdict.FAILS
    assert "inside the rho-ball" in res.detail


def test_condition2_implies_outside_ball():
    rng = np.random.default_rng(5)
    f = quadratic_oracle(np.zeros(2), 2)
    cert = SlqcCertificate(0.02, 8.0, np.array([0.1, 0.0]))
    for _ in range(200):
        theta = rng.uniform(-2, 2, size=2)
        res = check_slqc_at(f, theta, cert)
        if res.verdict is Verdict.CONDITION_2:
            assert res.distance > res.rho


def test_descent_reformulation_matches_boundary_sampling():
    # scalar inequality iff the inner product is nonnegative at every
    # boundary point; the sampled minimum includes the analytic minimizer
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = 3
        g = rng.standard_normal(d)
        theta = rng.standard_normal(d)
        theta0 = theta + rng.standard_normal(d) * 2.0
        rho = 0.5 * np.linalg.norm(theta - theta0)
        if rho <= 1e-9:
            continue
        u = rng.standard_normal((1000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = np.vstack([u, -g / np.linalg.norm(g)])  # worst-case direction
        boundary = theta0 + rho * u
        sampled_ok = np.all((boundary - theta) @ -g >= 0.0)
        scalar_ok = float(-g @ (theta0 - theta)) >= rho * np.linalg.norm(g)
        assert sampled_ok == scalar_ok


def test_ngd_on_quadratic():
    f = quadratic_oracle(np.zeros(2), 2)
    cfg = NgdConfig(learning_rate=0.1, iterations=40, theta1=np.array([1.03, 0.31]))
    res = ngd(f, cfg)
    assert res.best_value <= f.value(cfg.theta1)
    # oscillation band: the best iterate sits within one step of the optimum
    assert res.best_value <= 0.1**2 + 1e-12
    assert len(res.values) <= 40


def test_ngd_zero_gradient_start():
    f = quadratic_oracle(np.zeros(2), 2)
    cfg = NgdConfig(learning_rate=0.1, iterations=50, theta1=np.zeros(2))
    res = ngd(f, cfg)
    assert res.stopped_early
    assert res.iterations == 1
    assert np.allclose(res.best_theta, 0.0)


def test_ngd_projection_stays_in_domain():
    f = quadratic_oracle(np.array([5.0, 0.0]), 2)  # optimum outside the ball
    cfg = NgdConfig(learning_rate=0.05, iterations=100, theta1=np.zeros(2))
    res = ngd(f, cfg, domain=(np.zeros(2), 1.0))
    assert np.linalg.norm(res.best_theta) <= 1.0 + 1e-12
    assert res.best_value <= f.value(np.zeros(2))


def test_iteration_bound_arithmetic():
    assert ngd_iteration_bound(SlqcCertificate(1.0, 1.0, np.zeros(1)), 1.0) == 1
    assert ngd_iteration_bound(SlqcCertificate(1.0, 2.0, np.zeros(1)), 3.0) == 36
    t1 = ngd_iteration_bound(SlqcCertificate(0.5, 1.0, np.zeros(1)), 2.0)
    t2 = ngd_iteration_bound(SlqcCertificate(0.5, 2.0, np.zeros(1)), 2.0)
    assert t2 == 4 * t1


def test_ngd_guarantee_on_slqc_instance():
    # quadratic is (eps, G, theta*)-SLQC everywhere for the sampled G
    theta_star = np.array([0.25, -0.4])
    f = quadratic_oracle(theta_star, 2)
    eps = 0.05
    kappa = 2.0 * 3.0
    theta1 = np.array([1.5, 1.0])
    cert = SlqcCertificate(eps, kappa, theta_star)
    T = ngd_iteration_bound(cert, np.linalg.norm(theta1 - theta_star))
    res = ngd(f, NgdConfig(eps / kappa, T, theta1))
    assert res.best_value - f.value(theta_star) <= eps


def test_evolve_identity_and_range():
    with pytest.raises(RangeExceeded) as err:
        evolve_slqc(1.0, 0.1, 1.0, grad_norm_at_theta=0.2, L=1.0, J=1.0, r=1.0, alpha=100.0)
    assert err.value.admissible_sup > 0.0
    eps, kappa = evolve_slqc(1.0, 0.1, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0)
    assert (eps, kappa) == (0.1, 1.0)


def test_evolve_monotone_sweep():
    alpha0, eps0, kappa0 = 1.0, 0.05, 2.0
    gnorm, L, J, r = 0.3, 1.0, 1.5, 1.0
    sup = alpha0**2 * gnorm / (2 * J * (1 + r * kappa0 / eps0))
    targets = alpha0 + np.linspace(0.05, 0.95, 15) * sup
    epss, rhos = [], []
    for a in targets:
        eps, kappa = evolve_slqc(alpha0, eps0, kappa0, gnorm, L, J, r, a)
        epss.append(eps)
        rhos.append(eps / kappa)
        assert eps >= eps0
        assert 0.0 < eps / kappa < eps0 / kappa0
    assert np.all(np.diff(epss) > 0)
    assert np.all(np.diff(rhos) < 0)


def one_row_evolution(alpha0, eps0, kappa0, g, L, J, r, target):
    """(eps, kappa) of a one-row evolve_slqc call, nan where it raises RangeExceeded,
    and the sup it raised with (nan where it did not)."""
    try:
        return (*evolve_slqc(alpha0, eps0, kappa0, g, L, J, r, target), math.nan)
    except RangeExceeded as exc:
        return math.nan, math.nan, exc.admissible_sup


# (gradient norm or floor, L, J) of one theta
ROW = (st.floats(1e-3, 10.0), st.floats(0.0, 10.0), st.floats(1e-2, 10.0))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(*ROW), max_size=8),
    alpha0=st.sampled_from([1.0, 1.5, 65.0]),
    eps0=st.floats(1e-3, 0.5),
    rho_frac=st.floats(1e-3, 1.0),
    r=st.floats(0.1, 5.0),
    offset=st.one_of(st.just(0.0), st.floats(1e-6, 50.0), st.just(math.inf)),
)
@example(rows=[], alpha0=1.0, eps0=0.05, rho_frac=0.5, r=1.0, offset=1e-3)
# eps0 / kappa0 rounds one ulp above r here unless kappa0 steps up
@example(rows=[], alpha0=1.0, eps0=0.5, rho_frac=1.0, r=0.4074281436885816, offset=0.0)
def test_evolution_rows_are_the_one_row_calls(rows, alpha0, eps0, rho_frac, r, offset):
    # bit for bit, with nan exactly at the rows whose one-row call raises
    # RangeExceeded, and their sups those of evolution_range; every row is
    # (eps0, kappa0) at alpha0 and out of range at inf
    kappa0 = eps0 / (rho_frac * r)
    while eps0 / kappa0 > r:  # evolve_slqc's precondition rho0 <= r, after rounding
        kappa0 = math.nextafter(kappa0, math.inf)
    g, L, J = np.array(rows).reshape(-1, 3).T
    target = alpha0 + offset
    eps, kappa = evolve_slqc(alpha0, eps0, kappa0, g, L, J, r, target)
    expected = np.array([one_row_evolution(alpha0, eps0, kappa0, *row, r, target)
                         for row in rows]).reshape(-1, 3)
    assert np.stack([eps, kappa], axis=1).tobytes() == expected[:, :2].tobytes()
    out = np.isnan(eps)
    sups = evolution_range(alpha0, g, J, r, kappa0, eps0)
    assert np.array_equal(expected[out, 2], sups[out]) and np.isnan(expected[~out, 2]).all()
    if offset == 0.0:
        assert (eps == eps0).all() and (kappa == kappa0).all()
    if offset == math.inf:
        assert out.all()


def test_evolution_rows_are_nan_at_both_range_exceeded_sites():
    # row 1 is wider than its sup; row 2 is one ulp of alpha inside its sup,
    # where rho = rho0 (1 - shrink) rounds to at most 0
    alpha0, eps0, kappa0, r = 11.662804472649789, 0.08720440248402724, 1.0, 1.0
    target = np.nextafter(alpha0, np.inf)
    g = np.array([0.3, 1e-17, 7.543739376427202e-17])
    J = np.array([0.2, 0.2, 0.23166459463201036])
    sups = evolution_range(alpha0, g, J, r, kappa0, eps0)
    assert target - alpha0 >= sups[1]
    assert target - alpha0 < sups[0] and target - alpha0 < sups[2]
    eps, kappa = evolve_slqc(alpha0, eps0, kappa0, g, 1.0, J, r, target)
    assert not np.isnan(eps[0]) and np.isnan(eps[1:]).all() and np.isnan(kappa[1:]).all()
    for k in (1, 2):
        with pytest.raises(RangeExceeded) as err:
            evolve_slqc(alpha0, eps0, kappa0, g[k], 1.0, J[k], r, target)
        assert err.value.admissible_sup == sups[k]
    assert evolve_slqc(alpha0, eps0, kappa0, g[0], 1.0, J[0], r, target) == (eps[0], kappa[0])
    empty = evolve_slqc(alpha0, eps0, kappa0, np.array([]), np.array([]), np.array([]), r, target)
    assert [a.shape for a in empty] == [(0,), (0,)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(*ROW, st.floats(1e-6, 1.0, exclude_max=True)), max_size=8),
    alpha0=st.sampled_from([1.0, 1.5, 65.0]),
    eps0=st.floats(1e-3, 0.5),
    kappa0=st.floats(0.1, 10.0),
    r=st.floats(0.1, 5.0),
)
@example(rows=[], alpha0=65.0, eps0=0.05, kappa0=1.0, r=5.0)
def test_bootstrap_rows_are_the_one_row_calls(rows, alpha0, eps0, kappa0, r):
    # bit for bit; an empty row set is valid and gives empty rows, since a
    # sweep at which no theta admits a bootstrap calls it with none
    g, L, J, lam = np.array(rows).reshape(-1, 4).T
    got = np.stack(bootstrap_slqc(alpha0, eps0, kappa0, g, L, J, r, lam), axis=1)
    expected = np.array([bootstrap_slqc(alpha0, eps0, kappa0, *row[:3], r, row[3])
                         for row in rows]).reshape(-1, 3)
    assert got.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="lambda"):
        bootstrap_slqc(alpha0, eps0, kappa0, np.append(g, 0.3), np.append(L, 1.0),
                       np.append(J, 1.5), r, np.append(lam, 1.0))


def test_bootstrap_zero_length_limit():
    vals = bootstrap_slqc(1.0, 0.1, 2.0, g_lower=0.3, L=1.0, J=1.5, r=1.0, lam=1e-9)
    assert vals[0] == pytest.approx(1.0, abs=1e-8)
    assert vals[1] == pytest.approx(0.1, abs=1e-8)
    assert vals[2] == pytest.approx(0.05, rel=1e-6)
    with pytest.raises(ValueError):
        bootstrap_slqc(1.0, 0.1, 2.0, 0.3, 1.0, 1.5, 1.0, lam=1.0)


def test_bootstrap_beats_single_step_range():
    alpha0, eps0, kappa0 = 1.0, 0.05, 2.0
    g, L, J, r = 0.3, 1.0, 1.5, 1.0
    single_sup = alpha0**2 * g / (2 * J * (1 + r * kappa0 / eps0))
    alpha_lam, _, _ = bootstrap_slqc(alpha0, eps0, kappa0, g, L, J, r, lam=0.99)
    assert (alpha_lam - alpha0) / single_sup > 1.0


def test_bootstrap_sequences_first_step_matches_single_evolution():
    alpha0, eps0, rho0 = 1.0, 0.05, 0.025
    g, L, J, r = 0.3, 1.0, 1.5, 1.0
    N = 1000
    seq = bootstrap_sequences(alpha0, eps0, rho0, g, L, J, r, N)
    kappa0 = eps0 / rho0
    eps1, kappa1 = evolve_slqc(alpha0, eps0, kappa0, g, L, J, r, alpha0 + 1.0 / N)
    assert seq.alphas[1] == pytest.approx(alpha0 + 1.0 / N, rel=1e-15)
    assert seq.epsilons[1] == pytest.approx(eps1, rel=1e-12)
    assert seq.rhos[1] == pytest.approx(eps1 / kappa1, rel=1e-9)


def test_bootstrap_sequences_monotone_and_positive_to_horizon():
    seq = bootstrap_sequences(1.0, 0.05, 0.025, 0.3, 1.0, 1.5, 1.0, 5000)
    assert np.all(np.diff(seq.rhos) < 0.0)
    assert np.all(np.diff(seq.epsilons) > 0.0)
    assert seq.horizon >= 1
    assert np.all(seq.rhos[: seq.horizon + 1] > 0.0)


def test_bootstrap_sequences_precondition():
    with pytest.raises(ValueError):
        bootstrap_sequences(1.0, 0.05, 0.025, g=0.001, L=1.0, J=10.0, r=1.0, N=100)


def test_bootstrap_sequences_converge_to_closed_forms():
    # constants sized so the N = 1e4 recursion takes a nontrivial number
    # of steps while the first-order mismatch between the recursion limit
    # and the printed closed forms stays below 1e-3
    alpha0, eps0 = 1.0, 0.049
    kappa0 = 1.137
    rho0 = eps0 / kappa0
    g, L, J, r = 0.1, 0.61, 1.05, 1.0
    lam = 0.3
    alpha_lam, eps_lam, _ = bootstrap_slqc(alpha0, eps0, kappa0, g, L, J, r, lam)
    for N in (100, 1000, 10_000):
        seq = bootstrap_sequences(alpha0, eps0, rho0, g, L, J, r, N)
        n_lam = int(np.floor(lam * rho0 / (rho0 + 2 * r) * alpha0**2 * g / J * N))
        # the lambda-index is off the closed form by at most one 1/N step
        assert abs(seq.alphas[n_lam] - alpha_lam) <= (alpha_lam - alpha0) + 1.0 / N
        assert seq.rhos[n_lam] > rho0 * (1 - lam) / 2.0
    seq = bootstrap_sequences(alpha0, eps0, rho0, g, L, J, r, 10_000)
    n_lam = int(np.floor(lam * rho0 / (rho0 + 2 * r) * alpha0**2 * g / J * 10_000))
    assert n_lam >= 5  # the recursion genuinely moves
    assert abs(seq.alphas[n_lam] - alpha_lam) <= 1e-3
    assert abs(seq.epsilons[n_lam] - eps_lam) <= 1e-3
    assert seq.rhos[n_lam] > rho0 * (1 - lam) / 2.0


def test_sample_audit_points_shapes_and_radii():
    pts = sample_audit_points(3, 2.0, budget=64, seed=5)
    assert pts.shape == (64, 3)
    assert np.linalg.norm(pts, axis=1).max() <= 2.0 + 1e-9


def test_sample_audit_points_accepts_numpy_integer_seeds():
    # a numpy integer seeds the same stream as the equal int, as in sample_gmm
    pts = sample_audit_points(2, 1.0, 8, seed=np.int64(5))
    assert np.array_equal(pts, sample_audit_points(2, 1.0, 8, seed=5))
    assert np.array_equal(
        sample_audit_points(2, 1.0, 8, seed=(np.int64(5), np.int32(12))),
        sample_audit_points(2, 1.0, 8, seed=(5, 12)),
    )


def test_lipschitz_certificates_pass_on_strongly_convex_risk():
    # alpha <= 1 risk over unit-box data: every (eps, C_d, theta0) passes
    rng = np.random.default_rng(11)
    X = rng.random((60, 2))
    y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    r = 1.0
    for alpha in (0.7, 1.0):
        f = risk_oracle((X, y), alpha, validate=False)
        kappa = theta_lipschitz_constant(alpha, r, 2)
        theta0 = rng.uniform(-0.5, 0.5, size=2)
        cert = SlqcCertificate(0.02, kappa, theta0)
        thetas = sample_audit_points(2, r, budget=128, seed=13)
        res = audit_certificate(f, cert, thetas)
        assert res.n_fails == 0


def test_end_to_end_evolution_recheck():
    spec = GmmSpec.symmetric()
    data = sample_gmm(spec, 300, seed=21, normalize=True)
    r = 1.0
    alpha0 = 1.0
    kappa0 = theta_lipschitz_constant(alpha0, r, 2)
    eps0 = 0.05
    theta0 = np.array([0.4, 0.35])
    thetas = sample_audit_points(2, r, budget=64, seed=23)
    checked = 0
    for th in thetas:
        gnorm = np.linalg.norm(risk_gradient(th, data, alpha0))
        L = alpha_lipschitz_risk(th)
        J = alpha_lipschitz_gradient(th)
        sup = 1.0 * gnorm / (2 * J * (1 + r * kappa0 / eps0))
        target = alpha0 + 0.5 * sup
        try:
            eps, kappa = evolve_slqc(alpha0, eps0, kappa0, gnorm, L, J, r, target)
        except RangeExceeded:
            continue
        oracle = risk_oracle(data, target, validate=False)
        res = check_slqc_at(oracle, th, SlqcCertificate(eps, kappa, theta0))
        assert res.verdict is not Verdict.FAILS
        checked += 1
    assert checked >= 50


AUDIT_DATA = sample_gmm(GmmSpec.symmetric(), 500, seed=41, normalize=True)
# 65 points straddle a block boundary of the samples: 32,768 // 65 = 504
# rows >= 500 make one block of samples, 32,768 // 66 = 496 < 500 make two
AUDIT_BLOCK = BLOCK_ELEMENTS // AUDIT_DATA.n


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from([0.7, 1.0, 1.003, 4.0, np.inf]),
    count=st.sampled_from([1, AUDIT_BLOCK - 1, AUDIT_BLOCK, AUDIT_BLOCK + 1]),
    theta0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    epsilon=st.floats(1e-4, 0.3),
    per_point=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_verdicts_match_pointwise(alpha, count, theta0, epsilon, per_point, seed):
    # sample blocks of the batched oracle, masks and per-point
    # certificates give the verdicts of one check_slqc_at call per point,
    # and of an oracle that evaluates one row at a time; the wide kappa
    # range reaches all three verdicts and both failure modes
    rng = np.random.default_rng(seed)
    theta0 = np.array(theta0)
    thetas = rng.uniform(-6.0, 6.0, size=(count, 2))
    oracle = risk_oracle(AUDIT_DATA, alpha, validate=False)
    serial = OracleFunction(
        lambda T: np.array([empirical_alpha_risk(t, AUDIT_DATA, alpha) for t in T]),
        lambda T: np.array([risk_gradient(t, AUDIT_DATA, alpha) for t in T]),
        2,
        check_points=0,
    )
    if per_point:
        eps = epsilon * rng.uniform(0.1, 10.0, count)
        kappa = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), count))
        certs = [SlqcCertificate(e, k, theta0) for e, k in zip(eps, kappa)]
        checks = check_slqc_points(oracle, thetas, theta0, eps, eps / kappa)
        serial_checks = check_slqc_points(serial, thetas, theta0, eps, eps / kappa)
    else:
        kappa = np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
        certs = [SlqcCertificate(epsilon, kappa, theta0)] * count
        checks = audit_certificate(oracle, certs[0], thetas).checks
        serial_checks = audit_certificate(serial, certs[0], thetas).checks
    assert len(checks) == len(serial_checks) == count
    for th, cert, batched, slow in zip(thetas, certs, checks, serial_checks):
        ref = check_slqc_at(oracle, th, cert)
        for got in (batched, slow):
            assert got.verdict is ref.verdict
            assert abs(got.value_gap - ref.value_gap) <= 1e-12
            assert got.distance == ref.distance and got.rho == ref.rho
            assert (got.grad_norm is None) == (ref.grad_norm is None)
            assert got.detail == ref.detail


def test_batched_check_rejects_bad_certificates():
    f = quadratic_oracle(np.zeros(2), 2)
    thetas = np.zeros((3, 2))
    with pytest.raises(ValueError):
        check_slqc_points(f, thetas, np.zeros(3), 0.1, 0.1)
    with pytest.raises(ValueError):
        check_slqc_points(f, thetas, np.zeros(2), np.array([0.1, -0.1, 0.1]), 0.1)
    with pytest.raises(ValueError):
        check_slqc_points(f, thetas, np.zeros(2), 0.1, np.zeros(3))


def test_vanishing_gradient_fails_in_batch():
    f = OracleFunction(
        values=lambda T: np.sum(T * T, axis=1), grads=lambda T: np.zeros_like(T), dim=2,
        check_points=0,
    )
    cert = SlqcCertificate(0.01, 1.0, np.zeros(2))  # rho = 0.01
    thetas = np.array([[0.05, 0.0], [1.0, 0.0], [0.001, 0.0]])
    checks = check_slqc_points(f, thetas, cert.theta0, cert.epsilon, cert.rho)
    assert [c.verdict for c in checks] == [Verdict.CONDITION_1, Verdict.FAILS, Verdict.CONDITION_1]
    assert checks[1].grad_norm == 0.0 and checks[1].inner_product is None
    assert "gradient vanishes" in checks[1].detail
    assert checks == [check_slqc_at(f, t, cert) for t in thetas]


def test_check_records_are_immutable_values():
    # immutable, hashable and equal by value, with the frozen dataclass's
    # defaults and repr text
    check = SlqcCheck(Verdict.CONDITION_2, 0.5, 1.0, 0.25, 2.0, 0.75)
    same = SlqcCheck(Verdict.CONDITION_2, 0.5, 1.0, 0.25, 2.0, 0.75, "")
    assert check == same and hash(check) == hash(same) and len({check, same}) == 1
    assert check != SlqcCheck(Verdict.CONDITION_2, 0.5, 1.0, 0.25, 2.0, 0.5)
    with pytest.raises(AttributeError):
        check.rho = 1.0
    bare = SlqcCheck(Verdict.CONDITION_1, -0.1, 1.0, 0.25)
    assert (bare.grad_norm, bare.inner_product, bare.detail) == (None, None, "")
    assert repr(check) == (
        "SlqcCheck(verdict=<Verdict.CONDITION_2: 'condition2'>, value_gap=0.5, distance=1.0, "
        "rho=0.25, grad_norm=2.0, inner_product=0.75, detail='')"
    )


PIN_ALPHAS = [0.7, 1.0, 1.003, 4.0, np.inf]


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_oracle_one_row_is_the_pointwise_risk(alpha):
    # value and grad return the bits of empirical_alpha_risk and risk_gradient
    oracle = risk_oracle(AUDIT_DATA, alpha)
    for theta in sample_audit_points(2, 3.0, budget=64, seed=43):
        assert oracle.value(theta) == empirical_alpha_risk(theta, AUDIT_DATA, alpha)
        assert np.array_equal(oracle.grad(theta), risk_gradient(theta, AUDIT_DATA, alpha))


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_projected_ngd_matches_a_pointwise_reference_loop(alpha):
    center, radius = np.array([0.3, -0.2]), 1.5
    config = NgdConfig(0.07, 60, np.array([2.0, 1.0]))
    res = ngd(risk_oracle(AUDIT_DATA, alpha), config, domain=(center, radius))

    def project(theta):
        offset = theta - center
        nrm = np.linalg.norm(offset)
        return theta if nrm <= radius else center + offset * (radius / nrm)

    theta = project(config.theta1)
    values = [empirical_alpha_risk(theta, AUDIT_DATA, alpha)]
    best_theta, best_value = theta, values[0]
    while len(values) < config.iterations:
        g = risk_gradient(theta, AUDIT_DATA, alpha)
        gn = np.linalg.norm(g)
        if gn <= 1e-12:
            break
        theta = project(theta - config.learning_rate * g / gn)
        values.append(empirical_alpha_risk(theta, AUDIT_DATA, alpha))
        if values[-1] < best_value:
            best_theta, best_value = theta, values[-1]
    assert res.values == values
    assert np.array_equal(res.best_theta, best_theta)
    assert res.best_value == best_value


FLOOR_SPEC = GmmSpec(0.5, [-1.0, -1.0], [1.0, 1.0], np.eye(2), np.eye(2))


def floor_rounding(n, d, z_max, alpha0):
    """2 rho of ``gradient_floor``'s docstring: twice the first-order
    rounding of a computed gradient norm or J_emp, relative to S or J_emp."""
    return 2.0**-52 * (2 * n + (d + 12) * max(1.0, 1.0 / alpha0) * (z_max + 2.0) + d + 16)


@pytest.mark.parametrize("alpha0", [1.0, 1.5, 65.0])
@pytest.mark.parametrize("radius", [0.2, 1.0, 5.0])
def test_gradient_floor_is_below_the_dense_minimum(radius, alpha0):
    # each target's floor is a lower bound over [alpha0, target]: at most
    # the smallest norm over values uniform in 1/alpha there (401 on the
    # near intervals, 1,001 on the wide ones), and at most the norm at
    # alpha0; near targets lose little of that minimum
    data = sample_gmm(FLOOR_SPEC, 500, seed=(0, 11), normalize=True)
    thetas = sample_audit_points(2, radius, 32, seed=(0, 12))
    targets = [alpha0 * 1.0002, alpha0 + 0.001, alpha0 + 0.003, 2.0 * alpha0, np.inf]
    grad0, floors = gradient_floor(thetas, data, alpha0, targets)
    assert floors.shape == (len(targets), len(thetas))
    # bit for bit g0 - D_t - 2 rho (S + D_t), at least 0, so the rounding
    # term (about 1e-13 of the norm here) cannot be dropped or halved
    grads, (s0, j_emp) = risk_gradients(thetas, data, [alpha0], slope=True)
    z_max = np.linalg.norm(thetas, axis=1) * np.linalg.norm(data.X, axis=1).max()
    rounding = floor_rounding(len(data.X), 2, z_max, alpha0)
    for target, floor in zip(targets, floors):
        d_t = j_emp * (1.0 / alpha0 - (0.0 if np.isinf(target) else 1.0 / target))
        rebuilt = np.maximum(np.linalg.norm(grads[0], axis=1) - d_t - rounding * (s0 + d_t), 0.0)
        assert floor.tobytes() == rebuilt.tobytes()
        near = target - alpha0 <= 0.003
        dense = dense_gradient_norm_min(
            thetas, data.X, data.y.astype(float), alpha0, target, points=401 if near else 1001
        )
        assert (floor >= 0.0).all()
        assert (floor <= dense).all() and (floor <= grad0).all()
        if near:
            assert np.median(floor / dense) >= 0.98
    # a wider interval has the lower floor, and no target lies below alpha0
    assert (np.diff(floors[np.argsort(targets)], axis=0) <= 0.0).all()
    with pytest.raises(ValueError):
        gradient_floor(thetas, data, alpha0, [alpha0, 0.9 * alpha0])


def test_gradient_floor_norms_at_alpha0_are_the_batch_gradient_norms():
    data = sample_gmm(FLOOR_SPEC, 500, seed=(0, 11), normalize=True)
    thetas = sample_audit_points(2, 1.0, 32, seed=(0, 12))
    for alpha0 in (1.0, 1.5, 64.0, 64.1, 100.0):
        ref = np.linalg.norm(risk_gradient_batch(thetas, data, alpha0), axis=1)
        assert gradient_floor(thetas, data, alpha0, [alpha0])[0].tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    mean=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    scale=st.floats(0.1, 3.0),
    prior=st.floats(0.05, 0.95),
    n=st.integers(1, 300),
    theta=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    alpha0=st.floats(0.5, 100.0),
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_beta_slope_bounds_the_gradient_change(mean, scale, prior, n, theta, alpha0, t1, t2, seed):
    # ||grad(beta1) - grad(beta2)|| <= J_emp |beta1 - beta2| on [0, 1/alpha0],
    # plus the rounding of the two gradients and of J_emp, relative to S
    spec = GmmSpec(prior, mean, [-m for m in mean], scale * np.eye(2), np.eye(2))
    data = sample_gmm(spec, n, seed=seed, normalize=True)
    X, y = data.X, data.y.astype(float)
    theta = np.array([theta])
    alpha0 = canon_alpha(alpha0)
    alphas = [alpha0] + [np.inf if t == 0.0 else canon_alpha(alpha0 / t) for t in (t1, t2)]
    grads, (s0, j_emp) = risk_gradients(theta, data, alphas, slope=True)
    b1, b2 = (0.0 if np.isinf(a) else 1.0 / a for a in alphas[1:])
    z_max = np.linalg.norm(theta) * np.linalg.norm(X, axis=1).max()
    step = j_emp * abs(b1 - b2)
    change = np.linalg.norm(grads[1] - grads[2], axis=1)
    assert change <= step + floor_rounding(n, 2, z_max, alpha0) * (s0 + step)
    # S and J_emp are the sample means of their formulas
    z = (X @ theta[0]) * y
    w0 = np.exp((1.0 - 1.0 / alpha0) * -np.logaddexp(0.0, -z) - np.logaddexp(0.0, z))
    x_norms = np.linalg.norm(X, axis=1)
    assert s0 == pytest.approx(np.mean(x_norms * w0), rel=1e-12)
    assert j_emp == pytest.approx(np.mean(x_norms * np.logaddexp(0.0, -z) * w0), rel=1e-12)
