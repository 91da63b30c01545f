import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alpha_lab.datasets import GmmSpec, sample_gmm
from alpha_lab.logistic import (
    BLOCK_ELEMENTS,
    ParamVector,
    _loss_sums,
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    empirical_alpha_risk,
    empirical_second_moment,
    hessian_min_eigenvalue,
    risk_batch,
    risk_gradient,
    risk_gradient_batch,
    risk_gradients,
    risk_hessian,
    risks,
    small_radius_admissible_alpha,
    small_radius_modulus,
    soft_classifier,
    strong_convexity_modulus,
    theta_lipschitz_constant,
)
from alpha_lab.losses import (
    canon_alpha,
    margin_alpha_loss,
    margin_alpha_losses,
    margin_loss_second_derivative,
    sigmoid,
)

from oracles import (
    agrees_with_frozen,
    central_diff_grad,
    central_diff_hessian,
    meets_mp_bound,
    mp_exact,
    mp_margin_loss_second_derivative,
    mp_small_radius_admissible_alpha,
    mp_small_radius_modulus,
    seed_alpha_lipschitz_gradient,
    seed_alpha_lipschitz_risk,
    seed_empirical_alpha_risk,
    seed_risk_gradient,
    seed_risk_gradient_batch,
    seed_risk_gradient_scale,
    seed_risk_hessian,
    seed_risk_hessian_scale,
)

ALPHAS = [0.5, 0.8, 1.0, 1.44, 2.0, 8.0, np.inf]


def random_instance(rng, n, d, r=1.0):
    X = rng.random((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    theta = rng.standard_normal(d)
    theta *= r * rng.random() / np.linalg.norm(theta)
    return theta, X, y


def test_param_vector_ball_invariant():
    ParamVector(np.array([0.6, 0.8]), radius=1.0)
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0, 1.0]), radius=1.0)
    ParamVector(np.array([100.0, 100.0]))  # unconstrained by default
    for radius in (np.nan, 0.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            ParamVector(np.array([0.0, 0.0]), radius=radius)


def test_soft_classifier_basics():
    assert soft_classifier(np.zeros(3), np.ones(3)) == 0.5
    assert soft_classifier(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
        sigmoid(1.0)
    )
    x = np.random.default_rng(0).random((10, 2))
    th = np.array([0.3, -0.7])
    assert np.allclose(soft_classifier(th, x) + soft_classifier(-th, x), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        soft_classifier(np.zeros(3), np.ones(4))


def test_empirical_risk_values():
    X = np.array([[0.2, 0.4], [0.9, 0.1]])
    y = np.array([1.0, -1.0])
    assert empirical_alpha_risk(np.zeros(2), (X, y), 1.0) == pytest.approx(np.log(2))
    # single sample with margin -1 under the exponential member
    assert empirical_alpha_risk(
        np.array([-1.0]), (np.array([[1.0]]), np.array([1.0])), 0.5
    ) == pytest.approx(np.e, rel=1e-12)
    # two-sample average against a hand sum
    th = np.array([0.5, -0.25])
    from alpha_lab.losses import margin_alpha_loss

    hand = 0.5 * (
        margin_alpha_loss(2.0, y[0] * X[0] @ th) + margin_alpha_loss(2.0, y[1] * X[1] @ th)
    )
    assert empirical_alpha_risk(th, (X, y), 2.0) == pytest.approx(hand, rel=1e-15)
    with pytest.raises(ValueError):
        empirical_alpha_risk(th, (X[:0], y[:0]), 1.0)


def test_risk_matches_probabilistic_form():
    # margin form and soft-classifier form agree to float precision
    rng = np.random.default_rng(13)
    for alpha in ALPHAS:
        theta, X, y = random_instance(rng, 30, 3)
        margin_form = empirical_alpha_risk(theta, (X, y), alpha)
        g = soft_classifier(theta, X * y[:, None])
        if np.isinf(alpha):
            probs = np.mean(1.0 - g)
        elif alpha == 1.0:
            probs = np.mean(-np.log(g))
        else:
            probs = np.mean(alpha / (alpha - 1.0) * (1.0 - g ** (1.0 - 1.0 / alpha)))
        assert margin_form == pytest.approx(probs, abs=1e-10)


def test_gradient_at_origin_is_half_mean_yx():
    # F1 at alpha=1, theta=0 equals -y/2 (logistic-loss slope at margin 0)
    X = np.array([[0.3, 0.6]])
    y = np.array([1.0])
    g = risk_gradient(np.zeros(2), (X, y), 1.0)
    assert np.allclose(g, -0.5 * X[0], atol=1e-15)
    fd = central_diff_grad(lambda t: empirical_alpha_risk(t, (X, y), 1.0), np.zeros(2))
    assert np.allclose(g, fd, atol=1e-9)


def test_gradient_balanced_cancellation():
    X = np.array([[0.4, 0.8], [0.4, 0.8]])
    y = np.array([1.0, -1.0])
    assert np.allclose(risk_gradient(np.zeros(2), (X, y), 2.0), 0.0, atol=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_gradient_matches_finite_differences(alpha, d):
    rng = np.random.default_rng(100)
    for _ in range(10):
        theta, X, y = random_instance(rng, 20, d)
        g = risk_gradient(theta, (X, y), alpha)
        fd = central_diff_grad(lambda t: empirical_alpha_risk(t, (X, y), alpha), theta)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, np.inf])
def test_hessian_matches_finite_differences(alpha):
    rng = np.random.default_rng(200)
    for d in (1, 3):
        theta, X, y = random_instance(rng, 15, d)
        H = risk_hessian(theta, (X, y), alpha)
        fd = central_diff_hessian(lambda t: risk_gradient(t, (X, y), alpha), theta)
        assert np.max(np.abs(H - fd)) <= 1e-5


def test_hessian_at_origin_log_loss():
    rng = np.random.default_rng(4)
    X = rng.random((40, 3))
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    H = risk_hessian(np.zeros(3), (X, y), 1.0)
    assert np.allclose(H, empirical_second_moment((X, y)) / 4.0, atol=1e-14)


def test_hessian_scalar_matches_margin_second_derivative():
    # d = 1 single sample: chain rule through the margin
    x = np.array([[0.7]])
    y = np.array([-1.0])
    theta = np.array([0.4])
    for alpha in (0.5, 1.0, 3.0):
        H = risk_hessian(theta, (x, y), alpha)[0, 0]
        z = float(y[0] * x[0, 0] * theta[0])
        assert H == pytest.approx(
            margin_loss_second_derivative(alpha, z) * x[0, 0] ** 2, rel=1e-12
        )


def test_hessian_psd_for_alpha_leq_one():
    rng = np.random.default_rng(300)
    for _ in range(100):
        theta, X, y = random_instance(rng, 25, 2)
        alpha = rng.uniform(0.3, 1.0)
        assert hessian_min_eigenvalue(theta, (X, y), alpha) >= -1e-12


def test_strong_convexity_modulus_values():
    a = 1.0
    s = 1.7
    assert strong_convexity_modulus(a, s) == pytest.approx(sigmoid(s) * sigmoid(-s), rel=1e-12)
    assert strong_convexity_modulus(0.5, 1.0) == pytest.approx(0.3679, abs=1e-4)
    assert strong_convexity_modulus(0.3, 1.0) > strong_convexity_modulus(0.9, 1.0)
    with pytest.raises(ValueError):
        strong_convexity_modulus(1.5, 1.0)


@settings(max_examples=120, deadline=None)
@given(alpha=st.sampled_from([1.0 - 2e-9, 1.0 - 1e-7, 0.3]), s=st.floats(1e-3, 800.0))
@example(alpha=0.3, s=800.0)
@example(alpha=1.0 - 2e-9, s=1e-3)
def test_strong_convexity_modulus_matches_mpmath(alpha, s):
    # F2 at the largest margin, within the conditioning of exp there
    truth = mp_exact(mp_margin_loss_second_derivative, alpha, s)
    got = strong_convexity_modulus(alpha, s)
    assert meets_mp_bound(got, truth, 4.0 * np.finfo(float).eps * max(1.0, s)), (got, truth)


@settings(max_examples=120, deadline=None)
@given(s=st.floats(1e-3, 0.48), ratio=st.floats(0.5, 1.0 - 1e-9))
@example(s=0.01, ratio=1.0 - 1e-9)
@example(s=0.1, ratio=1.0 - 1e-9)
@example(s=0.4, ratio=1.0 - 1e-6)
@example(s=0.48, ratio=0.9)
@example(s=0.3, ratio=0.5)
def test_small_radius_modulus_matches_mpmath(s, ratio):
    # the bracket 1 - e^s + e^{-s}/alpha vanishes at the admissible limit
    # alpha*, so its relative error grows like 1/(1 - alpha/alpha*), and no
    # faster: it is computed without cancelling
    limit = mp_small_radius_admissible_alpha(s)
    alpha = canon_alpha(ratio * limit)
    truth = mp_exact(mp_small_radius_modulus, alpha, s)
    rtol = 4.0 * np.finfo(float).eps / (1.0 - alpha / limit)
    got = small_radius_modulus(alpha, s)
    assert meets_mp_bound(got, truth, rtol), (got, truth)


def test_strong_convexity_witness():
    rng = np.random.default_rng(400)
    r = 1.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        theta, X, y = random_instance(rng, 30, d, r=r)
        alpha = rng.choice([0.3, 0.7, 1.0])
        lam = strong_convexity_modulus(alpha, r * np.sqrt(d))
        sig_min = np.linalg.eigvalsh(empirical_second_moment((X, y))).min()
        assert hessian_min_eigenvalue(theta, (X, y), alpha) >= lam * sig_min - 1e-8


def test_small_radius_regime():
    assert small_radius_admissible_alpha(0.4) == pytest.approx(1.3629, abs=1e-4)
    assert small_radius_admissible_alpha(0.4) > 1.0
    with pytest.raises(ValueError):
        small_radius_admissible_alpha(0.5)  # above arcsinh(1/2)
    with pytest.raises(ValueError):
        small_radius_modulus(2.0, 0.4)  # alpha beyond the admissible bound
    assert small_radius_modulus(1.2, 0.4) > 0.0


def test_small_radius_witness():
    rng = np.random.default_rng(500)
    d = 2
    r = 0.3  # r*sqrt(2) ~ 0.424 < arcsinh(1/2)
    for _ in range(50):
        theta, X, y = random_instance(rng, 30, d, r=r)
        alpha = rng.choice([1.05, 1.15])
        lam = small_radius_modulus(alpha, r * np.sqrt(d))
        sig_min = np.linalg.eigvalsh(empirical_second_moment((X, y))).min()
        assert hessian_min_eigenvalue(theta, (X, y), alpha) >= lam * sig_min - 1e-8


def test_theta_lipschitz_constant():
    assert theta_lipschitz_constant(np.inf, 1.0, 4) == pytest.approx(np.sqrt(4) / 4.0)
    # branches agree at one through the interval supremum
    r, d = 1.0, 4
    assert theta_lipschitz_constant(1.0, r, d) == pytest.approx(
        np.sqrt(d) * sigmoid(r * np.sqrt(d)), rel=1e-10
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, np.inf])
def test_gradient_norms_below_theta_lipschitz(alpha):
    rng = np.random.default_rng(600)
    r, d, n = 1.0, 2, 40
    X = rng.random((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    thetas = rng.standard_normal((1000, d))
    thetas *= (r * rng.random(1000) ** 0.5 / np.linalg.norm(thetas, axis=1))[:, None]
    norms = np.linalg.norm(risk_gradient_batch(thetas, (X, y), alpha), axis=1)
    assert norms.max() <= theta_lipschitz_constant(alpha, r, d) + 1e-12


def test_alpha_lipschitz_constants_at_origin():
    assert alpha_lipschitz_risk(np.zeros(4)) == pytest.approx(np.log(2) ** 2 / 2, rel=1e-12)
    assert alpha_lipschitz_gradient(np.zeros(4)) == pytest.approx(np.log(2), rel=1e-12)


def test_alpha_inverse_lipschitz_inequalities():
    rng = np.random.default_rng(700)
    pairs = [(1.0, 2.0), (2.0, 4.0), (1.5, np.inf), (10.0, np.inf), (1.0, np.inf)]
    for _ in range(20):
        theta, X, y = random_instance(rng, 30, 3)
        L = alpha_lipschitz_risk(theta)
        J = alpha_lipschitz_gradient(theta)
        for a1, a2 in pairs:
            dist = abs(1.0 / a1 - (0.0 if np.isinf(a2) else 1.0 / a2))
            dr = abs(
                empirical_alpha_risk(theta, (X, y), a1)
                - empirical_alpha_risk(theta, (X, y), a2)
            )
            dg = np.linalg.norm(
                risk_gradient(theta, (X, y), a1) - risk_gradient(theta, (X, y), a2)
            )
            assert dr <= L * dist + 1e-12
            assert dg <= J * dist + 1e-12


def test_infinity_risk_is_randomized_error():
    rng = np.random.default_rng(800)
    theta, X, y = random_instance(rng, 50, 2)
    r_inf = empirical_alpha_risk(theta, (X, y), np.inf)
    assert r_inf == pytest.approx(np.mean(sigmoid(-y * (X @ theta))), rel=1e-12)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 600),
    d=st.integers(1, 5),
    scale=st.floats(0.0, 40.0),
    alpha=st.sampled_from([0.5, 0.65, 1.0, 1.0 + 5e-10, 4.0, 1e6, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pointwise_risk_bit_identical_to_frozen_margin_form(n, d, scale, alpha, seed):
    # value, gradient and Hessian at one theta are one-row cases of the
    # batched kernels, with the bits of those rows; each is within
    # FROZEN_RTOL of the frozen margin form, relative to the size of the
    # terms it sums
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    theta = scale * rng.uniform(-1.0, 1.0, size=d)
    a = canon_alpha(alpha)
    value = empirical_alpha_risk(theta, (X, y), alpha)
    assert type(value) is float and same_bits(value, risks(theta, (X, y), [alpha])[0, 0])
    assert agrees_with_frozen(value, seed_empirical_alpha_risk(theta, X, y, a)).all()
    grad = risk_gradient(theta, (X, y), alpha)
    assert same_bits(grad, risk_gradients(theta, (X, y), [alpha])[0, 0])
    assert agrees_with_frozen(grad, seed_risk_gradient(theta, X, y, a),
                              scale=seed_risk_gradient_scale(theta, X, y, a)).all()
    hess = risk_hessian(theta, (X, y), alpha)
    assert agrees_with_frozen(hess, seed_risk_hessian(theta, X, y, a),
                              scale=seed_risk_hessian_scale(theta, X, y, a)).all()


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_alpha_lipschitz_rows_bit_identical_to_per_theta_form(d, m, seed):
    # one constant per row, each within FROZEN_RTOL of the per-theta scalar
    # form; one theta gives the bits of its row, as a float
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal((m, d))
    thetas *= (10.0 ** rng.uniform(-3.0, 3.0, m) / np.linalg.norm(thetas, axis=1))[:, None]
    L = alpha_lipschitz_risk(thetas)
    J = alpha_lipschitz_gradient(thetas)
    assert L.shape == J.shape == (m,)
    for i, th in enumerate(thetas):
        assert agrees_with_frozen(L[i], seed_alpha_lipschitz_risk(th)).all()
        assert agrees_with_frozen(J[i], seed_alpha_lipschitz_gradient(th)).all()
    assert alpha_lipschitz_risk(thetas[0]) == L[0]
    assert type(alpha_lipschitz_gradient(thetas[0])) is float
    assert alpha_lipschitz_gradient(thetas[0]) == J[0]


def test_risk_gradient_batch_bit_identical_to_seed_form():
    # the log-sigmoid pair computed once for all alphas changes no bit;
    # each gradient is within FROZEN_RTOL of the frozen batch form,
    # relative to the size of the terms it sums
    rng = np.random.default_rng(905)
    data = sample_gmm(GmmSpec.symmetric(), 500, seed=906, normalize=True)
    X, y = data.X, data.y.astype(float)
    alphas = (0.7, 1.0, 4.0, np.inf)
    for m, scale in ((128, 1.0), (7, 40.0), (1, 3.0)):
        thetas = scale * rng.uniform(-1.0, 1.0, size=(m, 2))
        together = risk_gradients(thetas, data, alphas)
        for k, alpha in enumerate(alphas):
            ref = seed_risk_gradient_batch(thetas, X, y, alpha)
            scale = seed_risk_gradient_scale(thetas, X, y, alpha)
            assert agrees_with_frozen(together[k], ref, scale=scale).all()
            assert np.array_equal(risk_gradient_batch(thetas, data, alpha), together[k])


def test_risks_match_per_alpha_losses():
    # one margin matrix and one softplus for all alphas change no bit
    rng = np.random.default_rng(907)
    data = sample_gmm(GmmSpec.symmetric(), 400, seed=908, normalize=True)
    alphas = (0.5, 1.0, 2.0, 10.0, np.inf, 2.0)
    for m, scale in ((64, 1.0), (5, 30.0), (1, 2.0)):
        thetas = scale * rng.uniform(-1.0, 1.0, size=(m, 2))
        together = risks(thetas, data, alphas)
        assert together.shape == (len(alphas), m)
        Z = (data.X @ thetas.T) * data.y[:, None].astype(float)
        for k, alpha in enumerate(alphas):
            ref = margin_alpha_loss(alpha, Z).mean(axis=0)
            assert np.array_equal(together[k], ref)
            assert np.array_equal(risk_batch(thetas, data, alpha), ref)
    assert np.array_equal(risks(thetas, data, [np.inf]), together[[4]])


def blocked_instance(rows, m, d, blocks, extra, scale, seed):
    # n is not a multiple of the block rows: ``blocks`` whole blocks and a part
    n = blocks * rows + max(1, int(extra * rows))
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    thetas = scale * rng.uniform(-1.0, 1.0, size=(m, d))
    return X, y, thetas


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 65, 2601]),
    d=st.integers(1, 5),
    blocks=st.integers(1, 3),
    extra=st.floats(0.01, 0.99),
    scale=st.floats(0.0, 40.0),
    alphas=st.lists(st.sampled_from([0.5, 1.0, 4.0, np.inf]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_risks_bit_identical_to_mean_over_stacked_block_margins(
    m, d, blocks, extra, scale, alphas, seed
):
    # sums taken in row blocks, each block below a carry row of the
    # running sums, have the bits of one mean over the losses of the
    # stacked block margin products (the BLAS may round a block of a
    # product differently from the whole, so the whole product agrees to
    # FROZEN_RTOL only); one parameter row is summed pairwise in one
    # block, and the alpha = 1 losses are summed in the softplus buffer
    rows = BLOCK_ELEMENTS // m
    X, y, thetas = blocked_instance(rows, m, d, blocks, extra, scale, seed)
    n = X.shape[0]
    rows = n if m == 1 else rows
    Z = np.concatenate([X[i:i + rows] @ thetas.T for i in range(0, n, rows)]) * y[:, None]
    whole = (X @ thetas.T) * y[:, None]
    got = risks(thetas, (X, y), alphas)
    sums, squares = _loss_sums(thetas, X, y, alphas, squares=True)
    for k, vals in enumerate(margin_alpha_losses(alphas, Z)):
        assert same_bits(got[k], np.mean(vals, axis=0))
        assert same_bits(sums[k], vals.sum(axis=0))
        assert same_bits(squares[k], np.square(vals).sum(axis=0))
    for k, alpha in enumerate(alphas):
        assert agrees_with_frozen(got[k], margin_alpha_loss(alpha, whole).mean(axis=0)).all()


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 65, 2601]),
    d=st.integers(1, 5),
    blocks=st.integers(1, 3),
    extra=st.floats(0.01, 0.99),
    scale=st.floats(0.0, 40.0),
    alphas=st.lists(st.sampled_from([0.5, 1.0, 4.0, np.inf]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_risk_gradients_match_whole_matrix_form(m, d, blocks, extra, scale, alphas, seed):
    # gradients summed over row blocks of samples (of at least 4 columns'
    # worth) are within FROZEN_RTOL of the frozen whole-matrix form,
    # relative to the size of the terms they sum; each alpha's rows have
    # the bits of a one-alpha call
    rows = BLOCK_ELEMENTS // max(m, 4)
    X, y, thetas = blocked_instance(rows, m, d, blocks, extra, scale, seed)
    together = risk_gradients(thetas, (X, y), alphas)
    assert together.shape == (len(alphas), m, d)
    for k, alpha in enumerate(alphas):
        a = canon_alpha(alpha)
        ref = seed_risk_gradient_batch(thetas, X, y, a)
        scale_k = seed_risk_gradient_scale(thetas, X, y, a)
        assert agrees_with_frozen(together[k], ref, scale=scale_k).all()
        assert same_bits(risk_gradient_batch(thetas, (X, y), alpha), together[k])


def test_factored_curvature_weight_forms_agree():
    # F2 as implemented vs the factored form used in the small-radius proof
    rng = np.random.default_rng(1000)
    for alpha in (0.5, 1.0, 1.2, 3.0, np.inf):
        z = rng.uniform(-3, 3, size=100)
        b = 0.0 if np.isinf(alpha) else 1.0 / alpha
        f2 = margin_loss_second_derivative(alpha, z)
        factored = sigmoid(z) ** (1.0 - b) * (
            sigmoid(z) * sigmoid(-z) - (1.0 - b) * sigmoid(-z) ** 2
        )
        assert np.allclose(f2, factored, atol=1e-12)
