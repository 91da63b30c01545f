import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alpha_lab.info import (
    arimoto_conditional_entropy,
    binary_entropy,
    brute_force_conditional_minimum,
    brute_force_minimal_risk,
    min_conditional_risk,
    minimal_alpha_risk,
    optimal_classifier,
    tilt_posterior,
)
from alpha_lab.losses import alpha_loss, margin_alpha_loss

from oracles import (
    mp_alpha_loss,
    mp_arimoto_conditional_entropy,
    mp_min_conditional_risk,
    mp_minimal_alpha_risk,
    shannon_conditional_entropy,
)


def random_joint(rng, nx, ny, floor=0.02):
    t = rng.random((nx, ny)) + floor
    return t / t.sum()


def test_entropy_uniform_independent():
    for m in (2, 3, 5):
        joint = np.full((4, m), 1.0 / (4 * m))
        for a in (0.3, 1.0, 2.0, 7.0, np.inf):
            assert arimoto_conditional_entropy(joint, a) == pytest.approx(np.log(m), rel=1e-12)


def test_entropy_shannon_case():
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    expected = shannon_conditional_entropy(joint)
    assert expected == pytest.approx(0.5004, abs=1e-4)
    assert arimoto_conditional_entropy(joint, 1.0) == pytest.approx(expected, rel=1e-12)


def test_entropy_large_alpha_approaches_infinity_branch():
    rng = np.random.default_rng(3)
    for _ in range(20):
        joint = random_joint(rng, 3, 3)
        a_big = arimoto_conditional_entropy(joint, 1e4)
        a_inf = arimoto_conditional_entropy(joint, np.inf)
        assert abs(a_big - a_inf) <= 1e-3


def test_entropy_range_and_zero_rows():
    joint = np.array([[0.5, 0.25], [0.0, 0.0], [0.15, 0.1]])
    for a in (0.5, 1.0, 3.0, np.inf):
        h = arimoto_conditional_entropy(joint, a)
        assert 0.0 <= h <= np.log(2) + 1e-12


def test_minimal_risk_deterministic_label_is_zero():
    joint = np.array([[0.6, 0.0], [0.0, 0.4]])
    for a in (0.5, 1.0, 2.0, np.inf):
        assert minimal_alpha_risk(joint, a) == pytest.approx(0.0, abs=1e-12)


def test_minimal_risk_map_error_at_infinity():
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert minimal_alpha_risk(joint, np.inf) == pytest.approx(0.2, rel=1e-12)


def test_minimal_risk_shannon_at_one():
    rng = np.random.default_rng(5)
    joint = random_joint(rng, 2, 2)
    assert minimal_alpha_risk(joint, 1.0) == pytest.approx(
        shannon_conditional_entropy(joint), rel=1e-12
    )


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, np.inf])
def test_minimal_risk_matches_enumeration(shape, alpha):
    rng = np.random.default_rng(17)
    for _ in range(10):
        joint = random_joint(rng, *shape)
        closed = minimal_alpha_risk(joint, alpha)
        brute = brute_force_minimal_risk(joint, alpha)
        assert brute == pytest.approx(closed, abs=1e-4)
        # the enumeration can only overshoot the true minimum
        assert brute >= closed - 1e-10


def test_tilt_identity_and_hand_value():
    p = np.array([1, 3, 3, 1]) / 8.0
    assert np.allclose(tilt_posterior(p, 1.0), p)
    assert np.allclose(tilt_posterior(p, 2.0), [0.05, 0.45, 0.45, 0.05], atol=1e-12)


def test_tilt_flattens_below_one_and_sharpens_above():
    from scipy.stats import binom

    p = binom.pmf(np.arange(21), 20, 0.5)

    def shannon(q):
        q = q[q > 0]
        return -(q * np.log(q)).sum()

    base = shannon(tilt_posterior(p, 1.0))
    assert shannon(tilt_posterior(p, 0.5)) > base
    assert shannon(tilt_posterior(p, 3.0)) < base


def test_tilt_entropy_nonincreasing_in_alpha():
    rng = np.random.default_rng(29)
    alphas = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 1e3, np.inf]
    for _ in range(25):
        p = rng.random(5) + 0.01
        p /= p.sum()

        def shannon(q):
            q = q[q > 0]
            return -(q * np.log(q)).sum()

        ent = [shannon(tilt_posterior(p, a)) for a in alphas]
        assert np.all(np.diff(ent) <= 1e-10)


def test_tilt_infinity_uniform_over_ties():
    p = np.array([0.4, 0.4, 0.2])
    assert np.allclose(tilt_posterior(p, np.inf), [0.5, 0.5, 0.0])
    assert np.allclose(tilt_posterior(np.array([0.1, 0.7, 0.2]), np.inf), [0, 1, 0])


def test_tilt_is_conditional_risk_minimizer():
    rng = np.random.default_rng(31)
    for alpha in (0.5, 2.0):
        for _ in range(5):
            w = rng.random(3) + 0.05
            w /= w.sum()
            _, q_star = brute_force_conditional_minimum(w, alpha, step=1e-2, refine=2)
            tv = 0.5 * np.abs(q_star - tilt_posterior(w, alpha)).sum()
            assert tv <= 2e-2


def test_min_conditional_risk_values():
    assert min_conditional_risk(0.2, 0.5) == pytest.approx(0.8, abs=1e-12)
    assert min_conditional_risk(0.5, 1.0) == pytest.approx(np.log(2), abs=1e-12)
    assert min_conditional_risk(0.3, np.inf) == pytest.approx(0.3, abs=1e-12)
    assert min_conditional_risk(0.2, 0.5) == pytest.approx(2 * np.sqrt(0.2 * 0.8), abs=1e-12)


def test_min_conditional_risk_symmetry_and_concavity():
    etas = np.linspace(0.001, 0.999, 999)
    for a in (0.3, 0.5, 0.77, 1.0, 1.44, np.inf):
        vals = min_conditional_risk(etas, a)
        assert np.allclose(vals, vals[::-1], atol=1e-12)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.max() <= 1e-8


def test_optimal_classifier_values_and_sentinels():
    assert optimal_classifier(0.5, 3.0) == 0.0
    assert optimal_classifier(0.8, 2.0) == pytest.approx(2.0 * np.log(4.0), rel=1e-12)
    assert optimal_classifier(1.0, 2.0) == np.inf
    assert optimal_classifier(0.0, 2.0) == -np.inf
    assert optimal_classifier(0.9, np.inf) == np.inf
    assert optimal_classifier(0.1, np.inf) == -np.inf
    assert optimal_classifier(0.5, np.inf) == 0.0


def test_optimal_classifier_calibration_signs():
    etas = np.linspace(0.01, 0.99, 99)
    etas = etas[np.abs(etas - 0.5) > 1e-9]
    for a in (0.3, 0.5, 1.0, 1.44, 4.0, np.inf):
        for e in etas:
            assert np.sign(optimal_classifier(e, a)) == np.sign(2 * e - 1)


def test_optimal_classifier_matches_grid_minimization():
    fgrid = np.linspace(-12.0, 12.0, 4801)  # step 0.005
    for a in (0.5, 1.0, 1.44, 2.0):
        for eta in (0.1, 0.35, 0.62, 0.9):
            risk = eta * margin_alpha_loss(a, fgrid) + (1 - eta) * margin_alpha_loss(a, -fgrid)
            best = fgrid[np.argmin(risk)]
            assert abs(best - optimal_classifier(eta, a)) <= 2 * 0.005 + 1e-12


def test_expected_min_conditional_risk_recovers_minimal_risk():
    rng = np.random.default_rng(41)
    for a in (0.5, 1.0, 2.0, 6.0, np.inf):
        for _ in range(10):
            joint = random_joint(rng, 3, 2)
            px = joint.sum(axis=1)
            eta = joint[:, 1] / px
            expected = sum(
                p * min_conditional_risk(e, a) for p, e in zip(px, eta)
            )
            assert expected == pytest.approx(minimal_alpha_risk(joint, a), abs=1e-6)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(np.log(2), rel=1e-12)


@pytest.mark.parametrize("eta", [np.nan, [0.2, np.nan, 0.7]])
def test_nan_eta_is_rejected(eta):
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
        min_conditional_risk(eta, 2.0)
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
        binary_entropy(eta)


ACCURACY_ALPHAS = [1.0 + 2e-9, 1.0 - 2e-9, 1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 1e-4, 0.3, 8.0, 1e6,
                   np.inf]
# Masses are 0 or at least 0.05, so each conditional mass is 0, 1 or at most
# about 0.95.  Within delta of a certain label the risks are about delta, and
# the last-bit rounding of p(y|x) = P(x,y)/p(x) (or of 1 - eta, or of the
# pmf's own sum) alone moves them by about 1e-16/delta relative.
MASS = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


def _rel_err(got, truth):
    return abs(got - truth) / abs(truth) if truth else abs(got)


@settings(max_examples=120, deadline=None)
@given(
    alpha=st.sampled_from(ACCURACY_ALPHAS),
    cells=arrays(float, st.tuples(st.integers(1, 3), st.integers(2, 3)), elements=MASS),
    eta=st.floats(0.05, 0.95),
    label=st.integers(0, 2),
)
@example(alpha=1.0 - 2e-9, cells=np.array([[0.3, 0.7]]), eta=0.5, label=1)
@example(alpha=np.inf, cells=np.array([[1.0, 0.0], [0.05, 0.05]]), eta=0.05, label=1)
def test_closed_forms_match_mpmath_near_alpha_one_and_infinity(alpha, cells, eta, label):
    # one row kernel for the minimal risk: the summed terms share one sign
    # near alpha = 1, where the parent's 1 - sum p^alpha cancelled to 1e-7
    assume(cells.sum() > 0.0)
    joint = cells / cells.sum()
    for got, truth in (
        (minimal_alpha_risk(joint, alpha), mp_minimal_alpha_risk(joint, alpha)),
        (arimoto_conditional_entropy(joint, alpha), mp_arimoto_conditional_entropy(joint, alpha)),
        (min_conditional_risk(eta, alpha), mp_min_conditional_risk(eta, alpha)),
    ):
        assert _rel_err(got, truth) <= 4e-15, (got, truth)
    row = cells[0]
    label %= row.size
    if row.sum() > 0.0 and (alpha > 1.0 or row[label] > 0.0):
        pmf = row / row.sum()
        got, truth = alpha_loss(alpha, label, pmf), mp_alpha_loss(alpha, label, pmf)
        assert _rel_err(got, truth) <= 4e-15, (got, truth)
