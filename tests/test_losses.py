import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alpha_lab import util
from alpha_lab.losses import (
    _loss_from_softplus,
    alpha_loss,
    as_pmf,
    canon_alpha,
    correspondence_gap,
    inverse_sigmoid,
    loss_sup_bound,
    margin_alpha_loss,
    margin_alpha_losses,
    margin_lipschitz_constant,
    margin_loss_derivative,
    margin_loss_second_derivative,
    sigmoid,
)

from oracles import (
    agrees_with_frozen,
    mc_slope_sup,
    meets_mp_bound,
    mp_exact,
    mp_log_sigmoid,
    mp_margin_alpha_loss,
    mp_margin_lipschitz_constant,
    mp_margin_loss_derivative,
    mp_margin_loss_second_derivative,
    mp_sigmoid,
    mp_softplus,
    scalar_central_diff,
    seed_margin_alpha_loss,
    seed_margin_loss_derivative,
    seed_margin_loss_second_derivative,
    seed_second_derivative_scale,
    within_ulps,
)


def test_canon_alpha_guard_band_and_validation():
    assert canon_alpha(1.0 + 5e-10) == 1.0
    assert canon_alpha(1.0 - 5e-10) == 1.0
    assert canon_alpha(np.inf) == np.inf
    assert canon_alpha(2.5) == 2.5
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            canon_alpha(bad)


def test_as_pmf_renormalizes_small_drift_and_rejects_large():
    p = as_pmf([0.5, 0.5 + 3e-10])
    assert abs(p.sum() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        as_pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        as_pmf([-0.1, 1.1])


def test_alpha_loss_spot_values():
    assert alpha_loss(1.0, 0, [0.5, 0.5]) == pytest.approx(np.log(2), rel=1e-12)
    assert alpha_loss(0.5, 0, [0.25, 0.75]) == pytest.approx(3.0, rel=1e-12)
    assert alpha_loss(np.inf, 0, [0.8, 0.2]) == pytest.approx(0.2, rel=1e-12)
    assert alpha_loss(2.0, 0, [0.25, 0.75]) == pytest.approx(1.0, rel=1e-12)


def test_alpha_loss_zero_mass_and_bad_index():
    with pytest.raises(ValueError):
        alpha_loss(1.0, 0, [0.0, 1.0])
    with pytest.raises(ValueError):
        alpha_loss(0.5, 0, [0.0, 1.0])
    # finite supremum above 1
    assert alpha_loss(2.0, 0, [0.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(IndexError):
        alpha_loss(1.0, 5, [0.5, 0.5])


def test_alpha_loss_monotone_in_alpha():
    rng = np.random.default_rng(7)
    alphas = np.sort(rng.uniform(0.2, 10.0, size=8))
    for _ in range(1000):
        py = rng.uniform(0.05, 0.95)
        pmf = [py, 1.0 - py]
        vals = [alpha_loss(a, 0, pmf) for a in alphas] + [alpha_loss(np.inf, 0, pmf)]
        assert np.all(np.diff(vals) <= 1e-12)


def test_margin_loss_spot_values():
    assert margin_alpha_loss(0.5, -5.0) == pytest.approx(np.exp(5), rel=1e-12)
    assert margin_alpha_loss(0.5, -1.0) == pytest.approx(np.e, rel=1e-12)
    assert margin_alpha_loss(1.44, -1.0) == pytest.approx(1.08, rel=1e-2)
    assert margin_alpha_loss(1.0, 0.0) == pytest.approx(np.log(2), rel=1e-12)
    assert margin_alpha_loss(np.inf, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_margin_loss_extended_margins():
    for a in (0.5, 1.0, 2.0, np.inf):
        assert margin_alpha_loss(a, np.inf) == 0.0
    assert margin_alpha_loss(0.5, -np.inf) == np.inf
    assert margin_alpha_loss(1.0, -np.inf) == np.inf
    assert margin_alpha_loss(2.0, -np.inf) == pytest.approx(2.0)
    assert margin_alpha_loss(np.inf, -np.inf) == pytest.approx(1.0)


def test_margin_loss_stable_for_large_negative_margins():
    # log-domain evaluation: no overflow during the alpha > 1 branch
    val = margin_alpha_loss(4.0, -500.0)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert np.isfinite(margin_alpha_loss(1.0, -500.0))


SPLIT_ALPHAS = [0.3, 0.5, 1.0, 1.44, 8.0, np.inf]


@settings(max_examples=60, deadline=None)
@given(
    z=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40),
    alphas=st.lists(st.sampled_from(SPLIT_ALPHAS), min_size=1, max_size=4),
)
def test_split_loss_bit_identical_to_seed_form(z, alphas):
    # one alpha at a time or several from one shared softplus(-z), arrays
    # or scalars, give the same bits; each value is within FROZEN_RTOL of
    # the frozen form, or closer to mpmath than it
    z = np.array(z)
    for a, vals in zip(alphas, margin_alpha_losses(alphas, z)):
        vals = vals.copy()
        ref = seed_margin_alpha_loss(a, z)
        assert agrees_with_frozen(vals, ref, lambda i: mp_margin_alpha_loss(a, z[i])).all()
        assert np.array_equal(margin_alpha_loss(a, z), vals)
        assert margin_alpha_loss(a, z[0]) == vals[0]


@settings(max_examples=60, deadline=None)
@given(
    z=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40),
    alpha=st.sampled_from([0.5, 1.0, 1.0 + 5e-10, 1.0 - 5e-10, 4.0, 1e6, np.inf]),
)
def test_derivatives_on_the_shared_weight_kernel_bit_identical_to_seed_form(z, alpha):
    # both derivatives on the F1 kernel shared with the risk gradient are
    # within FROZEN_RTOL of the frozen forms, or closer to mpmath, and a
    # scalar (which comes back as a float) has the bits of its array entry
    z = np.array(z)
    a = canon_alpha(alpha)
    for fn, seed_fn, mp_fn, scale in (
        (margin_loss_derivative, seed_margin_loss_derivative, mp_margin_loss_derivative, None),
        (margin_loss_second_derivative, seed_margin_loss_second_derivative,
         mp_margin_loss_second_derivative, seed_second_derivative_scale(a, z)),
    ):
        got = fn(alpha, z)
        ref = seed_fn(a, z)
        assert agrees_with_frozen(got, ref, lambda i: mp_fn(a, z[i]), scale).all()
        scalar = fn(alpha, float(z[0]))
        assert type(scalar) is float and scalar == got[0]


@settings(max_examples=200, deadline=None)
@given(
    sp=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
    alpha=st.one_of(st.floats(1e-3, 1e6).filter(lambda a: a != 1.0),
                    st.sampled_from([1.0 + 2e-16, 1.0 - 1e-16, 0.5, 2.0, 10.0])),
)
def test_loss_from_softplus_bit_identical_to_three_call_form(sp, alpha):
    # the constant carries the negation: -(c) * t has the bits of c * (-t)
    sp = np.array(sp)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.multiply((1.0 - alpha) / alpha, sp)
        np.expm1(t, out=t)
        np.negative(t, out=t)
        ref = np.multiply(alpha / (alpha - 1.0), t, out=t)
    got = _loss_from_softplus(alpha, sp, np.empty_like(sp))
    number = ~np.isnan(ref)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number]))  # and of zeros


KERNEL_EDGES = [-800.0, -745.5, -709.9, -709.78, -708.0, -37.0, -1e-300, 0.0, 1e-300,
                36.9, 708.0, 709.78, 709.9, 745.5, 800.0]


@settings(max_examples=60, deadline=None)
@given(z=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40), in_place=st.booleans())
@example(z=KERNEL_EDGES, in_place=False)
@example(z=KERNEL_EDGES, in_place=True)
def test_kernels_within_4_ulp_of_mpmath(z, in_place):
    # softplus, log-sigmoid and sigmoid from exp/log1p, for arrays, for
    # scalars and with out=x; the sigmoid flushes to 0 below -709.78
    z = np.array(z)
    for kernel, truth in ((util.softplus, mp_softplus), (util.log_sigmoid, mp_log_sigmoid),
                          (util.sigmoid, mp_sigmoid)):
        x = z.copy()
        got = kernel(x, out=x) if in_place else kernel(x)
        assert (got is x) == in_place
        assert in_place or np.array_equal(x, z)
        ref = np.array([truth(v) for v in z])
        assert np.all(within_ulps(got, ref)), (kernel.__name__, z[~within_ulps(got, ref)])
        assert float(kernel(z[0])) == got[0]


def test_kernels_at_infinities_and_nan():
    # a NaN passes through without hiding a large argument beside it
    z = np.array([-np.inf, np.inf, np.nan, 800.0, -800.0])
    assert np.array_equal(util.softplus(z), [0.0, np.inf, np.nan, 800.0, 0.0], equal_nan=True)
    assert np.array_equal(util.log_sigmoid(z), [-np.inf, 0.0, np.nan, 0.0, -800.0],
                          equal_nan=True)
    assert np.array_equal(util.sigmoid(z), [0.0, 1.0, np.nan, 1.0, 0.0], equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(-3.0, 30.0),
    alpha=st.sampled_from([1.0 + 2e-9, 1.0 - 2e-9, 1.0 + 1e-7, 1.0 - 1e-7, 0.5, 1.44, 8.0, 1e6]),
)
def test_margin_loss_near_alpha_one_matches_mpmath(z, alpha):
    # the exponent (1 - alpha)/alpha is exact near alpha = 1, where
    # 1/alpha - 1 cancelled to a relative error of up to 5e-8
    truth = mp_margin_alpha_loss(alpha, z)
    assert abs(margin_alpha_loss(alpha, z) - truth) <= 1e-15 * abs(truth)


def test_split_loss_shares_one_buffer():
    z = np.linspace(-5.0, 5.0, 11)
    buf = np.empty_like(z)
    seen = list(margin_alpha_losses([2.0, 1.0, np.inf], z, out=buf))
    assert seen[0] is buf and seen[2] is buf and seen[1] is not buf
    assert np.array_equal(seen[1], seed_margin_alpha_loss(1.0, z))


def test_continuity_at_alpha_one():
    z = np.linspace(-10, 10, 201)
    for a in (1.0 + 1e-6, 1.0 - 1e-6):
        gap = np.abs(margin_alpha_loss(a, z) - margin_alpha_loss(1.0, z))
        assert gap.max() <= 1e-4


def test_limit_at_alpha_infinity():
    z = np.linspace(-10, 10, 201)
    gap = np.abs(margin_alpha_loss(1e4, z) - 1.0 / (1.0 + np.exp(z)))
    assert gap.max() <= 1e-3


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.44, 2.0, 8.0, np.inf])
def test_margin_derivatives_match_finite_differences(alpha):
    for z in np.linspace(-6, 6, 25):
        fd1 = scalar_central_diff(lambda t: margin_alpha_loss(alpha, t), z)
        fd2 = scalar_central_diff(lambda t: margin_loss_derivative(alpha, t), z)
        assert margin_loss_derivative(alpha, z) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        assert margin_loss_second_derivative(alpha, z) == pytest.approx(fd2, rel=1e-5, abs=1e-8)


def test_derivative_strictly_negative_and_vanishing_at_plus_infinity():
    z = np.linspace(-30, 30, 121)
    for a in (0.5, 1.0, 1.44, 4.0, np.inf):
        assert np.all(margin_loss_derivative(a, z) < 0.0)
        assert margin_loss_derivative(a, 1e6) == pytest.approx(0.0, abs=1e-15)


def test_second_derivative_sign_structure():
    z = np.linspace(-20, 20, 401)
    for a in (0.3, 0.5, 1.0):
        assert np.all(margin_loss_second_derivative(a, z) >= -1e-12)
    # sign change exactly at log(1 - 1/alpha) for alpha > 1
    for a in (1.5, 2.0, 6.0):
        zc = np.log(1.0 - 1.0 / a)
        assert margin_loss_second_derivative(a, zc) == pytest.approx(0.0, abs=1e-14)
        assert margin_loss_second_derivative(a, zc - 0.1) < 0.0
        assert margin_loss_second_derivative(a, zc + 0.1) > 0.0
    assert margin_loss_second_derivative(2.0, np.log(0.5)) == pytest.approx(0.0, abs=1e-15)


def test_sigmoid_pair():
    assert sigmoid(0.0) == 0.5
    assert inverse_sigmoid(0.5) == 0.0
    assert inverse_sigmoid(sigmoid(3.7)) == pytest.approx(3.7, abs=1e-12)
    assert sigmoid(inverse_sigmoid(0.123)) == pytest.approx(0.123, abs=1e-12)
    z = np.linspace(-20, 20, 101)
    assert np.allclose(sigmoid(-z), 1.0 - sigmoid(z), atol=1e-15)
    assert inverse_sigmoid(0.0) == -np.inf
    assert inverse_sigmoid(1.0) == np.inf
    with pytest.raises(ValueError):
        inverse_sigmoid(1.5)


def test_correspondence_gap_examples():
    assert correspondence_gap(1.0, 1, 0.0) == 0.0
    assert correspondence_gap(3.0, -1, 2.5) <= 1e-10
    assert correspondence_gap(np.inf, 1, -4.0) <= 1e-10


def test_correspondence_gap_random_sweep():
    rng = np.random.default_rng(11)
    alphas = np.concatenate([rng.uniform(0.5, 8.0, 900), np.full(100, np.inf)])
    for a in alphas:
        y = -1 if rng.random() < 0.5 else 1
        f = rng.uniform(-5, 5)
        assert correspondence_gap(a, y, f) <= 1e-10


def test_margin_lipschitz_branches_agree_at_one():
    # stationary point sits at -inf as alpha -> 1+, so the interval
    # supremum equals the boundary expression on both sides of 1
    for r0 in (0.5, 1.0, 2.0, 4.0):
        at_one = margin_lipschitz_constant(1.0, r0)
        assert at_one == pytest.approx(sigmoid(r0), abs=1e-10)
        for a in (1.0 + 1e-7, 1.0 - 1e-7):
            assert margin_lipschitz_constant(a, r0) == pytest.approx(at_one, abs=1e-6)


def test_margin_lipschitz_monotone_and_limits():
    r0 = 2.0
    alphas = [0.3, 0.5, 0.8, 1.0, 1.2, 1.44, 2.0, 4.0, 16.0, np.inf]
    vals = [margin_lipschitz_constant(a, r0) for a in alphas]
    assert np.all(np.diff(vals) <= 1e-12)
    assert margin_lipschitz_constant(np.inf, 1.0) == 0.25


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.1, 2.0, 8.0, np.inf])
def test_margin_lipschitz_dominates_monte_carlo_slopes(alpha):
    rng = np.random.default_rng(23)
    for r0 in (1.0, 3.0):
        sup = mc_slope_sup(lambda z: margin_alpha_loss(alpha, z), r0, 100_000, rng)
        assert sup <= margin_lipschitz_constant(alpha, r0) + 1e-12


CONSTANT_ALPHAS = [1.0 + 2e-9, 1.0 - 2e-9, 1.0 + 1e-7, 1.0 - 1e-7, 0.3, 8.0, 1e6, np.inf]


def constant_rtol(r0):
    # the conditioning of exp at the endpoint: a rounding of the exponent,
    # which is about r0 in size, moves the result by eps * r0 relative
    return 4.0 * np.finfo(float).eps * max(1.0, r0)


@settings(max_examples=120, deadline=None)
@given(alpha=st.sampled_from(CONSTANT_ALPHAS), r0=st.floats(1e-3, 800.0))
@example(alpha=0.3, r0=800.0)
@example(alpha=0.3, r0=304.5)
@example(alpha=1.0 + 2e-9, r0=800.0)
@example(alpha=8.0, r0=1e-3)
def test_loss_constants_match_mpmath(alpha, r0):
    # the sup of |l'| on [-r0, r0] and of l at -r0; inf only beyond DBL_MAX
    for got, truth in (
        (margin_lipschitz_constant(alpha, r0), mp_exact(mp_margin_lipschitz_constant, alpha, r0)),
        (loss_sup_bound(alpha, r0), mp_exact(mp_margin_alpha_loss, alpha, -r0)),
    ):
        assert meets_mp_bound(got, truth, constant_rtol(r0)), (got, truth)


def test_margin_lipschitz_overflow_is_inf_without_warning():
    # |F1(-700)| at alpha = 0.1 is about e^6300, beyond DBL_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert margin_lipschitz_constant(0.1, 700.0) == np.inf


def test_loss_sup_bound():
    assert loss_sup_bound(np.inf, 1.0) == pytest.approx(sigmoid(1.0), rel=1e-12)
    assert loss_sup_bound(1.0, 1e-12) == pytest.approx(np.log(2), rel=1e-6)
    z = np.linspace(-3, 3, 10_001)
    for a in (0.5, 1.0, 2.0, 8.0):
        assert np.max(margin_alpha_loss(a, z)) <= loss_sup_bound(a, 3.0) + 1e-12


LIBRARY = Path(__file__).resolve().parent.parent / "src" / "alpha_lab"


def _names(node):
    """Every name, attribute and imported name under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return out


def test_one_implementation_of_each_kernel():
    # softplus, log-sigmoid and sigmoid exist once, in util: no module
    # names scipy's expit or numpy's logaddexp, imported or as an attribute
    modules = sorted(LIBRARY.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert not _names(ast.parse(path.read_text())) & {"expit", "logaddexp"}, path.name


def test_cli_states_each_setting_once():
    # cli's manifest is built by _manifest and printed by write_csv, --seed
    # and --out are declared once on a parent parser, and only main turns a
    # violation into exit 4 under --strict
    tree = ast.parse((LIBRARY / "cli.py").read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 6
    for func in commands:
        assert not _names(func) & {"strict", "EXIT_AUDIT", "EXIT_OK"}, func.name
        for node in ast.walk(func):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            assert not any(isinstance(t, ast.Subscript) and "manifest" in _names(t.value)
                           for t in targets), func.name
    declared = [node.args[0].value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                and isinstance(node.args[0], ast.Constant)]
    assert declared.count("--seed") == declared.count("--out") == 1


def test_cli_holds_no_certificate_math():
    # slqc.certificate_sweep evolves, bootstraps and checks the certificates;
    # cli only samples the points, trains theta0 and writes the rows
    tree = ast.parse((LIBRARY / "cli.py").read_text())
    assert not _names(tree) & {
        "evolve_slqc", "bootstrap_slqc", "gradient_floor", "check_slqc_points",
        "alpha_lipschitz_risk", "alpha_lipschitz_gradient",
    }
    assert "_check_certificates" not in {f.name for f in ast.walk(tree)
                                         if isinstance(f, ast.FunctionDef)}


def test_one_lattice_builder_in_training():
    # the lattice points are built once, in _lattice_points, and the
    # folded-away lattice entry points stay gone
    tree = ast.parse((LIBRARY / "training.py").read_text())
    assert sum(isinstance(n, ast.Attribute) and n.attr == "meshgrid"
               for n in ast.walk(tree)) == 1
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert "meshgrid" in _names(funcs["_lattice_points"])
    assert not set(funcs) & {"_lattice_risks", "_landscape_saturation"}


def test_one_implementation_of_the_minimal_risk():
    # the alpha-norm is computed once, in info._row_risks: logsumexp is
    # named only there, where it is imported, and the enumeration oracle
    # stays independent of the closed forms and the loss kernels
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "info.py":
            assert "logsumexp" not in _names(tree), path.name
            continue
        for node in tree.body:
            assert ("logsumexp" not in _names(node) or isinstance(node, ast.ImportFrom)
                    or node.name == "_row_risks"), ast.unparse(node)[:60]
        funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        oracle = ("_candidate_losses", "_simplex_candidates", "brute_force_conditional_minimum",
                  "brute_force_minimal_risk")
        banned = {"_row_risks", "alpha_loss", "margin_alpha_loss", "margin_alpha_losses",
                  "_loss_from_softplus"}
        for name in oracle:
            assert not _names(funcs[name]) & banned, name
