import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from fraclimit import (
    VelocityGrid,
    VelocityProfile,
    build_grid,
    equilibrium_profile,
    eval_M,
    moment,
    norm_Z,
    tail_gamma,
)
from fraclimit.equilibrium import eval_M_deriv
from fraclimit.errors import InvalidInput, TailDivergence
from fraclimit.velocity import Tail


def test_build_grid_validation():
    with pytest.raises(InvalidInput, match="n_nodes=100 must be a positive multiple of 32"):
        build_grid(100, 50.0)  # not a multiple of 32
    with pytest.raises(InvalidInput, match="n_nodes=-64 must be a positive multiple"):
        build_grid(-64, 50.0)
    with pytest.raises(InvalidInput, match="vmax=-1.0 must be positive"):
        build_grid(128, -1.0)
    with pytest.raises(InvalidInput, match=r"inner=60.0 must lie in \(0, vmax\)"):
        VelocityGrid(128, 50.0, inner=60.0)


def test_grid_symmetry(grid128):
    g = grid128
    assert g.n == 128
    assert np.allclose(g.nodes, -g.nodes[::-1])
    assert np.allclose(g.weights, g.weights[::-1])
    assert np.all(g.weights > 0)
    assert g.nodes[-1] < g.vmax
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0  # read-only


@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.75])
def test_equilibrium_mass(grid128, alpha):
    m = equilibrium_profile(grid128, alpha)
    # tail-corrected mass matches the analytic normalization
    assert moment(m, 0) == pytest.approx(1.0, abs=1e-8)
    # plain grid sum misses the analytic tail mass (tau is first order in
    # vmax^-alpha; the next term is O(vmax^-alpha-2))
    tau = 2.0 * tail_gamma(alpha) * grid128.vmax ** (-alpha) / alpha
    assert moment(m, 0, tail=False) == pytest.approx(1.0 - tau, abs=1e-7)


def test_odd_moment_vanishes(grid128):
    m = equilibrium_profile(grid128, 1.5)
    assert abs(moment(m, 1)) < 1e-12


def test_divergent_moment_is_refused(grid128):
    # at alpha = 1, M ~ |v|^-2: the first and second moments do not exist
    m = equilibrium_profile(grid128, 1.0)
    for p in (1, 2):
        with pytest.raises(TailDivergence, match="right tail .* is not integrable"):
            moment(m, p)


def test_moment_against_adaptive_quadrature(grid128):
    # int |v|^(1/2) M dv = 1 exactly for alpha = 3/2 (Beta-function identity);
    # the |v|^(1/2) kink at v=0 limits the inner panel to algebraic accuracy
    alpha = 1.5
    m = equilibrium_profile(grid128, alpha)
    ref, _ = quad(lambda v: abs(v) ** 0.5 * eval_M(v, alpha), 0, np.inf, limit=200)
    assert 2.0 * ref == pytest.approx(1.0, rel=1e-9)
    assert moment(m, 0.5) == pytest.approx(1.0, rel=1e-4)


def test_moment_richardson():
    # halving the resolution changes tail-corrected moments below 1e-6
    vals = []
    for n in (128, 256):
        g = build_grid(n, 200.0)
        vals.append(moment(equilibrium_profile(g, 1.5), 0.5))
    assert abs(vals[1] - vals[0]) < 1e-6


def test_interp_exact_at_nodes(grid128):
    m = eval_M(grid128.nodes, 1.5)
    assert np.array_equal(grid128.interp(m, grid128.nodes), m)


def test_interp_off_node(grid128):
    m = eval_M(grid128.nodes, 1.5)
    x = np.linspace(-150, 150, 1001)
    assert np.max(np.abs(grid128.interp(m, x) - eval_M(x, 1.5))) < 1e-9
    # scalar in, scalar out
    assert np.ndim(grid128.interp(m, 0.37)) == 0


def test_interp_power_law_tail(grid128):
    m = eval_M(grid128.nodes, 1.5)
    for x in (250.0, -400.0, 2.0 * grid128.vmax):
        assert grid128.interp(m, x) == pytest.approx(eval_M(x, 1.5), rel=1e-3)


def test_spectral_derivative(grid128):
    m = eval_M(grid128.nodes, 1.5)
    d = grid128.deriv(m)
    assert np.max(np.abs(d - eval_M_deriv(grid128.nodes, 1.5))) < 1e-7


def test_antiderivative(grid128):
    m = eval_M(grid128.nodes, 1.5)
    n2 = grid128.n // 2
    _, edge_cum = grid128.antideriv_pos(m[n2:])
    half_mass = float(np.sum(grid128.weights[n2:] * m[n2:]))
    assert edge_cum[-1] == pytest.approx(half_mass, abs=1e-11)


def test_profile_algebra(grid128):
    a = equilibrium_profile(grid128, 1.5)
    b = 2.0 * a
    assert np.allclose((b - a).values, a.values)
    assert np.allclose((a + a).values, b.values)
    other = build_grid(160, 200.0)
    with pytest.raises(InvalidInput, match="profiles live on different grids"):
        a + equilibrium_profile(other, 1.5)
    with pytest.raises(InvalidInput, match="profile contains non-finite entries"):
        VelocityProfile(grid128, np.full(grid128.n, np.nan))
    with pytest.raises(InvalidInput, match=r"values shape \(3,\) != \(128,\)"):
        VelocityProfile(grid128, np.zeros(3))


def test_profile_call(grid128):
    m = equilibrium_profile(grid128, 1.5)
    assert m(0.5) == pytest.approx(eval_M(0.5, 1.5), rel=1e-10)


def test_callable_weight(grid128):
    m = equilibrium_profile(grid128, 1.5)
    got = moment(m, lambda v: np.exp(-(v**2)))
    ref, _ = quad(lambda v: np.exp(-(v**2)) * eval_M(v, 1.5), -np.inf, np.inf)
    assert got == pytest.approx(ref, rel=1e-8)


def test_norm_Z_value():
    # alpha = 1 is the Cauchy density: Z = pi
    assert norm_Z(1.0) == pytest.approx(np.pi, rel=1e-14)
    assert tail_gamma(1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_tail_fit_refuses_roundoff_triple():
    # far left tail of an unscaled lambda solve (160 nodes, vmax = 1e6,
    # alpha = 1.5): roundoff values put log c of the fit past the float range
    vv = np.array([792909.09932884, 908722.47065005, 981862.56282164])
    pp = np.array([2.04268445e-21, 1.77890362e-21, 4.50304838e-22])
    for sign in (1.0, -1.0):
        with pytest.raises(TailDivergence, match="left tail fit"):
            Tail.fit(vv, sign * pp, "left")


def test_interp_rows_linear_form(grid128):
    m = eval_M(grid128.nodes, 1.5)
    rng = np.random.default_rng(3)
    x = np.concatenate([grid128.nodes, rng.uniform(-grid128.vmax, grid128.vmax, 200), [0.0]])
    cols, coef = grid128.interp_rows(x)
    lin = np.sum(coef * m[cols], axis=1)
    assert np.array_equal(lin[: grid128.n], m)
    assert np.allclose(lin, grid128.interp(m, x), rtol=1e-14, atol=0)


_pos = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@given(
    v1=st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
    gaps=st.tuples(st.floats(min_value=1e-9, max_value=1e3), st.floats(min_value=1e-9, max_value=1e3)),
    pp=st.tuples(_pos, _pos, _pos),
)
def test_tail_fit_finite_or_refused(v1, gaps, pp):
    # three positive finite values on increasing |v| > 1: a finite fit or
    # TailDivergence, never a bare math, overflow or linear-algebra error
    vv = np.array([v1, v1 * (1 + gaps[0]), v1 * (1 + gaps[0]) * (1 + gaps[1])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = Tail.fit(vv, np.array(pp), "right")
        except TailDivergence:
            return
    assert all(np.isfinite(fit))
