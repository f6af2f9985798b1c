import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclimit import (
    VelocityGrid,
    VelocityProfile,
    eval_M,
    gamma_of_M,
    moment,
    norm_Z,
)
from fraclimit.equilibrium import eval_M_deriv
from fraclimit.errors import InvalidInput, TailDivergence
from fraclimit.velocity import PANEL_PTS, Tail


def test_build_grid_validation():
    with pytest.raises(InvalidInput, match="n_nodes=100 must be a positive multiple of 32"):
        VelocityGrid(100, 50.0)  # not a multiple of 32
    with pytest.raises(InvalidInput, match="n_nodes=-64 must be a positive multiple"):
        VelocityGrid(-64, 50.0)
    # the linear inner panel is [0, 1], so vmax must exceed 1
    for vmax in (-1.0, 1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInput, match=f"vmax={vmax} must be finite and exceed 1"):
            VelocityGrid(128, vmax)


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
    m = VelocityProfile(grid128, eval_M(grid128.nodes, alpha))
    # tail-corrected mass matches the analytic normalization
    assert moment(m, 0) == pytest.approx(1.0, abs=1e-8)
    # plain grid sum misses the analytic tail mass (tau is first order in
    # vmax^-alpha; the next term is O(vmax^-alpha-2))
    tau = 2.0 * gamma_of_M(alpha) * grid128.vmax ** (-alpha) / alpha
    assert np.sum(grid128.weights * m.values) == pytest.approx(1.0 - tau, abs=1e-7)


def test_odd_moment_vanishes(grid128):
    m = VelocityProfile(grid128, eval_M(grid128.nodes, 1.5))
    assert abs(moment(m, 1)) < 1e-12


def test_divergent_moment_is_refused(grid128):
    # at alpha = 1, M ~ |v|^-2: the first and second moments do not exist
    m = VelocityProfile(grid128, eval_M(grid128.nodes, 1.0))
    for p in (1, 2):
        with pytest.raises(TailDivergence, match="right tail .* is not integrable"):
            moment(m, p)


def test_moment_richardson():
    # halving the resolution changes tail-corrected moments below 1e-6
    vals = []
    for n in (128, 256):
        g = VelocityGrid(n, 200.0)
        vals.append(moment(VelocityProfile(g, eval_M(g.nodes, 1.5)), 0))
    assert abs(vals[1] - vals[0]) < 1e-6


@pytest.mark.parametrize("p", [0.5, 1.0, -1])
def test_moment_refuses_non_integer_or_negative_order(grid128, p):
    # the weight is v^p for an integer order only: 1.0 is refused, not read as |v|
    m = VelocityProfile(grid128, eval_M(grid128.nodes, 1.5))
    with pytest.raises(InvalidInput, match="must be a non-negative integer"):
        moment(m, p)


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


def test_profile_refusals(grid128):
    with pytest.raises(InvalidInput, match="profile contains non-finite entries"):
        VelocityProfile(grid128, np.full(grid128.n, np.nan))
    with pytest.raises(InvalidInput, match=r"values shape \(3,\) != \(128,\)"):
        VelocityProfile(grid128, np.zeros(3))


def test_profile_call(grid128):
    m = VelocityProfile(grid128, eval_M(grid128.nodes, 1.5))
    assert m(0.5) == pytest.approx(eval_M(0.5, 1.5), rel=1e-10)


def test_norm_Z_value():
    # alpha = 1 is the Cauchy density: Z = pi
    assert norm_Z(1.0) == pytest.approx(np.pi, rel=1e-14)
    assert gamma_of_M(1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)


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
    edges, vmax = grid128.edges, grid128.vmax
    x = np.concatenate([grid128.nodes, rng.uniform(-vmax, vmax, 200), [0.0],
                        edges, -edges, [vmax, -vmax]])
    cols, coef = grid128.interp_rows(x)
    # node-major: one row per panel point, one column per x
    assert cols.shape == coef.shape == (PANEL_PTS, len(x))
    lin = np.sum(coef * m[cols], axis=0)
    # a point on a node gets the one-hot column of that node
    on_node = coef[:, : grid128.n] == 1.0
    assert np.all(on_node.sum(axis=0) == 1) and np.all(coef[:, : grid128.n][~on_node] == 0.0)
    assert np.array_equal(np.sum(cols[:, : grid128.n] * on_node, axis=0), np.arange(grid128.n))
    assert np.array_equal(lin[: grid128.n], m)
    assert np.allclose(lin, grid128.interp(m, x), rtol=1e-14, atol=0)
    # panel boundaries (t = -1 or +1) and 0 interpolate M like interior points
    assert np.max(np.abs(lin - eval_M(x, 1.5))) < 1e-9


@pytest.mark.parametrize("vv", [[2.0, 2.0, 3.0], [1e160, 2e160, 3e160]])
def test_tail_fit_refuses_singular_system(vv):
    # a repeated node, or v^-2 underflowing to 0: the 3 x 3 system is singular
    with pytest.raises(TailDivergence, match=r"right tail fit .* is not finite"):
        Tail.fit(np.array(vv), np.array([1.0, 0.5, 0.2]), "right")


@pytest.mark.parametrize("c, q, b", [(0.3, 2.5, 4.0), (0.3, 2.5, -4.0), (1e-3, 3.5, 50.0), (0.7, 3.0, 0.0)])
def test_tail_fit_far_grid_pins_c_and_q(c, q, b):
    # an exact tail c|v|^-q (1 + b v^-2) on the far grid of criterion 2: c and
    # q come back to roundoff (measured <= 6e-12 and 4.3e-13).  b does not:
    # b v^-2 ~ 1e-12 of log p, so b is only good to a few percent, with this
    # basis or the rescaled (log(v/v3), (v3/v)^2) alike.
    g = VelocityGrid(160, 1e6)
    tail = Tail(g, c * np.abs(g.nodes) ** -q * (1.0 + b * g.nodes**-2.0))
    for cf, qf, bf in (tail.right, tail.left):
        assert abs(cf / c - 1.0) <= 5e-11 and abs(qf - q) <= 5e-12 and np.isfinite(bf)


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
