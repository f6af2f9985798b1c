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
from fraclimit.velocity import _LOG_MAX, PANEL_PTS, Tail, _tail_fit3


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


@pytest.mark.parametrize("vv", [[2.0, 2.0, 3.0], [1e160, 2e160, 3e160], [1e170, 2e170, 3e170]])
def test_tail_fit_refuses_singular_system(vv):
    # a repeated node, or v^-2 underflowing to subnormals or to 0: the system
    # is singular (det = 0) or leaves b not finite
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


def _tail_fit_reference(vv, pp):
    """(log c, q, b) of log p = log c - q log v + b v^-2 by a pivoted 3 x 3 LU solve."""
    return np.linalg.solve(np.column_stack([np.ones(3), -np.log(vv), vv**-2.0]), np.log(pp))


@pytest.mark.parametrize("vmax", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("c, q, b", [(0.3, 2.5, 4.0), (5.0, 2.2, -3.0), (1e-3, 3.5, 50.0), (40.0, 3.0, 0.0)])
def test_tail_fit_closed_form_matches_linear_solve(vmax, c, q, b):
    # the Cramer solve of the row differences against the 3 x 3 solve, on
    # exact and perturbed tails, both sides, both signs: log c and q agree to
    # 1e-10 relative (b, a v^-2 term, is ill-determined on far grids)
    g = VelocityGrid(128, vmax)
    rng = np.random.default_rng(int(np.log10(vmax)))
    exact = c * np.abs(g.nodes) ** -q * (1.0 + b * g.nodes**-2.0)
    for values in (exact, exact * (1.0 + 1e-3 * rng.uniform(-1, 1, g.n)), exact * (1.0 + np.sign(g.nodes) * 0.2)):
        for sign in (1.0, -1.0):
            tail = Tail(g, sign * values)
            for (cf, qf, bf), vv, pp in ((tail.right, g.nodes[-3:], values[-3:]),
                                         (tail.left, -g.nodes[:3][::-1], values[:3][::-1])):
                ref = _tail_fit_reference(vv, pp)
                assert np.sign(cf) == sign and np.isfinite(bf)
                assert abs(np.log(abs(cf)) - ref[0]) <= 1e-10 * abs(ref[0])
                assert abs(qf - ref[1]) <= 1e-10 * abs(ref[1])


@pytest.mark.parametrize("vv, pp", [
    ([10.0, 20.0, 40.0], [1.0, np.nan, 0.2]),  # a value not finite
    ([10.0, 20.0, 40.0], [1.0, np.inf, 0.2]),
    ([10.0, np.inf, 40.0], [1.0, 0.5, 0.2]),  # a node not finite
    ([10.0, 20.0, 40.0], [1.0, 0.0, 0.2]),  # log 0
    ([10.0, 20.0, 40.0], [1.0, -0.5, 0.2]),  # log of a negative value
    ([-10.0, 20.0, 40.0], [1.0, 0.5, 0.2]),
    ([0.0, 20.0, 40.0], [1.0, 0.5, 0.2]),  # 1/v^2 at v = 0
    ([1e-200, 2e-200, 3e-200], [1.0, 0.5, 0.2]),  # v^-2 overflows
])
def test_tail_fit_refusals_are_tail_divergence(vv, pp):
    # a refusal is TailDivergence with the one message, never a bare
    # ZeroDivisionError, ValueError or OverflowError from float arithmetic
    # (singular systems: test_tail_fit_refuses_singular_system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TailDivergence, match=r"^right tail fit c\|v\|\^-q \(1 \+ b v\^-2\) is not finite: "
                                                 r"\|v\| = \[.*\], \|values\| \[.*\], \(log c, q, b\) = \[.*\]$"):
            _tail_fit3(np.array(vv), np.array(pp), "right")


def test_tail_fit_log_c_bound():
    # log c just inside the float range is a finite fit, just past it refused
    vv = np.array([10.0, 20.0, 40.0])
    for log_c, ok in ((_LOG_MAX - 1.0, True), (_LOG_MAX + 1.0, False)):
        pp = np.exp(log_c - 2.0 * np.log(vv))
        if ok:
            c, q, b = _tail_fit3(vv, pp, "left")
            assert np.isfinite(c) and abs(q - 2.0) < 1e-12
        else:
            with pytest.raises(TailDivergence, match="left tail fit"):
                _tail_fit3(vv, pp, "left")


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
