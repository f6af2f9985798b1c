import numpy as np
import pytest

from fraclimit import (
    CollisionContext,
    CrossSection,
    VelocityGrid,
    VelocityProfile,
    apply_A_inverse,
    apply_K,
    apply_Q,
    apply_T,
    dissipation_Q,
    dissipation_T,
    eval_M,
    gamma_of_M,
)
from fraclimit.collision import _flight_points
from fraclimit.equilibrium import solve_F
from fraclimit.errors import InvalidInput


def _random_profile(ctx, rng, positive=False):
    base = ctx.M.values * (1.0 + 0.8 * rng.uniform(-1, 1, ctx.grid.n))
    if positive:
        base = np.abs(base) + 1e-8 * ctx.M.values
    return VelocityProfile(ctx.grid, base)


def _smooth_random_profile(ctx, rng):
    # T-dissipation differentiates the profile, so the perturbation must be a
    # resolvable function of v (nodal noise has no meaningful derivative)
    v = ctx.grid.nodes
    mod = np.ones(ctx.grid.n)
    for _ in range(4):
        a = rng.uniform(-0.4, 0.4)
        c = rng.uniform(-5.0, 5.0)
        s = rng.uniform(0.5, 2.0)
        mod += a * np.exp(-((v - c) ** 2) / (2 * s**2))
    return VelocityProfile(ctx.grid, ctx.M.values * mod)


def test_nu_constant_sigma(ctx15):
    nu = ctx15.nu.values
    # exactly constant across nodes, offset from nu0 by the grid's tail mass
    assert np.ptp(nu) < 1e-13
    tau = 2.0 * gamma_of_M(1.5) * ctx15.grid.vmax ** (-1.5) / 1.5
    assert abs(nu[0] - 1.0) <= 1.0 * tau


def test_nu_perturbed_bounds(ctx15p):
    cs = ctx15p.cross_section
    nu = ctx15p.nu.values
    assert np.all(nu > cs.nu1 * 0.99) and np.all(nu < cs.nu2)
    # nu(v) -> nu0-ish for large |v| (perturbation decays like 1/(1+|v|))
    assert abs(nu[-1] - nu[0]) < 1e-12  # symmetric
    assert nu[ctx15p.grid.n // 2] > nu[-1]


@pytest.mark.parametrize("amplitude", [0.5, -0.5])
def test_nu_off_grid_is_the_quadrature_sum(grid128, amplitude):
    # nu_at between the nodes and beyond vmax, where L_eps and chi_eps
    # evaluate it, is the nodal sum sum_j w_j sigma(v_j, v) M_j
    cs = CrossSection(1.0, amplitude)
    ctx = CollisionContext(grid128, cs, 1.5)
    nodes = grid128.nodes
    mid = (nodes[:-1] + nodes[1:]) / 2
    far = grid128.vmax * np.array([1.5, 10.0, 1e4])
    v = np.concatenate([mid, far, -far])
    ref = (grid128.weights * ctx.M.values * cs.sigma(nodes[None, :], v[:, None])).sum(axis=1)
    assert np.max(np.abs(ctx.nu_at(v) / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("ctxname", ["ctx15", "ctx15p"])
def test_Q_annihilates_M(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    q = apply_Q(ctx.M, ctx)
    assert np.max(np.abs(q.values)) < 1e-14


@pytest.mark.parametrize("ctxname", ["ctx15", "ctx15p"])
def test_Q_conserves_mass(ctxname, request, rng):
    ctx = request.getfixturevalue(ctxname)
    for _ in range(10):
        f = _random_profile(ctx, rng)
        q = apply_Q(f, ctx)
        assert abs(np.sum(ctx.grid.weights * q.values)) < 1e-12


def test_K_positive(ctx15, rng):
    f = _random_profile(ctx15, rng, positive=True)
    assert np.all(apply_K(f, ctx15).values > 0)


def test_grid_mismatch(ctx15):
    other = VelocityGrid(160, 200.0)
    f = VelocityProfile(other, eval_M(other.nodes, 1.5))
    with pytest.raises(InvalidInput, match="profile grid differs from context grid"):
        apply_Q(f, ctx15)


def test_A_inverse_field_free(ctx15, rng):
    f = _random_profile(ctx15, rng)
    g = apply_A_inverse(f, 0.0, ctx15)
    assert np.allclose(g.values, f.values / ctx15.nu.values)


def test_A_inverse_inverts_A(ctx15):
    # apply A = nu + E d/dv to A^-1(h) and recover h
    E = 0.5
    h = VelocityProfile(ctx15.grid, ctx15.nu.values * ctx15.M.values)
    g = apply_A_inverse(h, E, ctx15)
    back = ctx15.nu.values * g.values + E * ctx15.grid.deriv(g.values)
    assert np.max(np.abs(back - h.values)) < 1e-5


def test_A_inverse_positivity(ctx15):
    h = VelocityProfile(ctx15.grid, ctx15.nu.values * ctx15.M.values)
    g = apply_A_inverse(h, 0.5, ctx15)
    assert np.all(g.values > 0)


def test_T_residual_on_equilibrium():
    # demanding tolerance needs a far-out grid: the residual floor is set by
    # the tail mass beyond vmax
    grid = VelocityGrid(192, 4000.0)
    ctx = CollisionContext(grid, CrossSection(1.0), 1.5)
    F = solve_F(0.5, ctx)
    res = apply_T(F.profile, 0.5, ctx)
    assert np.max(np.abs(res.values)) < 1e-6


@pytest.mark.parametrize("ctxname", ["ctx15", "ctx15p"])
def test_dissipation_Q_coercive(ctxname, request, rng):
    ctx = request.getfixturevalue(ctxname)
    for _ in range(100):
        f = _random_profile(ctx, rng)
        lhs, rhs = dissipation_Q(f, ctx)
        assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs))
        assert rhs >= 0.0


@pytest.mark.parametrize("E", [0.0, 0.5])
def test_dissipation_T_nonnegative(ctx15, rng, E):
    F = solve_F(E, ctx15).profile
    thetas = []
    for _ in range(25):
        f = _smooth_random_profile(ctx15, rng)
        lhs, theta = dissipation_T(f, E, F, ctx15)
        assert lhs >= -1e-10
        thetas.append(theta)
    assert min(thetas) > 0.0


def test_dissipation_T_rejects_non_equilibrium(ctx15):
    # M is not the kernel of T at E = 0.5
    with pytest.raises(InvalidInput, match="too large for a coercivity test"):
        dissipation_T(ctx15.M, 0.5, ctx15.M, ctx15)


def _nu_antiderivative(ctx):
    """N(v) = int_0^v nu of the nodal frequency nu(v) = sum_j w_j sigma(v_j, v) M_j:
    sigma = nu0 + a/((1+|v|)(1+|v'|)) gives N(v) = c0 v + c1 sign(v) log(1+|v|)."""
    g, cs = ctx.grid, ctx.cross_section
    wM = g.weights * ctx.M.values
    c0 = cs.nu0 * np.sum(wM)
    c1 = cs.amplitude * np.sum(wM / (1.0 + np.abs(g.nodes)))
    return lambda x: c0 * x + c1 * np.sign(x) * np.log(1.0 + np.abs(x))


def _A_inverse_reference(h, E, ctx):
    """Per-point flight quadrature of A^-1 (E != 0): Gauss-Laguerre past the
    kink s = v/E, doubling Gauss-Legendre panels before it, h interpolated at
    every point and the damping taken as (N(v) - N(q))/E.  Returns
    (A^-1 h, number of points beyond vmax)."""
    g = ctx.grid
    if E < 0:
        out, n_out = _A_inverse_reference(VelocityProfile(g, h.values[::-1]), -E, ctx)
        return out[::-1], n_out
    N = _nu_antiderivative(ctx)
    zl, wl = np.polynomial.laguerre.laggauss(64)
    xg, wg = np.polynomial.legendre.leggauss(16)
    nmin = ctx.nu_min
    out = np.zeros(g.n)
    n_out = 0
    for i, v in enumerate(g.nodes):
        Nv = N(v)
        s0 = max(v, 0.0) / E
        q = v - E * (s0 + zl / nmin)
        n_out += int(np.sum(np.abs(q) > g.vmax))
        out[i] = np.sum(wl * np.exp(zl - (Nv - N(q)) / E) * g.interp(h.values, q)) / nmin
        if s0 <= 0:
            continue
        smax = min(s0, 45.0 / nmin)
        edges = [0.0]
        t = min(0.5 / nmin, smax)
        while t < smax:
            edges.append(t)
            t *= 2.0
        edges.append(smax)
        for a, b in zip(edges[:-1], edges[1:]):
            q = v - E * ((a + b) / 2 + (b - a) / 2 * xg)
            out[i] += (b - a) / 2 * np.sum(wg * np.exp(-(Nv - N(q)) / E) * g.interp(h.values, q))
    return out, n_out


@pytest.fixture(scope="module")
def ctx15p_short():
    # short grid: the Laguerre points leave [-vmax, vmax] and use the tail fit
    return CollisionContext(VelocityGrid(128, 40.0), CrossSection(1.0, 0.5), 1.5)


@pytest.mark.parametrize("E", [0.5, -0.5, 0.05])
def test_A_inverse_matches_per_point_quadrature(ctx15p_short, E):
    ctx = ctx15p_short
    v = ctx.grid.nodes
    h = VelocityProfile(ctx.grid, ctx.nu.values * ctx.M.values * (1 + 0.4 * np.tanh(v)))
    ref, n_out = _A_inverse_reference(h, E, ctx)
    assert n_out > 0
    out = apply_A_inverse(h, E, ctx).values
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(out))


def test_A_inverse_plan_memo_not_stale(ctx15p_short):
    # one context solving at E1, E2, E1 gives bitwise what fresh contexts give
    grid = ctx15p_short.grid
    ctx = CollisionContext(grid, CrossSection(1.0, 0.5), 1.5)
    fields = (0.3, 0.1, 0.3)
    shared = [solve_F(E, ctx).profile.values for E in fields]
    for E, got in zip(fields, shared):
        fresh = solve_F(E, CollisionContext(grid, CrossSection(1.0, 0.5), 1.5))
        assert np.array_equal(got, fresh.profile.values)


def _panel_points_per_row(E, ctx):
    """The doubling Legendre panels before the kink s0 = v/E, row by row:
    edges 0, 0.5/nu_min doubling while below smax = min(s0, 45/nu_min), smax."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    nmin = ctx.nu_min
    rows, ss, cs = [], [], []
    for i, v in enumerate(ctx.grid.nodes):
        if v <= 0:
            continue
        smax = min(v / E, 45.0 / nmin)
        edges = [0.0]
        t = min(0.5 / nmin, smax)
        while t < smax:
            edges.append(t)
            t *= 2.0
        edges.append(smax)
        a, b = np.array(edges[:-1]), np.array(edges[1:])
        rows.append(np.full(len(a) * len(xg), i))
        ss.append(((a + b)[:, None] / 2 + (b - a)[:, None] / 2 * xg[None, :]).ravel())
        cs.append(((b - a)[:, None] / 2 * wg[None, :]).ravel())
    return tuple(np.concatenate(parts) for parts in (rows, ss, cs))


@pytest.mark.parametrize("E", [0.05, 0.5, 50.0])
def test_flight_points_match_per_row_doubling(ctx15p_short, E):
    # E = 50 leaves the inner rows a single panel (s0 < 0.5/nu_min), E = 0.05
    # truncates the outer ones at 45/nu_min
    ctx = ctx15p_short
    n2 = ctx.grid.n // 2
    row, s, c, z = _flight_points(E, ctx)
    leg = row >= n2
    for got, ref in zip((row[leg], s[leg], c[leg]), _panel_points_per_row(E, ctx)):
        assert np.array_equal(got, ref)
    assert np.all(z[leg] == 0.0)
    # rows v < 0: the plain Laguerre rule, 64 points each
    zl, wl = np.polynomial.laguerre.laggauss(64)
    assert np.array_equal(row[~leg], np.repeat(np.arange(n2), 64))
    assert np.array_equal(s[~leg], np.tile(zl / ctx.nu_min, n2))
    assert np.array_equal(c[~leg], np.tile(wl / ctx.nu_min, n2))


def _A_inverse_per_point(h, E, ctx):
    """A^-1 h (E > 0) with every row's Laguerre points past the kink taken on
    their own, s = v/E + z/nu_min: the closed-form damping and an
    interpolation of h (its tail beyond vmax) at each point."""
    g = ctx.grid
    n2 = g.n // 2
    zl, wl = np.polynomial.laguerre.laggauss(64)
    row, s, c, z = _flight_points(E, ctx)
    pos = np.arange(n2, g.n)
    row = np.concatenate([row, np.repeat(pos, 64)])
    s = np.concatenate([s, (g.nodes[pos, None] / E + zl / ctx.nu_min).ravel()])
    c = np.concatenate([c, np.tile(wl / ctx.nu_min, n2)])
    z = np.concatenate([z, np.tile(zl, n2)])
    v = g.nodes[row]
    q = v - E * s
    A, B = ctx.nu_coefficients
    av, aq = np.abs(v), np.abs(q)
    same_side = (q >= 0) == (v >= 0)
    logs = np.where(same_side, np.log1p(E * s / (1.0 + np.minimum(av, aq))), np.log1p(av) + np.log1p(aq))
    w = c * np.exp(z - A * s - B / E * logs)
    return np.bincount(row, w * g.interp(h.values, q), minlength=g.n)


@pytest.mark.parametrize("E", [0.5, 0.05])
@pytest.mark.parametrize("amplitude", [0.5, -0.5, 0.0])
def test_A_inverse_shared_block_matches_per_point_assembly(ctx15p_short, amplitude, E):
    ctx = CollisionContext(ctx15p_short.grid, CrossSection(1.0, amplitude), 1.5)
    v = ctx.grid.nodes
    h = VelocityProfile(ctx.grid, ctx.nu.values * ctx.M.values * (1 + 0.4 * np.tanh(v)))
    out = apply_A_inverse(h, E, ctx).values
    ref = _A_inverse_per_point(h, E, ctx)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    # at E = 0.5 some shared points lie beyond vmax: every row v > 0 gets them
    shared_out = np.unique(ctx._flight_plan.rows_out[v[ctx._flight_plan.rows_out] > 0])
    assert len(shared_out) == (ctx.grid.n // 2 if E == 0.5 else 0)
