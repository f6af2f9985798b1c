"""Collision machinery: Q, gain K, frequency nu, flight inverse, and T = -Q + E d/dv."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .params import CrossSection
from .velocity import VelocityGrid, VelocityProfile, eval_M

_LAG_Z, _LAG_W = np.polynomial.laguerre.laggauss(64)
_XG16, _WG16 = np.polynomial.legendre.leggauss(16)
# quadrature points per block when assembling or applying a flight plan:
# bounds the (points x PANEL_PTS) and (points x columns) arrays
_PLAN_BLOCK = 512


class CollisionContext:
    """Grid-bound collision data: equilibrium M, kernel matrix, frequency nu.

    nu is the plain quadrature sum nu(v) = sum_j w_j sigma(v_j, v) M(v_j);
    keeping it discrete makes mass conservation of Q exact by symmetry (at the
    price of an O(tail-mass) offset from nu0 for the constant cross section).
    Immutable after construction, except for a memo of the last flight plan
    of A^-1 (see `flight_inverse`), keyed by the field value E.
    """

    def __init__(self, grid: VelocityGrid, cross_section: CrossSection, alpha: float):
        self.grid = grid
        self.cross_section = cross_section
        self.alpha = float(alpha)
        self.M = VelocityProfile(grid, eval_M(grid.nodes, alpha))
        v = grid.nodes
        self.sigma_matrix = cross_section.sigma(v[:, None], v[None, :])
        nu_vals = (grid.weights[:, None] * self.sigma_matrix * self.M.values[:, None]).sum(axis=0)
        self.nu = VelocityProfile(grid, nu_vals)
        self.nu_min = float(nu_vals.min())
        # antiderivative N(v) = int_0^v nu, odd extension; linear beyond vmax
        # where nu is asymptotically constant
        n2 = grid.n // 2
        npos, edge_cum = grid.antideriv_pos(nu_vals[n2:])
        self._N_nodes = np.concatenate([(-npos)[::-1], npos])
        self._N_vmax = float(edge_cum[-1])
        self._nu_inf = float(nu_vals[-1])
        self._flight_plan: _FlightPlan | None = None

    def check_profile(self, f: VelocityProfile):
        if f.grid is not self.grid and f.grid != self.grid:
            raise InvalidInput("profile grid differs from context grid")

    def N(self, x) -> np.ndarray:
        """Antiderivative of nu at arbitrary points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        out = np.empty(len(x))
        inside = ax <= self.grid.vmax
        out[inside] = self.grid.interp(self._N_nodes, x[inside])
        far = ~inside
        if far.any():
            out[far] = np.sign(x[far]) * (self._N_vmax + self._nu_inf * (ax[far] - self.grid.vmax))
        return out


def apply_K(f: VelocityProfile, ctx: CollisionContext) -> VelocityProfile:
    """Gain term K(f)(v) = M(v) * sum_j w_j sigma(v, v_j) f(v_j)."""
    ctx.check_profile(f)
    g = ctx.grid
    gain = ctx.M.values * (g.weights[None, :] * ctx.sigma_matrix * f.values[None, :]).sum(axis=1)
    return VelocityProfile(g, gain)


def apply_Q(f: VelocityProfile, ctx: CollisionContext) -> VelocityProfile:
    """Linear collision operator Q(f) = K(f) - nu f."""
    ctx.check_profile(f)
    return VelocityProfile(ctx.grid, apply_K(f, ctx).values - ctx.nu.values * f.values)


class _FlightPlan(NamedTuple):
    """A^-1 at one field value E > 0: (A^-1 h)_i = (P h)_i + sum w h(q) over
    the tail points (q, w) of row i, which lie beyond vmax."""

    E: float
    P: np.ndarray
    rows_out: np.ndarray
    q_out: np.ndarray
    w_out: np.ndarray


def _flight_points(E: float, ctx: CollisionContext):
    """Quadrature of the flight integral at E > 0 as flat point arrays.

    Returns (row, s, c, z): point k adds c_k exp(z_k - damp_k) h(v_row - E s_k)
    to row `row`, with damp = (N(v) - N(v - E s))/E.
    """
    v = ctx.grid.nodes
    nmin = ctx.nu_min
    s0 = np.maximum(v, 0.0) / E
    # beyond the kink: s = s0 + z/nu_min, plain Laguerre
    rows = [np.repeat(np.arange(len(v)), len(_LAG_Z))]
    ss = [(s0[:, None] + _LAG_Z[None, :] / nmin).ravel()]
    cs = [np.tile(_LAG_W / nmin, len(v))]
    zs = [np.tile(_LAG_Z, len(v))]
    # before the kink (v > 0 only): smooth on (0, v], panels doubling in s to
    # resolve the exp(-nu s) decay, truncated once the damping is ~e^-45
    scap = 45.0 / nmin
    for i in np.nonzero(s0 > 0)[0]:
        smax = min(s0[i], scap)
        edges = [0.0]
        t = min(0.5 / nmin, smax)
        while t < smax:
            edges.append(t)
            t *= 2.0
        edges.append(smax)
        a, b = np.array(edges[:-1]), np.array(edges[1:])
        rows.append(np.full(len(a) * len(_XG16), i))
        ss.append(((a + b)[:, None] / 2 + (b - a)[:, None] / 2 * _XG16[None, :]).ravel())
        cs.append(((b - a)[:, None] / 2 * _WG16[None, :]).ravel())
        zs.append(np.zeros(len(a) * len(_XG16)))
    return tuple(np.concatenate(parts) for parts in (rows, ss, cs, zs))


def _build_flight_plan(E: float, ctx: CollisionContext) -> _FlightPlan:
    g = ctx.grid
    n = g.n
    row, s, c, z = _flight_points(E, ctx)
    q = g.nodes[row] - E * s
    Nv = ctx.N(g.nodes)
    P = np.zeros(n * n)
    outside = []
    for lo in range(0, len(q), _PLAN_BLOCK):
        blk = slice(lo, lo + _PLAN_BLOCK)
        r, qb = row[blk], q[blk]
        w = c[blk] * np.exp(z[blk] - (Nv[r] - ctx.N(qb)) / E)
        inside = np.abs(qb) <= g.vmax
        cols, coef = g.interp_rows(qb[inside])
        P += np.bincount((r[inside, None] * n + cols).ravel(),
                         (coef * w[inside, None]).ravel(), minlength=n * n)
        outside.append((r[~inside], qb[~inside], w[~inside]))
    rows_out, q_out, w_out = (np.concatenate(parts) for parts in zip(*outside))
    return _FlightPlan(E, P.reshape(n, n), rows_out, q_out, w_out)


def apply_A_inverse(h: VelocityProfile, E: float, ctx: CollisionContext) -> VelocityProfile:
    """Inverse of A = nu + E d/dv along accelerated flights.

    (A^-1 h)(v) = int_0^inf exp(-int_0^s nu(v - E tau) dtau) h(v - E s) ds,
    with the damping integral taken as the exact antiderivative difference
    (N(v) - N(v - E s))/E.  nu and h may have a |v|-type kink at v = 0, so
    the s-integral is split at the crossing s = v/E: composite Gauss-Legendre
    before it, shifted Gauss-Laguerre (scaled by 1/min(nu)) after it.  Beyond
    vmax, h is its power-law tail fit, and a diverging fit is refused.
    """
    ctx.check_profile(h)
    out = flight_inverse(E, ctx, h.values[:, None], lambda q: ctx.grid.interp(h.values, q)[:, None])
    return VelocityProfile(ctx.grid, out[:, 0])


def flight_inverse(E: float, ctx: CollisionContext, nodal: np.ndarray, beyond) -> np.ndarray:
    """A^-1 (see `apply_A_inverse`) of the columns of `nodal` (n x m), whose
    values at points |q| > vmax are `beyond(q)` (len(q) x m); exact values
    make the result linear.  The context memoises a flight plan per E: its
    points inside [-vmax, vmax] collapse into one interpolating n x n matrix P.
    E = 0 divides by nu; E < 0 mirrors onto |E| (N is odd, the grid symmetric).
    """
    if E == 0.0:
        return nodal / ctx.nu.values[:, None]
    if E < 0.0:
        return flight_inverse(-E, ctx, nodal[::-1], lambda q: beyond(-q))[::-1]
    plan = ctx._flight_plan
    if plan is None or plan.E != E:
        plan = ctx._flight_plan = _build_flight_plan(E, ctx)
    out = plan.P @ nodal
    for lo in range(0, len(plan.q_out), _PLAN_BLOCK):
        blk = slice(lo, lo + _PLAN_BLOCK)
        np.add.at(out, plan.rows_out[blk], plan.w_out[blk, None] * beyond(plan.q_out[blk]))
    return out


def apply_T(f: VelocityProfile, E: float, ctx: CollisionContext) -> VelocityProfile:
    """T(f) = -Q(f) + E df/dv with the panel-spectral derivative."""
    ctx.check_profile(f)
    out = -apply_Q(f, ctx).values
    if E != 0.0:
        out = out + E * ctx.grid.deriv(f.values)
    return VelocityProfile(ctx.grid, out)


def dissipation_Q(f: VelocityProfile, ctx: CollisionContext) -> tuple[float, float]:
    """Coercivity pair for Q: (-int Q(f) f/M, nu1 * int |f - rho_f M|^2 / M).

    Discrete form of the bound: by symmetry of sigma the dissipation equals
    (1/2) sum_ij w_i w_j sigma_ij M_i M_j (f_i/M_i - f_j/M_j)^2, which is
    bounded below by min(sigma) * m0 * ||f - (rho/m0) M||^2 with m0 the grid
    mass of M (equality for constant sigma).  The continuum nu1 constant
    overshoots by exactly the tail mass, so the discrete constant is used.
    """
    ctx.check_profile(f)
    g = ctx.grid
    qf = apply_Q(f, ctx).values
    lhs = -float(np.sum(g.weights * qf * f.values / ctx.M.values))
    m0 = float(np.sum(g.weights * ctx.M.values))
    rho = float(np.sum(g.weights * f.values)) / m0
    dev = f.values - rho * ctx.M.values
    nu1 = float(ctx.sigma_matrix.min()) * m0
    rhs = nu1 * float(np.sum(g.weights * dev**2 / ctx.M.values))
    return lhs, rhs


def dissipation_T(
    f: VelocityProfile, E: float, F: VelocityProfile, ctx: CollisionContext
) -> tuple[float, float]:
    """Coercivity pair for T: (int T(f) f/F, that value over ||f - rho_f F||^2_{F^-1})."""
    ctx.check_profile(f)
    ctx.check_profile(F)
    res = float(np.max(np.abs(apply_T(F, E, ctx).values)))
    if res > 1e-3:
        raise InvalidInput(f"T(F) residual {res:.2e} too large for a coercivity test")
    g = ctx.grid
    tf = apply_T(f, E, ctx).values
    lhs = float(np.sum(g.weights * tf * f.values / F.values))
    rho = float(np.sum(g.weights * f.values))
    dev = f.values - rho * F.values
    denom = float(np.sum(g.weights * dev**2 / F.values))
    theta = lhs / denom if denom > 0 else np.inf
    return lhs, theta
