"""Collision machinery: Q, gain K, frequency nu, flight inverse, and T = -Q + E d/dv."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .params import CrossSection
from .velocity import _LAG_W, _LAG_Z, _WG, _XG, VelocityGrid, VelocityProfile, eval_M

# panel edges before the kink, in units of 0.5/nu_min; 0.5 * 2^7 > 45, so the
# last one always lies past the 45/nu_min truncation
_DOUBLING = 2.0 ** np.arange(8)
# quadrature points per block when assembling or applying a flight plan:
# bounds the (PANEL_PTS x points) and (points x columns) arrays; at 1024 the
# former hold 16384 entries, no more than a 128 x 128 matrix of the u solve
_PLAN_BLOCK = 1024


class CollisionContext:
    """Grid-bound collision data: equilibrium M, kernel matrix, frequency nu.

    nu(v) = int sigma(v', v) M(v') dv' = A + B/(1+|v|) for the cross section
    sigma = nu0 + a/((1+|v|)(1+|v'|)), with (A, B) = `nu_coefficients` =
    (nu0 m0, a m1) from the grid moments m0 = sum_j w_j M_j and
    m1 = sum_j w_j M_j/(1+|v_j|): at the nodes it is the quadrature sum
    sum_j w_j sigma(v_j, v) M_j, so mass conservation of Q is exact by
    symmetry (at the price of an O(tail-mass) offset from nu0 for the
    constant cross section), and it is the same closed form off the grid.
    Immutable after construction, except for two memos keyed by the field
    value E: the last flight plan of A^-1 (see `flight_inverse`), and
    u = (F - M)/E at E = 0 and the last E (see `equilibrium._solve_u`).
    """

    def __init__(self, grid: VelocityGrid, cross_section: CrossSection, alpha: float):
        self.grid = grid
        self.cross_section = cross_section
        self.alpha = float(alpha)
        self.M = VelocityProfile(grid, eval_M(grid.nodes, alpha))
        v = grid.nodes
        self.sigma_matrix = cross_section.sigma(v[:, None], v[None, :])
        wM = grid.weights * self.M.values
        self.nu_coefficients = (cross_section.nu0 * float(np.sum(wM)),
                                cross_section.amplitude * float(np.sum(wM / (1.0 + np.abs(v)))))
        self.nu = VelocityProfile(grid, self.nu_at(v))
        self.nu_min = float(self.nu.values.min())
        self._flight_plan: _FlightPlan | None = None
        self._u_memo: dict[float, np.ndarray] = {}

    def nu_at(self, v):
        """nu at arbitrary points, inside the grid or beyond vmax."""
        A, B = self.nu_coefficients
        return A + B / (1.0 + np.abs(np.asarray(v, dtype=float)))

    def check_profile(self, f: VelocityProfile):
        if f.grid is not self.grid and f.grid != self.grid:
            raise InvalidInput("profile grid differs from context grid")


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
    """Per-row quadrature of the flight integral at E > 0 as flat point arrays.

    Returns (row, s, c, z): point k adds c_k exp(z_k - damp_k) h(v_row - E s_k)
    to row `row`, with damp = int_0^s nu(v - E t) dt.  Rows v > 0 get only
    their panels before the kink s0 = v/E: past it, all of them share one
    set of points (see `_build_flight_plan`).
    """
    v = ctx.grid.nodes
    n2 = len(v) // 2
    nmin = ctx.nu_min
    # rows v < 0 never reach the kink: s = z/nu_min, plain Laguerre
    lag = (np.repeat(np.arange(n2), len(_LAG_Z)), np.tile(_LAG_Z / nmin, n2),
           np.tile(_LAG_W / nmin, n2), np.tile(_LAG_Z, n2))
    # rows v > 0 before the kink: smooth on (0, s0], panels doubling in s to
    # resolve the exp(-nu s) decay, truncated once the damping is ~e^-45; one
    # edge table for all rows, edges past smax clamped to it and the empty
    # panels this leaves dropped
    smax = np.minimum(v[n2:] / E, 45.0 / nmin)
    edges = np.column_stack([np.zeros(n2), np.minimum(0.5 / nmin * _DOUBLING, smax[:, None])])
    keep = edges[:, 1:] > edges[:, :-1]
    a, b = edges[:, :-1][keep], edges[:, 1:][keep]
    leg = (np.repeat(n2 + np.nonzero(keep)[0], len(_XG)),
           ((a + b)[:, None] / 2 + (b - a)[:, None] / 2 * _XG[None, :]).ravel(),
           ((b - a)[:, None] / 2 * _WG[None, :]).ravel(), np.zeros(len(a) * len(_XG)))
    return tuple(np.concatenate(parts) for parts in zip(lag, leg))


def _build_flight_plan(E: float, ctx: CollisionContext) -> _FlightPlan:
    g = ctx.grid
    n, n2 = g.n, g.n // 2
    A, B = ctx.nu_coefficients
    # the points of `_flight_points`: point k adds w_k h(q_k) to row `row`,
    # with q = v - E s and w = c exp(z - damp)
    row, s, c, z = _flight_points(E, ctx)
    v = g.nodes[row]
    q = v - E * s
    # the damping int_0^s nu(v - E t) dt of nu = A + B/(1+|w|) in closed form,
    # A s plus B/E times the log of (1 + max(|v|,|q|))/(1 + min(|v|,|q|)) while
    # the flight stays on one side of 0, or of (1+|v|)(1+|q|) once it crossed it
    av, aq = np.abs(v), np.abs(q)
    logs = np.where((q >= 0) == (v >= 0), np.log1p(E * s / (1.0 + np.minimum(av, aq))),
                    np.log1p(av) + np.log1p(aq))
    w = c * np.exp(z - A * s - B / E * logs)
    del v, s, c, z, av, aq, logs  # free the point temporaries before P's blocks allocate
    P = np.zeros(n * n)
    outside = np.abs(q) > g.vmax
    for lo in range(0, len(q), _PLAN_BLOCK):
        blk = slice(lo, lo + _PLAN_BLOCK)
        inside = ~outside[blk]
        cols, coef = g.interp_rows(q[blk][inside])
        cols += row[blk][inside] * n
        coef *= w[blk][inside]
        P += np.bincount(cols.ravel(), coef.ravel(), minlength=n * n)
    P = P.reshape(n, n)
    # rows v > 0 past the kink, s = v/E + z/nu_min, share the points
    # q = -E z/nu_min, and their damping splits into a row part
    # A v/E + B/E log1p(v) and a point part A z/nu_min + B/E log1p(|q|): their
    # block of P is the rank-one r (x) p, p the weighted rows of the points
    zn = _LAG_Z / ctx.nu_min
    qs = -E * zn
    ws = _LAG_W / ctx.nu_min * np.exp(_LAG_Z - A * zn - B / E * np.log1p(E * zn))
    vp = g.nodes[n2:]
    r = np.exp(-A * vp / E - B / E * np.log1p(vp))
    far = -qs > g.vmax
    cols, coef = g.interp_rows(qs[~far])
    P[n2:] += np.outer(r, np.bincount(cols.ravel(), (coef * ws[~far]).ravel(), minlength=n))
    # their points beyond vmax join the tail points once per row
    rows_out = np.concatenate([row[outside], np.repeat(np.arange(n2, n), np.count_nonzero(far))])
    q_out = np.concatenate([q[outside], np.tile(qs[far], n2)])
    w_out = np.concatenate([w[outside], np.outer(r, ws[far]).ravel()])
    return _FlightPlan(E, P, rows_out, q_out, w_out)


def apply_A_inverse(h: VelocityProfile, E: float, ctx: CollisionContext) -> VelocityProfile:
    """Inverse of A = nu + E d/dv along accelerated flights.

    (A^-1 h)(v) = int_0^inf exp(-int_0^s nu(v - E tau) dtau) h(v - E s) ds,
    with the damping integral in closed form (`_build_flight_plan`), free of
    cancellation at any E.  nu and h may have a |v|-type kink at v = 0, so
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
    E = 0 divides by nu; E < 0 mirrors onto |E| (nu is even, the grid symmetric).
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
