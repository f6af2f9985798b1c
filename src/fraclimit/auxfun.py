"""Auxiliary test-function machinery: chi_eps and the rescaled operator
L_eps.  Test functions are `MacroState`s; the limit operator L_eps tends to
is `macro.limit_operator`."""

from __future__ import annotations

import numpy as np

from .collision import CollisionContext
from .equilibrium import solve_F
from .macro import MacroState
from .params import fit_order, require_order_schedule
from .velocity import Tail, _LAG_W, _LAG_Z, _WG, _log_panels


def chi_eps(phi: MacroState, eps: float, x: float, v: float, ctx: CollisionContext) -> float:
    """Flight average chi_eps(x,v) = int_0^inf nu e^(-nu z) phi(x + eps v z) dz,
    Gauss-Laguerre in u = nu z."""
    nu = float(ctx.nu_at(v))
    pts = x + eps * v * _LAG_Z / nu
    return float(np.sum(_LAG_W * phi(pts)))


def _flight_mean(k: np.ndarray, eps: float, v: np.ndarray, nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j (1/(1 - i k eps v_j/nu_j) - 1) for each wavenumber in the column k:
    the flight average's mode multiplier chi_hat_k/phi_hat_k - 1 averaged against w."""
    return (w * (1 / (1 - 1j * k * eps * v / nu) - 1.0)).sum(axis=1)


def chi_decay_check(phi: MacroState, eps_list, ctx: CollisionContext) -> dict:
    """e(eps) = sqrt(int (int M (chi_eps - phi) dv)^2 dx) on phi's grid (one irfft) and its log-log slope."""
    require_order_schedule(eps_list)
    g = ctx.grid
    band = phi.band()
    kp = phi.wavenumbers()[band][:, None]
    errs = []
    for eps in eps_list:
        mult = np.zeros(phi.n // 2 + 1, dtype=complex)
        mult[band] = _flight_mean(kp, eps, g.nodes, ctx.nu.values, g.weights * ctx.M.values)
        # signed velocity average: the O(eps v) odd term must cancel for the
        # decay rate to reach alpha (pointwise |.| would cap the slope at 1)
        inner = np.fft.irfft(mult * phi.coeffs(), n=phi.n)
        errs.append(float(np.sqrt(np.sum(inner**2) * (phi.L / phi.n))))
    return {"eps": list(eps_list), "errors": errs, "slope": fit_order(eps_list, errs)[0]}


def _tail_panels(vmax: float):
    """Six log-spaced Gauss-Legendre panels on [vmax, 1e4 vmax] for tail sums."""
    edges = vmax * 1e4 ** (np.arange(7) / 6)
    *_, v, jac = _log_panels(edges)
    return v, np.tile(_WG, 6) * jac, edges[-1]


def L_eps(phi: MacroState, eps: float, E: float, ctx: CollisionContext) -> MacroState:
    """Rescaled operator L_eps(phi)(x) = eps^-alpha int nu F_eps (chi_eps - phi) dv.

    F_eps = F(., eps^(alpha-1) E) does not depend on x, so L_eps is a Fourier
    multiplier: per band mode, `_flight_mean` against w nu F on the grid plus
    the |v| > vmax region from F's fitted power-law tails.
    """
    g = ctx.grid
    alpha = ctx.alpha
    F = solve_F(eps ** (alpha - 1.0) * E, ctx).profile.values
    # F's fitted tail on the panels, weighted by nu there, and the
    # closed-form remainder beyond v_far, where the mode factor is ~ -1 and
    # nu ~ nu(v_far)
    tv, tw, v_far = _tail_panels(g.vmax)
    tail = Tail(g, F)
    rem = -ctx.nu_at(v_far) * sum(tail.integral(0.0, v_far))
    nu_t = ctx.nu_at(tv)
    wr, wl = tw * nu_t * tail(tv), tw * nu_t * tail(-tv)

    band = phi.band()
    kp = phi.wavenumbers()[band][:, None]
    core = _flight_mean(kp, eps, g.nodes, ctx.nu.values, g.weights * ctx.nu.values * F)
    right = _flight_mean(kp, eps, tv, nu_t, wr)
    left = _flight_mean(kp, eps, -tv, nu_t, wl)
    mult = np.zeros(phi.n // 2 + 1, dtype=complex)
    mult[band] = core + (right + left + rem)
    out = np.fft.irfft(mult * phi.coeffs(), n=phi.n)
    return MacroState(out / eps**alpha, phi.L)
