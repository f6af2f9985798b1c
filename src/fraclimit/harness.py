"""Orchestration: convergence studies and operator studies (`cli` writes their outputs)."""

from __future__ import annotations

import numpy as np

from . import montecarlo as mc
from .auxfun import L_eps
from .coefficients import limit_model
from .collision import CollisionContext
from .errors import InvalidInput
from .macro import MacroState, advance_macro, gaussian_bump, limit_operator
from .params import ModelParams, fit_order, require_order_schedule
from .velocity import VelocityGrid

MACRO_NODES = 512  # nodes of the macro grid
# band and width of the operator study's test function
PHI_BANDWIDTH = 4
PHI_WIDTH = 0.8
# a convergence study passes when its finest L1 error exceeds the noise floor
# by less than this
MARGIN = 0.05


def context(params: ModelParams, vmax: float | None = None) -> CollisionContext:
    """The collision context of the params' model on their velocity grid,
    reaching out to `vmax` (default: the params' vmax)."""
    grid = VelocityGrid(params.velocity_nodes, params.vmax if vmax is None else vmax)
    return CollisionContext(grid, params.cross_section, params.alpha)


def macro_run(params: ModelParams, scaling: str, times) -> tuple[float, float, list[MacroState]]:
    """(kappa, drift) from `limit_model` on a grid reaching |v| >= 1000, far
    enough for D and mu(E) whatever the epsilon schedule, and the bump
    advanced from t = 0 to each of `times` in one exact step."""
    kap, drift = limit_model(context(params, max(params.vmax, 1000.0)), params.field_spec.e0, scaling)
    bump = gaussian_bump(params.domain_length, mc.BUMP_WIDTH, MACRO_NODES)
    return kap, drift, [advance_macro(bump, params.alpha, kap, drift, t) for t in times]


def run_convergence(params: ModelParams, scaling: str = "diffusive", threads: int = 1) -> dict:
    """Kinetic MC vs limit-equation solve across the epsilon schedule: the
    study's one case, with its verdict.

    Per eps: L1 and sup errors of the binned Monte Carlo density against the
    macro solve's exact bin means, its even/odd split-half noise floor and
    collisions.  The counts come from `montecarlo.block_counts`: O(BLOCK) particles per
    eps, all eps advanced on one shared clock per block.  `threads` sets how
    many workers advance the particle blocks; it does not change the result.
    """
    require_order_schedule(params.epsilon_schedule)
    L, T, N, bins = params.domain_length, params.final_time, params.particles, params.x_bins
    if N < 2:
        raise InvalidInput(f"particles={N} < 2: the split-half noise floor needs two halves")
    kap, drift, (macro,) = macro_run(params, scaling, [T])
    macro_binned = macro.bin_means(bins)
    dx = L / bins
    counts, collisions = mc.block_counts(params, scaling, params.epsilon_schedule, [T], threads)
    rows = []
    for eps, ((h1, h2),), (hits,) in zip(params.epsilon_schedule, counts, collisions):
        rho = (h1 + h2) / (N * dx)
        l1 = float(np.sum(np.abs(rho - macro_binned)) * dx)
        linf = float(np.max(np.abs(rho - macro_binned)))
        # split-half noise floor
        noise = float(np.sum(np.abs(h1 / ((N + 1) // 2 * dx) - h2 / (N // 2 * dx))) * dx / 2.0)
        rows.append({"eps": eps, "l1": l1, "linf": linf, "noise_floor": noise, "collisions": int(hits)})
    order, monotone = fit_order(params.epsilon_schedule, [r["l1"] for r in rows])
    finest_ok = rows[-1]["l1"] - rows[-1]["noise_floor"] < MARGIN
    return {
        "label": f"alpha={params.alpha} E={params.field_spec.e0} scaling={scaling}",
        "scaling": scaling,
        "kappa": kap,
        "drift": drift,
        "rows": rows,
        "fitted_order": order,
        "monotone": monotone,
        "verdict": "PASS" if (monotone and finest_ok) else "FAIL",
    }


def run_operator_study(params: ModelParams) -> dict:
    """L_eps vs the limit operator across the epsilon schedule."""
    eps_list = params.epsilon_schedule
    require_order_schedule(eps_list)
    ctx = context(params)
    alpha = params.alpha
    E = params.field_spec.e0
    kap, drift_gen = limit_model(ctx, E, "diffusive")
    phi = gaussian_bump(params.domain_length, PHI_WIDTH, 64, band=PHI_BANDWIDTH)
    # the limit acts on test functions, so the drift enters with the dual sign
    lim = limit_operator(phi, alpha, kap, -drift_gen)
    rows = []
    for eps in eps_list:
        le = L_eps(phi, eps, E, ctx)
        rows.append({"eps": eps, "sup_error": float(np.max(np.abs(le.rho - lim.rho))),
                     "l2_error": float(np.sqrt(np.mean((le.rho - lim.rho) ** 2) * params.domain_length))})
    order, monotone = fit_order(eps_list, [r["sup_error"] for r in rows])
    return {"alpha": alpha, "E": E, "drift": drift_gen, "rows": rows, "fitted_order": order, "monotone": monotone}
