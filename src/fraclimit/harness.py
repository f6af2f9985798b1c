"""Orchestration: convergence studies, operator studies, report persistence."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import montecarlo as mc
from .auxfun import TestFunction, L_eps, limit_operator
from .coefficients import limit_model
from .collision import CollisionContext
from .errors import InvalidInput
from .macro import MacroState, advance_macro, gaussian_bump
from .params import ModelParams, validate
from .velocity import build_grid

# width of the initial density bump of the kinetic and macro runs
BUMP_WIDTH = 1.8
# band and width of the operator study's test function
PHI_BANDWIDTH = 4
PHI_WIDTH = 0.8


@dataclass
class ConvergenceReport:
    cases: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def all_pass(self) -> bool:
        return all(c["verdict"] == "PASS" for c in self.cases)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "config": self.config, "cases": self.cases}


def _params_dict(params: ModelParams) -> dict:
    d = asdict(params)
    d["epsilon_schedule"] = list(params.epsilon_schedule)
    return d


def initial_bump(params: ModelParams):
    init = gaussian_bump(params.domain_length, BUMP_WIDTH, 512)

    def rho_fun(x):
        return np.interp(np.mod(x, params.domain_length), init.x, init.rho, period=params.domain_length)

    return init, rho_fun


def macro_limit(params: ModelParams, scaling: str) -> tuple[float, float]:
    """(kappa, drift) of the macro run, from `limit_model` on a grid reaching
    at least |v| = 1000, far enough for D and mu(E) whatever the epsilon schedule."""
    grid = build_grid(params.velocity_nodes, max(params.vmax, 1000.0))
    ctx = CollisionContext(grid, params.cross_section, params.alpha)
    return limit_model(ctx, params.field_spec, scaling)


def run_convergence(
    params: ModelParams,
    scaling: str = "diffusive",
    margin: float = 0.05,
    threads: int = 1,
) -> ConvergenceReport:
    """Kinetic MC vs limit-equation solve across the epsilon schedule.

    `threads` sets how many workers advance the particle blocks; it does not
    change the result.
    """
    validate(params)
    L, T = params.domain_length, params.final_time
    init, rho_fun = initial_bump(params)
    bins = params.x_bins
    if init.n % bins:
        raise InvalidInput(f"x_bins={bins} does not divide the {init.n}-point macro grid")
    kap, drift = macro_limit(params, scaling)
    macro = advance_macro(MacroState(init.rho, L), params.alpha, kap, drift, T)
    macro_binned = macro.rho.reshape(bins, -1).mean(axis=1)
    dx = L / bins
    rows = []
    noise = None
    for eps in params.epsilon_schedule:
        ens = mc.init_ensemble(params.particles, L, params.alpha, params.seed, rho_init=rho_fun)
        ens = mc.advance(ens, eps, params, params.field_spec, T, scaling=scaling, threads=threads)
        dens = mc.estimate_density(ens, bins)
        l1 = float(np.sum(np.abs(dens.rho - macro_binned)) * dx)
        linf = float(np.max(np.abs(dens.rho - macro_binned)))
        # split-half noise floor
        h1, _ = np.histogram(ens.x[::2], bins=bins, range=(0.0, L))
        h2, _ = np.histogram(ens.x[1::2], bins=bins, range=(0.0, L))
        n_half = len(ens.x[::2])
        noise = float(np.sum(np.abs(h1 / (n_half * dx) - h2 / (len(ens.x[1::2]) * dx))) * dx / 2.0)
        rows.append({"eps": eps, "l1": l1, "linf": linf, "noise_floor": noise, "collisions": ens.collisions})
    errs = [r["l1"] for r in rows]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    finest_ok = errs[-1] - rows[-1]["noise_floor"] < margin
    order = float(np.polyfit(np.log(params.epsilon_schedule), np.log(errs), 1)[0])
    case = {
        "label": f"alpha={params.alpha} field={params.field_spec.kind} scaling={scaling}",
        "scaling": scaling,
        "kappa": kap,
        "drift": drift,
        "rows": rows,
        "fitted_order": order,
        "monotone": monotone,
        "verdict": "PASS" if (monotone and finest_ok) else "FAIL",
    }
    return ConvergenceReport([case], _params_dict(params), params.seed)


def run_operator_study(params: ModelParams) -> dict:
    """L_eps vs the limit operator across the epsilon schedule."""
    validate(params)
    eps_list = params.epsilon_schedule
    grid = build_grid(params.velocity_nodes, params.vmax)
    ctx = CollisionContext(grid, params.cross_section, params.alpha)
    alpha = params.alpha
    fs = params.field_spec
    kap, drift_gen = limit_model(ctx, fs, "diffusive")
    phi = TestFunction.gaussian_bump(params.domain_length, width=PHI_WIDTH, bandwidth=PHI_BANDWIDTH, n=64)
    # the limit acts on test functions, so the drift enters with the dual sign
    lim = limit_operator(phi, alpha, kap, -drift_gen)
    rows = []
    for eps in eps_list:
        le = L_eps(phi, eps, fs, ctx)
        rows.append(
            {
                "eps": eps,
                "sup_error": float(np.max(np.abs(le.rho - lim.rho))),
                "l2_error": float(np.sqrt(np.mean((le.rho - lim.rho) ** 2) * params.domain_length)),
            }
        )
    sups = [r["sup_error"] for r in rows]
    order = float(np.polyfit(np.log(eps_list), np.log(sups), 1)[0])
    return {
        "alpha": alpha,
        "field": fs.kind,
        "drift": drift_gen,
        "rows": rows,
        "fitted_order": order,
        "monotone": all(b < a for a, b in zip(sups, sups[1:])),
    }


def emit(report: ConvergenceReport, out_dir) -> int:
    """Write report.json plus per-case CSVs; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2)
    for i, case in enumerate(report.cases):
        path = os.path.join(out_dir, f"case_{i}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("eps,l1,linf,noise_floor\n")
            for r in case["rows"]:
                fh.write(f"{r['eps']},{r['l1']},{r['linf']},{r['noise_floor']}\n")
    return 0 if report.all_pass else 1
