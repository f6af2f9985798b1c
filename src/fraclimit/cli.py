"""Command-line entry point.

Subcommands: equilibrium, coefficients, operator-check, kinetic-run,
macro-run, converge, all.  Global flags: --config, --out, --seed, --threads.
All outputs are UTF-8 CSV/JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from . import montecarlo as mc
from .coefficients import limit_coefficients
from .collision import CollisionContext
from .equilibrium import deviation_R, solve_F, solve_lambda
from .errors import InvalidInput
from .harness import emit, initial_bump, macro_limit, run_convergence, run_operator_study
from .macro import MacroState, advance_macro
from .params import ModelParams, load_config, validate, with_seed
from .velocity import build_grid


def _default_params() -> ModelParams:
    return validate(ModelParams())


def _load(args) -> ModelParams:
    params = load_config(args.config) if args.config else _default_params()
    if args.seed is not None:
        params = with_seed(params, args.seed)
    return params


def _ctx(params: ModelParams) -> CollisionContext:
    grid = build_grid(params.velocity_nodes, params.vmax)
    return CollisionContext(grid, params.cross_section, params.alpha)


def _write_csv(path, header: str, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.12g}" if isinstance(c, float) else str(c) for c in row) + "\n")


def cmd_equilibrium(args) -> int:
    params = _load(args)
    ctx = _ctx(params)
    E = args.field if args.field is not None else params.field_spec.e0
    scale = 1.0 if params.alpha == 1.0 else min(params.epsilon_schedule) ** (params.alpha - 1.0)
    Eeff = E if args.raw_field else scale * E
    F = solve_F(Eeff, ctx)
    lam = solve_lambda(ctx).profile.values
    # R = E u and G = E (u - lambda), in equilibrium.remainder_G's operation order
    R = deviation_R(Eeff, ctx).values
    G = R - Eeff * lam
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "equilibrium.csv")
    _write_csv(
        path,
        "v,M,F,lambda,G,R",
        zip(
            ctx.grid.nodes.tolist(), ctx.M.values.tolist(), F.profile.values.tolist(),
            lam.tolist(), G.tolist(), R.tolist(),
        ),
    )
    print(f"wrote {path} (E={Eeff}, method={F.method}, residual={F.residual:.3e})")
    return 0


def cmd_coefficients(args) -> int:
    params = _load(args)
    co = limit_coefficients(_ctx(params))
    payload = json.dumps(co.as_dict(), indent=2)
    print(payload)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "coefficients.json"), "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0


def cmd_operator_check(args) -> int:
    params = _load(args)
    rep = run_operator_study(params)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "operator_check.csv")
    _write_csv(path, "epsilon,sup_error,l2_error",
               [(r["eps"], r["sup_error"], r["l2_error"]) for r in rep["rows"]])
    print(f"wrote {path}; fitted order {rep['fitted_order']:.3f} "
          f"({'monotone' if rep['monotone'] else 'NOT monotone'})")
    return 0


def cmd_kinetic_run(args) -> int:
    params = _load(args)
    if args.particles:
        params = validate(replace(params, particles=args.particles))
    eps = args.eps if args.eps is not None else min(params.epsilon_schedule)
    T = args.final_time if args.final_time is not None else params.final_time
    snaps = sorted(args.snapshot or [T])
    _, rho_fun = initial_bump(params)
    ens = mc.init_ensemble(params.particles, params.domain_length, params.alpha,
                           params.seed, rho_init=rho_fun)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for t in snaps:
        ens = mc.advance(ens, eps, params, params.field_spec, t, scaling=args.scaling,
                         threads=args.threads)
        dens = mc.estimate_density(ens, params.x_bins)
        rows.extend((t, float(x), float(r)) for x, r in zip(dens.x + dens.dx / 2, dens.rho))
    path = os.path.join(args.out, "kinetic_run.csv")
    _write_csv(path, "t,bin_center,rho", rows)
    manifest = {
        "seed": params.seed, "eps": eps, "particles": params.particles,
        "threads": args.threads, "block": mc.BLOCK, "collisions": ens.collisions,
        "snapshots": snaps, "scaling": args.scaling,
    }
    with open(os.path.join(args.out, "kinetic_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {path} ({ens.collisions} collisions)")
    return 0


def cmd_macro_run(args) -> int:
    params = _load(args)
    T = args.final_time if args.final_time is not None else params.final_time
    snaps = sorted(args.snapshot or [T])
    kap, drift = macro_limit(params, args.scaling)
    init, _ = initial_bump(params)
    state = MacroState(init.rho, params.domain_length)
    rows = []
    for t in snaps:
        state = advance_macro(state, params.alpha, kap, drift, t)
        rows.extend((t, float(x), float(r)) for x, r in zip(state.x, state.rho))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "macro_run.csv")
    _write_csv(path, "t,x,rho", rows)
    print(f"wrote {path}")
    return 0


def cmd_converge(args) -> int:
    params = _load(args)
    report = run_convergence(params, scaling=args.scaling, threads=args.threads)
    code = emit(report, args.out)
    for case in report.cases:
        finest = case["rows"][-1]
        print(f"{case['label']}: order {case['fitted_order']:.2f}, "
              f"finest L1 {finest['l1']:.4f} (noise {finest['noise_floor']:.4f}) "
              f"-> {case['verdict']}")
    return code


def cmd_all(args) -> int:
    codes = [cmd_coefficients(args), cmd_equilibrium(args),
             cmd_operator_check(args), cmd_converge(args)]
    return max(codes)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `main` calls."""
    parser = argparse.ArgumentParser(prog="fraclimit",
                                     description="Fractional-diffusion limit laboratory")
    parser.add_argument("--config", help="JSON config path (defaults built in)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=_usable_cores(),
                        help="Monte Carlo worker threads, default: the usable cores "
                        "(scheduling only: streams are keyed by seed and particle block, "
                        "so results do not depend on it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="tabulate v, M, F, lambda, G, R")
    p.add_argument("--field", type=float, default=None, help="field value E (default: config e0)")
    p.add_argument("--raw-field", action="store_true",
                   help="use E as the effective field without the eps^(alpha-1) scaling")
    p.set_defaults(fn=cmd_equilibrium)

    p = sub.add_parser("coefficients", help="print limit coefficients as JSON")
    p.set_defaults(fn=cmd_coefficients)

    p = sub.add_parser("operator-check", help="rescaled operator vs limit operator")
    p.set_defaults(fn=cmd_operator_check)

    p = sub.add_parser("kinetic-run", help="single Monte Carlo run")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--particles", type=int, default=None)
    p.add_argument("--final-time", type=float, default=None)
    p.add_argument("--snapshot", type=float, action="append", default=None,
                   help="snapshot time (repeatable; default: final time)")
    p.add_argument("--scaling", choices=["diffusive", "high_field"], default="diffusive")
    p.set_defaults(fn=cmd_kinetic_run)

    p = sub.add_parser("macro-run", help="solve the limit equation")
    p.add_argument("--final-time", type=float, default=None)
    p.add_argument("--snapshot", type=float, action="append", default=None)
    p.add_argument("--scaling", choices=["diffusive", "high_field"], default="diffusive")
    p.set_defaults(fn=cmd_macro_run)

    p = sub.add_parser("converge", help="full kinetic-vs-macro convergence study")
    p.add_argument("--scaling", choices=["diffusive", "high_field"], default="diffusive")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("all", help="coefficients + equilibrium + operator-check + converge")
    p.add_argument("--field", type=float, default=None)
    p.add_argument("--raw-field", action="store_true")
    p.add_argument("--scaling", choices=["diffusive", "high_field"], default="diffusive")
    p.set_defaults(fn=cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        raise InvalidInput(f"--threads {args.threads} < 1")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
