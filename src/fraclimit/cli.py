"""Command-line entry point.

Subcommands: equilibrium, coefficients, operator-check, kinetic-run,
macro-run, converge, all.  Global flags: --config, --out, --seed, --threads.
This module writes every output file, all UTF-8 CSV/JSON in --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import montecarlo as mc
from .coefficients import limit_coefficients
from .equilibrium import deviation_R, remainder_G, solve_F, solve_lambda
from .errors import InvalidInput
from .harness import context, macro_run, run_convergence, run_operator_study
from .params import SCALINGS, ModelParams, load_config


def _load(args) -> ModelParams:
    params = load_config(args.config) if args.config else ModelParams()
    return params if args.seed is None else replace(params, seed=args.seed)


def _open(args, name: str):
    """The output file `name` in --out, opened for writing; creates --out."""
    os.makedirs(args.out, exist_ok=True)
    return open(os.path.join(args.out, name), "w", encoding="utf-8")


def _write_csv(fh, header: str, rows):
    """Write header and rows in one write, floats as f"{c:.12g}" and anything else as str."""
    fh.write("\n".join([header, *(",".join([f"{c:.12g}" if isinstance(c, float) else str(c) for c in row])
                                   for row in rows)]) + "\n")


def cmd_equilibrium(args) -> int:
    params = _load(args)
    ctx = context(params)
    E = args.field if args.field is not None else params.field_spec.e0
    Eeff = E if args.raw_field else min(params.epsilon_schedule) ** (params.alpha - 1.0) * E
    F = solve_F(Eeff, ctx)
    lam = solve_lambda(ctx).profile.values
    R = deviation_R(Eeff, ctx).values
    G = remainder_G(Eeff, ctx)[0].values
    with _open(args, "equilibrium.csv") as fh:
        _write_csv(fh, "v,M,F,lambda,G,R", zip(ctx.grid.nodes.tolist(), ctx.M.values.tolist(),
                                               F.profile.values.tolist(), lam.tolist(), G.tolist(), R.tolist()))
    print(f"wrote {fh.name} (E={Eeff}, method={F.method}, residual={F.residual:.3e})")
    return 0


def cmd_coefficients(args) -> int:
    params = _load(args)
    co = limit_coefficients(context(params))
    payload = json.dumps(asdict(co), indent=2)
    print(payload)
    with _open(args, "coefficients.json") as fh:
        fh.write(payload + "\n")
    return 0


def cmd_operator_check(args) -> int:
    params = _load(args)
    rep = run_operator_study(params)
    with _open(args, "operator_check.csv") as fh:
        _write_csv(fh, "epsilon,sup_error,l2_error",
                   [(r["eps"], r["sup_error"], r["l2_error"]) for r in rep["rows"]])
    print(f"wrote {fh.name}; fitted order {rep['fitted_order']:.3f} "
          f"({'monotone' if rep['monotone'] else 'NOT monotone'})")
    return 0


def cmd_kinetic_run(args) -> int:
    params = _load(args)
    if args.particles is not None:
        params = replace(params, particles=args.particles)
    eps = args.eps if args.eps is not None else min(params.epsilon_schedule)
    snaps = sorted(args.snapshot or [params.final_time])  # block_counts refuses a bad eps or time
    counts, collisions = mc.block_counts(params, args.scaling, [eps], snaps, args.threads)
    hits = int(collisions[0, -1])
    dx = params.domain_length / params.x_bins
    rows = []
    for t, (h1, h2) in zip(snaps, counts[0]):
        rho = (h1 + h2) / (params.particles * dx)  # estimate_density's expression
        rows.extend((t, i * dx + dx / 2, float(r)) for i, r in enumerate(rho))
    with _open(args, "kinetic_run.csv") as fh:
        _write_csv(fh, "t,bin_center,rho", rows)
    manifest = {
        "seed": params.seed, "eps": eps, "particles": params.particles,
        "threads": args.threads, "block": mc.BLOCK, "collisions": hits,
        "snapshots": snaps, "scaling": args.scaling,
    }
    with _open(args, "kinetic_manifest.json") as mf:
        json.dump(manifest, mf, indent=2)
    print(f"wrote {fh.name} ({hits} collisions)")
    return 0


def cmd_macro_run(args) -> int:
    params = _load(args)
    snaps = sorted(args.snapshot or [params.final_time])  # advance_macro refuses a bad time
    _, _, states = macro_run(params, args.scaling, snaps)
    rows = [(t, float(x), float(r)) for t, s in zip(snaps, states) for x, r in zip(s.x, s.rho)]
    with _open(args, "macro_run.csv") as fh:
        _write_csv(fh, "t,x,rho", rows)
    print(f"wrote {fh.name}")
    return 0


def cmd_converge(args) -> int:
    params = _load(args)
    case = run_convergence(params, scaling=args.scaling, threads=args.threads)
    with _open(args, "report.json") as fh:
        json.dump({"seed": params.seed, "config": asdict(params), "cases": [case]}, fh, indent=2)
    with _open(args, "case_0.csv") as fh:
        fh.write("eps,l1,linf,noise_floor\n")
        fh.writelines(f"{r['eps']},{r['l1']},{r['linf']},{r['noise_floor']}\n" for r in case["rows"])
    finest = case["rows"][-1]
    print(f"{case['label']}: order {case['fitted_order']:.2f}, "
          f"finest L1 {finest['l1']:.4f} (noise {finest['noise_floor']:.4f}) -> {case['verdict']}")
    return 0 if case["verdict"] == "PASS" else 1


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

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", type=float, default=None, help="field value E (default: config e0)")
    field.add_argument("--raw-field", action="store_true",
                       help="use E as the effective field without the eps^(alpha-1) scaling")
    times = argparse.ArgumentParser(add_help=False)
    times.add_argument("--snapshot", type=float, action="append", default=None,
                       help="report time (repeatable, any order; default: the config's final_time)")
    scaling = argparse.ArgumentParser(add_help=False)
    scaling.add_argument("--scaling", choices=SCALINGS, default=SCALINGS[0])

    p = sub.add_parser("equilibrium", parents=[field], help="tabulate v, M, F, lambda, G, R")
    p.set_defaults(fn=cmd_equilibrium)

    p = sub.add_parser("coefficients", help="print limit coefficients as JSON")
    p.set_defaults(fn=cmd_coefficients)

    p = sub.add_parser("operator-check", help="rescaled operator vs limit operator")
    p.set_defaults(fn=cmd_operator_check)

    p = sub.add_parser("kinetic-run", parents=[times, scaling], help="single Monte Carlo run")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--particles", type=int, default=None)
    p.set_defaults(fn=cmd_kinetic_run)

    p = sub.add_parser("macro-run", parents=[times, scaling], help="solve the limit equation")
    p.set_defaults(fn=cmd_macro_run)

    p = sub.add_parser("converge", parents=[scaling], help="full kinetic-vs-macro convergence study")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("all", parents=[field, scaling],
                       help="coefficients + equilibrium + operator-check + converge")
    p.set_defaults(fn=cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        raise InvalidInput(f"--threads {args.threads} < 1")
    if getattr(args, "field", None) is not None and not math.isfinite(args.field):
        raise InvalidInput(f"--field {args.field} is not finite")
    top = os.path.abspath(args.out)
    while not os.path.lexists(top):  # the nearest existing ancestor, where os.makedirs starts
        top = os.path.dirname(top)
    if not os.path.isdir(top):
        raise InvalidInput(f"--out {args.out}: {top} exists and is not a directory")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
