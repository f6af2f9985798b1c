"""In-memory spans around fraclimit's layer functions, and the per-layer
metrics derived from them.

The wrappers live here, not in the package: `install` replaces each target
function at every fraclimit module name it is bound under (and methods on
their class).  Coarse functions record a span each (name, start, end,
parent).  Functions called tens of thousands of times per round (grid
interpolation, tail fits, field evaluations) are aggregated per enclosing
span instead, so the trace stays small and its overhead low.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        # enclosing span -> leaf name -> [calls, points, seconds, outermost-leaf seconds]
        self.leaves: dict[int, dict[str, list]] = {}
        self._stack = [-1]
        self._leaf_depth = 0

    def span(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1])
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                self.attrs[idx] = on_exit(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, points=None):
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                agg = self.leaves.setdefault(self._stack[-1], {}).setdefault(name, [0, 0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += points(args, kwargs) if points is not None else 0
                agg[2] += dt
                if self._leaf_depth == 0:
                    agg[3] += dt

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [list(s) for s in zip(self.name, self.start, self.end, self.parent)],
                "attrs": {str(k): v for k, v in self.attrs.items()},
                "leaves": {str(k): v for k, v in self.leaves.items()},
            }, fh)


def _size(pos, key):
    def points(args, kwargs):
        return int(np.size(kwargs[key] if key in kwargs else args[pos]))
    return points


def _collisions(args, kwargs, result):
    return {"collisions": int(result.collisions - args[0].collisions)}


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _method(args, kwargs, result):
    return {"method": result.method}


# (module, qualified name, kind, extra): extra is on_exit for spans, points for leaves
TARGETS = [
    ("cli", "main", "span", None),
    ("harness", "run_convergence", "span", None),
    ("harness", "run_operator_study", "span", None),
    ("montecarlo", "init_ensemble", "span", None),
    ("montecarlo", "advance", "span", _collisions),
    ("montecarlo", "sample_M", "span", _draws),
    ("montecarlo", "_flight", "span", None),
    ("montecarlo", "estimate_density", "span", None),
    ("collision", "CollisionContext.__init__", "span", None),
    ("collision", "apply_A_inverse", "span", None),
    ("equilibrium", "solve_F", "span", _method),
    ("equilibrium", "solve_lambda", "span", None),
    ("equilibrium", "drift_mu", "span", None),
    ("coefficients", "kappa", "span", None),
    ("coefficients", "matrix_D", "span", None),
    ("auxfun", "L_eps", "span", None),
    ("macro", "advance_macro", "span", None),
    ("velocity", "moment", "span", None),
    ("velocity", "VelocityGrid.interp", "leaf", _size(2, "x")),
    ("velocity", "_tail_fit3", "leaf", None),
    ("params", "FieldSpec.__call__", "leaf", _size(1, "x")),
]


def install(tracer: Tracer):
    """Wrap every target wherever fraclimit binds it; call before any run."""
    modules = [m for n, m in list(sys.modules.items()) if n == "fraclimit" or n.startswith("fraclimit.")]
    for modname, qual, kind, extra in TARGETS:
        module = importlib.import_module(f"fraclimit.{modname}")
        name = f"{modname}.{qual}"
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = (tracer.span(name, original, extra) if kind == "span"
                   else tracer.leaf(name, original, extra))
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer totals over everything traced.  A span counts towards its
    name only when no enclosing span has the same name, so recursion is not
    counted twice."""
    n = len(tr.name)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    a_inv_children = [0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            a_inv_children[p] += tr.name[i] == "collision.apply_A_inverse"
    for i, leaves in tr.leaves.items():
        if i >= 0:
            child[i] += sum(agg[3] for agg in leaves.values())

    def outermost(i):
        p = tr.parent[i]
        while p >= 0:
            if tr.name[p] == tr.name[i]:
                return False
            p = tr.parent[p]
        return True

    calls, incl, self_s = {}, {}, {}
    for i in range(n):
        if outermost(i):
            nm = tr.name[i]
            calls[nm] = calls.get(nm, 0) + 1
            incl[nm] = incl.get(nm, 0.0) + dur[i]
        self_s[tr.name[i]] = self_s.get(tr.name[i], 0.0) + dur[i] - child[i]

    def leaf_total(leaf, field, under=None):
        return sum(aggs[leaf][field] for i, aggs in tr.leaves.items()
                   if leaf in aggs and (under is None or (i >= 0 and tr.name[i] == under)))

    def attr_total(span, key, parent=None):
        return sum(a.get(key, 0) for i, a in tr.attrs.items()
                   if tr.name[i] == span and (parent is None or (tr.parent[i] >= 0 and tr.name[tr.parent[i]] == parent)))

    collisions = attr_total("montecarlo.advance", "collisions")
    advance_draws = attr_total("montecarlo.sample_M", "draws", parent="montecarlo.advance")
    # a power-iteration solve applies A^-1 once per sweep and once more to map W to F
    sweeps = sum(a_inv_children[i] - 1 for i, a in tr.attrs.items()
                 if tr.name[i] == "equilibrium.solve_F" and a["method"] == "power_iteration")
    advance_s = incl.get("montecarlo.advance", 0.0)
    return {
        "montecarlo.init_ensemble_s": incl.get("montecarlo.init_ensemble", 0.0),
        "montecarlo.advance_s": advance_s,
        "montecarlo.advance_self_s": self_s.get("montecarlo.advance", 0.0),
        "montecarlo.sample_M_s": incl.get("montecarlo.sample_M", 0.0),
        "montecarlo.sample_M_draws": attr_total("montecarlo.sample_M", "draws"),
        "montecarlo.flight_s": incl.get("montecarlo._flight", 0.0),
        "montecarlo.flight_rounds": calls.get("montecarlo._flight", 0),
        "montecarlo.field_evals": leaf_total("params.FieldSpec.__call__", 0, under="montecarlo._flight"),
        "montecarlo.collisions": collisions,
        "montecarlo.draws_per_collision": advance_draws / collisions if collisions else 0.0,
        "montecarlo.collisions_per_s": collisions / advance_s if advance_s > 0 else 0.0,
        "montecarlo.estimate_density_s": incl.get("montecarlo.estimate_density", 0.0),
        "collision.context_builds": calls.get("collision.CollisionContext.__init__", 0),
        "collision.context_build_s": incl.get("collision.CollisionContext.__init__", 0.0),
        "collision.apply_A_inverse_calls": calls.get("collision.apply_A_inverse", 0),
        "collision.apply_A_inverse_s": incl.get("collision.apply_A_inverse", 0.0),
        "velocity.interp_calls": leaf_total("velocity.VelocityGrid.interp", 0),
        "velocity.interp_points": leaf_total("velocity.VelocityGrid.interp", 1),
        "velocity.interp_s": leaf_total("velocity.VelocityGrid.interp", 2),
        "velocity.tail_fits": leaf_total("velocity._tail_fit3", 0),
        "velocity.moment_s": incl.get("velocity.moment", 0.0),
        "equilibrium.solve_F_calls": calls.get("equilibrium.solve_F", 0),
        "equilibrium.solve_F_s": incl.get("equilibrium.solve_F", 0.0),
        "equilibrium.power_sweeps": sweeps,
        "equilibrium.solve_lambda_calls": calls.get("equilibrium.solve_lambda", 0),
        "equilibrium.solve_lambda_s": incl.get("equilibrium.solve_lambda", 0.0),
        "equilibrium.drift_mu_s": incl.get("equilibrium.drift_mu", 0.0),
        "coefficients.kappa_s": incl.get("coefficients.kappa", 0.0),
        "coefficients.matrix_D_s": incl.get("coefficients.matrix_D", 0.0),
        "auxfun.L_eps_calls": calls.get("auxfun.L_eps", 0),
        "auxfun.L_eps_s": incl.get("auxfun.L_eps", 0.0),
        "macro.advance_macro_calls": calls.get("macro.advance_macro", 0),
        "macro.advance_macro_s": incl.get("macro.advance_macro", 0.0),
        "harness.run_convergence_s": incl.get("harness.run_convergence", 0.0),
        "harness.run_operator_study_s": incl.get("harness.run_operator_study", 0.0),
        "harness.self_s": self_s.get("harness.run_convergence", 0.0) + self_s.get("harness.run_operator_study", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
