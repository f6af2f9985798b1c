"""Checks of fraclimit's outputs against values computed here, apart from
the program: closed forms with `math.gamma`, Poisson means of the collision
clock, and the symmetry and order properties the paper guarantees.

Every check takes parsed outputs and returns a list of deviations; an empty
list means the output passed.  `selftest.py` feeds them corrupted outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

CLOSED_FORM_RTOL = 1e-10


def closed_forms(alpha: float, nu0: float) -> dict:
    """gamma, c_{1,alpha} and kappa of M(v) = (1+v^2)^(-(1+alpha)/2) / Z."""
    z = math.sqrt(math.pi) * math.gamma(alpha / 2) / math.gamma((1 + alpha) / 2)
    gamma = 1.0 / z
    c = alpha * 2 ** (alpha - 1) * math.gamma((alpha + 1) / 2) / (
        math.sqrt(math.pi) * math.gamma((2 - alpha) / 2))
    kappa = gamma * math.gamma(alpha + 1) * nu0 ** (1 - alpha) / c
    return {"gamma": gamma, "c_d_alpha": c, "kappa": kappa}


def _decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def check_coefficients(out: dict, cfg: dict, far: bool = False) -> list[str]:
    ref = closed_forms(cfg["alpha"], cfg["cross_section"]["nu0"])
    problems = [f"{key} {out[key]!r} vs closed form {val!r}"
                for key, val in ref.items()
                if not abs(out[key] - val) <= CLOSED_FORM_RTOL * abs(val)]
    if far and not abs(out["D"] - 1.0) <= 1e-6:
        problems.append(f"D {out['D']!r} != 1 to 1e-6 (constant sigma)")
    return problems


def check_converge(report: dict, cfg: dict, scaling: str) -> list[str]:
    case = report["cases"][0]
    rows = case["rows"]
    l1 = [r["l1"] for r in rows]
    problems = []
    if case["verdict"] != "PASS":
        problems.append(f"verdict {case['verdict']}")
    if not _decreasing(l1):
        problems.append(f"L1 not decreasing in eps: {l1}")
    if not l1[-1] < 0.05:
        problems.append(f"finest L1 {l1[-1]:.4f} >= 0.05")
    E = cfg["field"]["e0"] if cfg["field"]["kind"] == "constant" else 0.0
    alpha, nu0 = cfg["alpha"], cfg["cross_section"]["nu0"]
    if scaling == "high_field":
        if case["kappa"] != 0.0 or case["drift"] != E:
            problems.append(f"high field: kappa {case['kappa']!r}, drift {case['drift']!r} != (0, {E})")
    else:
        if not abs(case["drift"] - E) <= 1e-3:
            problems.append(f"drift {case['drift']!r} not within 1e-3 of E={E}")
        kappa = closed_forms(alpha, nu0)["kappa"]
        if not abs(case["kappa"] - kappa) <= CLOSED_FORM_RTOL * kappa:
            problems.append(f"kappa {case['kappa']!r} vs closed form {kappa!r}")
    # constant sigma: thinning accepts every candidate, so the count is
    # Poisson with mean N nu0 T eps^-alpha (eps^-1 under high-field scaling)
    for r in rows:
        power = 1.0 if scaling == "high_field" else alpha
        m = cfg["particles"] * nu0 * cfg["final_time"] * r["eps"] ** -power
        if not abs(r["collisions"] - m) <= 6 * math.sqrt(m):
            problems.append(f"eps={r['eps']}: {r['collisions']} collisions, Poisson mean {m:.0f} +- {6 * math.sqrt(m):.0f}")
    return problems


def check_equilibrium(table: dict) -> list[str]:
    problems = []
    F, lam = table["F"], table["lambda"]
    if not F.min() > 0:
        problems.append(f"min F {F.min():.3e} <= 0")
    odd = float(np.max(np.abs(lam + lam[::-1])) / np.max(np.abs(lam)))
    if not odd <= 1e-10:
        problems.append(f"lambda not odd: max|lam(v)+lam(-v)|/max|lam| = {odd:.2e}")
    return problems


def check_g_ratio(G_coarse: np.ndarray, G_fine: np.ndarray) -> list[str]:
    """||G|| ~ E^2: halving E divides max|G| by about 4."""
    order = math.log2(np.max(np.abs(G_coarse)) / np.max(np.abs(G_fine)))
    return [] if abs(order - 2.0) <= 0.25 else [f"G order {order:.3f} not within 2 +- 0.25"]


def check_operator(table: dict) -> list[str]:
    return [f"{col} not decreasing in eps: {table[col].tolist()}"
            for col in ("sup_error", "l2_error") if not _decreasing(table[col].tolist())]


def is_known_fault(op: dict, problems: list[str]) -> bool:
    """True when an operation failed with exactly the symptom of its known
    fault; any other failure of it, or an extra problem, is unexpected."""
    return bool(problems) and problems == op.get("known_fault")


# -- reading outputs -------------------------------------------------------


def read_csv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], cols))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_op(op: dict, cfg: dict, outdir: str, tables: dict) -> list[str]:
    """Check one finished operation from its files.  `tables` maps labels of
    the round's earlier equilibrium operations to their outputs."""
    kind = op["check"]
    if kind == "coefficients":
        out = read_json(os.path.join(outdir, "coefficients.json"))
        return check_coefficients(out, cfg, op.get("far", False))
    if kind == "converge":
        return check_converge(read_json(os.path.join(outdir, "report.json")), cfg, op["scaling"])
    if kind == "equilibrium":
        table = tables[op["label"]] = read_csv(os.path.join(outdir, "equilibrium.csv"))
        problems = check_equilibrium(table)
        if "g_ratio_with" in op:
            problems += check_g_ratio(tables[op["g_ratio_with"]]["G"], table["G"])
        return problems
    if kind == "operator":
        return check_operator(read_csv(os.path.join(outdir, "operator_check.csv")))
    raise ValueError(f"unknown check {kind!r}")
