"""Self-test of the benchmark's output checks: each must pass a clean
synthetic output and flag the same output corrupted.

    python3 bench/selftest.py      # exits 0 when every check behaves

Not collected by pytest (runs in well under a second, but it tests the
benchmark, not the package).
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

import checks
from workloads import converge_mc, equilibrium_perturbed


def _clean_report(cfg: dict, scaling: str) -> dict:
    power = 1.0 if scaling == "high_field" else cfg["alpha"]
    rows = [{"eps": e, "l1": l1, "collisions": round(cfg["particles"] * cfg["final_time"] * e ** -power)}
            for e, l1 in zip(cfg["epsilon_schedule"], (0.08, 0.06, 0.04))]
    kappa = 0.0 if scaling == "high_field" else checks.closed_forms(cfg["alpha"], 1.0)["kappa"]
    return {"cases": [{"verdict": "PASS", "rows": rows, "kappa": kappa, "drift": cfg["field"]["e0"]}]}


def _equilibrium_table(alpha: float, E: float) -> dict:
    v = np.concatenate([-np.geomspace(100.0, 0.01, 64), np.geomspace(0.01, 100.0, 64)])
    M = (1 + v**2) ** (-(1 + alpha) / 2)
    lam = (1 + alpha) * v * (1 + v**2) ** (-(3 + alpha) / 2)
    return {"v": v, "F": M + E * lam, "lambda": lam, "G": E**2 * M}


def cases():
    configs, _ = converge_mc(1)
    cfg = configs["a1.5-E0.5"]
    coeffs = {**checks.closed_forms(1.5, 1.0), "D": 1.0}
    yield "coefficients clean", checks.check_coefficients(coeffs, cfg, far=True), False
    for key, scale in (("kappa", 1 + 1e-6), ("gamma", 1 - 1e-9), ("c_d_alpha", 1 + 1e-8)):
        bad = {**coeffs, key: coeffs[key] * scale}
        yield f"coefficients {key} x {scale}", checks.check_coefficients(bad, cfg), True
    yield "coefficients D = inf", checks.check_coefficients({**coeffs, "D": math.inf}, cfg, far=True), True
    yield "coefficients D off by 1e-5", checks.check_coefficients({**coeffs, "D": 1 + 1e-5}, cfg, far=True), True

    report = _clean_report(cfg, "diffusive")
    yield "converge clean", checks.check_converge(report, cfg, "diffusive"), False
    for what, edit in (
        ("collisions off by 1%", lambda c: c["rows"][1].update(collisions=round(c["rows"][1]["collisions"] * 1.01))),
        ("L1 not monotone", lambda c: c["rows"][2].update(l1=0.07)),
        ("finest L1 0.05", lambda c: c["rows"][2].update(l1=0.05)),
        ("drift off by 2e-3", lambda c: c.update(drift=0.502)),
        ("kappa off by 1e-6", lambda c: c.update(kappa=c["kappa"] * (1 + 1e-6))),
        ("verdict FAIL", lambda c: c.update(verdict="FAIL")),
    ):
        bad = copy.deepcopy(report)
        edit(bad["cases"][0])
        yield f"converge {what}", checks.check_converge(bad, cfg, "diffusive"), True
    hf_cfg = configs["a1.5-E0.5-T0.3"]
    hf = _clean_report(hf_cfg, "high_field")
    yield "high-field clean", checks.check_converge(hf, hf_cfg, "high_field"), False
    hf["cases"][0]["kappa"] = 1e-12
    yield "high-field kappa != 0", checks.check_converge(hf, hf_cfg, "high_field"), True

    t01, t005 = _equilibrium_table(1.5, 0.1), _equilibrium_table(1.5, 0.05)
    yield "equilibrium clean", checks.check_equilibrium(t01) + checks.check_g_ratio(t01["G"], t005["G"]), False
    even = {**t01, "lambda": t01["lambda"] + 1e-8 * np.max(np.abs(t01["lambda"]))}
    yield "lambda with an even part of 1e-8", checks.check_equilibrium(even), True
    zero = {**t01, "F": np.where(np.arange(len(t01["F"])) == 0, 0.0, t01["F"])}
    yield "F with a zero", checks.check_equilibrium(zero), True
    yield "G linear in E", checks.check_g_ratio(t01["G"], 0.5 * t01["G"]), True

    op = {"sup_error": np.array([0.6, 0.5, 0.4]), "l2_error": np.array([0.9, 0.7, 0.5])}
    yield "operator clean", checks.check_operator(op), False
    yield "operator not monotone", checks.check_operator({**op, "l2_error": np.array([0.9, 0.7, 0.8])}), True

    # a far-grid operation with a known fault fails the round only when it
    # fails in some other way than that fault's recorded symptom
    far_configs, far_ops = equilibrium_perturbed(1)
    far = {op["label"]: op for op in far_ops if op.get("far")}
    f125, f15 = far["coefficients a1.25 far grid"], far["coefficients a1.5 far grid"]

    def unexpected(op, problems):
        return [] if checks.is_known_fault(op, problems) else problems

    inf_d = checks.check_coefficients({**checks.closed_forms(1.25, 1.0), "D": math.inf},
                                      far_configs["a1.25-far"], far=True)
    yield "a1.25 far: D = inf is its known symptom", unexpected(f125, inf_d), False
    yield "a1.25 far: D finite but wrong", unexpected(f125, ["D 1.2 != 1 to 1e-6 (constant sigma)"]), True
    yield "a1.25 far: symptom plus changed output", \
        unexpected(f125, f125["known_fault"] + ["output differs from the first round's"]), True
    yield "a1.5 far: OverflowError is its known symptom", unexpected(f15, ["OverflowError: math range error"]), False
    yield "a1.5 far: another exception", unexpected(f15, ["ZeroDivisionError: float division by zero"]), True
    yield "a1.5 far: the other operation's symptom", unexpected(f15, f125["known_fault"]), True
    yield "a1.75 far: any failure", unexpected(far["coefficients a1.75 far grid"], inf_d), True


def main() -> int:
    bad = 0
    for name, problems, should_flag in cases():
        ok = bool(problems) == should_flag
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: {'; '.join(problems) or 'passes'}")
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
