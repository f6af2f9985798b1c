"""Workload definitions: the configs each workload generates and the CLI
operations one round runs on them.

Pure standard library, so the orchestrator can write configs without
importing NumPy.  The seed given to the benchmark becomes the Monte Carlo
seed of every config; no other input depends on it.
"""

from __future__ import annotations

import math


def _config(seed: int, **overrides) -> dict:
    cfg = {
        "alpha": 1.5,
        "dim": 1,
        "cross_section": {"kind": "Constant", "nu0": 1.0},
        "field": {"kind": "zero", "e0": 0.0},
        "domain_length": 4.0 * math.pi,
        "final_time": 0.5,
        "epsilon_schedule": [0.2, 0.1, 0.05],
        "seed": seed,
        "particles": 250_000,
        "velocity_grid": {"nodes": 128, "vmax_over_inv_eps": 10.0},
        "x_bins": 32,
        "time_step_macro": 1e-3,
    }
    cfg.update(overrides)
    return cfg


def _op(label, config, argv, check, known_fault=None, **extra) -> dict:
    """`known_fault`, when given, is the exact list of problems a known fault
    of the program produces; only that symptom counts as the known fault."""
    return {"label": label, "config": config, "argv": list(argv), "check": check,
            "known_fault": known_fault, **extra}


def converge_mc(seed: int):
    # the four constant-sigma studies of acceptance criteria 8 and 9;
    # 2.5e5 particles keep every verdict of the 1e6-particle gate
    e05 = {"kind": "constant", "e0": 0.5}
    configs = {
        "a1.5-E0": _config(seed),
        "a1.5-E0.5": _config(seed, field=e05),
        "a1-E0.5": _config(seed, alpha=1.0, field=e05),
        "a1.5-E0.5-T0.3": _config(seed, field=e05, final_time=0.3),
    }
    ops = [
        _op("converge a1.5 E0", "a1.5-E0", ["converge"], "converge", scaling="diffusive"),
        _op("converge a1.5 E0.5", "a1.5-E0.5", ["converge"], "converge", scaling="diffusive"),
        _op("converge a1 E0.5", "a1-E0.5", ["converge"], "converge", scaling="diffusive"),
        _op("converge a1.5 E0.5 high-field", "a1.5-E0.5-T0.3",
            ["converge", "--scaling", "high_field"], "converge", scaling="high_field"),
        _op("coefficients a1.5", "a1.5-E0.5", ["coefficients"], "coefficients"),
        _op("coefficients a1", "a1-E0.5", ["coefficients"], "coefficients"),
    ]
    return configs, ops


def equilibrium_perturbed(seed: int):
    perturbed = {"kind": "PerturbedConstant", "nu0": 1.0, "amplitude": 0.5}
    near = dict(cross_section=perturbed, field={"kind": "constant", "e0": 0.5},
                epsilon_schedule=[0.1, 0.05, 0.025],
                velocity_grid={"nodes": 128, "vmax_over_inv_eps": 10.0})
    configs = {
        "a1.5-perturbed": _config(seed, **near),
        "a1-perturbed": _config(seed, alpha=1.0, **near),
    }
    ops = []
    for name, alpha in (("a1.5-perturbed", "1.5"), ("a1-perturbed", "1")):
        ops += [
            _op(f"coefficients a{alpha} perturbed", name, ["coefficients"], "coefficients"),
            _op(f"equilibrium a{alpha} E0.1", name,
                ["equilibrium", "--raw-field", "--field", "0.1"], "equilibrium"),
            _op(f"equilibrium a{alpha} E0.05", name,
                ["equilibrium", "--raw-field", "--field", "0.05"], "equilibrium",
                g_ratio_with=f"equilibrium a{alpha} E0.1"),
            _op(f"operator-check a{alpha} perturbed", name, ["operator-check"], "operator"),
        ]
    # far grid of acceptance criterion 2: 160 nodes out to vmax = 1e6.  The
    # unscaled bordered lambda solve leaves the far left tail as roundoff,
    # and the three-point tail fit then breaks at alpha 1.25 and 1.5.
    far_faults = {
        1.25: ["D inf != 1 to 1e-6 (constant sigma)"],
        1.5: ["OverflowError: math range error"],
        1.75: None,
    }
    for alpha, fault in far_faults.items():
        name = f"a{alpha}-far"
        configs[name] = _config(seed, alpha=alpha,
                                velocity_grid={"nodes": 160, "vmax_over_inv_eps": 5e4})
        ops.append(_op(f"coefficients a{alpha} far grid", name, ["coefficients"],
                       "coefficients", known_fault=fault, far=True))
    return configs, ops


WORKLOADS = {
    "converge-mc": converge_mc,
    "equilibrium-perturbed": equilibrium_perturbed,
}
