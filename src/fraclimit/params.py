"""Validated model definition: exponent, cross section, field, run geometry."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class CrossSection:
    """Collision cross section sigma(v, v').

    kind "constant": sigma = nu0.
    kind "perturbed": sigma = nu0 + a/((1+|v|)(1+|v'|)) — symmetric, bounded
    between nu1 = nu0 - |a| and nu2 = nu0 + |a|, and |sigma - nu0| <= |a|/(1+|v|).
    """

    kind: str = "constant"
    nu0: float = 1.0
    amplitude: float = 0.0

    @property
    def nu1(self) -> float:
        return self.nu0 - abs(self.amplitude) if self.kind == "perturbed" else self.nu0

    @property
    def nu2(self) -> float:
        return self.nu0 + abs(self.amplitude) if self.kind == "perturbed" else self.nu0

    def sigma(self, v, vp):
        v = np.asarray(v, dtype=float)
        vp = np.asarray(vp, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.nu0), np.broadcast_shapes(v.shape, vp.shape)).copy()
        return self.nu0 + self.amplitude / ((1.0 + np.abs(v)) * (1.0 + np.abs(vp)))


def constant_sigma(nu0: float = 1.0) -> CrossSection:
    return CrossSection("constant", nu0, 0.0)


def perturbed_sigma(nu0: float = 1.0, amplitude: float = 0.5) -> CrossSection:
    return CrossSection("perturbed", nu0, amplitude)


@dataclass(frozen=True)
class FieldSpec:
    """Acceleration field E(x); time-independent by construction.

    kind in {"zero", "constant", "sinusoidal"}; sinusoidal is
    e0 * sin(2*pi*wavenumber*x / L).
    """

    kind: str = "zero"
    e0: float = 0.0
    wavenumber: int = 1

    def __call__(self, x, L: float):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.e0)
        return self.e0 * np.sin(2.0 * np.pi * self.wavenumber * x / L)

    def dx(self, x, L: float):
        x = np.asarray(x, dtype=float)
        if self.kind == "sinusoidal":
            k = 2.0 * np.pi * self.wavenumber / L
            return self.e0 * k * np.cos(k * x)
        return np.zeros_like(x)

    @property
    def is_constant(self) -> bool:
        return self.kind in ("zero", "constant")


@dataclass(frozen=True)
class ModelParams:
    alpha: float = 1.5
    dim: int = 1
    cross_section: CrossSection = field(default_factory=constant_sigma)
    field_spec: FieldSpec = field(default_factory=FieldSpec)
    domain_length: float = 2.0 * np.pi
    final_time: float = 1.0
    epsilon_schedule: tuple[float, ...] = (0.2, 0.1, 0.05)
    seed: int = 0
    particles: int = 100_000
    velocity_nodes: int = 128
    vmax_over_inv_eps: float = 10.0
    x_bins: int = 64
    time_step_macro: float = 1e-3

    @property
    def vmax(self) -> float:
        return self.vmax_over_inv_eps / min(self.epsilon_schedule)


def validate(params: ModelParams) -> ModelParams:
    """Check every invariant; returns the params unchanged on success."""
    if not 1.0 <= params.alpha < 2.0:
        raise InvalidInput(f"alpha={params.alpha} outside [1,2)")
    if params.domain_length <= 0 or params.final_time <= 0:
        raise InvalidInput("domain_length and final_time must be positive")
    eps = params.epsilon_schedule
    if len(eps) == 0:
        raise InvalidInput("epsilon_schedule is empty")
    if any(e <= 0 or e > 1 for e in eps):
        raise InvalidInput("epsilon values must lie in (0,1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidInput("epsilon_schedule must be strictly decreasing")
    cs = params.cross_section
    if cs.kind not in ("constant", "perturbed"):
        raise InvalidInput(f"unknown cross section kind {cs.kind!r}")
    if cs.nu0 <= 0 or cs.nu1 <= 0:
        raise InvalidInput(
            f"need 0 < nu0 - |amplitude|; got nu0={cs.nu0}, amplitude={cs.amplitude}"
        )
    fs = params.field_spec
    if fs.kind not in ("zero", "constant", "sinusoidal"):
        raise InvalidInput(f"unknown field kind {fs.kind!r}")
    if fs.kind == "zero" and fs.e0 != 0.0:
        raise InvalidInput(f"zero field with e0={fs.e0}; use kind 'constant' for a nonzero field")
    return params


def from_config(cfg: dict) -> ModelParams:
    """Build validated params from the JSON config mapping."""
    cs = cfg.get("cross_section", {})
    kind = {"Constant": "constant", "PerturbedConstant": "perturbed"}.get(
        cs.get("kind", "Constant"), cs.get("kind", "constant").lower()
    )
    fld = cfg.get("field", {})
    fkind = fld.get("kind", "Zero").lower()
    vg = cfg.get("velocity_grid", {})
    params = ModelParams(
        alpha=float(cfg["alpha"]),
        dim=int(cfg.get("dim", 1)),
        cross_section=CrossSection(kind, float(cs.get("nu0", 1.0)), float(cs.get("amplitude", 0.0))),
        field_spec=FieldSpec(fkind, float(fld.get("e0", 0.0)), int(fld.get("wavenumber", 1))),
        domain_length=float(cfg.get("domain_length", 2.0 * np.pi)),
        final_time=float(cfg.get("final_time", 1.0)),
        epsilon_schedule=tuple(float(e) for e in cfg.get("epsilon_schedule", (0.2, 0.1, 0.05))),
        seed=int(cfg.get("seed", 0)),
        particles=int(cfg.get("particles", 100_000)),
        velocity_nodes=int(vg.get("nodes", 128)),
        vmax_over_inv_eps=float(vg.get("vmax_over_inv_eps", 10.0)),
        x_bins=int(cfg.get("x_bins", 64)),
        time_step_macro=float(cfg.get("time_step_macro", 1e-3)),
    )
    return validate(params)


def load_config(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return from_config(json.load(fh))


def with_seed(params: ModelParams, seed: int) -> ModelParams:
    return replace(params, seed=seed)
