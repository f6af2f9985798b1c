"""Validated model definition: exponent, cross section, field, run geometry."""

from __future__ import annotations

import json
import math
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

    def nu_coefficients(self, m0: float, m1: float) -> tuple[float, float]:
        """(A, B) of the collision frequency nu(v) = int sigma(v', v) M(v') dv'
        = A + B/(1+|v|): A = nu0 m0 and B = amplitude m1 (0 for the constant
        kind), from the moments m0 = int M and m1 = int M(v')/(1+|v'|)."""
        return self.nu0 * m0, self.amplitude * m1 if self.kind == "perturbed" else 0.0

    def nu(self, v, m0: float, m1: float):
        """nu(v) = A + B/(1+|v|); see `nu_coefficients`."""
        A, B = self.nu_coefficients(m0, m1)
        return A + B / (1.0 + np.abs(np.asarray(v, dtype=float)))


def constant_sigma(nu0: float = 1.0) -> CrossSection:
    return CrossSection("constant", nu0, 0.0)


def perturbed_sigma(nu0: float = 1.0, amplitude: float = 0.5) -> CrossSection:
    return CrossSection("perturbed", nu0, amplitude)


@dataclass(frozen=True)
class FieldSpec:
    """Acceleration field E, the same everywhere and at all times: kind "zero"
    (E = 0) or "constant" (E = e0)."""

    kind: str = "zero"
    e0: float = 0.0

    def __call__(self, x):
        """E at the points x."""
        return np.full_like(np.asarray(x, dtype=float), self.e0 if self.kind == "constant" else 0.0)


@dataclass(frozen=True)
class ModelParams:
    alpha: float = 1.5
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

    @property
    def vmax(self) -> float:
        return self.vmax_over_inv_eps / min(self.epsilon_schedule)


def validate(params: ModelParams) -> ModelParams:
    """Check every invariant; returns the params unchanged on success."""
    if not 1.0 <= params.alpha < 2.0:
        raise InvalidInput(f"alpha={params.alpha} outside [1,2)")
    if not (0 < params.domain_length < math.inf and 0 < params.final_time < math.inf):
        raise InvalidInput(
            f"domain_length and final_time must be positive and finite; "
            f"got {params.domain_length}, {params.final_time}"
        )
    eps = params.epsilon_schedule
    if len(eps) == 0:
        raise InvalidInput("epsilon_schedule is empty")
    if not all(0 < e <= 1 for e in eps):
        raise InvalidInput("epsilon values must lie in (0,1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidInput("epsilon_schedule must be strictly decreasing")
    cs = params.cross_section
    if cs.kind not in ("constant", "perturbed"):
        raise InvalidInput(f"unknown cross section kind {cs.kind!r}")
    if not (cs.nu1 > 0 and math.isfinite(cs.nu2)):
        raise InvalidInput(
            f"need 0 < nu0 - |amplitude| and a finite nu0 + |amplitude|; "
            f"got nu0={cs.nu0}, amplitude={cs.amplitude}"
        )
    fs = params.field_spec
    if fs.kind not in ("zero", "constant"):
        raise InvalidInput(f"unknown field kind {fs.kind!r}")
    if not math.isfinite(fs.e0):
        raise InvalidInput(f"field e0={fs.e0} is not finite")
    if fs.kind == "zero" and fs.e0 != 0.0:
        raise InvalidInput(f"zero field with e0={fs.e0}; use kind 'constant' for a nonzero field")
    if params.particles < 1 or params.x_bins < 1:
        raise InvalidInput(f"need particles >= 1 and x_bins >= 1; got {params.particles}, {params.x_bins}")
    if params.seed < 0:
        raise InvalidInput(f"seed={params.seed} must be non-negative")
    return params


def _number(cfg: dict, key: str, default=None, cast=float):
    """The config entry at the dotted `key`, converted by `cast`; refused by
    name if it is missing (and has no default) or not numeric."""
    *sections, last = key.split(".")
    for name in sections:
        cfg = cfg.get(name, {})
    value = cfg.get(last, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        what = "is missing" if value is None else f"is not numeric: {value!r}"
        raise InvalidInput(f"config entry {key!r} {what}") from None


def from_config(cfg: dict) -> ModelParams:
    """Build validated params from the JSON config mapping.  Keys it does not
    read, such as the retired `time_step_macro`, are ignored; `dim` must be 1."""
    if _number(cfg, "dim", 1) != 1:
        raise InvalidInput(f"dim={cfg['dim']}: the solvers are one-dimensional")
    cs = cfg.get("cross_section", {})
    kind = {"Constant": "constant", "PerturbedConstant": "perturbed"}.get(
        cs.get("kind", "Constant"), cs.get("kind", "constant").lower()
    )
    fkind = cfg.get("field", {}).get("kind", "Zero").lower()
    amplitude = _number(cfg, "cross_section.amplitude", 0.0)
    params = ModelParams(
        alpha=_number(cfg, "alpha"),
        cross_section=CrossSection(kind, _number(cfg, "cross_section.nu0", 1.0), amplitude),
        field_spec=FieldSpec(fkind, _number(cfg, "field.e0", 0.0)),
        domain_length=_number(cfg, "domain_length", 2.0 * np.pi),
        final_time=_number(cfg, "final_time", 1.0),
        epsilon_schedule=_number(cfg, "epsilon_schedule", (0.2, 0.1, 0.05), lambda s: tuple(map(float, s))),
        seed=_number(cfg, "seed", 0, int),
        particles=_number(cfg, "particles", 100_000, int),
        velocity_nodes=_number(cfg, "velocity_grid.nodes", 128, int),
        vmax_over_inv_eps=_number(cfg, "velocity_grid.vmax_over_inv_eps", 10.0),
        x_bins=_number(cfg, "x_bins", 64, int),
    )
    return validate(params)


def load_config(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return from_config(json.load(fh))


def with_seed(params: ModelParams, seed: int) -> ModelParams:
    return replace(params, seed=seed)
