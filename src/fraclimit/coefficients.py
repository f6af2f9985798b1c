"""Limit-equation coefficients: c_{d,alpha}, gamma, kappa, the drift matrix D,
and the (kappa, drift) pair of the limit equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .collision import CollisionContext
from .equilibrium import LambdaField, drift_mu, solve_lambda
from .errors import InvalidInput, TailDivergence
from .params import require_scaling
from .velocity import moment, norm_Z


def c_d_alpha(alpha: float) -> float:
    """Fractional-Laplacian kernel constant alpha 2^(alpha-1) Gamma((alpha+d)/2) / (pi^(d/2) Gamma((2-alpha)/2)), d = 1."""
    if not 0.0 < alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside (0,2)")
    return (alpha * 2.0 ** (alpha - 1.0) * math.gamma((alpha + 1.0) / 2.0)
            / (math.pi**0.5 * math.gamma((2.0 - alpha) / 2.0)))


def gamma_of_M(alpha: float) -> float:
    """Tail constant gamma of the equilibrium: |v|^(1+alpha) M(v) -> gamma."""
    if not 1.0 <= alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside [1,2)")
    return 1.0 / norm_Z(alpha)


def kappa(alpha: float, nu0: float, gamma: float) -> float:
    """Diffusivity kappa = (gamma nu0^2 / c_{1,alpha}) int_0^inf z^alpha e^(-nu0 z) dz,
    from the Gamma closed form of the integral."""
    if alpha <= 0 or nu0 <= 0 or gamma <= 0:
        raise InvalidInput("kappa needs positive alpha, nu0, gamma")
    return gamma * math.gamma(alpha + 1.0) * nu0 ** (1.0 - alpha) / c_d_alpha(alpha)


def matrix_D(lam: LambdaField, ctx: CollisionContext) -> float:
    """D = int v lambda(v) dv (d=1 scalar), tail-corrected; refused at alpha=1.

    For alpha > 1, lambda decays like |v|^-(2+alpha) and D is finite; a
    fitted tail too slow to integrate raises TailDivergence from `moment`.
    """
    if ctx.alpha <= 1.0:
        raise TailDivergence("D diverges at alpha=1; the critical case uses mu(E)")
    return moment(lam.profile, 1)


@dataclass(frozen=True)
class LimitCoefficients:
    alpha: float
    nu0: float
    gamma: float
    c_d_alpha: float
    kappa: float
    D: float | None  # None in the critical case alpha=1


def limit_coefficients(ctx: CollisionContext) -> LimitCoefficients:
    """Assemble all limit coefficients for the context's model instance."""
    alpha = ctx.alpha
    nu0 = ctx.cross_section.nu0
    gam = gamma_of_M(alpha)
    c = c_d_alpha(alpha)
    kap = kappa(alpha, nu0, gam)
    D = matrix_D(solve_lambda(ctx), ctx) if alpha > 1.0 else None
    return LimitCoefficients(alpha, nu0, gam, c, kap, D)


def limit_model(ctx: CollisionContext, E: float, scaling: str) -> tuple[float, float]:
    """(kappa, drift) of the limit equation in the constant field E: kappa in
    closed form (diffusive scaling) or 0 (high-field, pure transport; refused
    at alpha = 1).  At constant sigma lambda = -M'/nu0, so the drift D E =
    mu(E) = int v F dv is E/nu0 in both (the paper's E at nu0 = 1).  Else it is
    solved on ctx's grid: D E (diffusive, alpha > 1, E != 0) or mu(E) = int v (F - M) dv.
    """
    require_scaling(scaling)
    if scaling == "high_field" and ctx.alpha == 1.0:
        raise InvalidInput("high-field scaling needs alpha > 1: at alpha = 1 and constant sigma the flights' "
                           "sum of w s is exactly Cauchy(0, T) at every eps, so pure transport is not the limit")
    cs = ctx.cross_section
    kap = kappa(ctx.alpha, cs.nu0, gamma_of_M(ctx.alpha)) if scaling == "diffusive" else 0.0
    if cs.amplitude == 0.0:
        return kap, E / cs.nu0
    if scaling == "diffusive" and ctx.alpha > 1.0 and E != 0.0:
        return kap, matrix_D(solve_lambda(ctx), ctx) * E
    return kap, drift_mu(E, ctx)
