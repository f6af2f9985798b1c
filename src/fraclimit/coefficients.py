"""Limit-equation coefficients: c_{d,alpha}, gamma, kappa, the drift matrix D,
and the (kappa, drift) pair of the limit equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .collision import CollisionContext
from .equilibrium import LambdaField, drift_mu, solve_lambda
from .errors import InvalidInput, SolverFailure, TailDivergence
from .params import FieldSpec
from .velocity import moment, tail_gamma


def c_d_alpha(d: int, alpha: float) -> float:
    """Fractional-Laplacian kernel constant alpha 2^(alpha-1) Gamma((alpha+d)/2) / (pi^(d/2) Gamma((2-alpha)/2))."""
    if not 0.0 < alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside (0,2)")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((alpha + d) / 2.0)
        / (math.pi ** (d / 2.0) * math.gamma((2.0 - alpha) / 2.0))
    )


def gamma_of_M(alpha: float) -> float:
    """Tail constant gamma of the equilibrium: |v|^(1+alpha) M(v) -> gamma."""
    if not 1.0 <= alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside [1,2)")
    return tail_gamma(alpha)


def kappa(alpha: float, nu0: float, gamma: float, d: int = 1) -> float:
    """Diffusivity kappa = (gamma nu0^2 / c_{d,alpha}) int_0^inf z^alpha e^(-nu0 z) dz.

    Returned from the Gamma closed form; the defining integral is recomputed
    by adaptive quadrature and must agree to 1e-10 relative.
    """
    if alpha <= 0 or nu0 <= 0 or gamma <= 0:
        raise InvalidInput("kappa needs positive alpha, nu0, gamma")
    closed = gamma * math.gamma(alpha + 1.0) * nu0 ** (1.0 - alpha) / c_d_alpha(d, alpha)
    integral, _ = quad(lambda z: z**alpha * math.exp(-nu0 * z), 0.0, math.inf)
    by_quadrature = gamma * nu0**2 / c_d_alpha(d, alpha) * integral
    if abs(by_quadrature - closed) > 1e-10 * abs(closed):
        raise SolverFailure(
            f"kappa closed form {closed!r} vs quadrature {by_quadrature!r}"
        )
    return closed


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

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "nu0": self.nu0,
            "gamma": self.gamma,
            "c_d_alpha": self.c_d_alpha,
            "kappa": self.kappa,
            "D": self.D,
        }


def limit_coefficients(ctx: CollisionContext) -> LimitCoefficients:
    """Assemble all limit coefficients for the context's model instance."""
    alpha = ctx.alpha
    nu0 = ctx.cross_section.nu0
    gam = gamma_of_M(alpha)
    c = c_d_alpha(1, alpha)
    kap = kappa(alpha, nu0, gam)
    D = matrix_D(solve_lambda(ctx), ctx) if alpha > 1.0 else None
    return LimitCoefficients(alpha, nu0, gam, c, kap, D)


def limit_model(ctx: CollisionContext, field: FieldSpec, scaling: str) -> tuple[float, float]:
    """(kappa, drift) of the limit equation.

    Diffusive scaling: kappa in closed form; the drift is D E for alpha > 1
    and mu(E) at alpha = 1, both solved on ctx's grid.  High-field scaling:
    pure transport, kappa = 0 and drift E.  A zero field has drift 0 with no
    solve.  Unknown scalings are refused.
    """
    if scaling not in ("diffusive", "high_field"):
        raise InvalidInput(f"unknown scaling {scaling!r}")
    if scaling == "high_field":
        return 0.0, 0.0 if field.kind == "zero" else field.e0
    kap = kappa(ctx.alpha, ctx.cross_section.nu0, gamma_of_M(ctx.alpha))
    if field.kind == "zero":
        return kap, 0.0
    if ctx.alpha > 1.0:
        return kap, matrix_D(solve_lambda(ctx), ctx) * field.e0
    return kap, drift_mu(field.e0, ctx)
