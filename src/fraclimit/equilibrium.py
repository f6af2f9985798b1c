"""Field-modified equilibrium F(v,E), the auxiliary field lambda, and derived objects."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import CollisionContext, apply_A_inverse, apply_K, apply_Q, apply_T
from .errors import InvalidInput, SolverFailure
from .velocity import VelocityProfile, moment, norm_Z

_LAG_Z128, _LAG_W128 = np.polynomial.laguerre.laggauss(128)


@dataclass(frozen=True)
class EquilibriumF:
    profile: VelocityProfile
    field_value: float
    residual: float
    method: str  # "explicit" or "power_iteration"
    eigenvalue: float | None = None


@dataclass(frozen=True)
class LambdaField:
    profile: VelocityProfile
    residual: float


def _normalize(ctx: CollisionContext, values: np.ndarray) -> VelocityProfile:
    # normalize the full-line (tail-corrected) mass to 1, matching the
    # continuum constraint int F dv = 1
    prof = VelocityProfile(ctx.grid, values)
    return VelocityProfile(ctx.grid, values / moment(prof, 0))


def eval_M_deriv(v, alpha: float):
    """Analytic dM/dv."""
    v = np.asarray(v, dtype=float)
    return -(1.0 + alpha) * v * (1.0 + v**2) ** (-(3.0 + alpha) / 2.0) / norm_Z(alpha)


def solve_F(E: float, ctx: CollisionContext, method: str | None = None) -> EquilibriumF:
    """Unique normalized positive solution of E dF/dv = Q(F).

    Constant cross section: closed-form flight average of M (unless the
    power iteration is forced).  Otherwise: power iteration on K o A^-1,
    whose dominant eigenvalue must come out 1.
    """
    if E == 0.0 and method is None:
        prof = ctx.M
        res = float(np.max(np.abs(apply_T(prof, 0.0, ctx).values)))
        return EquilibriumF(prof, 0.0, res, "explicit")
    if method is None:
        method = "explicit" if ctx.cross_section.kind == "constant" else "power_iteration"

    if method == "explicit":
        if ctx.cross_section.kind != "constant":
            raise InvalidInput("explicit formula requires the constant cross section")
        # rate = the context's (discrete) nu so both solve routes describe the
        # same discretized operator
        from .velocity import eval_M

        nu = float(ctx.nu.values[0])
        shifts = ctx.grid.nodes[:, None] - (E / nu) * _LAG_Z128[None, :]
        vals = (_LAG_W128[None, :] * eval_M(shifts, ctx.alpha)).sum(axis=1)
        F = _normalize(ctx, vals)
        res = float(np.max(np.abs(apply_T(F, E, ctx).values)))
        return EquilibriumF(F, E, res, "explicit")

    # power iteration on the positive operator W -> K(A^-1 W)
    g = ctx.grid
    W = ctx.nu.values * ctx.M.values
    W = W / np.sum(g.weights * W)
    eig = np.nan
    for _ in range(10_000):
        Wn = apply_K(apply_A_inverse(VelocityProfile(g, W), E, ctx), ctx).values
        eig = float(np.sum(g.weights * Wn))
        Wn = Wn / np.sum(g.weights * Wn)
        if np.sum(g.weights * np.abs(Wn - W)) < 1e-10:
            W = Wn
            break
        W = Wn
    else:
        raise SolverFailure("no convergence in 10^4 sweeps")
    if abs(eig - 1.0) > 1e-6:
        raise SolverFailure(f"dominant eigenvalue {eig} != 1")
    vals = apply_A_inverse(VelocityProfile(g, W), E, ctx).values
    if vals.min() < -1e-12:
        raise SolverFailure(f"min F = {vals.min():.3e}")
    F = _normalize(ctx, vals)
    res = float(np.max(np.abs(apply_T(F, E, ctx).values)))
    return EquilibriumF(F, E, res, "power_iteration", eigenvalue=eig)


def solve_lambda(ctx: CollisionContext) -> LambdaField:
    """Solve Q(lambda) = dM/dv with zero quadrature mean (one dense solve).

    The bordered system [Q M; w 0] is solved for u = lambda/M, the
    L^2(M^-1) weighting of the coercivity estimates: row i is divided by
    M_i and column j multiplied by M_j, so the multiplier column becomes 1
    and the constraint row w*M.  It is the same linear system, rescaled;
    unscaled, the far-tail entries (~1e-21 on a vmax = 1e6 grid) come out
    as roundoff.  `residual` is max |Q(lambda) - dM/dv| / M, and a solution
    with residual above 1e-10 is refused.
    """
    g = ctx.grid
    n = g.n
    M = ctx.M.values
    # M^-1 Q M as a matrix: gain w_j M_j sigma_ij minus diagonal nu
    Su = ctx.sigma_matrix * (g.weights * M)[None, :] - np.diag(ctx.nu.values)
    rhs = eval_M_deriv(g.nodes, ctx.alpha)
    # bordered system enforcing sum w_i lambda_i = sum w_i M_i u_i = 0
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = Su
    A[:n, n] = 1.0
    A[n, :n] = g.weights * M
    b = np.concatenate([rhs / M, [0.0]])
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - grid pathology
        raise SolverFailure(str(exc)) from exc
    lam = VelocityProfile(g, M * sol[:n])
    res = float(np.max(np.abs(apply_Q(lam, ctx).values - rhs) / M))
    if not res <= 1e-10:
        raise SolverFailure(f"lambda residual {res:.2e} (M-weighted) exceeds 1e-10")
    return LambdaField(lam, res)


def remainder_G(E: float, ctx: CollisionContext) -> tuple[VelocityProfile, float]:
    """Second-order remainder G = F(.,E) - M - E*lambda and its L^2_{M^-1} norm."""
    F = solve_F(E, ctx).profile
    lam = solve_lambda(ctx).profile
    G = VelocityProfile(ctx.grid, F.values - ctx.M.values - E * lam.values)
    l2 = float(np.sqrt(np.sum(ctx.grid.weights * G.values**2 / ctx.M.values)))
    return G, l2


def deviation_R(E: float, ctx: CollisionContext) -> VelocityProfile:
    """R = F(.,E) - M."""
    F = solve_F(E, ctx).profile
    return VelocityProfile(ctx.grid, F.values - ctx.M.values)


def drift_mu(E: float, ctx: CollisionContext) -> float:
    """Critical-case drift mu(E) = int v (F - M) dv, tail-corrected."""
    if E == 0.0:
        return 0.0
    return moment(deviation_R(E, ctx), 1)


def check_dE_F(E: float, ctx: CollisionContext, h: float = 1e-3) -> dict:
    """Finite-difference d/dE of F; reports max |dF/dE| (1+|v|)/F and h-stability."""
    def ratio(step: float) -> float:
        Fp = solve_F(E + step, ctx).profile.values
        Fm = solve_F(E - step, ctx).profile.values
        dF = (Fp - Fm) / (2 * step)
        F = solve_F(E, ctx).profile.values
        return float(np.max(np.abs(dF) * (1.0 + np.abs(ctx.grid.nodes)) / F))

    r1 = ratio(h)
    r2 = ratio(h / 2)
    return {"h": h, "ratio": r1, "ratio_half_h": r2, "stable": bool(max(r1, r2) < 2 * min(r1, r2))}
