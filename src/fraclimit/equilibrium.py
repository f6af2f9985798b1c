"""Field-modified equilibrium F(v,E), the auxiliary field lambda, and derived objects.

F = M + E u with u = (F - M)/E from one linear solve, and u = lambda at E = 0;
R = E u, G = E (u - lambda) and mu = E int v u are never differences of profiles.
The closed form at constant sigma builds its 128-point rule on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .collision import CollisionContext, apply_A_inverse, apply_K, apply_Q, apply_T, flight_inverse
from .errors import InvalidInput, SolverFailure
from .velocity import VelocityProfile, eval_M, moment, norm_Z


@functools.cache
def _laguerre128() -> tuple[np.ndarray, np.ndarray]:
    """The explicit solve's 128-point Gauss-Laguerre rule, read-only, built on first use."""
    z, w = np.polynomial.laguerre.laggauss(128)
    z.flags.writeable = w.flags.writeable = False
    return z, w


@dataclass(frozen=True)
class EquilibriumF:
    profile: VelocityProfile
    residual: float
    method: str  # "explicit" (constant sigma), "linear" (F = M + E u) or "power_iteration"
    eigenvalue: float | None = None


@dataclass(frozen=True)
class LambdaField:
    profile: VelocityProfile
    residual: float


def _equilibrium(values, E, ctx, method, eigenvalue=None) -> EquilibriumF:
    # unit full-line (tail-corrected) mass: the continuum constraint int F dv = 1
    F = VelocityProfile(ctx.grid, values / moment(VelocityProfile(ctx.grid, values), 0))
    res = float(np.max(np.abs(apply_T(F, E, ctx).values)))
    return EquilibriumF(F, res, method, eigenvalue)


def eval_M_deriv(v, alpha: float):
    """Analytic dM/dv."""
    v = np.asarray(v, dtype=float)
    return -(1.0 + alpha) * v * (1.0 + v**2) ** (-(3.0 + alpha) / 2.0) / norm_Z(alpha)


def _solve_u(E: float, ctx: CollisionContext) -> np.ndarray:
    """u = (F - M)/E, memoised on the context for E = 0 (lambda) and the last E."""
    u = ctx._u_memo.get(E)
    if u is None:
        u = _assemble_u(E, ctx)
        if E != 0.0:  # evict the previous field value, keep lambda
            ctx._u_memo = {k: w for k, w in ctx._u_memo.items() if k == 0.0}
        ctx._u_memo[E] = u
    return u.copy()


def _assemble_u(E: float, ctx: CollisionContext) -> np.ndarray:
    """u = (F - M)/E: (I - B) u = -A^-1 dM/dv with sum w_i u_i = 0, B = A^-1 K.

    This is E dF/dv = Q(F) for F = M + E u, as K(M) = nu M.  K and dM/dv are
    exact beyond vmax, so the system is linear.  At E = 0, A = nu and
    Q(u) = dM/dv: u = lambda.
    Solved for u/M (the L^2(M^-1) weighting; unscaled, far tails of ~1e-21
    come out as roundoff): the border column is 1, the constraint row w*M.
    E times the multiplier is the defect of F; it tracks the power iteration's
    eig - 1 (within 1 % on VelocityGrid(128, 40)) and is refused above its 1e-6.
    """
    g, n, M, alpha = ctx.grid, ctx.grid.n, ctx.M.values, ctx.alpha

    def beyond(q):
        gain = eval_M(q, alpha)[:, None] * ctx.cross_section.sigma(q[:, None], g.nodes) * g.weights
        return np.column_stack([gain, eval_M_deriv(q, alpha)])

    nodal = np.column_stack([M[:, None] * ctx.sigma_matrix * g.weights, eval_M_deriv(g.nodes, alpha)])
    X = flight_inverse(E, ctx, nodal, beyond)
    A = np.block([[np.eye(n) - X[:, :n] * M / M[:, None], np.ones((n, 1))],
                  [g.weights * M, np.zeros(1)]])
    b = np.append(-X[:, n] / M, 0.0)
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - grid pathology
        raise SolverFailure(str(exc)) from exc
    if not abs(E * sol[n]) <= 1e-6:
        raise SolverFailure(f"border multiplier {E * sol[n]:.3e} (times E) exceeds 1e-6 at E={E}")
    # shifting u along the null vector F = M + E u only rescales F; the shift
    # to zero tail-corrected mass makes E u = F - M with F at the mass of M
    u = M * sol[:n]
    F = VelocityProfile(g, M + E * u)
    return u - moment(VelocityProfile(g, u), 0) / moment(F, 0) * F.values


def solve_F(E: float, ctx: CollisionContext, method: str | None = None) -> EquilibriumF:
    """Unique normalized positive solution of E dF/dv = Q(F).

    By default F = M at E = 0, the closed-form flight average of M for the
    constant cross section ("explicit"), and otherwise F = M + E u from the
    linear solve for u = (F - M)/E ("linear"), refused where F <= 0.
    "power_iteration" is the Perron cross-check: power iteration on K o A^-1,
    whose dominant eigenvalue must come out 1.  Every route is normalized to
    unit tail-corrected mass.
    """
    if E == 0.0 and method is None:
        res = float(np.max(np.abs(apply_T(ctx.M, 0.0, ctx).values)))
        return EquilibriumF(ctx.M, res, "explicit")
    if method is None:
        method = "explicit" if ctx.cross_section.amplitude == 0.0 else "linear"
    if method not in ("explicit", "linear", "power_iteration"):
        raise InvalidInput(f"unknown method {method!r}")

    if method == "explicit":
        if ctx.cross_section.amplitude != 0.0:
            raise InvalidInput("explicit formula requires the constant cross section")
        # rate = the context's (discrete) nu so both solve routes describe the
        # same discretized operator
        nu = float(ctx.nu.values[0])
        z, w = _laguerre128()
        shifts = ctx.grid.nodes[:, None] - (E / nu) * z[None, :]
        vals = (w[None, :] * eval_M(shifts, ctx.alpha)).sum(axis=1)
        return _equilibrium(vals, E, ctx, "explicit")

    if method == "linear":
        vals = ctx.M.values + E * _solve_u(E, ctx)
        if not vals.min() > 0.0:
            raise SolverFailure(f"min F = {vals.min():.3e}")
        return _equilibrium(vals, E, ctx, "linear")

    # power iteration on the positive operator W -> K(A^-1 W)
    g = ctx.grid
    W = ctx.nu.values * ctx.M.values
    W = W / np.sum(g.weights * W)
    for _ in range(10_000):
        Wn = apply_K(apply_A_inverse(VelocityProfile(g, W), E, ctx), ctx).values
        eig = float(np.sum(g.weights * Wn))
        W, W_old = Wn / eig, W
        if np.sum(g.weights * np.abs(W - W_old)) < 1e-10:
            break
    else:
        raise SolverFailure("no convergence in 10^4 sweeps")
    if abs(eig - 1.0) > 1e-6:
        raise SolverFailure(f"dominant eigenvalue {eig} != 1")
    vals = apply_A_inverse(VelocityProfile(g, W), E, ctx).values
    if vals.min() < -1e-12:
        raise SolverFailure(f"min F = {vals.min():.3e}")
    return _equilibrium(vals, E, ctx, "power_iteration", eig)


def solve_lambda(ctx: CollisionContext) -> LambdaField:
    """Solve Q(lambda) = dM/dv with zero mean: u at E = 0.

    `residual` is max |Q(lambda) - dM/dv| / M, and a solution with residual
    above 1e-10 is refused.
    """
    lam = VelocityProfile(ctx.grid, _solve_u(0.0, ctx))
    rhs = eval_M_deriv(ctx.grid.nodes, ctx.alpha)
    res = float(np.max(np.abs(apply_Q(lam, ctx).values - rhs) / ctx.M.values))
    if not res <= 1e-10:
        raise SolverFailure(f"lambda residual {res:.2e} (M-weighted) exceeds 1e-10")
    return LambdaField(lam, res)


def deviation_R(E: float, ctx: CollisionContext) -> VelocityProfile:
    """R = F(.,E) - M = E u, with F at the tail-corrected mass of M."""
    return VelocityProfile(ctx.grid, E * _solve_u(E, ctx))


def remainder_G(E: float, ctx: CollisionContext) -> tuple[VelocityProfile, float]:
    """Second-order remainder G = E (u - lambda) and its L^2_{M^-1} norm."""
    G = deviation_R(E, ctx).values - E * solve_lambda(ctx).profile.values
    l2 = float(np.sqrt(np.sum(ctx.grid.weights * G**2 / ctx.M.values)))
    return VelocityProfile(ctx.grid, G), l2


def drift_mu(E: float, ctx: CollisionContext) -> float:
    """Critical-case drift mu(E) = int v (F - M) dv = E int v u, tail-corrected."""
    if E == 0.0:
        return 0.0
    return moment(deviation_R(E, ctx), 1)
