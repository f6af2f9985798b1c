"""Auxiliary test-function machinery: chi_eps, the rescaled operator L_eps,
and the limit operator it converges to."""

from __future__ import annotations

import numpy as np

from .collision import CollisionContext
from .equilibrium import solve_F
from .macro import MacroState
from .params import FieldSpec
from .velocity import Tail, _WG, _log_panels

_LAG_Z, _LAG_W = np.polynomial.laguerre.laggauss(64)


class TestFunction:
    """Smooth periodic test function phi(x): uniform grid values plus a
    finite band of Fourier coefficients (rfft convention)."""

    __test__ = False  # not a test case despite the name

    def __init__(self, L: float, coeffs: np.ndarray, n: int):
        self.L = float(L)
        self.n = int(n)
        self.coeffs = np.asarray(coeffs, dtype=complex)  # length n//2+1, scaled as rfft/n
        self.values = np.fft.irfft(self.coeffs * n, n=n)
        self.kphys = 2.0 * np.pi * np.arange(n // 2 + 1) / L
        self.band = np.nonzero(np.abs(self.coeffs) > 1e-15)[0]

    @classmethod
    def gaussian_bump(cls, L: float, width: float = 0.5, bandwidth: int = 8, n: int = 64):
        x = np.arange(n) * (L / n)
        vals = np.zeros(n)
        for s in range(-6, 7):
            vals += np.exp(-((x - L / 2 + s * L) ** 2) / (2.0 * width**2))
        c = np.fft.rfft(vals) / n
        c[bandwidth + 1 :] = 0.0
        return cls(L, c, n)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.L / self.n)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, np.real(self.coeffs[0]))
        for k in self.band:
            if k == 0:
                continue
            out = out + 2.0 * np.real(self.coeffs[k] * np.exp(1j * self.kphys[k] * x))
        return out

    def deriv_values(self) -> np.ndarray:
        return np.fft.irfft(1j * self.kphys * self.coeffs * self.n, n=self.n)


def chi_eps(phi: TestFunction, eps: float, x: float, v: float, ctx: CollisionContext) -> float:
    """Flight average chi_eps(x,v) = int_0^inf nu e^(-nu z) phi(x + eps v z) dz,
    Gauss-Laguerre in u = nu z."""
    nu = float(ctx.nu_at(v))
    pts = x + eps * v * _LAG_Z / nu
    return float(np.sum(_LAG_W * phi(pts)))


def _chi_mode_factor(k_phys: float, eps: float, v: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Per-mode closed form: chi_hat_k / phi_hat_k = 1/(1 - i k eps v / nu)."""
    return 1.0 / (1.0 - 1j * k_phys * eps * v / nu)


def chi_decay_check(phi: TestFunction, eps_list, ctx: CollisionContext) -> dict:
    """e(eps) = sqrt(int (int M |chi_eps - phi| dv)^2 dx) and its log-log slope."""
    g = ctx.grid
    x = phi.x
    errs = []
    for eps in eps_list:
        dev = np.zeros((len(x), g.n))
        for k in phi.band:
            if k == 0:
                continue
            fac = _chi_mode_factor(phi.kphys[k], eps, g.nodes, ctx.nu.values) - 1.0
            dev += 2.0 * np.real(
                phi.coeffs[k] * np.exp(1j * phi.kphys[k] * x)[:, None] * fac[None, :]
            )
        # signed velocity average: the O(eps v) odd term must cancel for the
        # decay rate to reach alpha (pointwise |.| would cap the slope at 1)
        inner = np.abs(np.sum(g.weights[None, :] * ctx.M.values[None, :] * dev, axis=1))
        errs.append(float(np.sqrt(np.sum(inner**2) * (phi.L / phi.n))))
    errs = np.array(errs)
    le, lv = np.log(np.asarray(eps_list, dtype=float)), np.log(np.maximum(errs, 1e-300))
    slope = float(np.polyfit(le, lv, 1)[0]) if np.all(errs > 0) else np.inf
    return {"eps": list(eps_list), "errors": errs.tolist(), "slope": slope}


def _tail_panels(vmax: float, factor: float = 1e4, panels: int = 6):
    """Log-spaced Gauss-Legendre panels on [vmax, vmax*factor] for tail sums."""
    edges = vmax * factor ** (np.arange(panels + 1) / panels)
    *_, v, jac = _log_panels(edges)
    return v, np.tile(_WG, panels) * jac, edges[-1]


def L_eps(phi: TestFunction, eps: float, field: FieldSpec, ctx: CollisionContext) -> MacroState:
    """Rescaled operator L_eps(phi)(x) = eps^-alpha int nu F_eps (chi_eps - phi) dv.

    F_eps = F(., eps^(alpha-1) E) does not depend on x, so L_eps is a Fourier
    multiplier: per mode, the velocity integral in closed form on the grid plus
    the |v| > vmax region from F's fitted power-law tails.
    """
    g = ctx.grid
    alpha = ctx.alpha
    F = solve_F(eps ** (alpha - 1.0) * field.e0, ctx).profile.values
    # F's fitted tail on the panels, weighted by nu there, and the
    # closed-form remainder beyond v_far, where the mode factor is ~ -1 and
    # nu ~ nu(v_far)
    tv, tw, v_far = _tail_panels(g.vmax)
    tail = Tail(g, F)
    rem = -ctx.nu_at(v_far) * sum(tail.integral(0.0, v_far))
    nu_t = ctx.nu_at(tv)
    wr, wl = tw * nu_t * tail(tv), tw * nu_t * tail(-tv)

    band = phi.band[phi.band > 0]
    kp = phi.kphys[band][:, None]
    fac = _chi_mode_factor(kp, eps, g.nodes, ctx.nu.values) - 1.0
    core = (g.weights * ctx.nu.values * F * fac).sum(axis=1)
    tfac_p = _chi_mode_factor(kp, eps, tv, nu_t) - 1.0
    tfac_m = _chi_mode_factor(kp, eps, -tv, nu_t) - 1.0
    mult = np.zeros(len(phi.coeffs), dtype=complex)
    mult[band] = core + ((wr * tfac_p).sum(axis=1) + (wl * tfac_m).sum(axis=1) + rem)
    out = np.fft.irfft(mult * phi.coeffs * phi.n, n=phi.n)
    return MacroState(out / eps**alpha, phi.L, 0.0, {"eps": eps, "alpha": alpha})


def limit_operator(phi: TestFunction, alpha: float, kappa: float, drift: float) -> MacroState:
    """L(phi) = -kappa (-Lap)^(alpha/2) phi - drift * d_x phi for a constant drift."""
    frac = np.fft.irfft(-kappa * phi.kphys**alpha * phi.coeffs * phi.n, n=phi.n)
    return MacroState(frac - float(drift) * phi.deriv_values(), phi.L)
