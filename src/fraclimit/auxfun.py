"""Auxiliary test-function machinery: chi_eps, the rescaled operator L_eps,
and the limit operator it converges to."""

from __future__ import annotations

import numpy as np

from .collision import CollisionContext
from .equilibrium import solve_F
from .macro import MacroState
from .params import FieldSpec
from .velocity import Tail, _XG, _WG

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
    def single_mode(cls, L: float, m: int = 1, n: int = 64, amplitude: float = 1.0):
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[m] = amplitude / 2.0  # cos(2 pi m x / L)
        return cls(L, c, n)

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
    nu = float(ctx.grid.interp(ctx.nu.values, v)) if abs(v) <= ctx.grid.vmax else ctx._nu_inf
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
    nodes, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        la, lb = np.log(a), np.log(b)
        c, h = (la + lb) / 2, (lb - la) / 2
        u = c + h * _XG
        nodes.append(np.exp(u))
        wts.append(h * _WG * np.exp(u))
    return np.concatenate(nodes), np.concatenate(wts), edges[-1]


def L_eps(
    phi: TestFunction,
    eps: float,
    field: FieldSpec,
    ctx: CollisionContext,
    use_M_instead_of_F: bool = False,
) -> MacroState:
    """Rescaled operator L_eps(phi)(x) = eps^-alpha int nu F_eps (chi_eps - phi) dv.

    F_eps(x,.) = F(., eps^(alpha-1) E(x)) (F(., E(x)) at alpha=1), cached per
    distinct field value.  The velocity integral is evaluated mode by mode in
    closed form, with the |v| > vmax region added from the fitted power-law
    tails of F (nu there is at its asymptotic value).
    """
    g = ctx.grid
    alpha = ctx.alpha
    x = phi.x
    E_x = field(x, phi.L)
    scale = eps ** (alpha - 1.0)
    Eff = scale * E_x
    # cache F per distinct effective field value
    cache: dict[float, np.ndarray] = {}
    for e in np.unique(Eff):
        key = float(e)
        if use_M_instead_of_F:
            cache[key] = ctx.M.values
        else:
            cache[key] = solve_F(key, ctx).profile.values
    Fmat = np.stack([cache[float(e)] for e in Eff])  # (nx, nv)

    # per cached F: its fitted tail on the panels, weighted by nu there, and
    # the closed-form remainder beyond v_far, where the mode factor is ~ -1
    tv, tw, v_far = _tail_panels(g.vmax)
    nu_inf = ctx._nu_inf
    tails = {}
    for key, Fv in cache.items():
        t = Tail(g, Fv)
        rem = -nu_inf * sum(t.integral(0.0, v_far))
        tails[key] = (tw * nu_inf * t(tv), tw * nu_inf * t(-tv), rem)

    out = np.zeros(len(x))
    for k in phi.band:
        if k == 0:
            continue
        kp = phi.kphys[k]
        fac = _chi_mode_factor(kp, eps, g.nodes, ctx.nu.values) - 1.0
        core = (g.weights[None, :] * ctx.nu.values[None, :] * Fmat * fac[None, :]).sum(axis=1)
        # analytic tails, one value per cached field value
        tfac_p = _chi_mode_factor(kp, eps, tv, np.full_like(tv, nu_inf)) - 1.0
        tfac_m = _chi_mode_factor(kp, eps, -tv, np.full_like(tv, nu_inf)) - 1.0
        tail_val = {
            key: np.sum(wr * tfac_p) + np.sum(wl * tfac_m) + rem
            for key, (wr, wl, rem) in tails.items()
        }
        tcol = np.array([tail_val[float(e)] for e in Eff])
        out = out + 2.0 * np.real(phi.coeffs[k] * np.exp(1j * kp * x) * (core + tcol))
    return MacroState(out / eps**alpha, phi.L, 0.0, {"eps": eps, "alpha": alpha})


def limit_operator(phi: TestFunction, alpha: float, kappa: float, drift) -> MacroState:
    """L(phi) = -kappa (-Lap)^(alpha/2) phi - drift * d_x phi (drift scalar or per-x)."""
    frac = np.fft.irfft(-kappa * phi.kphys**alpha * phi.coeffs * phi.n, n=phi.n)
    return MacroState(frac - np.asarray(drift) * phi.deriv_values(), phi.L)
