"""Spectral solver on the torus for the limit equations.

The limit equation has constant coefficients, so its solution operator is an
exact per-mode multiplier: fractional diffusion damps each Fourier mode and
the drift shifts its phase, with no time stepping.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .coefficients import c_d_alpha
from .errors import InvalidInput


class MacroState:
    """Density values on a uniform periodic grid of [0, L)."""

    def __init__(self, rho: np.ndarray, L: float, t: float = 0.0, meta: dict | None = None):
        self.rho = np.asarray(rho, dtype=float)
        self.L = float(L)
        self.t = float(t)
        self.meta = dict(meta or {})

    @property
    def n(self) -> int:
        return len(self.rho)

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @property
    def mass(self) -> float:
        return float(np.sum(self.rho) * self.dx)

    def coeffs(self) -> np.ndarray:
        return np.fft.rfft(self.rho)

    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers 2*pi*k/L of the rfft half-spectrum."""
        return 2.0 * np.pi * np.arange(self.n // 2 + 1) / self.L


def frac_laplacian_fourier(rho: MacroState, alpha: float, kappa: float) -> MacroState:
    """kappa * (-Laplacian)^(alpha/2) rho via the |k|^alpha multiplier."""
    c = rho.coeffs() * kappa * rho.wavenumbers() ** alpha
    return MacroState(np.fft.irfft(c, n=rho.n), rho.L, rho.t, rho.meta)


def frac_laplacian_singular(f, alpha: float, x) -> np.ndarray:
    """(-Laplacian)^(alpha/2) of a rapidly decaying real-line function f.

    Regularized kernel for 1 < alpha < 2 (the gradient term cancels in the
    symmetrized form):
        c_{1,alpha} int_0^inf (2f(x) - f(x+h) - f(x-h)) / h^(1+alpha) dh.
    Cross-validation path only; adaptive quadrature with an analytic far tail.
    """
    if not 1.0 < alpha < 2.0:
        raise InvalidInput("singular-integral form implemented for 1 < alpha < 2")
    c = c_d_alpha(1, alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(len(xs))
    H = 50.0
    # below h0 the finite difference 2f(x)-f(x+h)-f(x-h) is pure cancellation
    # noise against h^(1+alpha); use its Taylor value -f''h^2 - f''''h^4/12
    h0, d = 1e-3, 0.05
    for i, xi in enumerate(xs):
        def sym(h):
            return 2.0 * f(xi) - f(xi + h) - f(xi - h)

        st = np.array([f(xi + k * d) for k in (-2, -1, 0, 1, 2)])
        d2 = (-st[0] + 16 * st[1] - 30 * st[2] + 16 * st[3] - st[4]) / (12 * d**2)
        d4 = (st[0] - 4 * st[1] + 6 * st[2] - 4 * st[3] + st[4]) / d**4
        near = -d2 * h0 ** (2 - alpha) / (2 - alpha) - d4 / 12 * h0 ** (4 - alpha) / (4 - alpha)
        mid, _ = quad(lambda h: sym(h) / h ** (1.0 + alpha), h0, 1.0, limit=200)
        far, _ = quad(lambda h: sym(h) / h ** (1.0 + alpha), 1.0, H, limit=200)
        tail = 2.0 * f(xi) * H ** (-alpha) / alpha  # f vanishes beyond H
        out[i] = c * (near + mid + far + tail)
    return out if np.ndim(x) > 0 else out[0]


def advance_macro(rho: MacroState, alpha: float, kappa: float, drift: float, until: float) -> MacroState:
    """Evolve d_t rho + kappa(-Lap)^(alpha/2) rho + d_x(drift rho) = 0 to t=until.

    Exact: each mode is multiplied once by exp(-(kappa |k|^alpha + i k drift)(until - t)).
    """
    if until < rho.t:
        raise InvalidInput(f"until={until} < current t={rho.t}")
    k = rho.wavenumbers()
    c = rho.coeffs() * np.exp(-(kappa * k**alpha + 1j * k * float(drift)) * (until - rho.t))
    return MacroState(np.fft.irfft(c, n=rho.n), rho.L, until, rho.meta)


def gaussian_bump(L: float, width: float, n: int) -> MacroState:
    """Normalized periodized Gaussian density on the torus, centred at L/2."""
    x = np.arange(n) * (L / n)
    rho = np.zeros(n)
    for shift in range(-6, 7):
        rho += np.exp(-((x - L / 2 + shift * L) ** 2) / (2.0 * width**2))
    rho /= np.sum(rho) * (L / n)
    return MacroState(rho, L)
