"""Spectral solver on the torus for the limit equations.

The limit equation has constant coefficients, so its solution operator is an
exact per-mode multiplier: fractional diffusion damps each Fourier mode and
the drift shifts its phase, with no time stepping.
"""

from __future__ import annotations

import numpy as np

from .coefficients import c_d_alpha
from .errors import InvalidInput
from .params import require_times


class MacroState:
    """A real function on the torus [0, L), a density or a test function: its
    values on a uniform grid, read as their trigonometric interpolant."""

    def __init__(self, rho: np.ndarray, L: float, t: float = 0.0):
        self.rho = np.asarray(rho, dtype=float)
        self.L = float(L)
        self.t = float(t)

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

    def band(self) -> np.ndarray:
        """The rfft modes k > 0 above roundoff, |c_k| > 1e-14 max|c|."""
        c = np.abs(self.coeffs())
        return 1 + np.nonzero(c[1:] > 1e-14 * c.max())[0]

    def __call__(self, x, mult=1.0):
        """The trigonometric interpolant at any x, the mean plus the `band`
        modes, with each rfft mode first multiplied by `mult`."""
        c, k = self.coeffs() * mult / self.n, self.band()
        # a real series: every mode but the Nyquist one stands for two
        ck = c[k] * np.where(2 * k == self.n, 1.0, 2.0)
        kx = np.multiply.outer(np.asarray(x, dtype=float), self.wavenumbers()[k])
        return np.real(c[0] + np.exp(1j * kx) @ ck)

    def bin_means(self, bins: int) -> np.ndarray:
        """The interpolant's exact means over the bins [jH, (j+1)H), H = L/bins:
        each mode's mean over [x, x + H] is its value at x times
        sinc(kH/2pi) e^(ikH/2), taken at the bin starts."""
        H = self.L / bins
        kH = self.wavenumbers() * H
        return self(np.arange(bins) * H, np.sinc(kH / (2.0 * np.pi)) * np.exp(0.5j * kH))


def _symbol(rho: MacroState, alpha: float, kappa: float, drift: float) -> np.ndarray:
    """The limit symbol kappa |k|^alpha + i k drift on rho's modes; the generator is its negative."""
    k = rho.wavenumbers()
    return kappa * k**alpha + 1j * k * float(drift)


def _apply(rho: MacroState, mult: np.ndarray, t: float) -> MacroState:
    return MacroState(np.fft.irfft(rho.coeffs() * mult, n=rho.n), rho.L, t)


def frac_laplacian_fourier(rho: MacroState, alpha: float, kappa: float) -> MacroState:
    """kappa * (-Laplacian)^(alpha/2) rho via the |k|^alpha multiplier."""
    return _apply(rho, _symbol(rho, alpha, kappa, 0.0), rho.t)


def limit_operator(phi: MacroState, alpha: float, kappa: float, drift: float) -> MacroState:
    """L(phi) = -kappa (-Lap)^(alpha/2) phi - drift * d_x phi for a constant drift."""
    return _apply(phi, -_symbol(phi, alpha, kappa, drift), phi.t)


def frac_laplacian_singular(f, alpha: float, x) -> np.ndarray:
    """(-Laplacian)^(alpha/2) of a rapidly decaying real-line function f.

    Regularized kernel for 1 < alpha < 2 (the gradient term cancels in the
    symmetrized form):
        c_{1,alpha} int_0^inf (2f(x) - f(x+h) - f(x-h)) / h^(1+alpha) dh.
    Cross-validation path only; adaptive quadrature with an analytic far tail.
    """
    from scipy.integrate import quad  # cross-validation only: SciPy stays off the import path

    if not 1.0 < alpha < 2.0:
        raise InvalidInput("singular-integral form implemented for 1 < alpha < 2")
    c = c_d_alpha(alpha)
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
    require_times([rho.t, until])
    return _apply(rho, np.exp(-_symbol(rho, alpha, kappa, drift) * (until - rho.t)), until)


def gaussian_bump(L: float, width: float, n: int, band: int | None = None) -> MacroState:
    """Periodized Gaussian on the torus, centred at L/2: the law of
    (L/2 + width Z) mod L, normalized to unit mass.  With `band`, instead the
    unit-peak bump with every mode above `band` removed, a test function."""
    x = np.arange(n) * (L / n)
    rho = np.zeros(n)
    for shift in range(-6, 7):
        rho += np.exp(-((x - L / 2 + shift * L) ** 2) / (2.0 * width**2))
    if band is None:
        return MacroState(rho / (np.sum(rho) * (L / n)), L)
    c = np.fft.rfft(rho)
    c[band + 1 :] = 0.0
    return MacroState(np.fft.irfft(c, n=n), L)
