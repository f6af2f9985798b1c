import numpy as np
import pytest

from fraclimit import (
    MacroState,
    advance_macro,
    frac_laplacian_fourier,
    frac_laplacian_singular,
    gaussian_bump,
)
from fraclimit.errors import InvalidInput


def _single_mode(L=2 * np.pi, n=64, m=1, amp=0.25):
    x = np.arange(n) * (L / n)
    return MacroState(1.0 / L + amp * np.cos(2 * np.pi * m * x / L), L), x


def test_state_properties():
    s, x = _single_mode()
    assert s.n == 64
    assert s.mass == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(s.x, x)


def test_fourier_fractional_laplacian_single_mode():
    alpha, kappa = 1.5, 0.7
    s, x = _single_mode(m=2)
    k = 2.0
    out = frac_laplacian_fourier(s, alpha, kappa)
    expect = kappa * k**alpha * 0.25 * np.cos(2 * x)
    assert np.max(np.abs(out.rho - expect)) < 1e-12


def test_diffusion_semigroup_exact():
    alpha, kappa, T = 1.5, 0.7, 0.3
    s, x = _single_mode(m=3)
    out = advance_macro(s, 1e-2, alpha, kappa, 0.0, T)
    decay = np.exp(-kappa * 3.0**alpha * T)
    expect = 1.0 / (2 * np.pi) + 0.25 * decay * np.cos(3 * x)
    assert np.max(np.abs(out.rho - expect)) < 1e-12
    assert out.mass == pytest.approx(1.0, abs=1e-13)


def test_constant_drift_exact_shift():
    b, T = 0.8, 0.5
    s, x = _single_mode(m=1)
    out = advance_macro(s, 1e-2, 1.5, 0.0, b, T)
    expect = 1.0 / (2 * np.pi) + 0.25 * np.cos(x - b * T)
    assert np.max(np.abs(out.rho - expect)) < 1e-12


def test_variable_drift_conserves_mass():
    L = 2 * np.pi
    init = gaussian_bump(L, 0.6, 128)
    b = 0.3 * np.sin(init.x)
    out = advance_macro(init, 1e-3, 1.5, 0.2, b, 0.2)
    assert out.mass == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.isfinite(out.rho))


def test_cfl_guard():
    L = 2 * np.pi
    init = gaussian_bump(L, 0.6, 64)
    b = np.full(64, 5.0)
    with pytest.raises(InvalidInput, match="exceeds advection bound"):
        advance_macro(init, 0.5, 1.5, 0.0, b, 1.0)


def test_gaussian_bump_normalized():
    for L, w, n in [(2 * np.pi, 0.5, 64), (4 * np.pi, 1.8, 512)]:
        s = gaussian_bump(L, w, n)
        assert s.mass == pytest.approx(1.0, abs=1e-14)
        assert np.argmax(s.rho) == n // 2


def test_singular_integral_alpha_range():
    with pytest.raises(InvalidInput, match="implemented for 1 < alpha < 2"):
        frac_laplacian_singular(lambda x: np.exp(-(x**2)), 1.0, 0.0)


def test_fourier_vs_singular_on_gaussian():
    # cross-validation of the kernel constant c_{1,alpha}; the domain must be
    # large: the periodic operator differs from the real-line one by O(L^-alpha)
    L, n = 200.0, 4096
    xs = np.arange(n) * (L / n)
    f = lambda x: np.exp(-((np.asarray(x) - L / 2) ** 2) / 2.0)
    state = MacroState(f(xs), L)
    alpha = 1.5
    four = frac_laplacian_fourier(state, alpha, 1.0)
    idx = n // 2 + np.array([-64, -16, 0, 32, 80])
    probe = xs[idx]
    sing = frac_laplacian_singular(lambda x: np.exp(-((x - L / 2) ** 2) / 2.0), alpha, probe)
    assert np.max(np.abs(four.rho[idx] - sing)) < 1e-4
