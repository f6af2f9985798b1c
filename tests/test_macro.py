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
    out = advance_macro(s, alpha, kappa, 0.0, T)
    decay = np.exp(-kappa * 3.0**alpha * T)
    expect = 1.0 / (2 * np.pi) + 0.25 * decay * np.cos(3 * x)
    assert np.max(np.abs(out.rho - expect)) < 1e-12
    assert out.mass == pytest.approx(1.0, abs=1e-13)


def test_constant_drift_exact_shift():
    alpha, T = 1.5, 0.5
    s, x = _single_mode(m=1)
    for kappa, b in [(0.0, 0.8), (0.7, 0.8), (0.7, -1.3)]:
        out = advance_macro(s, alpha, kappa, b, T)
        # the mode e^{ikx} is multiplied by exp(-kappa |k|^alpha T - i k b T)
        mode = 0.25 * np.exp(1j * x) * np.exp(-kappa * T - 1j * b * T)
        assert np.max(np.abs(out.rho - (1.0 / (2 * np.pi) + np.real(mode)))) < 1e-12
        assert out.t == T


def test_two_legs_equal_one():
    # the snapshot path of macro-run: T/3, then on to T
    init = gaussian_bump(4 * np.pi, 1.8, 512)
    alpha, kappa, b, T = 1.5, 0.9, 0.6, 0.5
    two = advance_macro(advance_macro(init, alpha, kappa, b, T / 3), alpha, kappa, b, T)
    one = advance_macro(init, alpha, kappa, b, T)
    assert two.t == one.t == T
    assert np.max(np.abs(two.rho - one.rho)) < 1e-13 * np.max(one.rho)


def test_refuses_going_back_in_time():
    s, _ = _single_mode()
    later = advance_macro(s, 1.5, 0.7, 0.0, 0.5)
    with pytest.raises(InvalidInput, match=r"time 0.2 must be finite and non-negative, and not before 0.5"):
        advance_macro(later, 1.5, 0.7, 0.0, 0.2)


@pytest.mark.parametrize("until", [float("inf"), float("nan")])
def test_refuses_non_finite_time(until):
    # exp(-symbol * inf) would give an all-NaN density
    with pytest.raises(InvalidInput, match=f"time {until} must be finite and non-negative"):
        advance_macro(gaussian_bump(2 * np.pi, 1.5, 64), 1.5, 1.0, 0.0, until)


def _midpoint_bin_means(s, bins, m):
    H = s.L / bins
    x = np.arange(bins)[:, None] * H + (np.arange(m) + 0.5) * (H / m)
    return s(x.ravel()).reshape(bins, m).mean(axis=1)


@pytest.mark.parametrize("L, n, bins", [(4 * np.pi, 512, 32), (4 * np.pi, 512, 48), (2 * np.pi, 64, 7)])
def test_bin_means_are_bin_averages(L, n, bins):
    # against the 2000-point midpoint rule of the interpolant on each bin,
    # Richardson-extrapolated with the 1000-point one to O(h^4) (about 1e-18
    # here); a left-aligned mean of the grid values misses by ~1e-3
    s = advance_macro(gaussian_bump(L, 1.8, n), 1.5, 1.0, 0.5, 0.5)
    ref = (4.0 * _midpoint_bin_means(s, bins, 2000) - _midpoint_bin_means(s, bins, 1000)) / 3.0
    assert np.max(np.abs(s.bin_means(bins) - ref)) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 3, 32])
def test_bin_means_single_mode(m):
    # the mean of 1/L + 0.25 cos(m x) over [a, a + H] in closed form; m = 32 is
    # the Nyquist mode of the 64-point grid
    s, _ = _single_mode(m=m)
    bins, H = 10, 2 * np.pi / 10
    a = np.arange(bins) * H
    mean = np.full(bins, 0.25) if m == 0 else 0.25 * (np.sin(m * (a + H)) - np.sin(m * a)) / (m * H)
    assert np.max(np.abs(s.bin_means(bins) - (1.0 / (2 * np.pi) + mean))) < 1e-15


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
