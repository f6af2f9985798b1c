import numpy as np
import pytest

from fraclimit import (
    L_eps,
    TestFunction,
    chi_decay_check,
    chi_eps,
    limit_operator,
    limit_coefficients,
)
from fraclimit.params import FieldSpec

L = 2 * np.pi


def test_test_function_single_mode():
    phi = TestFunction.single_mode(L, m=2, n=64)
    x = np.linspace(0, L, 13)
    assert phi(x) == pytest.approx(np.cos(2 * x), abs=1e-12)
    assert phi.deriv_values() == pytest.approx(-2 * np.sin(2 * phi.x), abs=1e-12)


def test_gaussian_bump_band_limited():
    phi = TestFunction.gaussian_bump(L, width=0.5, bandwidth=8, n=64)
    assert np.all(np.abs(phi.coeffs[9:]) == 0.0)
    assert phi(L / 2) == pytest.approx(np.max(phi.values), rel=1e-6)


def test_chi_eps_matches_mode_closed_form(ctx15):
    phi = TestFunction.single_mode(L, m=1, n=64)
    eps, x, v = 0.1, 1.3, 5.0
    nu = float(ctx15.nu.values[0])
    k = 2 * np.pi / L
    expect = np.real(0.5 * np.exp(1j * k * x) / (1 - 1j * k * eps * v / nu)) * 2.0
    assert chi_eps(phi, eps, x, v, ctx15) == pytest.approx(expect, abs=1e-8)


def test_chi_eps_constant_phi(ctx15):
    phi = TestFunction(L, np.array([1.0] + [0.0] * 32, dtype=complex), 64)
    assert chi_eps(phi, 0.2, 0.7, 3.0, ctx15) == pytest.approx(1.0, abs=1e-12)


def test_chi_decay_rate(ctx15):
    phi = TestFunction.gaussian_bump(L, width=0.8, bandwidth=4, n=64)
    rep = chi_decay_check(phi, [0.05, 0.025, 0.0125], ctx15)
    assert rep["slope"] >= 1.5 - 0.2
    assert all(b < a for a, b in zip(rep["errors"], rep["errors"][1:]))


def test_L_eps_constant_phi_is_zero(ctx15):
    phi = TestFunction(L, np.array([1.0] + [0.0] * 32, dtype=complex), 64)
    out = L_eps(phi, 0.1, FieldSpec("zero"), ctx15)
    assert np.max(np.abs(out.rho)) == 0.0


def test_L_eps_converges_to_fractional_diffusion(ctx15):
    phi = TestFunction.gaussian_bump(L, width=0.8, bandwidth=4, n=64)
    co = limit_coefficients(ctx15)
    lim = limit_operator(phi, co.alpha, co.kappa, 0.0)
    errs = []
    for eps in (0.1, 0.05):
        le = L_eps(phi, eps, FieldSpec("zero"), ctx15)
        errs.append(np.max(np.abs(le.rho - lim.rho)))
    assert errs[1] < errs[0]


def test_limit_operator_cos_mode():
    phi = TestFunction.single_mode(L, m=1, n=64)
    out = limit_operator(phi, 1.5, 2.0, 0.5)
    x = phi.x
    expect = -2.0 * np.cos(x) - 0.5 * (-np.sin(x))
    assert np.max(np.abs(out.rho - expect)) < 1e-12
