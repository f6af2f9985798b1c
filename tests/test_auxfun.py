import numpy as np
import pytest

from fraclimit import (
    CollisionContext,
    CrossSection,
    L_eps,
    MacroState,
    VelocityGrid,
    chi_decay_check,
    chi_eps,
    gaussian_bump,
    limit_operator,
    limit_coefficients,
)

L = 2 * np.pi


def _cos_mode(m: int, n: int = 64) -> MacroState:
    """cos(2 pi m x / L) on n grid points."""
    return MacroState(np.cos(2 * np.pi * m * np.arange(n) / n), L)


def _const(n: int = 64) -> MacroState:
    return MacroState(np.ones(n), L)


def test_test_function_single_mode():
    phi = _cos_mode(2)
    x = np.linspace(0, L, 13) + 0.037  # off the grid
    assert phi(x) == pytest.approx(np.cos(2 * x), abs=1e-12)
    assert np.ndim(phi(0.3)) == 0 and phi(0.3) == pytest.approx(np.cos(0.6), abs=1e-12)
    assert np.array_equal(phi.band(), [2])
    # the Nyquist mode stands for itself, not for a pair
    nyq = MacroState(np.cos(np.pi * np.arange(64)), L)
    assert nyq(nyq.x) == pytest.approx(nyq.rho, abs=1e-12)


def test_gaussian_bump_band_limited():
    phi = gaussian_bump(L, 0.5, 64, band=8)
    c = np.abs(phi.coeffs())
    assert np.all(c[9:] <= 1e-14 * c.max()) and c[8] > 1e-6 * c.max()
    assert np.array_equal(phi.band(), np.arange(1, 9))
    assert phi(L / 2) == pytest.approx(np.max(phi.rho), rel=1e-6)
    assert phi(L / 2) == pytest.approx(1.0, abs=1e-3)  # unit peak, not unit mass


def test_chi_eps_matches_mode_closed_form(ctx15):
    phi = _cos_mode(1)
    eps, x, v = 0.1, 1.3, 5.0
    nu = float(ctx15.nu.values[0])
    k = 2 * np.pi / L
    expect = np.real(0.5 * np.exp(1j * k * x) / (1 - 1j * k * eps * v / nu)) * 2.0
    assert chi_eps(phi, eps, x, v, ctx15) == pytest.approx(expect, abs=1e-8)


def test_chi_eps_constant_phi(ctx15):
    phi = _const()
    assert chi_eps(phi, 0.2, 0.7, 3.0, ctx15) == pytest.approx(1.0, abs=1e-12)


def test_chi_decay_rate(ctx15):
    phi = gaussian_bump(L, 0.8, 64, band=4)
    rep = chi_decay_check(phi, [0.05, 0.025, 0.0125], ctx15)
    assert rep["slope"] >= 1.5 - 0.2
    assert all(b < a for a, b in zip(rep["errors"], rep["errors"][1:]))


def _chi_errors_per_mode(phi, eps_list, ctx):
    """chi_decay_check as a loop over modes on the (x, v) grid: each mode but
    the Nyquist one stands for a conjugate pair."""
    g = ctx.grid
    x, kphys, c = phi.x, phi.wavenumbers(), phi.coeffs() / phi.n
    errs = []
    for eps in eps_list:
        dev = np.zeros((len(x), g.n))
        for k in phi.band():
            fac = 1.0 / (1.0 - 1j * kphys[k] * eps * g.nodes / ctx.nu.values) - 1.0
            dev += 2.0 * np.real(c[k] * np.exp(1j * kphys[k] * x)[:, None] * fac[None, :])
        inner = np.abs(np.sum(g.weights[None, :] * ctx.M.values[None, :] * dev, axis=1))
        errs.append(float(np.sqrt(np.sum(inner**2) * (phi.L / phi.n))))
    return errs


def test_chi_decay_check_matches_pointwise_chi_eps():
    # e(eps) from int M (chi_eps - phi) dv at the grid points, with the
    # pointwise flight average; phi holds a Nyquist mode, which stands for itself
    ctx = CollisionContext(VelocityGrid(64, 5.0), CrossSection(1.0), 1.5)
    g, eps = ctx.grid, [0.1, 0.05]
    j = np.arange(8)
    phi = MacroState(np.cos(np.pi * j) + np.cos(2 * np.pi * j / 8), L)
    ref = []
    for e in eps:
        inner = [sum(w * m * (chi_eps(phi, e, x, v, ctx) - phi(x)) for v, w, m in zip(g.nodes, g.weights, ctx.M.values))
                 for x in phi.x]
        ref.append(np.sqrt(np.sum(np.square(inner)) * phi.L / phi.n))
    assert chi_decay_check(phi, eps, ctx)["errors"] == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("ctx_name", ["ctx1", "ctx15"])
def test_chi_decay_check_matches_per_mode_loop(request, ctx_name):
    # criterion 7's phi has no Nyquist mode: the multiplier form and the
    # per-mode (x, v) loop sum the same terms
    ctx = request.getfixturevalue(ctx_name)
    phi, eps = gaussian_bump(4 * np.pi, 0.8, 64, band=4), [0.05, 0.025, 0.0125]
    errs = chi_decay_check(phi, eps, ctx)["errors"]
    assert errs == pytest.approx(_chi_errors_per_mode(phi, eps, ctx), rel=1e-12, abs=0)


def test_L_eps_constant_phi_is_zero(ctx15):
    phi = _const()
    out = L_eps(phi, 0.1, 0.0, ctx15)
    assert np.max(np.abs(out.rho)) == 0.0


def test_L_eps_converges_to_fractional_diffusion(ctx15):
    phi = gaussian_bump(L, 0.8, 64, band=4)
    co = limit_coefficients(ctx15)
    lim = limit_operator(phi, co.alpha, co.kappa, 0.0)
    errs = []
    for eps in (0.1, 0.05):
        le = L_eps(phi, eps, 0.0, ctx15)
        errs.append(np.max(np.abs(le.rho - lim.rho)))
    assert errs[1] < errs[0]


def test_L_eps_keeps_a_single_high_mode(ctx15):
    # the roundoff band rule keeps a lone mode k = 20, and one at 1e-6 of a
    # low mode: L_eps is linear in phi
    hi, lo = _cos_mode(20), _cos_mode(1)
    out = L_eps(hi, 0.1, 0.0, ctx15).rho
    c = np.fft.rfft(out)
    assert np.real(c[20]) < 0  # dissipative
    assert np.max(np.abs(np.delete(c, 20))) <= 1e-12 * np.abs(c[20])
    mixed = L_eps(MacroState(lo.rho + 1e-6 * hi.rho, L), 0.1, 0.0, ctx15).rho
    diff = mixed - L_eps(lo, 0.1, 0.0, ctx15).rho
    assert np.max(np.abs(diff - 1e-6 * out)) <= 1e-8 * np.max(np.abs(1e-6 * out))


def test_limit_operator_cos_mode():
    phi = _cos_mode(1)
    out = limit_operator(phi, 1.5, 2.0, 0.5)
    x = phi.x
    expect = -2.0 * np.cos(x) - 0.5 * (-np.sin(x))
    assert np.max(np.abs(out.rho - expect)) < 1e-12
