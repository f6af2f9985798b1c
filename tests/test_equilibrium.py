import json

import numpy as np
import pytest

from fraclimit import (
    CollisionContext,
    CrossSection,
    VelocityGrid,
    VelocityProfile,
    apply_Q,
    deviation_R,
    drift_mu,
    eval_M,
    moment,
    remainder_G,
    solve_F,
    solve_lambda,
)
from fraclimit.equilibrium import _laguerre128, eval_M_deriv
from fraclimit.errors import InvalidInput, SolverFailure


@pytest.fixture(scope="module")
def big_ctx1():
    # drift identities are tail-mass limited; push vmax out
    return CollisionContext(VelocityGrid(160, 1e5), CrossSection(1.0), 1.0)


def test_field_free_is_M(ctx15):
    F = solve_F(0.0, ctx15)
    assert F.method == "explicit"
    assert np.array_equal(F.profile.values, ctx15.M.values)


def test_explicit_matches_power_iteration(ctx15):
    E = 0.25
    Fe = solve_F(E, ctx15, method="explicit")
    Fp = solve_F(E, ctx15, method="power_iteration")
    l1 = float(np.sum(ctx15.grid.weights * np.abs(Fe.profile.values - Fp.profile.values)))
    assert l1 < 1e-6
    assert Fp.eigenvalue == pytest.approx(1.0, abs=1e-6)


def test_F_normalized_and_bounded(ctx15):
    F = solve_F(0.5, ctx15).profile
    assert moment(F, 0) == pytest.approx(1.0, abs=1e-10)
    ratio = F.values / ctx15.M.values
    c, C = ratio.min(), ratio.max()
    assert 0.0 < c <= 1.0 <= C < 10.0


def test_laguerre128_is_laggauss_read_only():
    z, w = _laguerre128()
    z0, w0 = np.polynomial.laguerre.laggauss(128)
    assert np.array_equal(z, z0) and np.array_equal(w, w0)
    assert not z.flags.writeable and not w.flags.writeable
    assert _laguerre128()[0] is z  # built once


def test_explicit_same_before_and_after_rule_is_built(ctx15):
    E = 0.5
    _laguerre128.cache_clear()
    first = solve_F(E, ctx15).profile.values  # builds the rule
    assert _laguerre128.cache_info().currsize == 1
    assert np.array_equal(solve_F(E, ctx15).profile.values, first)
    # the flight average of M on a rule built here, normalized as solve_F does
    z, w = np.polynomial.laguerre.laggauss(128)
    vals = (w * eval_M(ctx15.grid.nodes[:, None] - E / float(ctx15.nu.values[0]) * z, ctx15.alpha)).sum(axis=1)
    assert np.array_equal(first, vals / moment(VelocityProfile(ctx15.grid, vals), 0))


@pytest.mark.parametrize("E", [0.1, 0.5])
def test_int_v_nu_F_is_E(ctx15p, E):
    # v times E dF/dv = Q(F), integrated: the gain term is odd in v, so
    # int v nu F dv = E (the high-field drift int v F is E only for nu = 1)
    F = solve_F(E, ctx15p)
    assert F.method == "linear"
    flux = moment(VelocityProfile(ctx15p.grid, ctx15p.nu.values * F.profile.values), 1)
    assert flux == pytest.approx(E, rel=2e-3)


def test_explicit_requires_constant_sigma(ctx15p):
    with pytest.raises(InvalidInput, match="explicit formula requires the constant cross section"):
        solve_F(0.25, ctx15p, method="explicit")


@pytest.mark.parametrize("method", ["Linear", "perron", ""])
def test_solve_F_rejects_unknown_method(ctx15p, method):
    with pytest.raises(InvalidInput, match="unknown method"):
        solve_F(0.25, ctx15p, method=method)


def test_cli_equilibrium_assembles_each_u_once(tmp_path, monkeypatch):
    # perturbed sigma at E != 0: one assembly for u(E), shared by F and R,
    # and one for lambda = u(0)
    from fraclimit import equilibrium
    from fraclimit.cli import main

    calls = []
    assemble = equilibrium._assemble_u

    def counting(E, ctx):
        calls.append(E)
        return assemble(E, ctx)

    monkeypatch.setattr(equilibrium, "_assemble_u", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.5, "cross_section": {"kind": "PerturbedConstant",
                                                               "nu0": 1.0, "amplitude": 0.5},
                               "velocity_grid": {"nodes": 128, "vmax_over_inv_eps": 10.0}}),
                   encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "equilibrium", "--field", "0.5",
                 "--raw-field"]) == 0
    assert sorted(calls) == [0.0, 0.5]


def test_perturbed_sigma_uses_linear_solve(ctx15p):
    F = solve_F(0.25, ctx15p)
    assert F.method == "linear"
    assert np.all(F.profile.values > 0)
    assert solve_F(0.25, ctx15p, method="power_iteration").eigenvalue == pytest.approx(1.0, abs=1e-6)
    # a field of the opposite sign mirrors F
    Fm = solve_F(-0.25, ctx15p).profile.values
    assert np.max(np.abs(Fm - F.profile.values[::-1])) < 1e-12 * np.max(F.profile.values)
    # both routes refuse the same unresolved grid (Perron eigenvalue 0.9999988)
    ctx = CollisionContext(VelocityGrid(128, 40), CrossSection(1.0, 0.5), 1.5)
    with pytest.raises(SolverFailure, match="border multiplier"):
        solve_F(0.5, ctx)
    with pytest.raises(SolverFailure, match="dominant eigenvalue"):
        solve_F(0.5, ctx, method="power_iteration")


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_linear_matches_power_iteration(alpha):
    ctx = CollisionContext(VelocityGrid(128, 400), CrossSection(1.0, 0.5), alpha)
    for E in (0.5, 0.05, 1e-4):
        Fl = solve_F(E, ctx).profile.values
        Fp = solve_F(E, ctx, method="power_iteration").profile.values
        assert np.sum(ctx.grid.weights * np.abs(Fl - Fp)) <= 1e-8


@pytest.mark.parametrize("E", [1e-12, 1e-16])
def test_tiny_field_is_first_order(ctx15p, E):
    # u - lambda = O(E), so F = M + E u is M + E lambda down to roundoff
    F = solve_F(E, ctx15p)
    assert F.method == "linear"
    assert np.all(F.profile.values > 0)
    lam = solve_lambda(ctx15p).profile.values
    expected = ctx15p.M.values + E * lam
    expected /= moment(VelocityProfile(ctx15p.grid, expected), 0)
    assert np.max(np.abs(F.profile.values - expected)) <= 1e-15 * np.max(expected)


@pytest.mark.parametrize(
    "nodes, vmax, cross_section, alpha",
    [(128, 1000.0, CrossSection(1.0, 0.5), 1.5), (160, 1e5, CrossSection(1.0), 1.0)],
)
def test_drift_mu_over_E_tends_to_int_v_lambda(nodes, vmax, cross_section, alpha):
    ctx = CollisionContext(VelocityGrid(nodes, vmax), cross_section, alpha)
    D = moment(solve_lambda(ctx).profile, 1)

    def gap(E):
        return abs(drift_mu(E, ctx) / E / D - 1.0)

    assert gap(1e-4) <= gap(1e-2) / 10
    for E in (1e-6, 1e-8, 1e-12, 1e-16):
        assert gap(E) <= 1e-6


def test_drift_mu_over_E_gap_is_second_order():
    # mu(E)/E - D = int v (u - lambda) with u = lambda + E w + O(E^2), where w
    # is even as F(v, -E) = F(-v, E): the gap is O(E^2), each factor 10 in E
    # cuts it 100-fold, and at E = 1e-6 only a damping free of cancellation
    # resolves it
    ctx = CollisionContext(VelocityGrid(128, 200.0), CrossSection(1.0, 0.5), 1.5)
    D = moment(solve_lambda(ctx).profile, 1)
    scaled = [(drift_mu(E, ctx) / E - D) / E**2 for E in (1e-4, 1e-5, 1e-6)]
    assert scaled[0] > 0
    for c in scaled[1:]:
        assert abs(c / scaled[0] - 1.0) <= 0.1


def test_lambda_constant_sigma_is_minus_M_prime():
    ctx = CollisionContext(VelocityGrid(160, 1e5), CrossSection(1.0), 1.5)
    lam = solve_lambda(ctx)
    assert np.max(np.abs(lam.profile.values + eval_M_deriv(ctx.grid.nodes, 1.5))) < 1e-8
    # zero-mean constraint is enforced exactly
    assert abs(np.sum(ctx.grid.weights * lam.profile.values)) < 1e-14


@pytest.mark.parametrize("alpha", [1.25, 1.75])
def test_lambda_residual_is_M_weighted(alpha):
    # the reported residual is max |Q(lambda) - M'| / M, which resolves the
    # far tail where M ~ 1e-15 and lambda ~ 1e-21
    ctx = CollisionContext(VelocityGrid(160, 1e6), CrossSection(1.0, 0.5), alpha)
    lam = solve_lambda(ctx)
    rho = np.max(
        np.abs(apply_Q(lam.profile, ctx).values - eval_M_deriv(ctx.grid.nodes, alpha))
        / ctx.M.values
    )
    assert lam.residual == rho
    assert rho < 1e-10


def test_remainder_G_second_order(ctx15):
    norms = []
    fields = [0.2, 0.1, 0.05]
    for E in fields:
        _, l2 = remainder_G(E, ctx15)
        norms.append(l2)
    slope = np.polyfit(np.log(fields), np.log(norms), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.25)


def test_deviation_R_signs(ctx15):
    # a rightward field shifts mass to positive velocities
    R = deviation_R(0.5, ctx15)
    assert moment(R, 1) > 0
    assert abs(moment(R, 0)) < 1e-9


def test_drift_mu_identity(big_ctx1):
    assert drift_mu(0.5, big_ctx1) == pytest.approx(0.5, abs=1e-4)
    assert drift_mu(0.0, big_ctx1) == 0.0
