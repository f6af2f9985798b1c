import numpy as np
import pytest

from fraclimit import (
    CollisionContext,
    VelocityProfile,
    apply_Q,
    build_grid,
    constant_sigma,
    deviation_R,
    drift_mu,
    moment,
    perturbed_sigma,
    remainder_G,
    solve_F,
    solve_lambda,
)
from fraclimit.equilibrium import eval_M_deriv
from fraclimit.errors import InvalidInput, SolverFailure


@pytest.fixture(scope="module")
def big_ctx1():
    # drift identities are tail-mass limited; push vmax out
    return CollisionContext(build_grid(160, 1e5), constant_sigma(1.0), 1.0)


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


def test_explicit_requires_constant_sigma(ctx15p):
    with pytest.raises(InvalidInput, match="explicit formula requires the constant cross section"):
        solve_F(0.25, ctx15p, method="explicit")


def test_perturbed_sigma_uses_linear_solve(ctx15p):
    F = solve_F(0.25, ctx15p)
    assert F.method == "linear"
    assert np.all(F.profile.values > 0)
    assert solve_F(0.25, ctx15p, method="power_iteration").eigenvalue == pytest.approx(1.0, abs=1e-6)
    # a field of the opposite sign mirrors F
    Fm = solve_F(-0.25, ctx15p).profile.values
    assert np.max(np.abs(Fm - F.profile.values[::-1])) < 1e-12 * np.max(F.profile.values)
    # both routes refuse the same unresolved grid (Perron eigenvalue 0.9999988)
    ctx = CollisionContext(build_grid(128, 40), perturbed_sigma(1.0, 0.5), 1.5)
    with pytest.raises(SolverFailure, match="border multiplier"):
        solve_F(0.5, ctx)
    with pytest.raises(SolverFailure, match="dominant eigenvalue"):
        solve_F(0.5, ctx, method="power_iteration")


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_linear_matches_power_iteration(alpha):
    ctx = CollisionContext(build_grid(128, 400), perturbed_sigma(1.0, 0.5), alpha)
    for E in (0.5, 0.05, 1e-4):
        Fl = solve_F(E, ctx).profile.values
        Fp = solve_F(E, ctx, method="power_iteration").profile.values
        assert np.sum(ctx.grid.weights * np.abs(Fl - Fp)) <= 1e-8


@pytest.mark.parametrize("E", [1e-12, 1e-16])
def test_tiny_field_is_first_order(ctx15p, E):
    # below the roundoff of the flight damping, u = lambda: F = M + E lambda
    F = solve_F(E, ctx15p)
    assert F.method == "linear"
    assert np.all(F.profile.values > 0)
    lam = solve_lambda(ctx15p).profile.values
    expected = ctx15p.M.values + E * lam
    expected /= moment(VelocityProfile(ctx15p.grid, expected), 0)
    assert np.max(np.abs(F.profile.values - expected)) <= 1e-15 * np.max(expected)


@pytest.mark.parametrize(
    "nodes, vmax, cross_section, alpha",
    [(128, 1000.0, perturbed_sigma(1.0, 0.5), 1.5), (160, 1e5, constant_sigma(1.0), 1.0)],
)
def test_drift_mu_over_E_tends_to_int_v_lambda(nodes, vmax, cross_section, alpha):
    ctx = CollisionContext(build_grid(nodes, vmax), cross_section, alpha)
    D = moment(solve_lambda(ctx).profile, 1)

    def gap(E):
        return abs(drift_mu(E, ctx) / E / D - 1.0)

    assert gap(1e-4) <= gap(1e-2) / 10
    for E in (1e-6, 1e-8, 1e-12, 1e-16):
        assert gap(E) <= 1e-6


def test_lambda_constant_sigma_is_minus_M_prime():
    ctx = CollisionContext(build_grid(160, 1e5), constant_sigma(1.0), 1.5)
    lam = solve_lambda(ctx)
    assert np.max(np.abs(lam.profile.values + eval_M_deriv(ctx.grid.nodes, 1.5))) < 1e-8
    # zero-mean constraint is enforced exactly
    assert abs(np.sum(ctx.grid.weights * lam.profile.values)) < 1e-14


@pytest.mark.parametrize("alpha", [1.25, 1.75])
def test_lambda_residual_is_M_weighted(alpha):
    # the reported residual is max |Q(lambda) - M'| / M, which resolves the
    # far tail where M ~ 1e-15 and lambda ~ 1e-21
    ctx = CollisionContext(build_grid(160, 1e6), perturbed_sigma(1.0, 0.5), alpha)
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
