import numpy as np
import pytest

from fraclimit import (
    CollisionContext,
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
from fraclimit.equilibrium import check_dE_F, eval_M_deriv
from fraclimit.errors import InvalidInput


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


def test_perturbed_sigma_uses_power_iteration(ctx15p):
    F = solve_F(0.25, ctx15p)
    assert F.method == "power_iteration"
    assert F.eigenvalue == pytest.approx(1.0, abs=1e-6)
    assert np.all(F.profile.values > 0)


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


def test_dE_F_bounded(ctx15):
    rep = check_dE_F(0.5, ctx15)
    assert rep["stable"]
    assert rep["ratio"] < 50.0
