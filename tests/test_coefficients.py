import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

from fraclimit import (
    CollisionContext,
    CrossSection,
    VelocityGrid,
    c_d_alpha,
    drift_mu,
    gamma_of_M,
    kappa,
    limit_coefficients,
    limit_model,
    matrix_D,
    solve_lambda,
)
from fraclimit.equilibrium import LambdaField, eval_M_deriv
from fraclimit.errors import InvalidInput, TailDivergence
from fraclimit.velocity import VelocityProfile


def test_c_d_alpha_known_value():
    # alpha = d = 1: the kernel constant is 1/pi
    assert c_d_alpha(1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_c_d_alpha_range():
    with pytest.raises(InvalidInput, match=r"alpha=2.0 outside \(0,2\)"):
        c_d_alpha(2.0)
    with pytest.raises(InvalidInput, match=r"alpha=0.0 outside \(0,2\)"):
        c_d_alpha(0.0)


def test_gamma_matches_tail():
    for alpha in (1.0, 1.5):
        g = gamma_of_M(alpha)
        from fraclimit import eval_M

        v = 1e8
        assert v ** (1 + alpha) * eval_M(v, alpha) == pytest.approx(g, rel=1e-6)


def test_kappa_critical_case():
    # alpha=1, nu0=1: gamma = c_{1,1} = 1/pi, so kappa = Gamma(2) = 1
    assert kappa(1.0, 1.0, gamma_of_M(1.0)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.75])
@pytest.mark.parametrize("nu0", [0.5, 1.0, 2.0])
def test_kappa_closed_form_vs_quadrature(alpha, nu0):
    g = gamma_of_M(alpha)
    k = kappa(alpha, nu0, g)  # raises QuadratureMismatch beyond 1e-10 relative
    integral, _ = quad(lambda z: z**alpha * math.exp(-nu0 * z), 0.0, math.inf)
    assert k == pytest.approx(g * nu0**2 / c_d_alpha(alpha) * integral, rel=1e-10)


def test_kappa_rejects_bad_args():
    with pytest.raises(InvalidInput, match="kappa needs positive alpha, nu0, gamma"):
        kappa(1.5, -1.0, 0.4)


def test_matrix_D_identity():
    ctx = CollisionContext(VelocityGrid(160, 1e5), CrossSection(1.0), 1.5)
    D = matrix_D(solve_lambda(ctx), ctx)
    assert D == pytest.approx(1.0, abs=1e-6)


def test_matrix_D_refuses_non_finite_D():
    # a left tail decaying like |v|^-1.5 makes int v lambda dv diverge,
    # which cannot happen for the true lambda at alpha > 1
    g = VelocityGrid(160, 1e6)
    ctx = CollisionContext(g, CrossSection(1.0), 1.25)
    vals = -eval_M_deriv(g.nodes, 1.25)
    vals[:3] = np.sign(vals[:3]) * 1e-3 * np.abs(g.nodes[:3]) ** -1.5
    with pytest.raises(TailDivergence):
        matrix_D(LambdaField(VelocityProfile(g, vals), 0.0), ctx)


def test_matrix_D_refuses_critical_case():
    ctx = CollisionContext(VelocityGrid(128, 200.0), CrossSection(1.0), 1.0)
    with pytest.raises(TailDivergence):
        matrix_D(solve_lambda(ctx), ctx)


def test_limit_coefficients_bundle(ctx15):
    co = limit_coefficients(ctx15)
    d = asdict(co)
    assert list(d) == ["alpha", "nu0", "gamma", "c_d_alpha", "kappa", "D"]
    assert d["alpha"] == 1.5 and d["nu0"] == 1.0
    assert d["D"] == pytest.approx(1.0, abs=1e-3)  # vmax=200 grid: tail-mass limited


def test_limit_coefficients_critical(ctx1):
    co = limit_coefficients(ctx1)
    assert co.D is None
    assert co.kappa == pytest.approx(1.0, rel=1e-12)


def test_limit_model_regimes(grid128, ctx15, ctx1, ctx15p):
    kap15 = kappa(1.5, 1.0, gamma_of_M(1.5))
    assert limit_model(ctx15, 0.0, "diffusive") == (kap15, 0.0)
    assert limit_model(ctx15, 0.5, "high_field") == (0.0, 0.5)
    assert limit_model(ctx15, 0.0, "high_field") == (0.0, 0.0)
    # constant sigma: D E = mu(E) = E/nu0, with no solve
    assert limit_model(ctx15, 0.5, "diffusive") == (kap15, 0.5)
    kap1 = kappa(1.0, 1.0, gamma_of_M(1.0))
    assert limit_model(ctx1, 0.5, "diffusive") == (kap1, 0.5)
    # perturbed sigma: D E for alpha > 1 and mu(E) at alpha = 1, solved on the grid
    D = matrix_D(solve_lambda(ctx15p), ctx15p)
    assert limit_model(ctx15p, 0.5, "diffusive") == (kap15, D * 0.5)
    assert limit_model(ctx15p, 0.0, "diffusive") == (kap15, 0.0)
    ctx1p = CollisionContext(grid128, CrossSection(1.0, 0.5), 1.0)
    assert limit_model(ctx1p, 0.5, "diffusive") == (kap1, drift_mu(0.5, ctx1p))
    with pytest.raises(InvalidInput, match="unknown scaling 'ballistic'"):
        limit_model(ctx15, 0.0, "ballistic")


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_constant_sigma_drift_is_exactly_E_over_nu0(alpha, scaling):
    # lambda = -M'/nu0, so D E = mu(E) = int v F dv = E/nu0; the numeric D E
    # on a grid to |v| = 1000 misses it by up to 3.2e-4 (alpha = 1).  Under
    # high-field scaling at alpha = 1 the limit is not pure transport (the
    # flights' sum of w s is Cauchy(0, T) at every eps): refused
    ctx = CollisionContext(VelocityGrid(128, 1000.0), CrossSection(2.0), alpha)
    for E in (0.5, -0.3, 0.0):
        if alpha == 1.0 and scaling == "high_field":
            with pytest.raises(InvalidInput, match="high-field scaling needs alpha > 1: at alpha = 1"):
                limit_model(ctx, E, scaling)
        else:
            assert limit_model(ctx, E, scaling)[1] == E / 2.0


def test_high_field_drift_is_mean_velocity_of_F(grid128, ctx15p):
    # int v nu F dv = E: the mean velocity is E/nu0 at constant sigma
    ctx = CollisionContext(grid128, CrossSection(2.0), 1.5)
    assert limit_model(ctx, 0.5, "high_field") == (0.0, 0.25)
    assert drift_mu(0.5, ctx) == pytest.approx(0.25, rel=1e-3)
    assert limit_model(ctx15p, 0.5, "high_field") == (0.0, drift_mu(0.5, ctx15p))
