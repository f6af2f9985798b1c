"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criteria 8 and 9 are full Monte Carlo end-to-end runs and dominate the wall
time of the suite (minutes, not seconds).
"""

import os

import numpy as np
from scipy.integrate import quad
from scipy import stats

from fraclimit import (
    CollisionContext,
    CrossSection,
    MacroState,
    ModelParams,
    VelocityGrid,
    advance,
    c_d_alpha,
    chi_decay_check,
    dissipation_Q,
    dissipation_T,
    drift_mu,
    frac_laplacian_fourier,
    frac_laplacian_singular,
    gamma_of_M,
    gaussian_bump,
    init_ensemble,
    kappa,
    matrix_D,
    remainder_G,
    run_convergence,
    run_operator_study,
    solve_F,
    solve_lambda,
)
from fraclimit.equilibrium import eval_M_deriv
from fraclimit.params import FieldSpec
from fraclimit.velocity import VelocityProfile

L = 4 * np.pi
SEED = 11
THREADS = len(os.sched_getaffinity(0))  # scheduling only: results do not depend on it


def _report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _params(**kw):
    base = dict(
        alpha=1.5,
        cross_section=CrossSection(1.0),
        field_spec=FieldSpec(0.0),
        domain_length=L,
        final_time=0.5,
        epsilon_schedule=(0.2, 0.1, 0.05),
        seed=SEED,
        particles=1_000_000,
        velocity_nodes=128,
        vmax_over_inv_eps=10.0,
        x_bins=32,
    )
    base.update(kw)
    return ModelParams(**base)


def test_01_coefficient_exactness():
    worst = 0.0
    for alpha in (1.0, 1.25, 1.5, 1.75):
        g = gamma_of_M(alpha)
        closed = kappa(alpha, 1.0, g)
        integral, _ = quad(lambda z: z**alpha * np.exp(-z), 0.0, np.inf)
        by_quad = g * integral / c_d_alpha(alpha)
        worst = max(worst, abs(by_quad - closed) / closed)
    _report(1, "kappa closed form vs quadrature", worst < 1e-10, f"max rel {worst:.1e}")


def test_02_constant_sigma_identities():
    # tail-mass-limited identities need a far-out grid
    errs = {}
    for alpha in (1.25, 1.5, 1.75):
        # the lambda identity is tail-limited at roughly vmax^-alpha
        ctx = CollisionContext(VelocityGrid(160, 1e6), CrossSection(1.0), alpha)
        lam = solve_lambda(ctx)
        errs[f"lambda(a={alpha})"] = float(
            np.max(np.abs(lam.profile.values + eval_M_deriv(ctx.grid.nodes, alpha)))
        )
        errs[f"D(a={alpha})"] = abs(matrix_D(lam, ctx) - 1.0)
    ctx1 = CollisionContext(VelocityGrid(160, 1e5), CrossSection(1.0), 1.0)
    for E in (0.25, 0.5, 1.0):
        errs[f"mu(E={E})"] = abs(drift_mu(E, ctx1) - E)
    ok = (
        all(v < 1e-8 for k, v in errs.items() if k.startswith("lambda"))
        and all(v < 1e-6 for k, v in errs.items() if k.startswith("D"))
        and all(v < 1e-4 for k, v in errs.items() if k.startswith("mu"))
    )
    _report(2, "lambda = -M', D = 1, mu(E) = E", ok,
            ", ".join(f"{k} {v:.1e}" for k, v in errs.items()))


def test_03_equilibrium_consistency(ctx15):
    details = []
    ok = True
    for E in (0.25, 0.5):
        Fe = solve_F(E, ctx15, method="explicit")
        Fp = solve_F(E, ctx15, method="power_iteration")
        l1 = float(np.sum(ctx15.grid.weights * np.abs(Fe.profile.values - Fp.profile.values)))
        ratio = Fp.profile.values / ctx15.M.values
        c, C = float(ratio.min()), float(ratio.max())
        ok &= l1 < 1e-6 and abs(Fp.eigenvalue - 1.0) < 1e-6 and c > 0 and C > 0
        details.append(f"E={E}: L1 {l1:.1e}, eig-1 {Fp.eigenvalue - 1:.1e}, c={c:.2f}, C={C:.2f}")
    _report(3, "explicit vs power-iteration F", ok, "; ".join(details))


def test_04_expansion_order(grid128):
    fields = [0.2, 0.1, 0.05, 0.025]
    slopes = {}
    for label, cs in (("constant", CrossSection(1.0)), ("perturbed", CrossSection(1.0, 0.5))):
        ctx = CollisionContext(grid128, cs, 1.5)
        norms = [remainder_G(E, ctx)[1] for E in fields]
        slopes[label] = float(np.polyfit(np.log(fields), np.log(norms), 1)[0])
    ok = all(abs(s - 2.0) <= 0.25 for s in slopes.values())
    _report(4, "||G|| ~ E^2", ok, ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items()))


def test_05_coercivity_suite(grid128):
    rng = np.random.default_rng(SEED)
    ok = True
    thetas = []
    for cs in (CrossSection(1.0), CrossSection(1.0, 0.5)):
        ctx = CollisionContext(grid128, cs, 1.5)
        for E in (0.0, 0.5):
            F = solve_F(E, ctx).profile
            for _ in range(100):
                # smooth randomized perturbations of M: T differentiates f, so
                # the profile must be a resolvable function of v
                v = ctx.grid.nodes
                mod = np.ones(ctx.grid.n)
                for _ in range(4):
                    mod += rng.uniform(-0.4, 0.4) * np.exp(
                        -((v - rng.uniform(-5, 5)) ** 2) / (2 * rng.uniform(0.5, 2.0) ** 2)
                    )
                f = VelocityProfile(ctx.grid, ctx.M.values * mod)
                lhs, rhs = dissipation_Q(f, ctx)
                ok &= lhs >= rhs - 1e-10 * max(1.0, abs(lhs))
                tlhs, theta = dissipation_T(f, E, F, ctx)
                ok &= tlhs >= -1e-10
                thetas.append(theta)
    ok &= min(thetas) > 0.0
    _report(5, "Q- and T-dissipation coercive", ok, f"min theta {min(thetas):.3f}")


def test_06_operator_convergence():
    cases = [
        ("a=1.5, E=0", _params(epsilon_schedule=(0.1, 0.05, 0.025))),
        ("a=1.5, E=0.5", _params(epsilon_schedule=(0.1, 0.05, 0.025),
                                 field_spec=FieldSpec(0.5))),
        ("a=1, E=0.5", _params(alpha=1.0, epsilon_schedule=(0.1, 0.05, 0.025),
                               field_spec=FieldSpec(0.5))),
    ]
    ok = True
    details = []
    for label, p in cases:
        rep = run_operator_study(p)
        ok &= rep["monotone"] and rep["fitted_order"] > 0
        details.append(f"{label}: order {rep['fitted_order']:.2f}"
                       f"{'' if rep['monotone'] else ' NOT MONOTONE'}")
    _report(6, "L_eps -> limit operator", ok, "; ".join(details))


def test_07_chi_decay(ctx15, ctx1):
    phi = gaussian_bump(L, 0.8, 64, band=4)
    eps = [0.05, 0.025, 0.0125]
    s1 = chi_decay_check(phi, eps, ctx1)["slope"]
    s15 = chi_decay_check(phi, eps, ctx15)["slope"]
    ok = s1 >= 1.0 - 0.2 and s15 >= 1.5 - 0.2
    _report(7, "chi_eps decay rate", ok, f"alpha=1 slope {s1:.3f}, alpha=1.5 slope {s15:.3f}")


def test_08_end_to_end_limit(F_cdf):
    cases = [
        ("a=1.5, E=0", _params(), "diffusive"),
        ("a=1.5, E=0.5", _params(field_spec=FieldSpec(0.5)), "diffusive"),
        ("a=1, E=0.5", _params(alpha=1.0, field_spec=FieldSpec(0.5)), "diffusive"),
    ]
    ok = True
    details = []
    for label, p, scaling in cases:
        rep = run_convergence(p, scaling=scaling, threads=THREADS)
        rows = rep["rows"]
        errs = [r["l1"] for r in rows]
        monotone = all(b < a for a, b in zip(errs, errs[1:]))
        ok &= monotone and errs[-1] < 0.05
        details.append(f"{label}: L1 {' > '.join(f'{e:.3f}' for e in errs)}")
    # velocity marginal at the finest eps for the critical constant-field case
    p = _params(alpha=1.0, field_spec=FieldSpec(0.5))
    ens = init_ensemble(p)
    ens = advance(ens, 0.05, p, p.final_time)
    ctx = CollisionContext(VelocityGrid(128, 200.0), CrossSection(1.0), 1.0)
    F = solve_F(0.5, ctx)  # alpha=1: effective field is E itself
    ks = stats.kstest(ens.v, F_cdf(F.profile, ctx.grid)).statistic
    ok &= ks < 0.01
    details.append(f"KS(v | F) {ks:.4f}")
    _report(8, "kinetic -> fractional limit", ok, "; ".join(details))


def test_09_high_field_limit():
    p = _params(field_spec=FieldSpec(0.5), final_time=0.3)
    rep = run_convergence(p, scaling="high_field", threads=THREADS)
    errs = [r["l1"] for r in rep["rows"]]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ok = monotone and errs[-1] < 0.05
    _report(9, "high-field pure transport", ok,
            "L1 " + " > ".join(f"{e:.3f}" for e in errs))


def test_10_fractional_laplacian_cross_validation():
    Ld, n = 200.0, 4096  # periodization error of the Fourier route is O(Ld^-alpha)
    xs = np.arange(n) * (Ld / n)
    g = np.exp(-((xs - Ld / 2) ** 2) / 2.0)
    idx = n // 2 + np.array([-80, -24, 0, 16, 48])
    probe = xs[idx]
    worst = 0.0
    for alpha in (1.25, 1.5, 1.75):
        four = frac_laplacian_fourier(MacroState(g, Ld), alpha, 1.0)
        sing = frac_laplacian_singular(
            lambda x: np.exp(-((x - Ld / 2) ** 2) / 2.0), alpha, probe
        )
        worst = max(worst, float(np.max(np.abs(four.rho[idx] - sing))))
    _report(10, "fractional Laplacian Fourier vs singular", worst < 1e-4,
            f"max abs diff {worst:.1e}")
