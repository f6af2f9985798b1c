import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from fraclimit import (
    CollisionContext,
    CrossSection,
    ModelParams,
    ParticleEnsemble,
    advance,
    estimate_density,
    eval_M,
    init_ensemble,
    limit_model,
    norm_Z,
    sample_M,
    solve_F,
)
from fraclimit.cli import main
from fraclimit.montecarlo import BLOCK, _CHUNK, _bin_index, _blocks, _clock_pass, _draw_block, _rng_for, block_counts
from fraclimit.params import FieldSpec
from fraclimit.errors import InvalidInput

L = 4 * np.pi


def _params(**kw):
    base = dict(
        alpha=1.5,
        cross_section=CrossSection(1.0),
        field_spec=FieldSpec(0.0),
        domain_length=L,
        final_time=0.5,
        epsilon_schedule=(0.2, 0.1),
        seed=3,
        particles=20_000,
    )
    base.update(kw)
    return ModelParams(**base)


def _M_cdf(v, alpha):
    # M is the Student-t(alpha) density contracted by sqrt(alpha)
    return stats.t.cdf(np.sqrt(alpha) * np.asarray(v), df=alpha)


ALPHAS = (1.0, 1.25, 1.5, 1.75, 1.99)


def test_sample_M_distribution():
    for b, alpha in enumerate(ALPHAS):
        v = sample_M(_rng_for(0, b), alpha, 200_000)
        assert v.shape == (200_000,) and np.all(np.isfinite(v))
        assert stats.kstest(v, lambda q: _M_cdf(q, alpha)).pvalue > 1e-3


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sample_M_tail_frequency(alpha):
    # the |v|^-(1+alpha) tail: counts beyond 50 and 1e3 in 1e6 draws lie
    # within 5 sigma of their binomial means
    n = 1_000_000
    v = np.abs(sample_M(_rng_for(1, 0), alpha, n))
    for a in (50.0, 1e3):
        p = 2.0 * stats.t.sf(np.sqrt(alpha) * a, df=alpha)
        assert abs(np.count_nonzero(v > a) - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p))


def test_sample_M_edge_cases():
    rng = _rng_for(2, 0)
    for alpha in (1.0, 1.5):
        empty = sample_M(rng, alpha, 0)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        one = sample_M(rng, alpha)
        assert np.ndim(one) == 0 and np.isfinite(one)
    with pytest.raises(InvalidInput, match="alpha=0.5 < 1"):
        sample_M(rng, 0.5, 10)


def test_sample_M_same_key_same_draws():
    for alpha in (1.0, 1.5):
        a = sample_M(_rng_for(3, 7), alpha, 50_000)
        b = sample_M(_rng_for(3, 7), alpha, 50_000)
        assert np.array_equal(a, b)


def _sample_M_reference(rng, alpha, n):
    # sample_M's rounds written out plainly: for the m draws still missing,
    # min(ceil(m/p + 3 sqrt(m/p)) + 8, _CHUNK) Cauchy proposals c, accepted iff
    # Exp(1) > t(c) = (alpha-1)/2 log(1+c^2); the first m accepted are kept,
    # with their excesses Exp(1) - t(c).  At alpha = 1: n proposals, n Exp(1).
    if alpha == 1.0:
        return np.tan((rng.random(n) - 0.5) * np.pi), rng.standard_exponential(n)
    p = norm_Z(alpha) / math.pi
    v, excess = [], []
    while len(v) < n:
        m = n - len(v)
        r = min(math.ceil(m / p + 3.0 * math.sqrt(m / p)) + 8, _CHUNK)
        c = np.tan((rng.random(r) - 0.5) * np.pi)
        t = 0.5 * (alpha - 1.0) * np.log1p(c * c)
        e = rng.standard_exponential(r)
        v.extend(c[e > t][:m])
        excess.extend((e - t)[e > t][:m])
    return np.array(v), np.array(excess)


def test_sample_M_chunk_boundary():
    # one past a multiple of the chunk: the last rounds propose fewer than _CHUNK
    n = 2 * _CHUNK + 1
    excess = np.empty(n)
    v = sample_M(_rng_for(4, 0), 1.5, n, excess=excess)
    v_ref, excess_ref = _sample_M_reference(_rng_for(4, 0), 1.5, n)
    assert np.array_equal(v, v_ref) and np.array_equal(excess, excess_ref)
    assert stats.kstest(v, lambda q: _M_cdf(q, 1.5)).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.99])
def test_sample_M_excess_is_exp1_independent_of_v(alpha):
    # memorylessness: E - t(c) given acceptance is Exp(1) whatever c is
    n = 200_000
    excess = np.empty(n)
    v = sample_M(_rng_for(6, 0), alpha, n, excess=excess)
    assert isinstance(v, np.ndarray) and v.shape == (n,)  # the velocities alone
    v_ref, excess_ref = _sample_M_reference(_rng_for(6, 0), alpha, n)
    assert np.array_equal(v, v_ref) and np.array_equal(excess, excess_ref)
    assert stats.kstest(excess, "expon").pvalue > 1e-3
    slow = np.abs(v) < np.median(np.abs(v))
    assert stats.ks_2samp(excess[slow], excess[~slow]).pvalue > 1e-3


class _CountingRng:
    # one standard_exponential call per rejection round
    def __init__(self, rng):
        self.rng, self.rounds = rng, 0

    def __getattr__(self, name):
        self.rounds += name == "standard_exponential"
        return getattr(self.rng, name)


def test_sample_M_block_takes_few_rounds():
    rng = _CountingRng(_rng_for(7, 0))
    sample_M(rng, 1.5, BLOCK)
    assert 1 <= rng.rounds <= 3


@pytest.mark.parametrize(
    "alpha, size, out, excess",
    [
        (1.5, None, np.full((4, 4), 7.0)[:, :2], None),  # not contiguous: a reshape would copy
        (1.5, None, np.zeros(5, dtype=np.int64), None),  # would truncate the draws
        (1.5, None, np.zeros(5, dtype=np.float32), None),  # would round off the tails
        (1.0, None, np.zeros(10)[::2], None),  # strided
        (1.5, 3, np.zeros(5), None),  # size and out disagree
        (1.5, 5, None, np.zeros(4)),  # excess of another shape
    ],
)
def test_sample_M_refuses_buffers_it_cannot_fill(alpha, size, out, excess):
    with pytest.raises(InvalidInput, match="must be a writeable C-contiguous float64 array"):
        sample_M(_rng_for(8, 0), alpha, size, out=out, excess=excess)


def test_bitwise_reproducibility():
    p = _params()
    runs = []
    for _ in range(2):
        ens = init_ensemble(p)
        ens = advance(ens, 0.1, p, 0.2)
        runs.append((ens.x.copy(), ens.v.copy(), ens.collisions))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_seed_changes_stream():
    a = init_ensemble(_params(particles=1000, seed=1))
    b = init_ensemble(_params(particles=1000, seed=2))
    assert not np.array_equal(a.v, b.v)


def test_ballistic_characteristics_exact():
    # constant field, short advance: a particle without a collision keeps
    # v0 + E T/eps exactly and sits on its quadratic-in-time path
    p = _params(field_spec=FieldSpec(0.5))
    eps, T, n = 0.1, 0.01, 2000
    ens = init_ensemble(replace(p, particles=n))
    x0, v0 = ens.x.copy(), ens.v.copy()
    out = advance(ens, eps, p, T)
    free = out.v == v0 + (0.5 / eps) * T
    q = np.exp(-T / eps**p.alpha)  # P(no collision)
    assert out.collisions > 0 and abs(free.sum() - n * q) <= 5 * np.sqrt(n * q * (1 - q))
    xf = eps ** (1 - p.alpha)
    expect_x = np.mod(x0 + xf * (v0 * T + 0.5 * 0.5 * T**2 / eps), L)
    assert np.max(np.abs(out.x[free] - expect_x[free])) < 1e-10


def _clock_pass_reference(x, v, rng, cs, alpha, rate, tau, E, xfac, eps, L):
    # _clock_pass's draws in the same order, the later flights being the
    # sampler's excesses, each particle's candidates thinned and its flights
    # summed in a plain loop; also returns the size of the summed
    # displacement terms and the accepted count
    n = len(x)
    k = rng.poisson(rate * tau, n)
    e0 = rng.standard_exponential(n)
    w, e = _sample_M_reference(rng, alpha, k.sum())
    u = rng.random(k.sum()) * cs.nu2 if cs.amplitude else np.zeros(k.sum())
    x_out, v_out, size = np.empty(n), np.empty(n), np.empty(n)
    j, accepted = 0, 0
    for i in range(n):
        flights, starts_v = [e0[i], *e[j:j + k[i]]], [v[i], *w[j:j + k[i]]]
        total, dx, mag = sum(flights), 0.0, 0.0
        for c in range(1, k[i] + 1):  # candidate c ends flight c - 1; a rejected one keeps v-
            v_minus = starts_v[c - 1] + E / eps * (tau * flights[c - 1] / total)
            if u[j + c - 1] < cs.sigma(starts_v[c], v_minus):
                accepted += 1
            else:
                starts_v[c] = v_minus
        j += k[i]
        for u0, f in zip(starts_v, flights):
            d = tau * f / total
            term = u0 * d + E / (2.0 * eps) * d * d
            dx, mag = dx + term, mag + abs(term)
        x_out[i] = (x[i] + xfac * dx) % L
        v_out[i] = starts_v[-1] + E / eps * (tau * flights[-1] / total)
        size[i] = xfac * mag
    return x_out, v_out, size, k, accepted


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("E", [0.0, 0.5])
@pytest.mark.parametrize("mean_k", [0.5, 8.0])
def test_clock_pass_matches_reference(scaling, E, mean_k):
    eps, alpha = 0.1, 1.5
    rate = eps**-alpha if scaling == "diffusive" else 1.0 / eps
    xfac = eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0
    tau = mean_k / rate
    ens = init_ensemble(_params(alpha=alpha, particles=BLOCK, seed=9))
    args = (alpha, rate, tau, E, xfac, eps, L)
    xr, vr, size, k, _ = _clock_pass_reference(ens.x, ens.v, _rng_for(9, 5), CrossSection(1.0), *args)
    x, v = ens.x.copy(), ens.v.copy()
    assert _clock_pass(x, v, _rng_for(9, 5), CrossSection(1.0), *args) == k.sum()
    if mean_k < 1:  # empty segments at both ends of the block (the sentinel) and inside
        assert k[0] == 0 and np.any(k[1:-1] == 0) and k[-1] == 0
    gap = np.mod(x - xr + L / 2, L) - L / 2
    assert np.all(np.abs(gap) <= 1e-12 * (L + size))
    np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * E * tau / eps)


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("amplitude", [0.5, -0.5])
def test_thinning_matches_reference(scaling, amplitude):
    # perturbed sigma: the rounds' accept tests against a plain loop's, on
    # the same draws; a rejection keeps v- and the flight goes on
    eps, alpha, E = 0.1, 1.5, 0.5
    cs = CrossSection(1.0, amplitude)
    rate = cs.nu2 * (eps**-alpha if scaling == "diffusive" else 1.0 / eps)
    xfac = eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0
    tau = 8.0 / rate
    ens = init_ensemble(_params(alpha=alpha, particles=BLOCK, seed=9))
    args = (cs, alpha, rate, tau, E, xfac, eps, L)
    xr, vr, size, k, accepted = _clock_pass_reference(ens.x, ens.v, _rng_for(9, 6), *args)
    x, v = ens.x.copy(), ens.v.copy()
    assert _clock_pass(x, v, _rng_for(9, 6), *args) == accepted < k.sum()
    gap = np.mod(x - xr + L / 2, L) - L / 2
    assert np.all(np.abs(gap) <= 1e-12 * (L + size))
    np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * E * tau / eps)


def test_collision_count_rate():
    # constant sigma: expected nu0 * T / eps^alpha collisions per particle
    p = _params(particles=20_000)
    eps, T = 0.2, 0.5
    ens = init_ensemble(p)
    out = advance(ens, eps, p, T)
    expect = p.particles * T / eps**p.alpha
    assert out.collisions == pytest.approx(expect, rel=0.02)


def test_high_field_rate():
    p = _params()
    eps, T = 0.2, 0.5
    ens = init_ensemble(p)
    out = advance(ens, eps, p, T, scaling="high_field")
    assert out.collisions == pytest.approx(p.particles * T / eps, rel=0.03)


def test_high_field_mean_velocity_is_limit_drift(grid128):
    # nu0 = 2: the velocities relax in time eps/nu0 to F(., E), whose mean
    # E/nu0 = 0.25 is the high-field drift, not E = 0.5.  v has infinite
    # variance at alpha < 2, so the median of 40 group means is compared, in
    # units of its standard error from their spread: over seeds 0-11 it lies
    # within 2.2 of the drift and 9 or more from E.
    p = _params(cross_section=CrossSection(2.0), field_spec=FieldSpec(0.5), particles=200_000)
    out = advance(init_ensemble(p), 0.05, p, 0.5, scaling="high_field")
    _, drift = limit_model(CollisionContext(grid128, p.cross_section, p.alpha), 0.5, "high_field")
    assert drift == 0.25
    means = out.v.reshape(40, -1).mean(axis=1)
    q1, q3 = np.percentile(means, [25, 75])
    se = 1.253 * (q3 - q1) / 1.349 / np.sqrt(len(means))  # of a median, at normal spread
    median = np.median(means)
    assert abs(median - drift) < 4.0 * se < abs(median - 0.5)


def test_time_monotonicity_guard():
    p = _params()
    ens = init_ensemble(replace(p, particles=100))
    ens = advance(ens, 0.2, p, 0.3)
    with pytest.raises(InvalidInput, match="until=0.1 < current t=0.3"):
        advance(ens, 0.2, p, 0.1)


@pytest.mark.parametrize(
    "eps, until, scaling",
    [
        (0.2, 0.3, "hyperbolic"),
        (0.2, float("inf"), "diffusive"),
        (0.2, float("nan"), "diffusive"),
        (0.0, 0.3, "diffusive"),
        (-0.1, 0.3, "diffusive"),
        (1.5, 0.3, "high_field"),
        (float("nan"), 0.3, "diffusive"),
    ],
)
def test_advance_refusals(eps, until, scaling):
    p = _params()
    ens = init_ensemble(replace(p, particles=100))
    with pytest.raises(InvalidInput, match="need scaling diffusive or high_field, eps in"):
        advance(ens, eps, p, until, scaling=scaling)


def test_estimate_density_mass():
    ens = init_ensemble(_params(particles=5000, seed=0))
    dens = estimate_density(ens, 32)
    assert dens.mass == pytest.approx(1.0, abs=1e-12)
    assert dens.n == 32


@pytest.mark.parametrize("length, bins", [(L, 32), (1.0, 7), (2 * np.pi, 64), (0.3, 1000), (10.0, 3), (L, 1)])
def test_bin_index_matches_np_histogram(length, bins):
    edges = np.linspace(0.0, length, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    near = near[(near >= 0) & (near <= length)]
    for xj, ij in zip(near, _bin_index(near, edges)):  # each edge point alone
        assert ij == np.histogram([xj], bins, range=(0.0, length))[0].argmax()
    x = np.concatenate([np.random.default_rng(bins).random(3 * BLOCK) * length, near])
    counts = np.histogram(x, bins, range=(0.0, length))[0]
    assert np.array_equal(np.bincount(_bin_index(x, edges), minlength=bins), counts)
    ens = ParticleEnsemble(x, x, length, 0.0)  # a partial last block
    assert np.array_equal(estimate_density(ens, bins).rho, counts / (len(x) * (length / bins)))


def test_init_periodized_gaussian():
    # x = (L/2 + w Z) mod L has the CDF sum_s [Phi((x - L/2 + sL)/w) - Phi((-L/2 + sL)/w)]
    w = 1.8
    s = np.arange(-6, 7)[:, None]

    def cdf(x):
        x = np.atleast_1d(x)[None, :]
        return np.sum(stats.norm.cdf((x - L / 2 + s * L) / w) - stats.norm.cdf((-L / 2 + s * L) / w), axis=0)

    ens = init_ensemble(_params(particles=200_000, seed=5), width=w)
    assert np.all((ens.x >= 0.0) & (ens.x <= L))
    assert cdf(L)[0] == pytest.approx(1.0, abs=1e-14)
    assert stats.kstest(ens.x, cdf).pvalue > 1e-3


@pytest.mark.parametrize("amplitude", [0.5, -0.5])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.99])
def test_stationary_collision_rate(alpha, amplitude):
    # at E = 0, M is invariant under Q, so from M the collisions come at the
    # mean rate int nu M / eps^alpha = (nu0 + a i1^2)/eps^alpha, with
    # nu(v) = nu0 + a i1/(1+|v|) and i1 = int M/(1+|v|)
    n, eps, T = 20_000, 0.2, 0.5
    i1, _ = quad(lambda u: eval_M(u, alpha) / (1.0 + abs(u)), -np.inf, np.inf)
    p = _params(alpha=alpha, cross_section=CrossSection(1.0, amplitude), particles=n)
    out = advance(init_ensemble(replace(p, seed=4)), eps, p, T)
    mean = T * (1.0 + amplitude * i1**2) / eps**alpha  # per particle
    # a particle's count is a unit-jump martingale of variance `mean` plus
    # its compensator int nu(v_t) dt / eps^alpha, which ranges over an
    # interval of width T |a| i1 / eps^alpha: sd <= sqrt(mean) + half that
    sd = np.sqrt(n) * (np.sqrt(mean) + T * abs(amplitude) * i1 / (2.0 * eps**alpha))
    assert abs(out.collisions - n * mean) <= 5.0 * sd


def test_perturbed_collisions_relax_to_M():
    # single-stage thinning must keep the velocity marginal at M
    p = _params(cross_section=CrossSection(1.0, 0.5), particles=100_000)
    ens = init_ensemble(p)
    out = advance(ens, 0.2, p, 0.5)
    ks = stats.kstest(out.v, lambda q: _M_cdf(q, p.alpha)).statistic
    assert ks < 0.01


def _event_reference(x, v, rng, cs, alpha, T, E, xfac, eps, L, rate):
    # event by event: one Exp(rate) candidate per live particle and round,
    # the closed-form flight to it (or to T), w ~ M accepted iff
    # U nu2 < sigma(w, v-); returns the accepted count
    t, live, accepted = np.zeros(len(x)), np.arange(len(x)), 0
    while len(live):
        dt = rng.exponential(1.0 / rate, len(live))
        hit = t[live] + dt < T
        dt[~hit] = T - t[live[~hit]]
        x[live] += xfac * (v[live] * dt + E * dt * dt / (2.0 * eps))
        v[live] += E / eps * dt
        t[live] += dt
        live = live[hit]
        w = sample_M(rng, alpha, len(live))
        keep = rng.random(len(live)) * cs.nu2 < cs.sigma(w, v[live])
        v[live[keep]] = w[keep]
        accepted += np.count_nonzero(keep)
    np.mod(x, L, out=x)
    return accepted


@pytest.mark.parametrize("amplitude", [0.0, 0.5])
@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("e0", [0.0, 0.5])
def test_advance_matches_event_reference(amplitude, scaling, e0):
    # the clock pass against a plain event-by-event simulation of the same
    # thinned clock, on independent initial ensembles
    eps, T, n = 0.2, 0.5, 50_000
    cs = CrossSection(1.0, amplitude)
    p = _params(cross_section=cs, field_spec=FieldSpec(e0), particles=n)
    out = advance(init_ensemble(replace(p, seed=1), width=2.0), eps, p, T, scaling=scaling)
    ens = init_ensemble(replace(p, seed=2), width=2.0)
    rate = cs.nu2 / (eps if scaling == "high_field" else eps**p.alpha)
    xfac = 1.0 if scaling == "high_field" else eps ** (1.0 - p.alpha)
    ref = _event_reference(ens.x, ens.v, _rng_for(3, 0), cs, p.alpha, T, e0, xfac, eps, L, rate)
    assert stats.ks_2samp(out.x, ens.x).pvalue > 1e-3
    assert stats.ks_2samp(out.v, ens.v).pvalue > 1e-3
    m = n * T * rate  # the candidates' mean, at least the collisions'
    assert abs(out.collisions - ref) <= 6 * np.sqrt(2 * m)
    if amplitude == 0.0:
        for collisions in (out.collisions, ref):
            assert abs(collisions - m) <= 6 * np.sqrt(m)


def test_consecutive_advances_use_elapsed_time():
    # 0 -> 0.1 -> 0.2 has the law of one advance 0 -> 0.2
    p = _params(field_spec=FieldSpec(0.5), particles=50_000)
    eps = 0.2
    ens = init_ensemble(replace(p, seed=1), width=2.0)
    ens = advance(advance(ens, eps, p, 0.1), eps, p, 0.2)
    once = advance(init_ensemble(replace(p, seed=2), width=2.0), eps, p, 0.2)
    assert ens.t == 0.2
    m = p.particles * 0.2 / eps**p.alpha
    assert abs(ens.collisions - m) <= 6 * np.sqrt(m)
    assert stats.ks_2samp(ens.x, once.x).pvalue > 1e-3
    assert stats.ks_2samp(ens.v, once.v).pvalue > 1e-3


@pytest.mark.parametrize("alpha, amplitude", [(1.5, 0.5), (1.5, -0.5), (1.0, 0.5)])
def test_perturbed_velocity_law_is_solve_F(grid128, F_cdf, alpha, amplitude):
    # two independent routes to the stationary law F(., E): the thinning
    # Monte Carlo and the bordered linear solve.  The high-field scaling
    # reaches F at full E; T = 1 at eps = 0.05 is about 20 collisions each
    cs = CrossSection(1.0, amplitude)
    p = _params(alpha=alpha, cross_section=cs, field_spec=FieldSpec(0.5), final_time=1.0, seed=5,
                particles=200_000)
    v = advance(init_ensemble(p), 0.05, p, p.final_time, scaling="high_field").v
    bound = 1.36 / np.sqrt(p.particles)  # the KS test at level 5%
    F = solve_F(0.5, CollisionContext(grid128, cs, alpha)).profile
    assert stats.kstest(v, F_cdf(F, grid128)).statistic < bound
    # power: the constant-sigma F is rejected on the same sample
    F_constant = solve_F(0.5, CollisionContext(grid128, CrossSection(1.0), alpha)).profile
    assert stats.kstest(v, F_cdf(F_constant, grid128)).statistic > 3 * bound


@pytest.mark.parametrize("cs", [CrossSection(1.0), CrossSection(1.0, 0.5)])
def test_clock_pass_memory_is_per_block(cs):
    p = _params(cross_section=cs, field_spec=FieldSpec(0.5), particles=250_000)
    ens = init_ensemble(p)
    tracemalloc.start()
    try:
        advance(ens, 0.05, p, p.final_time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of flights, proposals and thinning uniforms at a time: 3.4 MB
    # here at constant sigma, 7.2 MB perturbed; the whole ensemble's flights
    # and proposals alone would take ~180 MB
    assert peak < 16e6


@pytest.mark.parametrize("cs", [CrossSection(1.0), CrossSection(1.0, 0.5)])
def test_more_threads_than_cores_same_result(cs):
    # the driver's pool is the only thread site: frequent thread switches
    # would expose any block result lost or summed out of place
    p = _params(cross_section=cs, field_spec=FieldSpec(0.5), particles=30_000, x_bins=16)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 5):
            runs.append(block_counts(p, "diffusive", 2.0, [0.2], [0.1, 0.3], threads))
    finally:
        sys.setswitchinterval(interval)
    (counts, collisions), (counts5, collisions5) = runs
    assert counts.shape == (1, 2, 2, 16) and collisions.shape == (1, 2) and collisions.dtype == np.int64
    assert np.array_equal(counts, counts5) and np.array_equal(collisions, collisions5)
    assert collisions[0, 0] < collisions[0, 1]


@pytest.mark.parametrize("times, plain", [([0.0, 0.3], [0.3]), ([0.1, 0.1, 0.3], [0.1, 0.3])])
def test_zero_length_advance_draws_nothing(times, plain):
    # a snapshot at 0 or a repeated one leaves every later snapshot bit for bit
    p = ModelParams(particles=20_017, seed=7)
    counts, collisions = block_counts(p, "diffusive", 1.8, [0.1], times, 1)
    ref_counts, ref_collisions = block_counts(p, "diffusive", 1.8, [0.1], plain, 1)
    assert np.array_equal(counts[:, -1], ref_counts[:, -1])
    assert np.array_equal(collisions[:, -1], ref_collisions[:, -1])
    ens = init_ensemble(p)
    state = ens.rngs[0].bit_generator.state
    out = advance(ens, 0.1, p, 0.0)
    assert out.rngs[0].bit_generator.state == state and out.collisions == 0 and ens.rngs == ()


def test_advance_refuses_a_spent_handle():
    p = _params(particles=BLOCK + 17)
    eps, alpha, cs = 0.2, p.alpha, p.cross_section
    rate, xfac = cs.nu2 / eps**alpha, eps ** (1.0 - alpha)
    accepted = [0, 0]  # each block's two clock passes replayed on its own stream
    for blk, sl in enumerate(_blocks(p.particles)):
        rng = _rng_for(p.seed, blk)
        x, v = np.empty((2, sl.stop - sl.start))
        _draw_block(rng, x, v, L, alpha, None)
        for j, tau in enumerate((0.1, 0.3 - 0.1)):
            accepted[j] += _clock_pass(x, v, rng, cs, alpha, rate, tau, 0.0, xfac, eps, L)
    a = init_ensemble(p)
    b = advance(a, eps, p, 0.1)
    c = advance(b, eps, p, 0.3)
    # a spent handle keeps its t and collisions, and hands its streams on
    assert (a.t, a.collisions, b.t, b.collisions, c.t) == (0.0, 0, 0.1, accepted[0], 0.3)
    assert c.collisions - b.collisions == accepted[1]
    assert a.rngs == b.rngs == () and len(c.rngs) == 2
    for spent in (a, b):
        with pytest.raises(InvalidInput, match="earlier advance consumed it; advance the ensemble that call returned"):
            advance(spent, eps, p, 0.5)


def _cli_outputs(tmp_path, threads, cfg, argv):
    out = tmp_path / f"threads{threads}"
    assert main(["--config", str(cfg), "--out", str(out), "--threads", str(threads), *argv]) in (0, 1)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    if "kinetic_manifest.json" in files:
        manifest = json.loads(files.pop("kinetic_manifest.json"))
        assert manifest.pop("threads") == threads
        files["manifest"] = manifest
    return files


@pytest.mark.parametrize("case", ["kinetic-constant", "kinetic-perturbed", "converge"])
def test_cli_outputs_do_not_depend_on_threads(tmp_path, case):
    cfg = {
        "alpha": 1.5, "domain_length": L, "final_time": 0.2, "epsilon_schedule": [0.2, 0.1],
        "seed": 5, "particles": 20_000, "x_bins": 16,
        "field": {"kind": "constant", "e0": 0.5},
    }
    argv = ["kinetic-run", "--snapshot", "0.1", "--snapshot", "0.2"]
    if case == "kinetic-perturbed":  # thinning rounds in the clock pass
        cfg["cross_section"] = {"kind": "PerturbedConstant", "nu0": 1.0, "amplitude": 0.5}
    elif case == "converge":
        argv = ["converge"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    one, two = (_cli_outputs(tmp_path, t, path, argv) for t in (1, 2))
    assert one == two
