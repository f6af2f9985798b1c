import json
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fraclimit import (
    CrossSection,
    ModelParams,
    advance,
    constant_sigma,
    estimate_density,
    init_ensemble,
    nu_continuum,
    perturbed_sigma,
    sample_M,
)
from fraclimit.cli import main
from fraclimit.montecarlo import BLOCK, _CHUNK, _clock_pass, _rng_for
from fraclimit.params import FieldSpec
from fraclimit.errors import InvalidInput

L = 4 * np.pi


def _params(**kw):
    base = dict(
        alpha=1.5,
        cross_section=constant_sigma(1.0),
        field_spec=FieldSpec("zero"),
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
    # sample_M's rounds written out plainly: at most _CHUNK Cauchy proposals
    # per round, only the shortfall, accepted iff Exp(1) > (alpha-1)/2 log(1+c^2)
    out = []
    while len(out) < n:
        m = min(n - len(out), _CHUNK)
        c = np.tan((rng.random(m) - 0.5) * np.pi)
        keep = rng.standard_exponential(m) > 0.5 * (alpha - 1.0) * np.log1p(c * c)
        out.extend(c[keep])
    return np.array(out)


def test_sample_M_chunk_boundary():
    # one past a multiple of the chunk: the last rounds propose fewer than _CHUNK
    n = 2 * _CHUNK + 1
    v = sample_M(_rng_for(4, 0), 1.5, n)
    assert np.array_equal(v, _sample_M_reference(_rng_for(4, 0), 1.5, n))
    assert stats.kstest(v, lambda q: _M_cdf(q, 1.5)).pvalue > 1e-3


def test_bitwise_reproducibility():
    p = _params()
    runs = []
    for _ in range(2):
        ens = init_ensemble(p.particles, L, p.alpha, p.seed)
        ens = advance(ens, 0.1, p, p.field_spec, 0.2)
        runs.append((ens.x.copy(), ens.v.copy(), ens.collisions))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_seed_changes_stream():
    a = init_ensemble(1000, L, 1.5, 1)
    b = init_ensemble(1000, L, 1.5, 2)
    assert not np.array_equal(a.v, b.v)


def test_ballistic_characteristics_exact():
    # constant field, short advance: a particle without a collision keeps
    # v0 + E T/eps exactly and sits on its quadratic-in-time path
    p = _params(field_spec=FieldSpec("constant", 0.5))
    eps, T, n = 0.1, 0.01, 2000
    ens = init_ensemble(n, L, p.alpha, p.seed)
    x0, v0 = ens.x.copy(), ens.v.copy()
    out = advance(ens, eps, p, p.field_spec, T)
    free = out.v == v0 + (0.5 / eps) * T
    q = np.exp(-T / eps**p.alpha)  # P(no collision)
    assert out.collisions > 0 and abs(free.sum() - n * q) <= 5 * np.sqrt(n * q * (1 - q))
    xf = eps ** (1 - p.alpha)
    expect_x = np.mod(x0 + xf * (v0 * T + 0.5 * 0.5 * T**2 / eps), L)
    assert np.max(np.abs(out.x[free] - expect_x[free])) < 1e-10


def _clock_pass_reference(x, v, rng, alpha, rate, tau, E, xfac, eps, L):
    # _clock_pass's draws in the same order, each particle's flights summed
    # in a plain loop; also returns the size of the summed displacement terms
    n = len(x)
    k = rng.poisson(rate * tau, n)
    e0 = rng.standard_exponential(n)
    e = rng.standard_exponential(k.sum())
    w = sample_M(rng, alpha, k.sum())
    x_out, v_out, size = np.empty(n), np.empty(n), np.empty(n)
    j = 0
    for i in range(n):
        flights, starts_v = [e0[i], *e[j:j + k[i]]], [v[i], *w[j:j + k[i]]]
        j += k[i]
        total, dx, mag = sum(flights), 0.0, 0.0
        for u, f in zip(starts_v, flights):
            d = tau * f / total
            term = u * d + E / (2.0 * eps) * d * d
            dx, mag = dx + term, mag + abs(term)
        x_out[i] = (x[i] + xfac * dx) % L
        v_out[i] = starts_v[-1] + E / eps * (tau * flights[-1] / total)
        size[i] = xfac * mag
    return x_out, v_out, size, k


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("E", [0.0, 0.5])
@pytest.mark.parametrize("mean_k", [0.5, 8.0])
def test_clock_pass_matches_reference(scaling, E, mean_k):
    eps, alpha = 0.1, 1.5
    rate = eps**-alpha if scaling == "diffusive" else 1.0 / eps
    xfac = eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0
    tau = mean_k / rate
    ens = init_ensemble(BLOCK, L, alpha, 9)
    args = (alpha, rate, tau, E, xfac, eps, L)
    xr, vr, size, k = _clock_pass_reference(ens.x, ens.v, _rng_for(9, 5), *args)
    x, v = ens.x.copy(), ens.v.copy()
    assert _clock_pass(x, v, _rng_for(9, 5), *args) == k.sum()
    if mean_k < 1:  # empty segments at both ends of the block (the sentinel) and inside
        assert k[0] == 0 and np.any(k[1:-1] == 0) and k[-1] == 0
    gap = np.mod(x - xr + L / 2, L) - L / 2
    assert np.all(np.abs(gap) <= 1e-12 * (L + size))
    np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * E * tau / eps)


def test_collision_count_rate():
    # constant sigma: expected nu0 * T / eps^alpha collisions per particle
    p = _params(particles=20_000)
    eps, T = 0.2, 0.5
    ens = init_ensemble(p.particles, L, p.alpha, p.seed)
    out = advance(ens, eps, p, p.field_spec, T)
    expect = p.particles * T / eps**p.alpha
    assert out.collisions == pytest.approx(expect, rel=0.02)


def test_high_field_rate():
    p = _params()
    eps, T = 0.2, 0.5
    ens = init_ensemble(p.particles, L, p.alpha, p.seed)
    out = advance(ens, eps, p, p.field_spec, T, scaling="high_field")
    assert out.collisions == pytest.approx(p.particles * T / eps, rel=0.03)


def test_time_monotonicity_guard():
    p = _params()
    ens = init_ensemble(100, L, p.alpha, p.seed)
    ens = advance(ens, 0.2, p, p.field_spec, 0.3)
    with pytest.raises(InvalidInput, match="until=0.1 < current t=0.3"):
        advance(ens, 0.2, p, p.field_spec, 0.1)


def test_estimate_density_mass():
    ens = init_ensemble(5000, L, 1.5, 0)
    dens = estimate_density(ens, 32)
    assert dens.mass == pytest.approx(1.0, abs=1e-12)
    assert dens.n == 32


def test_init_from_density():
    rho = lambda x: (1.0 + np.cos(2 * np.pi * x / L)) / L
    ens = init_ensemble(200_000, L, 1.5, 5, rho_init=rho)
    dens = estimate_density(ens, 16)
    centers = dens.x + dens.dx / 2
    assert np.max(np.abs(dens.rho - rho(centers))) < 0.01


def test_nu_continuum_bounds():
    cs = perturbed_sigma(1.0, 0.5)
    nu = nu_continuum(cs, 1.5)
    v = np.linspace(-100, 100, 401)
    vals = nu(v)
    assert np.all(vals > cs.nu1) and np.all(vals < cs.nu2)
    assert nu(0.0) > nu(50.0)  # perturbation decays in |v|
    flat = nu_continuum(constant_sigma(2.0), 1.5)
    assert np.all(flat(v) == 2.0)


def test_perturbed_collisions_relax_to_M():
    # thinning + kernel rejection must still equilibrate the velocity marginal
    p = _params(cross_section=perturbed_sigma(1.0, 0.5), particles=100_000)
    ens = init_ensemble(p.particles, L, p.alpha, p.seed)
    out = advance(ens, 0.2, p, p.field_spec, 0.5)
    ks = stats.kstest(out.v, lambda q: _M_cdf(q, p.alpha)).statistic
    assert ks < 0.01


def _bump(x):
    return (1.0 + np.cos(2 * np.pi * x / L)) / L


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("e0", [0.0, 0.5])
def test_clock_pass_matches_candidate_loop(scaling, e0):
    # constant sigma takes the flat clock pass; a perturbed sigma of zero
    # amplitude has the same law but takes the candidate loop
    field = FieldSpec("constant", e0) if e0 else FieldSpec("zero")
    eps, T, n = 0.2, 0.5, 50_000
    out = []
    for seed, cs in ((1, constant_sigma(1.0)), (2, CrossSection("perturbed", 1.0, 0.0))):
        p = _params(cross_section=cs, field_spec=field, particles=n)
        ens = init_ensemble(n, L, p.alpha, seed, rho_init=_bump)
        out.append(advance(ens, eps, p, field, T, scaling=scaling))
    assert stats.ks_2samp(out[0].x, out[1].x).pvalue > 1e-3
    assert stats.ks_2samp(out[0].v, out[1].v).pvalue > 1e-3
    m = n * T / (eps if scaling == "high_field" else eps**1.5)
    for o in out:
        assert abs(o.collisions - m) <= 6 * np.sqrt(m)


def test_consecutive_advances_use_elapsed_time():
    # 0 -> 0.1 -> 0.2 has the law of one advance 0 -> 0.2
    field = FieldSpec("constant", 0.5)
    p = _params(field_spec=field, particles=50_000)
    eps = 0.2
    ens = init_ensemble(p.particles, L, p.alpha, 1, rho_init=_bump)
    ens = advance(advance(ens, eps, p, field, 0.1), eps, p, field, 0.2)
    once = advance(init_ensemble(p.particles, L, p.alpha, 2, rho_init=_bump), eps, p, field, 0.2)
    assert ens.t == 0.2
    m = p.particles * 0.2 / eps**p.alpha
    assert abs(ens.collisions - m) <= 6 * np.sqrt(m)
    assert stats.ks_2samp(ens.x, once.x).pvalue > 1e-3
    assert stats.ks_2samp(ens.v, once.v).pvalue > 1e-3


def test_clock_pass_memory_is_per_block():
    p = _params(field_spec=FieldSpec("constant", 0.5), particles=250_000)
    ens = init_ensemble(p.particles, L, p.alpha, p.seed)
    tracemalloc.start()
    try:
        advance(ens, 0.05, p, p.field_spec, p.final_time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of flights at a time: ~5 MB here; the per-round candidate
    # loop over the whole ensemble peaked at 31 MB
    assert peak < 16e6


@pytest.mark.parametrize("cs", [constant_sigma(1.0), perturbed_sigma(1.0, 0.5)])
def test_more_threads_than_cores_same_result(cs):
    # blocks write disjoint slices of the shared arrays; frequent thread
    # switches would expose any lost update
    p = _params(cross_section=cs, field_spec=FieldSpec("constant", 0.5), particles=30_000)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 5):
            ens = init_ensemble(p.particles, L, p.alpha, p.seed)
            ens = advance(ens, 0.2, p, p.field_spec, 0.3, threads=threads)
            runs.append((ens.x, ens.v, ens.collisions))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


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
    if case == "kinetic-perturbed":  # the candidate loop
        cfg["cross_section"] = {"kind": "PerturbedConstant", "nu0": 1.0, "amplitude": 0.5}
    elif case == "converge":
        argv = ["converge"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    one, two = (_cli_outputs(tmp_path, t, path, argv) for t in (1, 2))
    assert one == two
