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
from fraclimit import montecarlo
from fraclimit.cli import main
from fraclimit.montecarlo import (
    BLOCK,
    _CHUNK,
    _GUIDE,
    _Workspace,
    _bin_index,
    _blocks,
    _clock_pass,
    _draw_block,
    _poisson_counts,
    _poisson_pmf,
    _poisson_table,
    _rng_for,
    block_counts,
)
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
    for alpha in (0.5, float("nan"), float("inf")):  # NaN and inf would end in a NaN proposal count
        with pytest.raises(InvalidInput, match=f"alpha={alpha} < 1 or not finite"):
            sample_M(rng, alpha, 10)


def test_sample_M_same_key_same_draws():
    for alpha in (1.0, 1.5):
        a = sample_M(_rng_for(3, 7), alpha, 50_000)
        b = sample_M(_rng_for(3, 7), alpha, 50_000)
        assert np.array_equal(a, b)


def _sample_M_reference(rng, alpha, n):
    # sample_M's rounds written out plainly: for the m draws still missing,
    # r = min(ceil(m/p + 3 sqrt(m/p)) + 8, _CHUNK) proposals from 2r uniforms
    # U: Cauchy c = tan(pi U) from the first r, accepted iff
    # Exp(1) = -log(1 - U) from the last r exceeds t(c) = (alpha-1)/2 log(1+c^2);
    # the first m accepted are kept, with their excesses Exp(1) - t(c).
    # At alpha = 1: n Cauchy draws, then n Exp(1).
    if alpha == 1.0:
        return np.tan(rng.random(n) * np.pi), -np.log(1.0 - rng.random(n))
    p = norm_Z(alpha) / math.pi
    v, excess = [], []
    while len(v) < n:
        m = n - len(v)
        r = min(math.ceil(m / p + 3.0 * math.sqrt(m / p)) + 8, _CHUNK)
        u = rng.random(2 * r)
        c = np.tan(u[:r] * np.pi)
        t = 0.5 * (alpha - 1.0) * np.log1p(c * c)
        e = -np.log(1.0 - u[r:])
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


@pytest.mark.parametrize("lam", [1e-3, 0.5, 5.6, 44.7, 800.0, 1e4])
def test_poisson_table_law(lam):
    # the clock's counts invert one table per mean: its entries are the pmf
    # in log space (at 800, e^-lam alone underflows), it leaves out less than
    # 1e-15 of the mass, draws by inversion pass a chi-square test, and the
    # largest uniform below 1 falls inside it
    lo, pmf = _poisson_pmf(lam)
    k = lo + np.arange(len(pmf))
    ref = np.exp(k * math.log(lam) - lam - np.array([math.lgamma(i + 1) for i in k]))
    big = ref > 1e-300
    assert np.all(np.abs(pmf[big] - ref[big]) <= 1e-12 * ref[big])
    assert stats.poisson.cdf(lo - 1, lam) + stats.poisson.sf(k[-1], lam) < 1e-15
    lo_cdf, cdf, guide = _poisson_table(lam)
    assert lo_cdf == lo and len(cdf) == len(pmf) and np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0
    # the running sum over its own total: the lowest count keeps its mass
    assert abs(cdf[0] - pmf[0] / math.fsum(pmf)) <= 1e-12 * pmf[0] / math.fsum(pmf)
    # built once per mean and read-only, so no caller can spoil another's table
    assert _poisson_table(lam)[1] is cdf and not cdf.flags.writeable
    assert _poisson_table(lam)[2] is guide and not guide.flags.writeable and len(guide) == _GUIDE
    assert cdf.searchsorted(1.0 - 2.0**-53, side="right") < len(cdf)
    n = 200_000
    observed = np.bincount(cdf.searchsorted(_rng_for(10, 0).random(n), side="right"), minlength=len(cdf))
    expected = n * stats.poisson.pmf(k, lam)
    edges, acc = [0], 0.0  # merge neighbouring counts until each bin expects 5 draws
    for i, x in enumerate(expected):
        acc += x
        if acc >= 5.0:
            edges.append(i + 1)
            acc = 0.0
    edges[-1] = len(cdf)  # the last bin takes the rest
    obs, exp = np.add.reduceat(observed, edges[:-1]), np.add.reduceat(expected, edges[:-1])
    assert len(obs) >= 2 and stats.chisquare(obs, exp * (n / exp.sum())).pvalue > 1e-3


@pytest.mark.parametrize("lam", [1e-3, 0.5, 2.5, 5.6, 44.7, 800.0, 1e4])
def test_poisson_guide_table_is_the_search(lam):
    # the guided counts equal the plain inversion lo + F.searchsorted(U,
    # "right") bit for bit: at both ends of [0, 1), at every entry of F and
    # the double below it (where one step over a cell's entry decides), and
    # on random U.  A guide cell holds the count at its start, or -1 where
    # several entries fall inside it
    lo, F, guide = _poisson_table(lam)
    starts = np.arange(_GUIDE) / _GUIDE
    inside = F.searchsorted(starts + 1.0 / _GUIDE, side="left") - F.searchsorted(starts, side="right")
    assert np.array_equal(guide, np.where(inside > 1, -1, F.searchsorted(starts, side="right")))
    assert np.any(guide == -1) and np.any(guide >= 0)
    on_grid = np.concatenate([F, np.nextafter(F, 0.0)])
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], on_grid[on_grid < 1.0], _rng_for(11, 0).random(1_000_000)])
    assert np.array_equal(_poisson_counts(u, lam), lo + F.searchsorted(u, side="right"))


class _CountingRng:
    # one call for the uniforms of each rejection round
    def __init__(self, rng):
        self.rng, self.rounds = rng, 0

    def __getattr__(self, name):
        self.rounds += name == "random"
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


def _poisson_by_inversion(u, lam):
    # k = min{k : u < F(k)} for SciPy's Poisson CDF F, not the pass's table:
    # the two agree to ~1e-14, so a uniform falls between them with
    # negligible probability
    return np.searchsorted(stats.poisson.cdf(np.arange(int(lam + 40 * math.sqrt(lam)) + 40), lam), u, side="right")


def _clock_pass_reference(x, v, rng, cs, alpha, rates, tau, E, xfacs, eps_list):
    # _clock_pass's draws in the same order: each row's new candidates per
    # particle (coarsest eps first) by inversion of one uniform each, the
    # first flights -log(1 - U), then the proposals with their flights (the
    # sampler's excesses) laid out row by row, and within a row round by
    # round: round c holds candidate c of each particle with more than c,
    # particles by falling count, then by index.  Each row takes each
    # particle's candidates of the rows up to its own, thinned and summed in
    # a plain loop; returns x unwrapped, and also the size of the summed
    # displacement terms, the counts k_j and the accepted counts.  x and v
    # have one row per rate
    m, n = x.shape
    new = [_poisson_by_inversion(rng.random(n), (r - r0) * tau) for r0, r in zip((0.0, *rates), rates)]
    e0 = -np.log(1.0 - rng.random(n))
    K = int(np.sum(new))
    w, e = _sample_M_reference(rng, alpha, K)
    u = rng.random(K) * cs.nu2 if cs.amplitude else np.zeros(K)
    slots, j = [[] for _ in range(n)], 0  # each particle's candidate indices, in order
    for counts in new:
        order = sorted(range(n), key=lambda i: -counts[i])  # a stable sort
        for i in range(n):
            slots[i].append([])
        for c in range(max(counts, default=0)):
            for i in order[:np.count_nonzero(counts > c)]:
                slots[i][-1].append(j)
                j += 1
    x_out, v_out, size = np.empty((3, m, n))
    accepted = np.zeros(m, dtype=np.int64)
    for row, (xfac, eps) in enumerate(zip(xfacs, eps_list)):
        for i in range(n):
            idx = [c for piece in slots[i][:row + 1] for c in piece]
            flights, starts_v = [e0[i], *e[idx]], [v[row, i], *w[idx]]
            total, dx, mag = sum(flights), 0.0, 0.0
            for c in range(1, len(idx) + 1):  # candidate c ends flight c - 1; a rejected one keeps v-
                v_minus = starts_v[c - 1] + E / eps * (tau * flights[c - 1] / total)
                if u[idx[c - 1]] < cs.sigma(starts_v[c], v_minus):
                    accepted[row] += 1
                else:
                    starts_v[c] = v_minus
            for u0, f in zip(starts_v, flights):
                d = tau * f / total
                term = u0 * d + E / (2.0 * eps) * d * d
                dx, mag = dx + term, mag + abs(term)
            x_out[row, i] = x[row, i] + xfac * dx
            v_out[row, i] = starts_v[-1] + E / eps * (tau * flights[-1] / total)
            size[row, i] = xfac * mag
    return x_out, v_out, size, np.cumsum(new, axis=0), accepted


def _pass_args(scaling, eps_list, nu2=1.0, alpha=1.5):
    # the majorant rates and x factors of the pass, computed as it does
    rates = [nu2 / (eps**alpha if scaling == "diffusive" else eps) for eps in eps_list]
    return rates, [eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0 for eps in eps_list]


def _rows(ens, m):
    return np.tile(ens.x, (m, 1)), np.tile(ens.v, (m, 1))


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("E", [0.0, 0.5])
@pytest.mark.parametrize("mean_k", [0.5, 8.0])
def test_clock_pass_matches_reference(scaling, E, mean_k):
    # one eps, then three: the finest draws mean_k candidates per particle,
    # the coarser rows take prefixes of them
    for eps_list in [(0.1,), (0.4, 0.2, 0.1)]:
        alpha, eps = 1.5, eps_list[-1]
        rates, xfacs = _pass_args(scaling, eps_list)
        tau = mean_k / rates[-1]
        p = _params(alpha=alpha, field_spec=FieldSpec(E), particles=BLOCK, seed=9)
        x, v = _rows(init_ensemble(p), len(eps_list))
        args = (alpha, rates, tau, E, xfacs, eps_list)
        xr, vr, size, k, _ = _clock_pass_reference(x, v, _rng_for(9, 5), CrossSection(1.0), *args)
        assert np.array_equal(_clock_pass(x, v, _rng_for(9, 5), p, scaling, eps_list, tau), k.sum(axis=1))
        if mean_k < 1:  # empty segments at both ends of the block (the sentinel) and inside
            assert k[0, 0] == 0 and np.any(k[-1, 1:-1] == 0) and k[-1, -1] == 0
        gap = np.mod(x - xr + L / 2, L) - L / 2
        assert np.all(np.abs(gap) <= 1e-12 * (L + size))
        assert np.any(xr < 0) and np.any(xr >= L)  # particles left [0, L) on both sides
        assert np.all((x >= 0) & (x <= L))  # and the pass wrapped every one back
        np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * E * tau / eps)


@pytest.mark.parametrize("amplitude", [0.0, 0.5])
@pytest.mark.parametrize("eps_list, mean", [
    ((0.05,), 29.0), ((0.1,), 1.5),  # one dense piece, one sparse one
    ((0.2, 0.1, 0.05), 28.9),  # piece means 5.6, 10.2 and 28.9
    ((0.2, 0.2 * (1.0 - 1e-9), 0.1), 2.7),  # means 1.5, ~1e-8 (every particle empty) and 2.7
])
def test_jagged_sums_match_fsum(monkeypatch, amplitude, eps_list, mean):
    # every per-particle sum of a pass (flights, e^2 at E != 0, and w e at
    # constant sigma; at a nonzero amplitude each row's sweep sums its own
    # thinned w e) against math.fsum over the particle's candidates in the
    # pieces up to each row: round c of a piece holds candidate c of its
    # first nc_c particles in the piece's order, and the rounds tile the
    # summed array
    cs, n = CrossSection(1.0, amplitude), 600
    rates, _ = _pass_args("diffusive", eps_list, cs.nu2)
    p = _params(cross_section=cs, field_spec=FieldSpec(0.5), particles=n)
    calls, jagged_sums = [], montecarlo._jagged_sums

    def spy(a, rows, orders, rounds):
        out = jagged_sums(a, rows, orders, rounds)
        calls.append((a.copy(), rows, orders, rounds, out.copy()))
        return out

    monkeypatch.setattr(montecarlo, "_jagged_sums", spy)
    x, v = _rows(init_ensemble(p), len(eps_list))
    tau = mean / (rates[-1] - (rates[-2] if len(rates) > 1 else 0.0))  # the finest piece's mean
    _clock_pass(x, v, _rng_for(12, 0), p, "diffusive", eps_list, tau)
    assert len(calls) == (3 if amplitude == 0.0 else 2)
    for a, rows, orders, rounds, out in calls:
        slots = [[[] for _ in range(n)] for _ in range(rows)]
        for piece, order, rounds_p in zip(slots, orders, rounds):
            widths = [nc for _, nc in rounds_p]
            assert widths == sorted(widths, reverse=True) and (not widths or widths[0] <= n)
            for s, nc in rounds_p:
                for r in range(nc):
                    piece[order[r]].append(s + r)
        assert sorted(i for piece in slots for own in piece for i in own) == list(range(len(a)))
        for j in range(rows):
            for i in range(n):
                own = a[[c for piece in slots[:j + 1] for c in piece[i]]]
                assert abs(out[j, i] - math.fsum(own)) <= 1e-12 * math.fsum(np.abs(own))
    if len(eps_list) == 3 and mean < 3:
        assert calls[0][3][1] == [] and calls[0][3][0] and calls[0][3][2]  # an all-empty piece between two others
    widest = max(len(rounds_p) for rounds_p in calls[0][3])
    assert widest > 40 if mean > 20 else widest < 15


@pytest.mark.parametrize("scaling", ["diffusive", "high_field"])
@pytest.mark.parametrize("amplitude", [0.5, -0.5])
def test_thinning_matches_reference(scaling, amplitude):
    # perturbed sigma: the rounds' accept tests against a plain loop's, on
    # the same draws; a rejection keeps v- and the flight goes on.  One eps,
    # then three, where each row's sweep sums its own thinned w e, the
    # coarser rows over a prefix of the proposals, which no row rewrites
    for eps_list in [(0.1,), (0.4, 0.2, 0.1)]:
        alpha, E, eps = 1.5, 0.5, eps_list[-1]
        cs = CrossSection(1.0, amplitude)
        rates, xfacs = _pass_args(scaling, eps_list, cs.nu2)
        tau = 8.0 / rates[-1]
        p = _params(alpha=alpha, cross_section=cs, field_spec=FieldSpec(E), particles=BLOCK, seed=9)
        x, v = _rows(init_ensemble(p), len(eps_list))
        args = (cs, alpha, rates, tau, E, xfacs, eps_list)
        xr, vr, size, k, accepted = _clock_pass_reference(x, v, _rng_for(9, 6), *args)
        assert np.array_equal(_clock_pass(x, v, _rng_for(9, 6), p, scaling, eps_list, tau), accepted)
        assert np.all(accepted < k.sum(axis=1))
        gap = np.mod(x - xr + L / 2, L) - L / 2
        assert np.all(np.abs(gap) <= 1e-12 * (L + size))
        assert np.any(xr < 0) and np.any(xr >= L)  # particles left [0, L) on both sides
        assert np.all((x >= 0) & (x <= L))  # and the pass wrapped every one back
        np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * E * tau / eps)


@pytest.mark.parametrize("amplitude", [0.0, 0.5])
@pytest.mark.parametrize("E", [0.0, 0.5])
def test_clock_pass_without_v_moves_x_alike(amplitude, E):
    # a run's last pass skips the velocities nothing reads after it: the
    # same draws, collisions and x bit for bit, and v left as it was
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(E), particles=BLOCK + 17)
    x, v = _rows(init_ensemble(p), 3)
    x2, v2 = x.copy(), v.copy()
    rng, rng2, eps_list = _rng_for(4, 2), _rng_for(4, 2), (0.2, 0.1, 0.05)
    hits = _clock_pass(x, v, rng, p, "diffusive", eps_list, 0.3)
    assert np.array_equal(_clock_pass(x2, v2, rng2, p, "diffusive", eps_list, 0.3, update_v=False), hits)
    assert np.array_equal(x2, x) and rng2.random() == rng.random()
    assert np.array_equal(v2, _rows(init_ensemble(p), 3)[1]) and not np.array_equal(v2, v)


@pytest.mark.parametrize("amplitude", [0.0, 0.5])
def test_shared_clock_rows_have_the_one_eps_law(amplitude):
    # each row of a 3-eps pass against an independent one-eps pass at its eps
    n, T, eps_list = 50_000, 0.3, (0.2, 0.1, 0.05)
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(0.5), particles=n)
    x, v = _rows(init_ensemble(replace(p, seed=1), width=2.0), 3)
    hits = _clock_pass(x, v, _rng_for(1, 100), p, "diffusive", eps_list, T)
    one = init_ensemble(replace(p, seed=2), width=2.0)
    x1, v1 = one.x[None], one.v[None]
    (hits1,) = _clock_pass(x1, v1, _rng_for(2, 100), p, "diffusive", eps_list[:1], T)
    rates, _ = _pass_args("diffusive", eps_list, p.cross_section.nu2)
    for hits_j, rate in zip(hits, rates):
        mean = n * rate * T  # the candidates' mean, at least the collisions'
        assert abs(hits_j - mean) <= 5 * np.sqrt(mean) if amplitude == 0.0 else hits_j < mean
    assert abs(hits[0] - hits1) <= 6 * np.sqrt(2 * n * rates[0] * T)
    assert stats.ks_2samp(x[0], x1[0]).pvalue > 1e-3
    assert stats.ks_2samp(v[0], v1[0]).pvalue > 1e-3


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
    with pytest.raises(InvalidInput, match="time 0.1 must be finite and non-negative, and not before 0.3"):
        advance(ens, 0.2, p, 0.1)


# the messages of params' shared rules: scaling, eps list, report times
_RUN_REFUSALS = (r"unknown scaling 'hyperbolic'|epsilon values must lie in \(0,1\], at least one and strictly "
                 r"decreasing; got|time (inf|nan|-0.1|0.1) must be finite and non-negative, and not before")


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
    with pytest.raises(InvalidInput, match=_RUN_REFUSALS):
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
    # one block's flights, proposals and thinning uniforms, in buffers reused
    # from block to block, and the sampler's scratch: 4.3 MB here at constant
    # sigma, 8.3 MB perturbed; the whole ensemble's flights and proposals
    # alone would take ~180 MB
    assert peak < 16e6


def test_workspace_arrays_stay_at_most_2_mib(monkeypatch):
    # each reused buffer is its own 1-D array of at most 2 MiB on the finest
    # block of the constant-sigma studies (alpha = 1.5, eps = 0.05, tau = 0.5).
    # glibc serves a request above its mmap threshold by a fresh mapping, and
    # freeing such a block raises the threshold to its size for the rest of
    # the process, so a larger buffer would change how fast every later 2 MB
    # temporary of the process is allocated (ROADMAP item 2: the bench's
    # calibration kernel).  At amplitude 0.5 the majorant is 1.5 times larger,
    # and so are the buffers (2.3 MB): there only their names are checked
    p = _params(field_spec=FieldSpec(0.5), particles=BLOCK)
    x, v = _rows(init_ensemble(p), 3)
    work = _Workspace()
    _clock_pass(x, v, _rng_for(3, 0), p, "diffusive", (0.2, 0.1, 0.05), 0.5, work)
    sizes = {name: a.nbytes for name, a in vars(work).items()}
    assert set(sizes) == {"e", "w", "sampler"} and all(a.ndim == 1 for a in vars(work).values())
    assert 2**20 < sizes["e"] and max(sizes.values()) <= 2 * 2**20  # ~183k candidates of 8 bytes, plus 1/16
    # perturbed: each row's sweep thins and sums without a copy of its
    # proposals, and never writes them (read-only once drawn)
    p = replace(p, cross_section=CrossSection(1.0, 0.5))
    x, v = _rows(init_ensemble(p), 3)
    work, sample = _Workspace(), montecarlo.sample_M

    def sample_read_only(*args, out, **kw):
        sample(*args, out=out, **kw)
        out.flags.writeable = False

    monkeypatch.setattr(montecarlo, "sample_M", sample_read_only)
    _clock_pass(x, v, _rng_for(3, 0), p, "diffusive", (0.2, 0.1, 0.05), 0.5, work)
    assert set(vars(work)) == {"e", "w", "u", "sampler"}


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
            runs.append(block_counts(p, "diffusive", [0.2, 0.1, 0.05], [0.1, 0.3], threads))
    finally:
        sys.setswitchinterval(interval)
    (counts, collisions), (counts5, collisions5) = runs
    assert counts.shape == (3, 2, 2, 16) and collisions.shape == (3, 2) and collisions.dtype == np.int64
    assert np.array_equal(counts, counts5) and np.array_equal(collisions, collisions5)
    assert np.all(collisions[:, 0] < collisions[:, 1]) and np.all(collisions[:-1] < collisions[1:])


@pytest.mark.parametrize(
    "scaling, eps_list, times",
    [("diffusive", [0.1, 0.2], [0.3]), ("high_field", [0.1, 0.1], [0.3]), ("diffusive", [], [0.3]),
     ("diffusive", [0.2, 0.0], [0.3]), ("diffusive", [1.5], [0.3]), ("diffusive", [float("nan")], [0.3]),
     ("diffusive", [0.1], [0.3, 0.1]), ("diffusive", [0.1], [-0.1]), ("diffusive", [0.1], [float("inf")]),
     ("hyperbolic", [0.1], [0.3])],
)
def test_block_counts_refusals(scaling, eps_list, times):
    # the shared clock's nested counts need rising rates, so a strictly
    # decreasing eps list; the checks advance makes of one eps and time
    with pytest.raises(InvalidInput, match=_RUN_REFUSALS):
        block_counts(_params(particles=100), scaling, eps_list, times, 1)


@pytest.mark.parametrize("threads", [0, -1])
def test_block_counts_refuses_fewer_than_one_thread(threads):
    # as the CLI's --threads: no run quietly takes one thread in their place
    with pytest.raises(InvalidInput, match=f"threads={threads} < 1"):
        block_counts(_params(particles=100), "diffusive", [0.1], [0.3], threads)


@pytest.mark.parametrize("times, plain", [([0.0, 0.3], [0.3]), ([0.1, 0.1, 0.3], [0.1, 0.3])])
def test_zero_length_advance_draws_nothing(times, plain):
    # a snapshot at 0 or a repeated one leaves every later snapshot bit for bit
    p = ModelParams(particles=20_017, seed=7)
    counts, collisions = block_counts(p, "diffusive", [0.1], times, 1)
    ref_counts, ref_collisions = block_counts(p, "diffusive", [0.1], plain, 1)
    assert np.array_equal(counts[:, -1], ref_counts[:, -1])
    assert np.array_equal(collisions[:, -1], ref_collisions[:, -1])
    ens = init_ensemble(p)
    state = ens.rngs[0].bit_generator.state
    out = advance(ens, 0.1, p, 0.0)
    assert out.rngs[0].bit_generator.state == state and out.collisions == 0 and ens.rngs == ()


def test_advance_refuses_a_spent_handle():
    p = _params(particles=BLOCK + 17)
    eps, alpha = 0.2, p.alpha
    accepted = [0, 0]  # each block's two clock passes replayed on its own stream
    for blk, sl in enumerate(_blocks(p.particles)):
        rng = _rng_for(p.seed, blk)
        x, v = np.empty((2, sl.stop - sl.start))
        _draw_block(rng, x, v, L, alpha, None)
        for j, tau in enumerate((0.1, 0.3 - 0.1)):
            accepted[j] += int(_clock_pass(x[None], v[None], rng, p, "diffusive", [eps], tau)[0])
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
