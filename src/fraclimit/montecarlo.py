"""Event-driven Monte Carlo for the scaled kinetic equation.

Per particle: free flight in the constant field E (velocity drift E/eps,
positions in closed form), collisions at the events of a Poisson clock with
the majorant rate nu2/eps^alpha, post-collision velocity from the gain
kernel.  Equilibrium velocities come from `sample_M`, an exact
rejection sampler with a Cauchy proposal.

With constant sigma every candidate is a collision and each post-collision
velocity is a fresh M sample, independent of the past.  The whole clock is
then drawn up front: K ~ Poisson(rate*tau) collisions in the interval tau,
K+1 flight times as Dirichlet spacings (normalised exponentials), and one
fused pass sums the flights per particle.  Perturbed sigma (thinning
acceptance nu(v)/nu2, gain-kernel rejection) takes the candidate loop, one
exponential candidate per live particle and round.

Particles are split into fixed blocks of BLOCK; each block owns a PCG64DXSM
stream keyed by SeedSequence([seed, block]).  Results depend on the seed
alone, not on how many threads advance the blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import InvalidInput
from .macro import MacroState
from .params import CrossSection, FieldSpec, ModelParams
from .velocity import eval_M

BLOCK = 4096  # particles per random stream
_CHUNK = 1 << 13  # sample_M proposals per round: bounds its scratch to ~200 kB


def _rng_for(seed: int, block: int) -> np.random.Generator:
    """The random stream of one block: PCG64DXSM seeded by SeedSequence([seed, block])."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, block])))


def _blocks(N: int) -> list[slice]:
    return [slice(a, min(a + BLOCK, N)) for a in range(0, N, BLOCK)]


def _cauchy(rng: np.random.Generator, out: np.ndarray):
    """Fill `out` with standard Cauchy draws tan(pi (U - 1/2))."""
    rng.random(out=out)
    out -= 0.5
    out *= np.pi
    np.tan(out, out=out)


def sample_M(rng: np.random.Generator, alpha: float, size=None, out=None):
    """Exact draws from M(v) = (1 + v^2)^(-(1+alpha)/2) / Z_M(alpha), alpha >= 1.

    Rejection from a Cauchy proposal (Devroye 1986, II.3): c = tan(pi (U - 1/2))
    is accepted iff an Exp(1) variate exceeds (alpha-1)/2 log(1 + c^2), i.e.
    U' < (1 + c^2)^((1-alpha)/2) = (pi/Z_M) M(c) / Cauchy(c) <= 1.  A proposal
    is accepted with probability Z_M(alpha)/pi (0.76 at alpha = 1.5).  At
    alpha = 1, M is the Cauchy law and c is returned without a test.
    Otherwise proposals are made in rounds of at most _CHUNK, each covering
    only the draws still missing.  `size=None` returns a scalar; a contiguous
    float array `out` is filled and returned in place of a new array.
    """
    if alpha < 1.0:
        raise InvalidInput(f"alpha={alpha} < 1: M is not dominated by the Cauchy law")
    out = np.empty(() if size is None else size) if out is None else out
    flat = out.reshape(-1)
    if alpha == 1.0:
        _cauchy(rng, flat)
    else:
        m = min(flat.size, _CHUNK)
        c, t, e, keep = np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=bool)
        h = 0.5 * (alpha - 1.0)
        filled = 0
        while filled < flat.size:
            m = min(flat.size - filled, _CHUNK)
            cm, tm, em, km = c[:m], t[:m], e[:m], keep[:m]
            _cauchy(rng, cm)
            np.multiply(cm, cm, out=tm)
            np.log1p(tm, out=tm)
            tm *= h
            rng.standard_exponential(out=em)
            np.greater(em, tm, out=km)
            k = np.count_nonzero(km)
            np.compress(km, cm, out=flat[filled:filled + k])
            filled += k
    return out[()]


def nu_continuum(cross_section: CrossSection, alpha: float):
    """Continuum collision frequency nu(v) = int sigma(v',v) M(v') dv' as a callable."""
    if cross_section.kind == "constant":
        nu0 = cross_section.nu0
        return lambda v: np.full_like(np.asarray(v, dtype=float), nu0)
    i1, _ = quad(lambda u: eval_M(u, alpha) / (1.0 + abs(u)), -np.inf, np.inf)
    nu0, a = cross_section.nu0, cross_section.amplitude

    def nu(v):
        return nu0 + a * i1 / (1.0 + np.abs(np.asarray(v, dtype=float)))

    return nu


@dataclass
class ParticleEnsemble:
    x: np.ndarray
    v: np.ndarray
    L: float
    t: float
    seed: int
    rngs: tuple = field(repr=False, default=())  # one stream per block
    collisions: int = 0

    @property
    def N(self) -> int:
        return len(self.x)


def init_ensemble(N: int, L: float, alpha: float, seed: int, rho_init=None) -> ParticleEnsemble:
    """Well-prepared data: x from rho_init (uniform if None), v from M."""
    if rho_init is not None:
        # inverse-CDF table of the initial density
        xe = np.linspace(0.0, L, 4097)
        pdf = np.maximum(rho_init(xe), 0.0)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xe))])
        cdf /= cdf[-1]
    x, v = np.empty(N), np.empty(N)
    rngs = []
    for b, sl in enumerate(_blocks(N)):
        rng = _rng_for(seed, b)
        u = rng.random(sl.stop - sl.start)
        x[sl] = u * L if rho_init is None else np.interp(u, cdf, xe)
        v[sl] = sample_M(rng, alpha, len(u))
        rngs.append(rng)
    return ParticleEnsemble(x, v, L, 0.0, seed, tuple(rngs))


def _flight(x, v, dt, E, xfac, eps, L):
    """Free flight for times dt in the constant field E, in place.

    dx/dt = xfac v and dv/dt = E/eps, with xfac = eps^(1-alpha) in the
    diffusive scaling and 1 in the high-field one; x is taken mod L.
    """
    x += xfac * (v * dt + E * dt**2 / (2.0 * eps))
    v += (E / eps) * dt
    np.mod(x, L, out=x)


def _clock_pass(x, v, rng, alpha, rate, tau, E, xfac, eps, L) -> int:
    """Constant sigma: draw each particle's whole clock and
    sum its flights in one fused pass.  Returns the number of collisions.

    Draws k ~ Poisson(rate*tau), the first flights e0, then the K = sum(k)
    later flights e and their start velocities w ~ M, each particle's at its
    exclusive start, plus a zero sentinel slot for the trailing k = 0 ones.
    The Dirichlet scale tau/(e0 + sum e) is applied after the per-particle
    sums; without a collision the flight is exactly tau.
    """
    k = rng.poisson(rate * tau, len(x))
    e0 = rng.standard_exponential(len(x))
    starts = np.zeros(len(x), dtype=np.int64)
    np.cumsum(k[:-1], out=starts[1:])
    K = int(starts[-1] + k[-1])
    e, w = np.zeros(K + 1), np.zeros(K + 1)
    rng.standard_exponential(out=e[:K])
    sample_M(rng, alpha, out=w[:K])
    empty = k == 0

    def sums(a):  # per particle; reduceat gives an empty segment the next entry
        out = np.add.reduceat(a, starts)
        out[empty] = 0.0
        return out

    scale = tau / (e0 + sums(e))
    last = starts + k - 1
    v_end = np.where(empty, v + (E / eps) * tau, w[last] + (E / eps) * scale * e[last])
    w *= e
    dx = (v * e0 + sums(w)) * scale
    if E != 0.0:
        e *= e
        dx += (E / (2.0 * eps)) * scale * scale * (e0 * e0 + sums(e))
    x += xfac * dx
    np.mod(x, L, out=x)
    v[:] = v_end
    return K


def _candidate_loop(x, v, rng, t0, until, eps, alpha, cs, nu_fun, E, xfac, L, rate) -> int:
    """Perturbed sigma: one exponential candidate per live particle and round,
    thinning with acceptance nu(v)/nu2, gain-kernel rejection.  Returns the
    collisions."""
    nu2 = cs.nu2
    n_coll = 0
    t = np.full(len(x), t0)
    alive = np.ones(len(x), dtype=bool)
    while alive.any():
        idx = np.nonzero(alive)[0]
        cand = rng.exponential(1.0 / rate, len(idx))
        dt = np.minimum(cand, until - t[idx])
        hit = cand <= until - t[idx]
        xi, vi = x[idx], v[idx]
        _flight(xi, vi, dt, E, xfac, eps, L)
        x[idx], v[idx] = xi, vi
        t[idx] += dt
        ha = idx[hit]
        if cs.nu1 != nu2:  # otherwise the acceptance is identically 1
            ha = ha[rng.random(len(ha)) < np.asarray(nu_fun(v[ha])) / nu2]
        # gain kernel sigma(w, v) M(w)/nu(v): rejection against M with
        # acceptance sigma(w, v)/nu2
        pending = ha
        while len(pending):
            w = sample_M(rng, alpha, len(pending))
            keep = rng.random(len(pending)) < cs.sigma(w, v[pending]) / nu2
            v[pending[keep]] = w[keep]
            pending = pending[~keep]
        n_coll += len(ha)
        alive = t < until - 1e-15
    return n_coll


def advance(
    ens: ParticleEnsemble,
    eps: float,
    params: ModelParams,
    field: FieldSpec,
    until: float,
    scaling: str = "diffusive",
    threads: int = 1,
) -> ParticleEnsemble:
    """Advance the ensemble to t=until (macroscopic time).

    Blocks are advanced by a pool of `threads` workers; the result does not
    depend on their number.
    """
    if until < ens.t - 1e-15:
        raise InvalidInput(f"until={until} < current t={ens.t}")
    cs = params.cross_section
    alpha = params.alpha
    rate = cs.nu2 / eps**alpha if scaling == "diffusive" else cs.nu2 / eps
    flat = cs.kind == "constant"
    xfac = eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0
    E = field.e0 if field.kind == "constant" else 0.0
    tau = max(until - ens.t, 0.0)
    nu_fun = None if flat else nu_continuum(cs, alpha)

    blocks = _blocks(ens.N)

    def run(b):
        x, v, rng = ens.x[blocks[b]], ens.v[blocks[b]], ens.rngs[b]
        if flat:
            return _clock_pass(x, v, rng, alpha, rate, tau, E, xfac, eps, ens.L)
        return _candidate_loop(x, v, rng, ens.t, until, eps, alpha, cs, nu_fun, E, xfac, ens.L, rate)

    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            counts = list(pool.map(run, range(len(blocks))))
    else:
        counts = [run(b) for b in range(len(blocks))]
    return ParticleEnsemble(ens.x, ens.v, ens.L, until, ens.seed, ens.rngs, ens.collisions + sum(counts))


def estimate_density(ens: ParticleEnsemble, x_bins: int) -> MacroState:
    """Histogram density, normalized to unit mass."""
    counts, edges = np.histogram(ens.x, bins=x_bins, range=(0.0, ens.L))
    dx = ens.L / x_bins
    return MacroState(counts / (ens.N * dx), ens.L, ens.t, {"x_bins": x_bins})
