"""Event-driven Monte Carlo for the scaled kinetic equation.

The model and run geometry come from a `ModelParams`, checked when built.
Initial data are well prepared, rho_0(x) M(v): x uniform or exactly the
periodized Gaussian (`init_ensemble`), v from `sample_M`, an exact
rejection sampler with a Cauchy proposal.  Per particle: free flight in the
constant field E = e0 (velocity drift E/eps, positions in closed form),
collision candidates at the events of a Poisson clock with the majorant rate
nu2/eps^alpha, nu2 = nu0 + max(a, 0) the least upper bound of sigma.

The jump kernel sigma(w, v) M(w) is bounded by nu2 M(w), so one thinning
stage is exact (Lewis & Shedler 1979): a candidate proposes w ~ M and is
accepted iff U nu2 < sigma(w, v-), v- the velocity just before it; a
rejected one leaves v unchanged.  The proposals do not depend on v, so the
whole clock is drawn up front: K ~ Poisson(rate*tau) candidates in the
interval tau, K+1 flight times as Dirichlet spacings (normalised
exponentials), the K after a candidate being the Exp(1) excesses of the
rejection test that drew its w.  Only the accept tests run in rounds, one
candidate per particle each; at amplitude 0 (constant sigma) every candidate
is a collision and there are none.  One fused pass then sums the flights per
particle; a flight in the constant field composes exactly at a rejected time.

Particles are split into fixed blocks of BLOCK; each block owns a PCG64DXSM
stream keyed by SeedSequence([seed, block]).  Every Monte Carlo command runs
through one block-major driver (`block_counts`): each block's initial data
are drawn once, its stream state is saved and restored for every eps, the
block is advanced through the requested times in order, and only its bin
counts and collisions are kept.  So a run holds O(BLOCK) particles and gives
the numbers of a whole ensemble drawn and advanced per eps.  The driver's
thread pool is the package's only one (imported only for more than one
thread); results depend on the seed alone, not on the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .macro import MacroState
from .params import SCALINGS, ModelParams
from .velocity import norm_Z

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


def sample_M(rng: np.random.Generator, alpha: float, size=None, out=None, excess=None):
    """Exact draws from M(v) = (1 + v^2)^(-(1+alpha)/2) / Z_M(alpha), alpha >= 1.

    Rejection from a Cauchy proposal (Devroye 1986, II.3): c = tan(pi (U - 1/2))
    is accepted iff an Exp(1) variate E exceeds t(c) = (alpha-1)/2 log(1 + c^2),
    i.e. U' < (1 + c^2)^((1-alpha)/2) = (pi/Z_M) M(c) / Cauchy(c) <= 1, with
    probability p = Z_M(alpha)/pi (0.76 at alpha = 1.5).  For the m draws still
    missing a round makes min(ceil(m/p + 3 sqrt(m/p)) + 8, _CHUNK) proposals and
    keeps the first m accepted.  At alpha = 1, M is the Cauchy law: no test.
    `excess` is filled with E - t(c) of each accepted c, i.i.d. Exp(1) and
    independent of the draws, since the exponential is memoryless (at
    alpha = 1, fresh Exp(1) draws).  `size=None` returns a scalar; `out` is
    filled and returned in place of a new array.  `out` and `excess` must be
    writeable C-contiguous float64 arrays of the result's shape.
    """
    if alpha < 1.0:
        raise InvalidInput(f"alpha={alpha} < 1: M is not dominated by the Cauchy law")
    shape = np.shape(out) if size is None else (size,) if np.ndim(size) == 0 else tuple(size)
    out = np.empty(shape) if out is None else out
    for name, a in (("out", out), ("excess", excess)):
        if a is not None and not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
                                  and a.flags.c_contiguous and a.flags.writeable):
            raise InvalidInput(f"{name} must be a writeable C-contiguous float64 array of shape {shape}")
    flat, xs = out.reshape(-1), None if excess is None else excess.reshape(-1)
    if alpha == 1.0:
        _cauchy(rng, flat)
        if xs is not None:
            rng.standard_exponential(out=xs)
    else:
        p, h = norm_Z(alpha) / math.pi, 0.5 * (alpha - 1.0)

        def proposals(m):  # about 4 sigma more accepted than the m missing, at p >= 2/pi
            return min(math.ceil(m / p + 3.0 * math.sqrt(m / p)) + 8, _CHUNK)

        c, t, e = np.empty((3, proposals(flat.size)))
        keep, filled = np.empty(len(c), dtype=bool), 0
        while filled < flat.size:
            m = flat.size - filled
            r = proposals(m)
            cm, tm, em, km = c[:r], t[:r], e[:r], keep[:r]
            _cauchy(rng, cm)
            np.multiply(cm, cm, out=tm)
            np.log1p(tm, out=tm)
            tm *= h
            rng.standard_exponential(out=em)
            np.greater(em, tm, out=km)
            i = km.nonzero()[0][:m]  # the first m accepted
            np.take(cm, i, out=flat[filled:filled + len(i)], mode="clip")  # i is in range; "raise" buffers
            if xs is not None:
                em -= tm
                np.take(em, i, out=xs[filled:filled + len(i)], mode="clip")
            filled += len(i)
    return out[()]


@dataclass
class ParticleEnsemble:
    x: np.ndarray
    v: np.ndarray
    L: float
    t: float
    rngs: tuple = field(repr=False, default=())  # one stream per block; () once advance consumed it
    collisions: int = 0


def _draw_block(rng: np.random.Generator, x: np.ndarray, v: np.ndarray, L: float, alpha: float,
                width: float | None):
    """Fill one block's x and v with its initial data, drawn from `rng`."""
    x[:] = rng.random(len(x)) * L if width is None else np.mod(L / 2 + width * rng.standard_normal(len(x)), L)
    sample_M(rng, alpha, out=v)


def init_ensemble(params: ModelParams, width: float | None = None) -> ParticleEnsemble:
    """Well-prepared data rho_0(x) M(v) for the params' particles, domain
    length L, alpha and seed: v from M, and x uniform on [0, L), or with
    `width`, x = (L/2 + width Z) mod L for a standard normal Z, exactly the
    law of the periodized Gaussian `macro.gaussian_bump`."""
    N, L = params.particles, params.domain_length
    x, v = np.empty(N), np.empty(N)
    rngs = []
    for b, sl in enumerate(_blocks(N)):
        rng = _rng_for(params.seed, b)
        _draw_block(rng, x[sl], v[sl], L, params.alpha, width)
        rngs.append(rng)
    return ParticleEnsemble(x, v, L, 0.0, tuple(rngs))


# unused in the package (_clock_pass sums the flights); bench/tracing.py names it
def _flight(x, v, dt, E, xfac, eps, L):
    """Free flight for times dt in the constant field E, in place.

    dx/dt = xfac v and dv/dt = E/eps, with xfac = eps^(1-alpha) in the
    diffusive scaling and 1 in the high-field one; x is taken mod L.
    """
    x += xfac * (v * dt + E * dt**2 / (2.0 * eps))
    v += (E / eps) * dt
    np.mod(x, L, out=x)


def _clock_pass(x, v, rng, cs, alpha, rate, tau, E, xfac, eps, L) -> int:
    """Draw each particle's whole clock, thin it and sum its flights in one
    fused pass.  Returns the number of collisions.

    Draws k ~ Poisson(rate*tau), the first flights e0, then the K = sum(k)
    proposals w ~ M with their flights e (`sample_M`'s excesses), each
    particle's at its exclusive start, plus a zero sentinel slot for the
    trailing k = 0 ones; at a nonzero amplitude also K uniforms U.  Round j
    tests candidate j of the particles with k > j, a prefix once they are
    sorted by k, and overwrites a rejected w with v-.  The Dirichlet scale
    tau/(e0 + sum e) is applied after the per-particle sums; without a
    candidate the flight is exactly tau.
    """
    k = rng.poisson(rate * tau, len(x))
    e0 = rng.standard_exponential(len(x))
    starts = np.zeros(len(x), dtype=np.int64)
    np.cumsum(k[:-1], out=starts[1:])
    K = int(starts[-1] + k[-1])
    e, w = np.empty(K + 1), np.empty(K + 1)
    e[K] = w[K] = 0.0
    sample_M(rng, alpha, out=w[:K], excess=e[:K])
    empty = k == 0

    def sums(a):  # per particle; reduceat gives an empty segment the next entry
        out = np.add.reduceat(a, starts)
        out[empty] = 0.0
        return out

    scale = tau / (e0 + sums(e))
    drift = (E / eps) * scale
    accepted = K
    if cs.amplitude != 0.0:
        u = rng.random(K) * cs.nu2
        order = np.argsort(-k)
        first, before, flight, dv = starts[order], v[order], e0[order], drift[order]
        for j, n in enumerate(len(x) - np.cumsum(np.bincount(k))[:-1]):  # n: particles with k > j
            i = first[:n] + j
            v_minus = before[:n] + dv[:n] * flight[:n]
            wi = w[i]
            keep = u[i] < cs.sigma(wi, v_minus)
            accepted -= n - np.count_nonzero(keep)
            before[:n] = w[i] = np.where(keep, wi, v_minus)
            flight[:n] = e[i]
    last = starts + k - 1
    v_end = np.where(empty, v + (E / eps) * tau, w[last] + drift * e[last])
    w *= e
    dx = (v * e0 + sums(w)) * scale
    if E != 0.0:
        e *= e
        dx += (E / (2.0 * eps)) * scale * scale * (e0 * e0 + sums(e))
    x += xfac * dx
    np.mod(x, L, out=x)
    v[:] = v_end
    return int(accepted)


def advance(ens: ParticleEnsemble, eps: float, params: ModelParams, until: float,
            scaling: str = "diffusive") -> ParticleEnsemble:
    """Advance the ensemble block by block to t=until (macroscopic time) in
    the field E = params.field_spec.e0.

    Consumes `ens`: its arrays are advanced in place and shared with the
    returned ensemble, which takes its streams.  `ens` keeps its t and
    collision count but is left without streams, so advancing it again is
    refused.  A zero-length advance draws nothing from the streams.
    """
    if scaling not in SCALINGS or not 0 < eps <= 1 or not math.isfinite(until):
        raise InvalidInput(f"need scaling diffusive or high_field, eps in (0, 1] and a finite until; "
                           f"got {scaling!r}, {eps}, {until}")
    if not ens.rngs:
        raise InvalidInput("the ensemble has no streams: an earlier advance consumed it; "
                           "advance the ensemble that call returned")
    if until < ens.t - 1e-15:
        raise InvalidInput(f"until={until} < current t={ens.t}")
    cs = params.cross_section
    alpha = params.alpha
    rate = cs.nu2 / eps**alpha if scaling == "diffusive" else cs.nu2 / eps
    xfac = eps ** (1.0 - alpha) if scaling == "diffusive" else 1.0
    E = params.field_spec.e0
    tau = max(until - ens.t, 0.0)
    hits = sum(_clock_pass(ens.x[sl], ens.v[sl], rng, cs, alpha, rate, tau, E, xfac, eps, ens.L)
               for sl, rng in zip(_blocks(len(ens.x)), ens.rngs)) if tau > 0 else 0
    out = ParticleEnsemble(ens.x, ens.v, ens.L, until, ens.rngs, ens.collisions + hits)
    ens.rngs = ()
    return out


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each point's bin in np.histogram(x, bins, range=(0, L)), for x in [0, L],
    given that histogram's edges = np.linspace(0, L, bins + 1).

    The index x bins/L, clipped to the bins, is within one of the true bin;
    it is corrected against the edges as NumPy does, and L falls in the last
    bin.  np.searchsorted on the edges gives the same, several times slower.
    """
    bins, L = len(edges) - 1, edges[-1]  # linspace ends exactly at L
    i = np.clip((x * (bins / L)).astype(np.intp), 0, bins - 1)
    i -= x < edges[i]
    i += (x >= edges[i + 1]) & (i != bins - 1)
    return i


def estimate_density(ens: ParticleEnsemble, x_bins: int) -> MacroState:
    """Histogram density, normalized to unit mass."""
    edges = np.linspace(0.0, ens.L, x_bins + 1)
    counts = sum(np.bincount(_bin_index(ens.x[sl], edges), minlength=x_bins)  # per block: O(BLOCK) scratch
                 for sl in _blocks(len(ens.x)))
    return MacroState(counts / (len(ens.x) * (ens.L / x_bins)), ens.L, ens.t)


def block_counts(params: ModelParams, scaling: str, width: float | None, eps_list, times,
                 threads: int) -> tuple[np.ndarray, np.ndarray]:
    """The x_bins counts of the even- and odd-index particles of
    `init_ensemble(params, width)` advanced through the sorted `times` in
    order, for each eps of `eps_list` and each time, shape
    (len(eps_list), len(times), 2, x_bins), and the collisions up to each
    time, int64 of shape (len(eps_list), len(times)), both summed over the
    blocks.  These are the numbers of a whole ensemble per eps, computed
    block-major: each block's data are drawn once and its stream state is
    restored per eps, so only O(BLOCK) particles are held.  BLOCK is even, so a block's index parity is the ensemble's.
    Blocks run on a pool of `threads` workers; the result does not depend on
    their number.
    """
    N, L, bins = params.particles, params.domain_length, params.x_bins
    edges = np.linspace(0.0, L, bins + 1)

    def run(b):
        rng = _rng_for(params.seed, b)
        x0, v0 = np.empty((2, min(BLOCK, N - b * BLOCK)))
        _draw_block(rng, x0, v0, L, params.alpha, width)
        start = rng.bit_generator.state
        counts = np.empty((len(eps_list), len(times), 2, bins), dtype=np.intp)
        collisions = np.empty((len(eps_list), len(times)), dtype=np.int64)
        for j, eps in enumerate(eps_list):
            rng.bit_generator.state = start
            ens = ParticleEnsemble(x0.copy(), v0.copy(), L, 0.0, (rng,))
            for k, t in enumerate(times):
                ens = advance(ens, eps, params, t, scaling)
                i = _bin_index(ens.x, edges)
                counts[j, k, 0] = np.bincount(i[::2], minlength=bins)
                counts[j, k, 1] = np.bincount(i[1::2], minlength=bins)
                collisions[j, k] = ens.collisions
        return counts, collisions

    blocks = range(len(_blocks(N)))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
        with ThreadPoolExecutor(threads) as pool:
            counts, collisions = zip(*pool.map(run, blocks))
    else:
        counts, collisions = zip(*map(run, blocks))
    return sum(counts), sum(collisions)
