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
rejection test that drew its w.  Several eps advance on one clock: Poisson
counts add, so the candidates come in pieces, one per eps of those new at its
rate, and each eps takes the pieces up to its own and keeps its exact law.
Every row of a pass has one mean, so its counts invert one table of that
Poisson law (Devroye 1986, III.2) through a guide table (III.2.4), O(1) a
count; every Exp(1) (first flights, the sampler's test variables) is
-log(1 - U), by inversion, and every Cauchy draw tan(pi U).  Each piece's
candidates lie in jagged-diagonal order (Saad 2003, 3.4): one stable radix
argsort per pass orders its particles by falling count, and round c holds
candidate c of the nc_c particles with more than c, one contiguous slice.
The accept tests run round by round, one sweep per eps over its pieces that
also sums its thinned w e (at amplitude 0, constant sigma, every candidate
is a collision and there are none), and each per-particle sum of the fused
pass adds a slice per round; a flight in the constant field composes exactly
at a rejected time.

Particles are split into fixed blocks of BLOCK; each block owns a PCG64DXSM
stream keyed by SeedSequence([seed, block]).  Every Monte Carlo command runs
through one block-major driver (`block_counts`): each block's initial bump
is drawn once and copied to one row per eps, all rows are advanced through
the requested times in order, one shared clock pass per step, and only the
bin counts and collisions are kept; the pass that reaches the last time
leaves v alone, as nothing reads it after.  So a run holds O(BLOCK)
particles per eps, and each worker thread draws every pass into the arrays
of one `_Workspace` for the whole study, which changes no draw.  The
driver's pool is the package's only one (imported only for more than one
thread); results depend on the seed alone, not on the number of threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .macro import MacroState
from .params import ModelParams, require_eps, require_scaling, require_times
from .velocity import norm_Z

BLOCK = 4096  # particles per random stream
BUMP_WIDTH = 1.8  # width of the initial density bump of the kinetic and macro runs
_CHUNK = 1 << 15  # sample_M proposals per round: few rounds, and a reused scratch of 2.5 _CHUNK doubles (655 kB)
_GUIDE = 1 << 10  # cells of a Poisson table's guide; a power of two, so U _GUIDE is exact


def _rng_for(seed: int, block: int) -> np.random.Generator:
    """The random stream of one block: PCG64DXSM seeded by SeedSequence([seed, block])."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, block])))


def _blocks(N: int) -> list[slice]:
    return [slice(a, min(a + BLOCK, N)) for a in range(0, N, BLOCK)]


def _to_cauchy(u: np.ndarray):
    """Uniforms U to standard Cauchy draws tan(pi U), in place (tan has period pi)."""
    u *= np.pi
    np.tan(u, out=u)


def _to_exp1(u: np.ndarray, negated: bool = False):
    """Uniforms U to Exp(1) draws -log(1 - U), or with `negated` to log(1 - U),
    in place, by inversion.  U lies on the 2^-53 grid, so 1 - U is exact, the
    largest draw is 53 ln 2 ~ 36.7 and the tail mass 2^-53 beyond it is lost."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    if not negated:
        np.negative(u, out=u)


def _poisson_pmf(lam: float) -> tuple[int, np.ndarray]:
    """(lo, p): the Poisson(lam) pmf exp(k log lam - lam - lgamma(k+1)) at
    k = lo, lo + 1, ..., for any lam > 0.  Each entry is taken in log space,
    so none underflows for want of e^-lam; the table runs from the mode
    outward and stops on each side at the first entry below 2^-64, which
    leaves out less than 1e-15 of the mass for lam up to 1e8."""
    mode, log_lam = math.floor(lam), math.log(lam)

    def run(ks):
        out = []
        for k in ks:
            out.append(math.exp(k * log_lam - lam - math.lgamma(k + 1)))
            if out[-1] < 2.0**-64:
                break
        return out

    below, above = run(range(mode - 1, -1, -1)), run(itertools.count(mode))
    return mode - len(below), np.array(below[::-1] + above)


@functools.lru_cache(maxsize=256)  # a run needs one table per eps row and time step
def _poisson_table(lam: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, F, guide) for Poisson counts by inversion, k = lo + F.searchsorted(U, "right")
    (Devroye 1986, III.2): F is the pmf's running sum over its own total, so each
    entry keeps its mass and F ends at exactly 1, above every U.  The guide table
    (III.2.4) holds for each cell [c/G, (c+1)/G) of U, G = _GUIDE, the count of F
    entries <= c/G, or -1 where more than one entry falls inside the cell.  Cached,
    both arrays read-only."""
    lo, p = _poisson_pmf(lam)
    F = np.cumsum(p)
    F /= F[-1]
    cells = np.arange(_GUIDE + 1) / _GUIDE
    guide = F.searchsorted(cells[:-1], side="right")
    guide[F.searchsorted(cells[1:], side="left") - guide > 1] = -1
    F.flags.writeable = guide.flags.writeable = False
    return lo, F, guide


def _poisson_counts(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) counts by inversion of the uniforms u, bit for bit
    lo + F.searchsorted(u, "right") of `_poisson_table(lam)`: the guide
    gives the count at the start of u's cell (exact, as u G is), one step
    over the cell's one entry finishes it, and the u in a cell of several
    entries (-1; one to four of the cells at lam <= 100) search F."""
    lo, F, guide = _poisson_table(lam)
    k = guide[(u * _GUIDE).astype(np.intp)]
    k += F[k] <= u  # F[-1] = 1 > u: a -1 stays
    slow = (k < 0).nonzero()[0]
    k[slow] = F.searchsorted(u[slow], side="right")
    k += lo
    return k


class _Workspace(threading.local):
    """Arrays that a thread reuses from clock pass to clock pass, its
    attributes by name, each grown to its need plus 1/16 when a larger one is
    asked for.  A `threading.local`, so each worker of a pool holds its own;
    all of it is freed with the object.  It lends arrays only."""

    def array(self, name: str, size: int) -> np.ndarray:
        a = vars(self).get(name)
        if a is None or len(a) < size:
            a = vars(self)[name] = np.empty(size + size // 16)
        return a[:size]


def sample_M(rng: np.random.Generator, alpha: float, size=None, out=None, excess=None, work=None):
    """Exact draws from M(v) = (1 + v^2)^(-(1+alpha)/2) / Z_M(alpha), alpha >= 1.

    Rejection from a Cauchy proposal (Devroye 1986, II.3): c = tan(pi U) is
    accepted iff an Exp(1) variate E = -log(1 - U') exceeds
    t(c) = (alpha-1)/2 log(1 + c^2), tested as log(1 - U') + t(c) < 0, i.e.
    1 - U' < (1 + c^2)^((1-alpha)/2) = (pi/Z_M) M(c) / Cauchy(c) <= 1, with
    probability p = Z_M(alpha)/pi (0.76 at alpha = 1.5).  For the m draws still
    missing a round makes r = min(ceil(m/p + 3 sqrt(m/p)) + 8, _CHUNK) proposals
    from one call of 2r uniforms, the first r for the c and the rest for the E,
    and keeps the first m accepted.  E is at most 53 ln 2 ~ 36.7, and t(c) < 35.5
    at alpha < 2 but for the proposal at U = 1/2 (c = 1.6e16, t up to 37.3),
    which can no longer be accepted at alpha > 1.984: a loss of 2^-53 of the
    proposals.  At alpha = 1, M is the Cauchy law: no test.  `excess` is filled
    with E - t(c) of each accepted c, negated from the test's sum, i.i.d. Exp(1)
    and independent of the draws, since the exponential is memoryless (at
    alpha = 1, fresh Exp(1) draws by inversion).
    `size=None` returns a scalar; `out` is filled and returned in place of a
    new array.  `out` and `excess` must be writeable C-contiguous float64
    arrays of the result's shape.  `work`, a `_Workspace`, lends the rounds'
    scratch; it changes no draw.
    """
    if not 1.0 <= alpha < math.inf:
        raise InvalidInput(f"alpha={alpha} < 1 or not finite: need a finite alpha >= 1, where Cauchy dominates M")
    shape = np.shape(out) if size is None else (size,) if np.ndim(size) == 0 else tuple(size)
    out = np.empty(shape) if out is None else out
    for name, a in (("out", out), ("excess", excess)):
        if a is not None and not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
                                  and a.flags.c_contiguous and a.flags.writeable):
            raise InvalidInput(f"{name} must be a writeable C-contiguous float64 array of shape {shape}")
    flat, xs = out.reshape(-1), None if excess is None else excess.reshape(-1)
    if alpha == 1.0:
        rng.random(out=flat)
        _to_cauchy(flat)
        if xs is not None:
            rng.random(out=xs)
            _to_exp1(xs)
    else:
        p, h = norm_Z(alpha) / math.pi, 0.5 * (alpha - 1.0)

        def proposals(m):  # about 4 sigma more accepted than the m missing, at p >= 2/pi
            return min(math.ceil(m / p + 3.0 * math.sqrt(m / p)) + 8, _CHUNK)

        work = _Workspace() if work is None else work
        r0, filled = proposals(flat.size), 0
        scratch = work.array("sampler", 2 * r0 + (r0 + 1) // 2)  # a round's uniforms, then half a round's t(c)
        while filled < flat.size:
            r = proposals(flat.size - filled)
            u, half = scratch[:2 * r], (r + 1) // 2
            rng.random(out=u)
            _to_cauchy(u[:r])
            _to_exp1(u[r:], negated=True)
            for c, em in ((u[:half], u[r:r + half]), (u[half:r], u[r + half:])):  # by halves: less scratch
                t = scratch[2 * r0:2 * r0 + len(c)]
                np.multiply(c, c, out=t)
                np.log1p(t, out=t)
                t *= h
                em += t  # t(c) - E < 0 iff E > t(c)
                i = (em < 0).nonzero()[0][:flat.size - filled]  # the first accepted, no more than are missing
                c.take(i, out=flat[filled:filled + len(i)], mode="clip")  # i is in range; "raise" buffers
                if xs is not None:
                    x = xs[filled:filled + len(i)]
                    em.take(i, out=x, mode="clip")
                    np.negative(x, out=x)
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
                width: float | None, work: _Workspace | None = None):
    """Fill one block's x and v with its initial data, drawn from `rng`."""
    x[:] = rng.random(len(x)) * L if width is None else L / 2 + width * rng.standard_normal(len(x))
    np.mod(x, L, out=x, where=(x < 0) | (x >= L))  # as in _clock_pass, only the x outside [0, L)
    sample_M(rng, alpha, out=v, work=work)


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


def _jagged_sums(a: np.ndarray, rows: int, orders: np.ndarray, rounds: list) -> np.ndarray:
    """(rows, n): per particle, the sums of `a` over its candidates in `_clock_pass`'s
    pieces up to each row: a slice per round, one scatter per piece, then row to row."""
    out = np.empty((rows, orders.shape[1]))
    for j, (order, piece) in enumerate(zip(orders, rounds[:rows])):
        acc = np.zeros(orders.shape[1])
        for s, nc in piece:
            acc[:nc] += a[s:s + nc]
        out[j, order] = acc
        if j:
            out[j] += out[j - 1]
    return out


def _clock_pass(x, v, rng, params: ModelParams, scaling: str, eps, tau: float,
                work: _Workspace | None = None, update_v: bool = True) -> np.ndarray:
    """Advance the rows of x and v (shape (m, n), one per eps of the strictly
    decreasing `eps`, so of rising majorant rates r_j) by tau over one shared
    clock per particle in one fused pass.  Returns each row's collisions.

    Draws each row's new candidates, Poisson((r_j - r_(j-1)) tau) per
    particle by inverting one guided table per mean (one uniform each, all
    rows' in one call), the first flights e0 (Exp(1) by inversion), then the
    proposals w ~ M with their flights e (`sample_M`'s excesses) piece after
    piece, each in the jagged-diagonal order of the module docstring, so row
    j's are the first K_j; at a nonzero amplitude also uniforms U.  Row j
    takes the pieces of rows <= j, k_j ~ Poisson(r_j tau) candidates per
    particle: it has the law of its own clock.  Per row, one sweep runs the
    rounds piece by piece, each on its slice: at a nonzero amplitude it tests
    w against v- and sums w e, v- in place of a rejected w, as `_jagged_sums`
    does (it never writes w), and it carries each particle's latest v and
    flight on to its v at tau.  The other per-particle sums by `_jagged_sums`,
    then the Dirichlet scale tau/(e0 + sum e); the rest is (m, n) array
    operations over all rows at once, with each row's constants taken as
    Python floats.  Only x outside [0, L) wrap.  Without `update_v` (when
    nothing reads v after the pass) v is left as it was and the sweeps run
    only for the tests and sums, which changes no draw and no x.  The K-sized
    arrays and the sampler's scratch are `work`'s (fresh ones without it);
    the returned counts never alias them.
    """
    m, n = x.shape
    cs, alpha, E, L = params.cross_section, params.alpha, params.field_spec.e0, params.domain_length
    rates = [cs.nu2 / (a**alpha if scaling == "diffusive" else a) for a in eps]
    work = _Workspace() if work is None else work
    k, uk = np.empty((m, n), dtype=np.int32), rng.random((m + 1, n))  # the rows' count uniforms, then e0's
    for j, (r0, r) in enumerate(zip((0.0, *rates), rates)):
        k[j] = _poisson_counts(uk[j], (r - r0) * tau)
    e0 = uk[m]
    _to_exp1(e0)
    key = k.astype(np.min_scalar_type(k.max()))  # ~k sorts the counts falling
    orders, rounds, K = np.argsort(np.invert(key, out=key), axis=1, kind="stable"), [], 0
    for kp in k:  # each round's first slot and width nc_c, the particles with more than c candidates
        nc = (n - np.cumsum(np.bincount(kp))[:-1]).tolist()
        rounds.append(list(zip(itertools.accumulate(nc, initial=K), nc)))
        K += sum(nc)
    e, w = work.array("e", K), work.array("w", K)
    sample_M(rng, alpha, out=w, excess=e, work=work)
    scale = tau / (_jagged_sums(e, m, orders, rounds) + e0)
    accepted = np.cumsum(k.sum(axis=1))
    drift = np.array([E / a for a in eps])[:, None]  # dv/dt per row
    v_end, thin = np.empty((m, n)), cs.amplitude != 0.0
    if thin:
        u, dx = work.array("u", K), np.zeros((m, n))
        rng.random(out=u)
        u *= cs.nu2
    for j in range(m if thin or update_v else 0):  # row j's sweep: the tests, dx[j] += w e (v- if rejected), v at tau
        now, flights, dv = v[j].copy(), e0.copy(), drift[j] * scale[j]  # as of the latest candidate
        for order, piece in zip(orders, rounds[:j + 1]):
            before, flight, dvp = now[order], flights[order], dv[order]
            acc = np.zeros(n) if thin else None
            for s, nc in piece:
                wi, ei = w[s:s + nc], e[s:s + nc]
                if thin:
                    v_minus = before[:nc] + dvp[:nc] * flight[:nc]
                    keep = u[s:s + nc] < cs.sigma(wi, v_minus)
                    accepted[j] -= nc - np.count_nonzero(keep)
                    wi = np.where(keep, wi, v_minus)
                    acc[:nc] += wi * ei
                before[:nc], flight[:nc] = wi, ei
            now[order], flights[order] = before, flight
            if thin:  # summed from zero per piece, then piece after piece: _jagged_sums' bits
                dx[j, order] += acc
        if update_v:
            v_end[j] = np.where(k[:j + 1].any(axis=0), now + dv * flights, v[j] + drift[j] * tau)
    if not thin:  # every candidate is a collision: the sweeps gave only v at tau
        w *= e
        dx = _jagged_sums(w, m, orders, rounds)
    dx += v * e0
    dx *= scale
    if update_v:
        v[...] = v_end
    if E != 0.0:
        e *= e
        field = np.array([E / (2.0 * a) for a in eps])[:, None] * scale * scale
        dx += field * (_jagged_sums(e, m, orders, rounds) + e0 * e0)
    dx *= np.array([a ** (1.0 - alpha) if scaling == "diffusive" else 1.0 for a in eps])[:, None]
    x += dx
    np.mod(x, L, out=x, where=(x < 0) | (x >= L))  # np.mod costs ~9 ns an x; fmod is exact on [0, L)
    return accepted


def advance(ens: ParticleEnsemble, eps: float, params: ModelParams, until: float,
            scaling: str = "diffusive") -> ParticleEnsemble:
    """Advance the ensemble block by block to t=until (macroscopic time) in
    the params' field E = e0 and domain, by the one-eps `_clock_pass`.

    Consumes `ens`: its arrays are advanced in place and shared with the
    returned ensemble, which takes its streams.  `ens` keeps its t and
    collision count but is left without streams, so advancing it again is
    refused.  A zero-length advance draws nothing from the streams.
    """
    require_scaling(scaling)
    require_eps([eps])
    require_times([ens.t, until])
    if not ens.rngs:
        raise InvalidInput("the ensemble has no streams: an earlier advance consumed it; "
                           "advance the ensemble that call returned")
    tau, work = until - ens.t, _Workspace()  # one set of buffers for every block
    hits = sum(int(_clock_pass(ens.x[None, sl], ens.v[None, sl], rng, params, scaling, [eps], tau, work)[0])
               for sl, rng in zip(_blocks(len(ens.x)), ens.rngs)) if tau > 0 else 0
    out = ParticleEnsemble(ens.x, ens.v, ens.L, until, ens.rngs, ens.collisions + hits)
    ens.rngs = ()
    return out


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each point's bin in np.histogram(x, bins, range=(0, L)), for x in [0, L],
    given that histogram's edges = np.linspace(0, L, bins + 1).

    The index x bins/L, capped at bins - 1 (x >= 0 keeps it >= 0), is within
    one of the true bin; it is corrected against the edges as NumPy does, and
    L falls in the last bin.  np.searchsorted on the edges: the same, slower.
    """
    bins, L = len(edges) - 1, edges[-1]  # linspace ends exactly at L
    i = (x * (bins / L)).astype(np.intp)
    np.minimum(i, bins - 1, out=i)
    i -= x < edges.take(i)
    i += (x >= edges.take(i + 1)) & (i != bins - 1)
    return i


def estimate_density(ens: ParticleEnsemble, x_bins: int) -> MacroState:
    """Histogram density, normalized to unit mass."""
    edges = np.linspace(0.0, ens.L, x_bins + 1)
    counts = sum(np.bincount(_bin_index(ens.x[sl], edges), minlength=x_bins)  # per block: O(BLOCK) scratch
                 for sl in _blocks(len(ens.x)))
    return MacroState(counts / (len(ens.x) * (ens.L / x_bins)), ens.L, ens.t)


def block_counts(params: ModelParams, scaling: str, eps_list, times, threads: int) -> tuple[np.ndarray, np.ndarray]:
    """The x_bins counts of the even- and odd-index particles of
    `init_ensemble(params, BUMP_WIDTH)` advanced through the sorted `times`,
    for each eps of the strictly decreasing `eps_list` and each time, shape
    (len(eps_list), len(times), 2, x_bins), and the collisions up to each
    time, int64 of shape (len(eps_list), len(times)), both summed over the
    blocks.  Each block's data are drawn once, copied to one row per eps,
    advanced by one `_clock_pass` and binned by one np.bincount over every
    row and parity per time step: O(BLOCK) particles are held, and each eps
    has the law of a whole ensemble advanced alone.  BLOCK is even, so a
    block's index parity is the ensemble's.  Blocks run on a pool of
    `threads` >= 1 workers; the result does not depend on their number.
    """
    require_scaling(scaling)
    require_eps(eps_list)
    require_times(times)
    if threads < 1:
        raise InvalidInput(f"threads={threads} < 1")
    m, N, L, bins = len(eps_list), params.particles, params.domain_length, params.x_bins
    edges, work = np.linspace(0.0, L, bins + 1), _Workspace()  # per worker thread, for this study
    offset = (2 * np.arange(m)[:, None] + np.arange(min(N, BLOCK)) % 2) * bins  # row j, parity h: (2j + h) bins

    def run(block):
        b, sl = block
        rng = _rng_for(params.seed, b)
        x, v = np.empty((2, m, sl.stop - sl.start))
        _draw_block(rng, x[0], v[0], L, params.alpha, BUMP_WIDTH, work)
        x[1:], v[1:] = x[0], v[0]
        counts = np.empty((m, len(times), 2, bins), dtype=np.intp)
        collisions = np.zeros((m, len(times)), dtype=np.int64)  # per step, then summed
        for k, (t0, t) in enumerate(zip((0.0, *times), times)):
            if t > t0:  # the step that reaches the last time is the last pass: no later one reads v
                collisions[:, k] = _clock_pass(x, v, rng, params, scaling, eps_list, t - t0, work, t < times[-1])
            i = _bin_index(x, edges)
            i += offset[:, :x.shape[-1]]  # one bincount over every row and parity
            counts[:, k] = np.bincount(i.ravel(), minlength=m * 2 * bins).reshape(m, 2, bins)
        return counts, collisions.cumsum(axis=1)

    blocks = enumerate(_blocks(N))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
        with ThreadPoolExecutor(threads) as pool:
            counts, collisions = zip(*pool.map(run, blocks))
    else:
        counts, collisions = zip(*map(run, blocks))
    return sum(counts), sum(collisions)
