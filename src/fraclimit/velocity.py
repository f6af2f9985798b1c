"""Heavy-tail-aware quadrature on the velocity line.

The equilibrium M(v) = Z^-1 (1+v^2)^(-(1+alpha)/2) decays only polynomially,
so the grid is a symmetric composite of Gauss-Legendre panels: one linear
panel [0, inner] and geometrically log-spaced panels out to vmax, mirrored to
v < 0.  Beyond vmax a profile is continued by its `Tail`, a per-side
two-term power law c|v|^-q (1 + b v^-2), which also gives moments their
closed-form |v| > vmax part.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInput, TailDivergence

# points per Gauss-Legendre panel; fixed (panel count scales with n_nodes)
PANEL_PTS = 16

_XG, _WG = np.polynomial.legendre.leggauss(PANEL_PTS)


def _bary_weights(x: np.ndarray) -> np.ndarray:
    w = np.ones(len(x))
    for j in range(len(x)):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w


_BW = _bary_weights(_XG)


def _bary_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric terms w_j / (t - x_j) at panel coordinates t, and the exact node hits."""
    d = t[:, None] - _XG[None, :]
    exact = np.abs(d) < 1e-14
    return _BW[None, :] / np.where(exact, 1.0, d), exact


def _diff_matrix(x: np.ndarray, bw: np.ndarray) -> np.ndarray:
    n = len(x)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
        d[i, i] = -np.sum(d[i])
    return d


_DM = _diff_matrix(_XG, _BW)


def _cumulative_matrices(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C[i, :] integrates the interpolant from -1 to x_i; the row F integrates
    # over the full panel.  Vandermonde route is fine at 16 points.
    n = len(x)
    vand = np.vander(x, n, increasing=True)
    vinv = np.linalg.inv(vand)
    prim = np.empty((n, n))
    for k in range(n):
        prim[:, k] = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    full = np.array([2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(n)])
    return prim @ vinv, full @ vinv


_CM, _FR = _cumulative_matrices(_XG)


def eval_M(v, alpha: float):
    """Equilibrium density Z^-1 (1+v^2)^(-(1+alpha)/2), normalized on the line."""
    if not 1.0 <= alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside [1,2)")
    return (1.0 + np.asarray(v, dtype=float) ** 2) ** (-(1.0 + alpha) / 2.0) / norm_Z(alpha)


def norm_Z(alpha: float) -> float:
    """Normalization constant of (1+v^2)^(-(1+alpha)/2) on the line."""
    return math.sqrt(math.pi) * math.gamma(alpha / 2.0) / math.gamma((1.0 + alpha) / 2.0)


def tail_gamma(alpha: float) -> float:
    """Tail constant: |v|^(1+alpha) M(v) -> gamma."""
    return 1.0 / norm_Z(alpha)


class VelocityGrid:
    """Symmetric composite Gauss-Legendre quadrature on [-vmax, vmax].

    Attributes are read-only by convention; grids are shared freely.
    """

    def __init__(self, n_nodes: int, vmax: float, inner: float = 1.0):
        if n_nodes <= 0 or n_nodes % (2 * PANEL_PTS) != 0:
            raise InvalidInput(
                f"n_nodes={n_nodes} must be a positive multiple of {2 * PANEL_PTS}"
            )
        if vmax <= 0:
            raise InvalidInput(f"vmax={vmax} must be positive")
        if not 0 < inner < vmax:
            raise InvalidInput(f"inner={inner} must lie in (0, vmax)")
        half = n_nodes // 2
        K = half // PANEL_PTS
        if K < 2:
            raise InvalidInput("need at least two panels per side")
        self.n = n_nodes
        self.vmax = float(vmax)
        self.inner = float(inner)
        self.K = K
        # panel edges on the positive side: linear panel then geometric growth
        self.edges = np.concatenate(
            [[0.0], inner * (vmax / inner) ** (np.arange(K) / (K - 1))]
        )
        self.logpanel = [False] + [True] * (K - 1)
        nodes, wts = [], []
        for a, b, lp in zip(self.edges[:-1], self.edges[1:], self.logpanel):
            if not lp:
                c, h = (a + b) / 2, (b - a) / 2
                nodes.append(c + h * _XG)
                wts.append(h * _WG)
            else:
                ua, ub = np.log(a), np.log(b)
                c, h = (ua + ub) / 2, (ub - ua) / 2
                u = c + h * _XG
                nodes.append(np.exp(u))
                wts.append(h * _WG * np.exp(u))
        vp = np.concatenate(nodes)
        wp = np.concatenate(wts)
        self.nodes = np.concatenate([-vp[::-1], vp])
        self.weights = np.concatenate([wp[::-1], wp])
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    # -- panel helpers -----------------------------------------------------

    def _panel_coord(self, k: int, av: np.ndarray) -> np.ndarray:
        a, b = self.edges[k], self.edges[k + 1]
        if not self.logpanel[k]:
            return (av - (a + b) / 2) / ((b - a) / 2)
        la, lb = np.log(a), np.log(b)
        return (np.log(av) - (la + lb) / 2) / ((lb - la) / 2)

    def interp(self, values: np.ndarray, x) -> np.ndarray:
        """Barycentric interpolation of nodal values, power-law tails beyond vmax."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        neg = x < 0
        out = np.empty(len(x))
        n2 = self.n // 2
        fr = values[n2:]
        fl = values[:n2][::-1]  # left side as a function of |v|
        inside = ax <= self.vmax
        pidx = np.clip(np.searchsorted(self.edges, ax, side="right") - 1, 0, self.K - 1)
        for k in range(self.K):
            m = inside & (pidx == k)
            if not m.any():
                continue
            wd, exact = _bary_terms(self._panel_coord(k, ax[m]))
            sl = slice(k * PANEL_PTS, (k + 1) * PANEL_PTS)
            denom = wd.sum(axis=1)
            vr = (wd @ fr[sl]) / denom
            vl = (wd @ fl[sl]) / denom
            if exact.any():
                hit = exact.any(axis=1)
                idx = np.argmax(exact, axis=1)
                vr[hit] = fr[sl][idx[hit]]
                vl[hit] = fl[sl][idx[hit]]
            out[m] = np.where(neg[m], vl, vr)
        to = ~inside
        if to.any():
            out[to] = Tail(self, values)(x[to])
        return out[0] if scalar else out

    def interp_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric rows of points with |x| <= vmax.

        Returns (cols, coef), both of shape (len(x), PANEL_PTS), such that
        `interp(f, x)` equals sum(coef * f[cols], axis=1) up to roundoff:
        inside the grid, interpolation is linear in the nodal values f.  A
        point on a node gets a one-hot row.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        n2 = self.n // 2
        cols = np.empty((len(x), PANEL_PTS), dtype=np.intp)
        coef = np.empty((len(x), PANEL_PTS))
        pidx = np.clip(np.searchsorted(self.edges, ax, side="right") - 1, 0, self.K - 1)
        for k in range(self.K):
            m = pidx == k
            if not m.any():
                continue
            wd, exact = _bary_terms(self._panel_coord(k, ax[m]))
            c = wd / wd.sum(axis=1, keepdims=True)
            hit = exact.any(axis=1)
            c[hit] = exact[hit]
            coef[m] = c
            # panel k holds the nodes n2 + 16k + j (v > 0) and n2 - 1 - 16k - j (v < 0)
            j = k * PANEL_PTS + np.arange(PANEL_PTS)
            cols[m] = np.where(x[m, None] < 0, n2 - 1 - j, n2 + j)
        return cols, coef

    def deriv(self, values: np.ndarray) -> np.ndarray:
        """Per-panel spectral derivative d/dv of nodal values."""
        n2 = self.n // 2
        out = np.empty_like(values, dtype=float)
        fr = values[n2:]
        fl = values[:n2][::-1]
        for k in range(self.K):
            a, b = self.edges[k], self.edges[k + 1]
            sl = slice(k * PANEL_PTS, (k + 1) * PANEL_PTS)
            if not self.logpanel[k]:
                h = (b - a) / 2
                dr = _DM @ fr[sl] / h
                dl = _DM @ fl[sl] / h
            else:
                h = (np.log(b) - np.log(a)) / 2
                vv = self.nodes[n2:][sl]
                dr = (_DM @ fr[sl]) / (h * vv)
                dl = (_DM @ fl[sl]) / (h * vv)
            out[n2 + k * PANEL_PTS : n2 + (k + 1) * PANEL_PTS] = dr
            # left side: f(v) = fl(|v|), so df/dv = -fl'(|v|), reversed back
            out[n2 - (k + 1) * PANEL_PTS : n2 - k * PANEL_PTS] = (-dl)[::-1]
        return out

    def antideriv_pos(self, fpos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N(v) = int_0^v f on the positive side (nodal values, panel-edge cumsums)."""
        n2 = self.n // 2
        vals = np.empty(n2)
        edge = 0.0
        edge_cum = [0.0]
        for k in range(self.K):
            a, b = self.edges[k], self.edges[k + 1]
            sl = slice(k * PANEL_PTS, (k + 1) * PANEL_PTS)
            if not self.logpanel[k]:
                h = (b - a) / 2
                loc = _CM @ fpos[sl] * h
                tot = _FR @ fpos[sl] * h
            else:
                h = (np.log(b) - np.log(a)) / 2
                vv = self.nodes[n2:][sl]
                loc = _CM @ (fpos[sl] * vv) * h
                tot = _FR @ (fpos[sl] * vv) * h
            vals[sl] = edge + loc
            edge = edge + tot
            edge_cum.append(edge)
        return vals, np.array(edge_cum)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, VelocityGrid)
            and self.n == other.n
            and self.vmax == other.vmax
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.n, self.vmax, self.inner))

    def __repr__(self):
        return f"VelocityGrid(n={self.n}, vmax={self.vmax}, inner={self.inner})"


def build_grid(n_nodes: int, vmax: float) -> VelocityGrid:
    """Symmetric heavy-tail-aware grid whose linear inner panel is [0, 1]."""
    return VelocityGrid(n_nodes, vmax)


class VelocityProfile:
    """Values of a function of v on a VelocityGrid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: VelocityGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise InvalidInput(f"values shape {values.shape} != ({grid.n},)")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("profile contains non-finite entries")
        self.grid = grid
        self.values = values

    def _check(self, other: "VelocityProfile"):
        if self.grid is not other.grid and self.grid != other.grid:
            raise InvalidInput("profiles live on different grids")

    def __add__(self, other):
        self._check(other)
        return VelocityProfile(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return VelocityProfile(self.grid, self.values - other.values)

    def __mul__(self, c: float):
        return VelocityProfile(self.grid, self.values * c)

    __rmul__ = __mul__

    def __call__(self, x):
        return self.grid.interp(self.values, x)


def equilibrium_profile(grid: VelocityGrid, alpha: float) -> VelocityProfile:
    return VelocityProfile(grid, eval_M(grid.nodes, alpha))


# -- tail machinery --------------------------------------------------------


# largest log c whose exp(log c) is a finite float
_LOG_MAX = math.log(sys.float_info.max)


def _tail_fit3(vv: np.ndarray, pp: np.ndarray, side: str) -> tuple[float, float, float]:
    """Fit log p = log c - q log v + log(1 + b v^-2), linearized in (log c, q, b).

    Raises TailDivergence, naming the side, its nodes and its values, when
    c, q or b is not finite (three roundoff values can put log c past the
    float range).
    """
    sol = np.full(3, np.nan)
    if np.all(np.isfinite(pp)):
        A = np.column_stack([np.ones(3), -np.log(vv), vv ** -2.0])
        sol, *_ = np.linalg.lstsq(A, np.log(pp), rcond=None)
        if np.all(np.isfinite(sol)) and sol[0] <= _LOG_MAX:
            return math.exp(sol[0]), sol[1], sol[2]
    raise TailDivergence(
        f"{side} tail fit c|v|^-q (1 + b v^-2) is not finite: |v| = {vv.tolist()}, "
        f"|values| {pp.tolist()}, (log c, q, b) = {sol.tolist()}"
    )


class Tail:
    """Power-law continuation of a profile beyond +-vmax.

    Each side is s c |v|^-q (1 + b v^-2), fitted through that side's three
    outermost nodes and stored as (s c, q, b).  A side whose three values do
    not share a sign gets the zero tail; a fit that is not finite raises
    TailDivergence.
    """

    __slots__ = ("right", "left", "vmax")

    def __init__(self, grid: VelocityGrid, values: np.ndarray):
        self.vmax = grid.vmax
        self.right = Tail.fit(grid.nodes[-3:], values[-3:], "right")
        self.left = Tail.fit(-grid.nodes[:3][::-1], values[:3][::-1], "left")

    @staticmethod
    def fit(vv: np.ndarray, pp: np.ndarray, side: str) -> tuple[float, float, float]:
        """Signed (c, q, b) of pp ~ c v^-q (1 + b v^-2) at increasing v = vv."""
        s = np.sign(pp[-1])
        if s == 0 or np.any(s * pp <= 0):
            return 0.0, 2.0, 0.0
        c, q, b = _tail_fit3(vv, s * pp, side)
        return float(s) * c, q, b

    def __call__(self, x) -> np.ndarray:
        """Tail values at points x (meant for |x| > vmax)."""
        ax = np.abs(x)
        (cr, qr, br), (cl, ql, bl) = self.right, self.left
        right = cr * ax**-qr * (1 + br * ax**-2)
        left = cl * ax**-ql * (1 + bl * ax**-2)
        return np.where(np.asarray(x) < 0, left, right)

    def integral(self, p: float, start: float | None = None) -> tuple[float, float]:
        """Right and left integrals of the tail against |v|^p over |v| > start.

        `start` defaults to vmax.  Raises TailDivergence when a fitted q
        leaves the integral divergent (q <= p + 1).
        """
        a = self.vmax if start is None else start
        out = []
        for (c, q, b), side in ((self.right, "right"), (self.left, "left")):
            if c == 0.0:
                out.append(0.0)
            elif q <= p + 1.0 + 1e-9:
                raise TailDivergence(
                    f"{side} tail |v|^-{q:.6g} times |v|^{p:g} is not integrable"
                )
            else:
                out.append(
                    c * a ** (p + 1 - q) / (q - p - 1) + c * b * a ** (p - 1 - q) / (q - p + 1)
                )
        return out[0], out[1]


def moment(profile: VelocityProfile, weight, tail: bool = True) -> float:
    """Quadrature moment of a profile.

    `weight` is an integer p (weight v^p; p=0 gives the mass), a float p
    (weight |v|^p), or a callable of v (no tail correction in that case).
    The |v| > vmax part is the closed-form integral of the profile's `Tail`.
    """
    g = profile.grid
    if callable(weight):
        return float(np.sum(g.weights * weight(g.nodes) * profile.values))
    p = weight
    signed = isinstance(p, (int, np.integer))
    wv = g.nodes ** p if signed else np.abs(g.nodes) ** float(p)
    base = float(np.sum(g.weights * wv * profile.values))
    if not tail:
        return base
    right, left = Tail(g, profile.values).integral(float(p))
    if signed:
        # weight v^p with integer p: left side picks up (-1)^p
        left *= (-1.0) ** int(round(p))
    return base + (right + left)
