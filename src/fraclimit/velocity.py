"""Heavy-tail-aware quadrature on the velocity line.

The equilibrium M(v) = Z^-1 (1+v^2)^(-(1+alpha)/2) decays only polynomially,
so the grid is a symmetric composite of Gauss-Legendre panels: one linear
panel [0, 1] and geometrically log-spaced panels from 1 out to vmax,
mirrored to v < 0.  Beyond vmax a profile is continued by its `Tail`, a
per-side two-term power law c|v|^-q (1 + b v^-2), which also gives the
moments v^p their closed-form |v| > vmax part.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInput, TailDivergence

# points per Gauss-Legendre panel; fixed (panel count scales with n_nodes)
PANEL_PTS = 16

_XG, _WG = np.polynomial.legendre.leggauss(PANEL_PTS)
_LAG_Z, _LAG_W = np.polynomial.laguerre.laggauss(64)


def _bary_weights(x: np.ndarray) -> np.ndarray:
    w = np.ones(len(x))
    for j in range(len(x)):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w


_BW = _bary_weights(_XG)


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


def eval_M(v, alpha: float):
    """Equilibrium density Z^-1 (1+v^2)^(-(1+alpha)/2), normalized on the line."""
    if not 1.0 <= alpha < 2.0:
        raise InvalidInput(f"alpha={alpha} outside [1,2)")
    return (1.0 + np.asarray(v, dtype=float) ** 2) ** (-(1.0 + alpha) / 2.0) / norm_Z(alpha)


def norm_Z(alpha: float) -> float:
    """Normalization constant of (1+v^2)^(-(1+alpha)/2) on the line."""
    return math.sqrt(math.pi) * math.gamma(alpha / 2.0) / math.gamma((1.0 + alpha) / 2.0)


def _log_panels(edges: np.ndarray):
    """Gauss-Legendre panels in s = log v between consecutive `edges`.

    Returns the panels' mid and half in s, and their nodes v with the
    Jacobian dv/dt = half * v of the map t -> s = mid + half t.
    """
    ls = np.log(edges)
    mid, half = (ls[:-1] + ls[1:]) / 2, (ls[1:] - ls[:-1]) / 2
    v = np.exp(mid[:, None] + half[:, None] * _XG).ravel()
    return mid, half, v, np.repeat(half, PANEL_PTS) * v


class VelocityGrid:
    """Symmetric composite Gauss-Legendre quadrature on [-vmax, vmax].

    Attributes are read-only by convention; grids are shared freely.
    """

    def __init__(self, n_nodes: int, vmax: float):
        if n_nodes <= 0 or n_nodes % (2 * PANEL_PTS) != 0:
            raise InvalidInput(
                f"n_nodes={n_nodes} must be a positive multiple of {2 * PANEL_PTS}"
            )
        if not 1.0 < vmax < math.inf:
            raise InvalidInput(f"vmax={vmax} must be finite and exceed 1, the inner panel's edge")
        K = n_nodes // (2 * PANEL_PTS)
        if K < 2:
            raise InvalidInput("need at least two panels per side")
        self.n = n_nodes
        self.vmax = float(vmax)
        self.K = K
        # panel edges on the positive side: linear panel [0, 1] then geometric growth
        self.edges = np.concatenate([[0.0], vmax ** (np.arange(K) / (K - 1))])
        # panel k maps t in [-1, 1] to s = mid_k + half_k t, with s = v on the
        # linear panel 0 and s = log v on the others; jac = dv/dt at each
        # positive node
        mid, half, vlog, jlog = _log_panels(self.edges[1:])
        h0 = 0.5
        self.mid = np.concatenate([[h0], mid])
        self.half = np.concatenate([[h0], half])
        vp = np.concatenate([h0 + h0 * _XG, vlog])
        self.jac = np.concatenate([np.full(PANEL_PTS, h0), jlog])
        wp = np.tile(_WG, K) * self.jac
        self.nodes = np.concatenate([-vp[::-1], vp])
        self.weights = np.concatenate([wp[::-1], wp])
        for a in (self.mid, self.half, self.jac, self.nodes, self.weights):
            a.setflags(write=False)

    def interp(self, values: np.ndarray, x) -> np.ndarray:
        """Barycentric interpolation of nodal values, power-law tails beyond vmax."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = np.abs(x) <= self.vmax
        out = np.empty(len(x))
        cols, coef = self.interp_rows(x[inside])
        out[inside] = np.sum(coef * values[cols], axis=0)
        if not inside.all():
            out[~inside] = Tail(self, values)(x[~inside])
        return out[0] if scalar else out

    def interp_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric rows of points with |x| <= vmax, node-major.

        Returns (cols, coef), both of shape (PANEL_PTS, len(x)), such that
        `interp(f, x)` equals sum(coef * f[cols], axis=0): inside the grid,
        interpolation is linear in the nodal values f.  A point on a node
        gets a one-hot column.  Node-major, each of the PANEL_PTS passes of
        the barycentric formula runs over one contiguous row.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        k = np.clip(np.searchsorted(self.edges, ax, side="right") - 1, 0, self.K - 1)
        # s on the panel map of __init__ (the log is taken only where k > 0)
        s = np.log(ax, out=ax.copy(), where=k > 0)
        t = (s - self.mid[k]) / self.half[k]
        d = t - _XG[:, None]
        hit = np.abs(d).min(axis=0) < 1e-14
        d[:, hit] = 1.0
        coef = np.divide(_BW[:, None], d, out=d)
        coef /= coef.sum(axis=0)
        coef[:, hit] = np.abs(t[hit] - _XG[:, None]) < 1e-14
        # panel k holds the nodes n2 + 16k + j (v > 0) and n2 - 1 - 16k - j (v < 0)
        n2 = self.n // 2
        neg = x < 0
        cols = np.multiply.outer(np.arange(PANEL_PTS), np.where(neg, -1, 1))
        cols += np.where(neg, n2 - 1 - PANEL_PTS * k, n2 + PANEL_PTS * k)
        return cols, coef

    def deriv(self, values: np.ndarray) -> np.ndarray:
        """Per-panel spectral derivative d/dv of nodal values."""
        n2 = self.n // 2
        # both sides as functions of |v|; on the left df/dv = -d f(|v|)/d|v|
        sides = np.stack([values[n2:], values[n2 - 1 :: -1]]).reshape(2, self.K, PANEL_PTS)
        d = (sides @ _DM.T).reshape(2, n2) / self.jac
        return np.concatenate([-d[1, ::-1], d[0]])

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, VelocityGrid) and (self.n, self.vmax) == (other.n, other.vmax))

    def __repr__(self):
        return f"VelocityGrid(n={self.n}, vmax={self.vmax})"


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

    def __call__(self, x):
        return self.grid.interp(self.values, x)


# -- tail machinery --------------------------------------------------------


# largest log c whose exp(log c) is a finite float
_LOG_MAX = math.log(sys.float_info.max)


def _tail_fit3(vv: np.ndarray, pp: np.ndarray, side: str) -> tuple[float, float, float]:
    """Fit log p = log c - q log v + b v^-2 (log(1 + b v^-2) linearized), on Python floats:
    rows 1 - 0 and 2 - 1 give a 2 x 2 system in (q, b), solved by Cramer's rule,
    and row 2 gives log c.  Raises TailDivergence, naming the side, its nodes and
    its values, when one is not positive and finite, the system is singular
    (det = 0) or c, q or b is not finite (three roundoff values can put log c
    past the float range)."""
    sol = [math.nan] * 3
    v, p = vv.tolist(), pp.tolist()
    if all(0.0 < x < math.inf for x in v + p):
        lv, lp, u = [math.log(x) for x in v], [math.log(x) for x in p], [1.0 / x / x for x in v]
        a11, a12, r1 = lv[0] - lv[1], u[1] - u[0], lp[1] - lp[0]
        a21, a22, r2 = lv[1] - lv[2], u[2] - u[1], lp[2] - lp[1]
        det = a11 * a22 - a12 * a21
        if det != 0.0:
            q, b = (r1 * a22 - a12 * r2) / det, (a11 * r2 - r1 * a21) / det
            sol = [lp[2] + q * lv[2] - b * u[2], q, b]
        if all(map(math.isfinite, sol)) and sol[0] <= _LOG_MAX:
            return math.exp(sol[0]), sol[1], sol[2]
    raise TailDivergence(
        f"{side} tail fit c|v|^-q (1 + b v^-2) is not finite: |v| = {v}, "
        f"|values| {p}, (log c, q, b) = {sol}"
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
        s = float(np.sign(pp[-1]))
        if s == 0 or any(s * x <= 0 for x in pp.tolist()):
            return 0.0, 2.0, 0.0
        c, q, b = _tail_fit3(vv, s * pp, side)
        return s * c, q, b

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


def moment(profile: VelocityProfile, p: int) -> float:
    """Tail-corrected moment of a profile against v^p for an integer p >= 0
    (p = 0 gives the mass); any other p is refused.  The |v| > vmax part is
    the closed-form integral of the profile's `Tail`.
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise InvalidInput(f"moment order p={p!r} must be a non-negative integer")
    g = profile.grid
    base = float(np.sum(g.weights * g.nodes ** p * profile.values))
    right, left = Tail(g, profile.values).integral(float(p))
    # weight v^p: the left side picks up (-1)^p
    return base + (right + left * (-1.0) ** p)
