"""Discrete Laplacian with Dirichlet boundary on masked uniform grids.

Plain 5-point stencil away from the boundary, embedded-boundary
(cut-cell) stencil next to it, shifted-Poisson solves and the principal
Dirichlet eigenpair via inverse power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .domains import _DIRS, DiscretizedDomain
from .errors import MaxIterations, NoConvergence

INF_TIME = math.inf


@dataclass
class Field:
    """Scalar field over the interior nodes of a discretized domain.

    Values on and outside the boundary are identically 0 by the
    Dirichlet convention.  The time stamp may be a finite time,
    math.inf (stationary slice) or None (timeless).
    """

    dom: DiscretizedDomain
    values: np.ndarray
    time: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dom.n_interior,):
            raise ValueError("field length must match interior node count")

    def to_grid(self, fill=0.0) -> np.ndarray:
        """Full (ny, nx) array with `fill` outside the interior."""
        g = np.full(self.dom.index_of.shape, fill, dtype=float)
        iy, ix = self.dom.interior_idx[:, 0], self.dom.interior_idx[:, 1]
        g[iy, ix] = self.values
        return g

    def interp(self, pts) -> np.ndarray:
        """Bilinear interpolation at points (...,2), zero Dirichlet
        values used at non-interior grid nodes."""
        return bilinear_interp(self.dom, self.to_grid(), pts)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def field_from_function(dom: DiscretizedDomain, fn, time=None) -> Field:
    p = dom.interior_points
    return Field(dom, np.asarray(fn(p[:, 0], p[:, 1]), dtype=float), time)


def bilinear_interp(dom: DiscretizedDomain, grid: np.ndarray, pts):
    """Bilinear interpolation of a full-grid array at points (...,2)."""
    p = np.asarray(pts, dtype=float)
    scalar = p.ndim == 1
    p = np.atleast_2d(p)
    h = dom.h
    fx = (p[..., 0] - dom.xs[0]) / h
    fy = (p[..., 1] - dom.ys[0]) / h
    ix = np.clip(np.floor(fx).astype(int), 0, dom.xs.size - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, dom.ys.size - 2)
    tx = np.clip(fx - ix, 0.0, 1.0)
    ty = np.clip(fy - iy, 0.0, 1.0)
    v = ((1 - tx) * (1 - ty) * grid[iy, ix]
         + tx * (1 - ty) * grid[iy, ix + 1]
         + (1 - tx) * ty * grid[iy + 1, ix]
         + tx * ty * grid[iy + 1, ix + 1])
    return float(v[0]) if scalar else v


#: node pairs per chunk of pair_scan: the temporaries of a chunk fit a
#: 2 MB L2 cache (chunks of 2^18 pairs ran the weight scan about 25%
#: slower)
_PAIR_CHUNK = 1 << 14


def pair_scan(pts, v1, v3, lambdas, mid):
    """Per-lambda minimum of the concavity function

        mid(x2, lam) - lam * v3[j] - (1 - lam) * v1[i],
        x2 = lam * pts[j] + (1 - lam) * pts[i],

    over the node pairs i < j, as arrays (mins, i, j) over `lambdas`:
    the minimum and the pair where it first occurs in row-major pair
    order.  The pairs are gathered in row blocks of at most _PAIR_CHUNK
    pairs (at least one row), once for all lambdas.  As with np.argmin
    over the unchunked scan, a lambda whose values hold a NaN gets NaN
    and the first NaN's pair; with fewer than 2 nodes the minima are
    inf and the pairs -1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    mins = np.full(lambdas.size, math.inf)
    best_i = np.full(lambdas.size, -1)
    best_j = np.full(lambdas.size, -1)
    n = len(pts)
    before = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i0 = 0
    while i0 < n - 1:  # rows i0..i1-1 hold at most _PAIR_CHUNK pairs
        i1 = max(i0 + 1, int(np.searchsorted(
            before, before[i0] + _PAIR_CHUNK, "right")) - 1)
        idx1, idx3 = np.nonzero(np.arange(n) > np.arange(i0, i1)[:, None])
        idx1 += i0
        p1, p3, w1, w3 = pts[idx1], pts[idx3], v1[idx1], v3[idx3]
        for k, lm in enumerate(lambdas):
            c = mid(lm * p3 + (1 - lm) * p1, lm) - lm * w3 - (1 - lm) * w1
            a = int(np.argmin(c))
            if c[a] < mins[k] or (np.isnan(c[a]) and not np.isnan(mins[k])):
                mins[k], best_i[k], best_j[k] = c[a], idx1[a], idx3[a]
        i0 = i1
    return mins, best_i, best_j


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def neg_laplacian_matrix(dom: DiscretizedDomain) -> sp.csr_matrix:
    """Sparse matrix of -Laplacian on interior nodes (Dirichlet 0 outside).

    Full-interior nodes get the 5-point stencil; nodes with a cut
    neighbor get the nonuniform 3-point formula per axis
    u'' ~ 2[u_E/(tE(tE+tW)) + u_W/(tW(tE+tW)) - u_C/(tE tW)]/h^2
    with the boundary value 0, which is exact on per-axis quadratics.
    """
    if "neg_lap" in dom._cache:
        return dom._cache["neg_lap"]
    h2 = dom.h * dom.h
    N = dom.n_interior
    fr = dom.fractions
    iy, ix = dom.interior_idx[:, 0], dom.interior_idx[:, 1]
    idx = np.pad(dom.index_of, 1, constant_values=-1)
    rows, cols, vals = [np.arange(N)], [np.arange(N)], []
    # axis pairs: (E, W) are fraction columns (0, 1); (N, S) are (2, 3);
    # the E/W term enters the diagonal first
    diag = 0.0
    for a0, a1 in ((0, 1), (2, 3)):
        tp, tm = fr[:, a0], fr[:, a1]  # positive direction (E or N)
        diag = diag + 2.0 / (tp * tm * h2)
        for a, t in ((a0, tp), (a1, tm)):
            diy, dix = _DIRS[a]
            nb = idx[iy + 1 + diy, ix + 1 + dix]
            keep = (nb >= 0) & (t == 1.0)
            rows.append(np.nonzero(keep)[0])
            cols.append(nb[keep])
            vals.append((-2.0 / (t * (tp + tm) * h2))[keep])
    A = sp.csr_matrix((np.concatenate([diag] + vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    dom._cache["neg_lap"] = A.tocsr()
    return dom._cache["neg_lap"]


def apply_laplacian(f: Field) -> Field:
    """Discrete Laplacian of a field (Dirichlet 0 boundary)."""
    A = neg_laplacian_matrix(f.dom)
    return Field(f.dom, -(A @ f.values), f.time)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def solve_shifted_poisson(tau: float, rhs: Field,
                          diag_shift=None) -> Field:
    """Solve (I + tau*(-Lap_h) + diag_shift) u = rhs by sparse LU.

    The cut-cell stencils are nonsymmetric, so one direct path serves
    every grid; the relative residual is checked a posteriori against
    1e-8.  Without a shift the domain keeps (tau, M, LU) for the last
    tau only: a trajectory uses one step size per snapshot interval.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    dom = rhs.dom
    A = neg_laplacian_matrix(dom)
    N = dom.n_interior
    b = rhs.values
    if diag_shift is not None:
        M = sp.identity(N, format="csc") + tau * A + sp.diags(diag_shift)
        lu = splu(M.tocsc())
    else:
        cached = dom._cache.get("shift_lu")
        if cached is None or cached[0] != tau:
            M = sp.identity(N, format="csc") + tau * A
            cached = dom._cache["shift_lu"] = (tau, M, splu(M.tocsc()))
        _, M, lu = cached
    x = lu.solve(b)
    res = np.linalg.norm(M @ x - b)
    bn = np.linalg.norm(b)
    if bn > 0 and res > 1e-8 * bn:
        raise MaxIterations("direct solve residual above tolerance",
                            residual=res / bn)
    return Field(dom, x, rhs.time)


def poisson_solve(dom: DiscretizedDomain, rhs_values: np.ndarray):
    """Solve (-Lap_h) u = rhs (pure elliptic, no shift)."""
    key = "lap_lu"
    if key not in dom._cache:
        dom._cache[key] = splu(neg_laplacian_matrix(dom).tocsc())
    return dom._cache[key].solve(np.asarray(rhs_values, dtype=float))


# ---------------------------------------------------------------------------
# principal eigenpair
# ---------------------------------------------------------------------------

@dataclass
class EigenPair:
    lam: float
    phi: Field


def principal_eigenpair(dom: DiscretizedDomain) -> EigenPair:
    """Principal Dirichlet eigenpair of -Lap_h by inverse power iteration.

    Normalized to phi > 0 with sup norm 1; iterates until the Rayleigh
    quotient changes by at most 1e-10.
    """
    if dom.n_interior < 4:
        raise ValueError("need at least 4 interior nodes")
    key = "eigenpair"
    if key in dom._cache:
        return dom._cache[key]
    A = neg_laplacian_matrix(dom)
    v = np.ones(dom.n_interior)
    lam_old = np.inf
    for _ in range(500):
        w = poisson_solve(dom, v)
        w /= np.linalg.norm(w)
        Aw = A @ w
        lam = float(w @ Aw) / float(w @ w)
        resid = np.max(np.abs(Aw - lam * w)) / np.max(np.abs(w))
        if abs(lam - lam_old) <= 1e-10 and resid <= 1e-9 * lam:
            v = w
            break
        lam_old = lam
        v = w
    else:
        raise NoConvergence("inverse power iteration exceeded 500 iterations")
    if v.sum() < 0:
        v = -v
    v = v / np.max(np.abs(v))
    pair = EigenPair(lam=lam, phi=Field(dom, v))
    dom._cache[key] = pair
    return pair
