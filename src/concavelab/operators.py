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

from .domains import DiscretizedDomain
from .errors import MaxIterations, NoConvergence


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

    def to_grid(self) -> np.ndarray:
        """Full (ny, nx) array, 0 outside the interior (rows in order)."""
        g = np.zeros(self.dom.index_of.shape)
        g[self.dom.index_of >= 0] = self.values
        return g


def field_from_function(dom: DiscretizedDomain, fn, time=None) -> Field:
    p = dom.interior_points
    return Field(dom, np.asarray(fn(p[:, 0], p[:, 1]), dtype=float), time)


def bilinear_interp(dom: DiscretizedDomain, grid: np.ndarray, pts):
    """Bilinear interpolation of a full-grid array at points (...,2)."""
    p = np.asarray(pts, dtype=float)
    (kx, tx), (ky, ty) = (grid_cell(dom, a, p[..., a]) for a in (0, 1))
    return bilinear_corners(grid, kx + ky, bilinear_weights(tx, ty))


def grid_cell(dom: DiscretizedDomain, axis: int, u):
    """(k, t) of coordinates u along axis 0 (x) or 1 (y): the cell's
    lower grid line, clipped to the grid, as its term of the row-major
    flat index, and the offset from it, clipped to [0, 1]."""
    lines = dom.xs if axis == 0 else dom.ys
    f = (u - lines[0]) / dom.h
    i = np.clip(np.floor(f).astype(int), 0, lines.size - 2)
    return i * (1 if axis == 0 else dom.xs.size), np.clip(f - i, 0.0, 1.0)


def bilinear_weights(tx, ty):
    """Weights of the four corners of cells at offsets (tx, ty)."""
    return (1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty


def bilinear_corners(grid: np.ndarray, k, w):
    """Cells of flat lower-corner index k with corner weights w."""
    g, nx = grid.ravel(), grid.shape[1]
    return (w[0] * g.take(k) + w[1] * g[1:].take(k) + w[2] * g[nx:].take(k)
            + w[3] * g[nx + 1:].take(k))


#: node pairs per run of pair_scan: the temporaries of a run fit a
#: 2 MB L2 cache (chunks of 2^18 pairs ran the weight scan about 25%
#: slower)
_PAIR_CHUNK = 1 << 14

#: the lambdas of the audit, envelope and weight-defect scans: the 15
#: interior points of a 17-point grid on [0, 1] (read-only)
LAMBDAS = np.linspace(0.0, 1.0, 17)[1:-1]
LAMBDAS.flags.writeable = False


def pair_scan(v1, v3, lambdas, block):
    """Minimum of the concavity function mid_lam,s(i, j) - lam * v3[s,
    j] - (1 - lam) * v1[s, i] over the node pairs i < j, per slice s of
    the (S, n) value arrays v1, v3 and per lambda, as arrays (mins, i, j)
    of shape (S, lambdas): the minimum and the pair where it first occurs
    in row-major pair order.  block(idx1, idx3) gets each run of at most
    _PAIR_CHUNK consecutive pairs in that order (not whole rows) and
    yields, per lambda, the run's mid_lam,s(idx1, idx3) of each slice in
    turn.  As with np.argmin over a slice's unchunked scan, a (slice,
    lambda) whose values hold a NaN gets NaN and the first NaN's pair;
    with fewer than 2 nodes the minima are inf and the pairs -1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    mins = np.full((len(v1), lambdas.size), math.inf)
    best = np.full((2,) + mins.shape, -1)
    n = v1.shape[1]
    before = np.cumsum(np.arange(n, -1, -1)) - n  # pairs in the rows < i
    for p0 in range(0, before[-1], _PAIR_CHUNK):
        p = np.arange(p0, min(p0 + _PAIR_CHUNK, before[-1]))
        idx1 = np.searchsorted(before, p, "right") - 1
        idx3 = p - before[idx1] + idx1 + 1
        for k, (lm, ms) in enumerate(zip(lambdas, block(idx1, idx3))):
            l3, l1 = lm * v3, (1 - lm) * v1  # (lm * v3)[s, j] = lm * v3[s, j]
            for s, m in enumerate(ms):
                c = m - l3[s].take(idx3) - l1[s].take(idx1)
                a, cur = int(np.argmin(c)), mins[s, k]
                if c[a] < cur or (np.isnan(c[a]) and not np.isnan(cur)):
                    mins[s, k], best[:, s, k] = c[a], (idx1[a], idx3[a])
    return mins, best[0], best[1]


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
    h2, N, fr = dom.h * dom.h, dom.n_interior, dom.fractions
    rows, cols, vals = [np.arange(N)], [np.arange(N)], []
    # axis pairs: (E, W) are fraction columns (0, 1); (N, S) are (2, 3);
    # the E/W term enters the diagonal first
    diag = 0.0
    for a0, a1 in ((0, 1), (2, 3)):
        tp, tm = fr[:, a0], fr[:, a1]  # positive direction (E or N)
        diag = diag + 2.0 / (tp * tm * h2)
        for a, t in ((a0, tp), (a1, tm)):
            nb = dom.neighbours[:, a]
            keep = (nb >= 0) & (t == 1.0)
            rows.append(np.nonzero(keep)[0])
            cols.append(nb[keep])
            vals.append((-2.0 / (t * (tp + tm) * h2))[keep])
    A = dom._cache["neg_lap"] = sp.csr_matrix(
        (np.concatenate([diag] + vals),
         (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))
    return A


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def _solve(dom: DiscretizedDomain, b: np.ndarray, tau=None):
    """x with M x = b for M = -Lap_h (tau None) or I + tau*(-Lap_h)."""
    A = neg_laplacian_matrix(dom)
    if "lap_lu" not in dom._cache:  # diagonal pivots: perm_r is perm_c
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
        dom._cache["lap_lu"] = (lu, lu.perm_c, np.argsort(lu.perm_c))
    (lu, perm, r), M = dom._cache["lap_lu"], A
    if tau is not None:
        if dom._cache.get("shift_lu", (None,))[0] != tau:
            dom._cache.pop("shift_lu", None)  # free the last tau's LU first
            Mp = (sp.identity(len(r), format="csr") + tau * A)[r][:, r].tocsc()
            dom._cache["shift_lu"] = (tau, Mp, splu(
                Mp, permc_spec="NATURAL", diag_pivot_thresh=0))
        (_, M, lu), b = dom._cache["shift_lu"], b[r]
    y = lu.solve(b)
    res, bn = np.linalg.norm(M @ y - b), np.linalg.norm(b)
    if not res <= 1e-8 * bn:  # also when b holds a NaN or an inf
        raise MaxIterations(f"direct solve residual {res / bn:.3g} is not "
                            f"within 1e-8")
    return y if tau is None else y[perm]


def solve_shifted_poisson(dom: DiscretizedDomain, tau: float,
                          b: np.ndarray) -> np.ndarray:
    """Node values u with (I + tau*(-Lap_h)) u = b, for float node values
    b, on one LU per tau.

    I + tau*(-Lap_h), permuted by poisson_solve's order r in its rows
    and columns (Mp), is factored NATURAL with diagonal pivots, and x[r]
    = y for Mp y = b[r]; the domain keeps the last tau's (tau, Mp, LU):
    a trajectory takes the steps of each size in one run.  The relative
    residual is checked a posteriori against 1e-8.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _solve(dom, b, tau)


def poisson_solve(dom: DiscretizedDomain, rhs_values: np.ndarray):
    """Solve (-Lap_h) u = rhs on the domain's one LU, with the same residual
    check: symmetric minimum-degree order r, which every shifted LU reuses,
    and diagonal pivots (enough for diagonally dominant M-matrices)."""
    return _solve(dom, np.asarray(rhs_values, dtype=float))


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
    if "eigenpair" in dom._cache:
        return dom._cache["eigenpair"]
    A, v, lam_old = neg_laplacian_matrix(dom), np.ones(dom.n_interior), np.inf
    for _ in range(500):
        v = poisson_solve(dom, v)
        v /= np.linalg.norm(v)
        Av = A @ v
        lam = float(v @ Av) / float(v @ v)
        resid = np.max(np.abs(Av - lam * v)) / np.max(np.abs(v))
        if abs(lam - lam_old) <= 1e-10 and resid <= 1e-9 * lam:
            break
        lam_old = lam
    else:
        raise NoConvergence("inverse power iteration exceeded 500 iterations")
    v = (-v if v.sum() < 0 else v) / np.max(np.abs(v))
    pair = dom._cache["eigenpair"] = EigenPair(lam=lam, phi=Field(dom, v))
    return pair
