"""Concavity audit machinery.

Concavity function      C_v  = v(x2,t2) - lam v(x3,t3) - (1-lam) v(x1,t1)
Spatial version         C*_v = same with one fixed time
Harmonic concavity      HC_g = g2 - g1 g3 / (lam g1 + (1-lam) g3)

with x2 = lam x3 + (1-lam) x1 and t2 = lam t3 + (1-lam) t1.  Provides
two-stage defect minimization over tuple samples, a quasiconcavity
(superlevel-set) check and discretization tolerances.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domains import DiscretizedDomain
from .errors import EmptySampler, OutOfDomain
from .operators import (Field, bilinear_corners, bilinear_interp, grid_cell,
                        lattice_block, pair_scan)
from .parabolic import Trajectory

INF = math.inf
#: sentinel returned by harmonic_concavity_value outside its domain
OUTSIDE_DOMAIN = "outside-domain"


@dataclass(frozen=True)
class Tuple5:
    x1: tuple
    x3: tuple
    t1: float
    t3: float
    lam: float

    @property
    def x2(self):
        l = self.lam
        return (l * self.x3[0] + (1 - l) * self.x1[0],
                l * self.x3[1] + (1 - l) * self.x1[1])

    @property
    def t2(self):
        if math.isinf(self.t1) and math.isinf(self.t3):
            return INF
        return self.lam * self.t3 + (1 - self.lam) * self.t1


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

#: floor under u before the log transform (alpha = 0)
_POSITIVITY_FLOOR = 1e-300


class Evaluator:
    """Evaluator of u^alpha(x, t^beta) (log u for alpha = 0) over a
    trajectory: bilinear in space, linear in time between snapshots,
    the stationary slice at t = inf.

    Interpolation happens on u *before* the power/log transformation.
    value, interp and pair_block use the full grid of u, kept for the
    last time asked for; point_value reads the corners of one cell.
    """

    def __init__(self, traj: Trajectory, alpha: float = 1.0,
                 beta: float = 1.0):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (1.0 <= beta <= 2.0):
            raise ValueError("beta must lie in [1, 2]")
        self.traj = traj
        self.dom = traj.dom
        self.alpha = alpha
        self.beta = beta
        self._grid_time = self._grid = None
        self._times = traj.times.tolist()
        self._x0, self._y0 = float(traj.dom.xs[0]), float(traj.dom.ys[0])

    def _transform(self, u):
        if self.alpha == 0.0:
            return np.log(np.maximum(u, _POSITIVITY_FLOOR))
        if self.alpha == 1.0:
            return u
        return np.maximum(u, 0.0) ** self.alpha

    def _u_time(self, t: float) -> float:
        return t if math.isinf(t) else t ** self.beta

    def grid(self, t: float = 0.0) -> np.ndarray:
        """Full grid of u, before the transform, at time t."""
        s = self._u_time(t)
        if s != self._grid_time:
            self._grid = Field(self.dom,
                               self.traj.values_at_time(s)).to_grid()
            self._grid_time = s
        return self._grid

    def interp(self, pts, t: float = 0.0):
        """u, before the transform, at points (..., 2) and time t."""
        return bilinear_interp(self.dom, self.grid(t), pts)

    def value(self, pts, t: float = 0.0):
        return self._transform(self.interp(pts, t))

    def pair_block(self, pts, lambdas, ta: float = 0.0, tb: float = 0.0):
        """pair_scan block of value at x2 = lam * pts[j] + (1 - lam) *
        pts[i], t2 = lam * tb + (1 - lam) * ta (inf for ta = inf), bit
        for bit, with the cells of x2 from lattice_block tables."""
        def mid(lm, kx, tx, ky, ty):
            t2 = INF if math.isinf(ta) else lm * tb + (1 - lm) * ta
            return self._transform(
                bilinear_corners(self.grid(t2), kx + ky, tx, ty))
        return lattice_block(pts, lambdas,
                             functools.partial(grid_cell, self.dom), mid)

    def point_value(self, x: float, y: float, t: float = 0.0) -> float:
        """value((x, y), t) bit for bit, from the four corner nodes of
        the cell of (x, y) alone: the expressions of
        Trajectory.values_at_time and bilinear_interp in plain floats,
        with no grid."""
        dom, times, s = self.dom, self._times, self._u_time(t)
        if math.isinf(s) or s <= times[0] or s >= times[-1]:
            f0, f1, w = self.traj.values_at_time(s), None, 0.0
        else:
            k = bisect.bisect_right(times, s) - 1
            f0, f1 = self.traj.fields[k:k + 2]
            w = (s - times[k]) / (times[k + 1] - times[k])
        fx = (float(x) - self._x0) / dom.h
        fy = (float(y) - self._y0) / dom.h
        ix = min(max(math.floor(fx), 0), dom.xs.size - 2)
        iy = min(max(math.floor(fy), 0), dom.ys.size - 2)
        # np.clip's result, NaN and -0.0 included
        tx = min(max(fx - ix, 0.0), 1.0)
        ty = min(max(fy - iy, 0.0), 1.0)
        g = []
        for jy, jx in ((iy, ix), (iy, ix + 1), (iy + 1, ix),
                       (iy + 1, ix + 1)):
            n = dom.index_of.item(jy, jx)
            g.append(0.0 if n < 0 else f0.item(n) if f1 is None
                     else (1 - w) * f0.item(n) + w * f1.item(n))
        u = ((1 - tx) * (1 - ty) * g[0] + tx * (1 - ty) * g[1]
             + (1 - tx) * ty * g[2] + tx * ty * g[3])
        return float(self._transform(u))

    def node_values(self, t: float = 0.0) -> np.ndarray:
        """Transformed values exactly at interior nodes."""
        return self._transform(self.traj.values_at_time(self._u_time(t)))


def FieldEvaluator(f: Field, alpha: float = 1.0) -> Evaluator:
    """Evaluator of f^alpha (log f for alpha = 0) for space-mode audits:
    f as a one-snapshot trajectory at t = 0."""
    return Evaluator(Trajectory(dom=f.dom, times=np.zeros(1),
                                fields=[f.values]), alpha)


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def _check_inside(dom: DiscretizedDomain, p):
    x, y = p
    if not (dom.xs[0] - 1e-12 <= x <= dom.xs[-1] + 1e-12
            and dom.ys[0] - 1e-12 <= y <= dom.ys[-1] + 1e-12):
        raise OutOfDomain(f"point {p} outside the grid bounding box")


def concavity_value(ev, tup: Tuple5) -> float:
    """C at a single tuple (times equal => the spatial version C*)."""
    for p in (tup.x1, tup.x3, tup.x2):
        _check_inside(ev.dom, p)
    v1 = ev.point_value(*tup.x1, tup.t1)
    v3 = ev.point_value(*tup.x3, tup.t3)
    v2 = ev.point_value(*tup.x2, tup.t2)
    return v2 - tup.lam * v3 - (1 - tup.lam) * v1


def harmonic_concavity_value(g, tup: Tuple5):
    """HC at a tuple; returns OUTSIDE_DOMAIN when the harmonic
    combination is undefined (denominator <= 0 with g1, g3 not both 0)."""
    g1 = g.point_value(*tup.x1, tup.t1)
    g3 = g.point_value(*tup.x3, tup.t3)
    g2 = g.point_value(*tup.x2, tup.t2)
    return harmonic_combination(g1, g2, g3, tup.lam)


def harmonic_combination(g1, g2, g3, lam):
    denom = lam * g1 + (1 - lam) * g3
    if denom > 0:
        return g2 - g1 * g3 / denom
    if g1 == 0 and g3 == 0:
        return g2
    return OUTSIDE_DOMAIN


# ---------------------------------------------------------------------------
# defect minimization
# ---------------------------------------------------------------------------

@dataclass
class SamplerConfig:
    """Scan configuration for min_defect.

    lambdas is the stage-1 lambda grid (its interior points are
    scanned); audit_times are tuple-endpoint times (default: a subset of
    the snapshot times, plus inf when a stationary slice exists and
    include_infinity is set).
    """

    lambdas: np.ndarray = dc_field(
        default_factory=lambda: np.linspace(0.0, 1.0, 17))
    audit_times: list | None = None
    include_infinity: bool = True


@dataclass
class DefectReport:
    mode: str
    minimum: float
    argmin: Tuple5 | None
    gradients: list
    gradient_spread: float
    tau_audit: float
    samples: int

    def to_json(self) -> str:
        arg = None
        if self.argmin is not None:
            def _t(t):
                return "inf" if math.isinf(t) else t
            arg = {"x1": list(self.argmin.x1), "x3": list(self.argmin.x3),
                   "t1": _t(self.argmin.t1), "t3": _t(self.argmin.t3),
                   "lambda": self.argmin.lam}
        return json.dumps({"mode": self.mode, "min": self.minimum,
                           "argmin": arg,
                           "gradients": [list(g) for g in self.gradients],
                           "gradient_spread": self.gradient_spread,
                           "tau_audit": self.tau_audit,
                           "samples": self.samples}, sort_keys=True)


def _second_difference_scale(ev, times) -> float:
    """Max undivided second difference of the transformed field over the
    audited slices, both axes (h^2 * |discrete second derivative|), at
    the nodes whose two neighbours on the axis are interior."""
    nb = ev.dom.neighbours
    worst = 0.0
    for t in times:
        v = ev.node_values(t)
        for lo, hi in ((1, 0), (3, 2)):  # (W, E) and (S, N)
            k = np.flatnonzero((nb[:, lo] >= 0) & (nb[:, hi] >= 0))
            d2 = v[nb[k, lo]] - 2 * v[k] + v[nb[k, hi]]
            finite = np.isfinite(d2)
            if finite.any():
                worst = max(worst, float(np.max(np.abs(d2[finite]))))
    return worst


def tau_audit_value(ev, times, c_tol: float = 10.0) -> float:
    return c_tol * _second_difference_scale(ev, times)


def _default_times(ev, cfg):
    if cfg.audit_times is not None:
        return list(cfg.audit_times)
    snaps = ev.traj.times
    # tuple-endpoint times sit exactly on snapshots (tau = s^{1/beta})
    pick = np.unique(np.round(
        np.linspace(0, len(snaps) - 1, 7)).astype(int))
    times = [float(snaps[k]) ** (1.0 / ev.beta) for k in pick]
    if cfg.include_infinity and ev.traj.stationary is not None \
            and ev.traj.monotone:
        times.append(INF)
    return times


#: interior nodes the stage-1 and quasiconcavity pair scans subsample
_SCAN_NODES = 240
#: stage-1 minima that stage 2 refines
_REFINE_CANDIDATES = 32
def _scan_nodes(dom: DiscretizedDomain, max_nodes: int) -> np.ndarray:
    """Interior nodes on every k-th row and column of the grid, with the
    stride k = ceil(sqrt(N / max_nodes)) (all nodes when N <= max_nodes).
    Striding the 2-D index lattice, not the flat node list, keeps the
    subsample spatially uniform."""
    stride = max(1, int(math.ceil(math.sqrt(dom.n_interior / max_nodes))))
    iy, ix = dom.interior_idx[:, 0], dom.interior_idx[:, 1]
    return np.nonzero((iy % stride == 0) & (ix % stride == 0))[0]


def min_defect(ev, mode: str, cfg: SamplerConfig | None = None,
               c_tol: float = 10.0) -> DefectReport:
    """Two-stage minimization of the concavity function.

    Stage 1: exhaustive pair_scan over lattice-strided interior-node
    pairs and the lambda grid, once per snapshot-time pair (space mode:
    each audited time separately).  Stage 2: coordinate-descent
    refinement on the full grid with golden-section in lambda around
    the best candidates.
    """
    if mode not in ("space", "spacetime"):
        raise ValueError("mode must be 'space' or 'spacetime'")
    cfg = cfg or SamplerConfig()
    dom = ev.dom
    sel = _scan_nodes(dom, _SCAN_NODES)
    if sel.size == 0 or len(cfg.lambdas) == 0:
        raise EmptySampler("sampler produced no tuples")
    times = _default_times(ev, cfg)
    if len(times) == 0:
        raise EmptySampler("no audit times")
    pts = dom.interior_points[sel]
    n = len(pts)

    if mode == "space":
        tpairs = [(t, t) for t in times]
    else:
        finite = [t for t in times if not math.isinf(t)]
        tpairs = [(a, b) for a in finite for b in finite]
        if any(math.isinf(t) for t in times):
            tpairs.append((INF, INF))

    nodes_at = functools.lru_cache(maxsize=None)(ev.node_values)

    best = []  # (value, i1, i3, t1, t3, lam)
    samples = 0
    lam_grid = np.asarray(cfg.lambdas, dtype=float)
    inner = lam_grid[(lam_grid > 0) & (lam_grid < 1)]
    for (ta, tb) in tpairs:
        mins, i1, i3 = pair_scan(nodes_at(ta)[sel], nodes_at(tb)[sel],
                                 inner, ev.pair_block(pts, inner, ta, tb))
        samples += n * (n - 1) // 2 * inner.size
        best += [(float(c), sel[a], sel[b], ta, tb, float(lm))
                 for c, a, b, lm in zip(mins, i1, i3, inner)]
    best = [r for r in best if math.isfinite(r[0])]
    if not best:
        raise EmptySampler("no finite concavity values in the scan")
    best.sort(key=lambda r: r[0])
    cands = best[:_REFINE_CANDIDATES]

    finite_times = sorted(t for t in times if not math.isinf(t))
    full_pts = dom.interior_points
    px, py = full_pts[:, 0].tolist(), full_pts[:, 1].tolist()

    def tuple_value(a, b, ta, tb, lm):
        t2 = INF if math.isinf(ta) else lm * tb + (1 - lm) * ta
        return (ev.point_value(lm * px[b] + (1 - lm) * px[a],
                               lm * py[b] + (1 - lm) * py[a], t2)
                - lm * float(nodes_at(tb)[b])
                - (1 - lm) * float(nodes_at(ta)[a]))

    # each node, then its neighbours in the order the moves are tried
    nbr = np.column_stack([np.arange(dom.n_interior), dom.neighbours])

    def move_values(a, b, ta, tb, lm):
        """Node pairs of the spatial moves from (a, b), in the order
        they are tried, and their concavity values: u interpolated in
        one batch, each value transformed by the scalar path."""
        ra, rb = nbr[a][nbr[a] >= 0], nbr[b][nbr[b] >= 0]
        na, nb = np.repeat(ra, rb.size)[1:], np.tile(rb, ra.size)[1:]
        t2 = INF if math.isinf(ta) else lm * tb + (1 - lm) * ta
        u = ev.interp(lm * full_pts[nb] + (1 - lm) * full_pts[na], t2)
        v = (np.array([ev._transform(x) for x in u.tolist()], dtype=float)
             - lm * nodes_at(tb)[nb] - (1 - lm) * nodes_at(ta)[na])
        return zip(na.tolist(), nb.tolist(), v.tolist())

    def golden_lambda(a, b, ta, tb, lm0):
        lo, hi = max(lm0 - 1 / 16, 1e-6), min(lm0 + 1 / 16, 1 - 1e-6)
        phi = (math.sqrt(5) - 1) / 2
        c1, c2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        f1, f2 = tuple_value(a, b, ta, tb, c1), tuple_value(a, b, ta, tb, c2)
        for _ in range(25):
            if f1 <= f2:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - phi * (hi - lo)
                f1 = tuple_value(a, b, ta, tb, c1)
            else:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + phi * (hi - lo)
                f2 = tuple_value(a, b, ta, tb, c2)
        lm = 0.5 * (lo + hi)
        return lm, tuple_value(a, b, ta, tb, lm)

    overall = (math.inf, None)
    for val, a, b, ta, tb, lm in cands:
        cur = (val, (a, b, ta, tb, lm))
        for _ in range(30):
            improved = False
            v0, (a, b, ta, tb, lm) = cur
            # spatial moves: every move is tried from (a, b); a move is
            # taken when it beats the best value so far
            for na, nb, v in move_values(a, b, ta, tb, lm):
                samples += 1
                if v < cur[0] - 1e-15:
                    cur = (v, (na, nb, ta, tb, lm))
                    improved = True
            # time moves along the audited snapshot times
            if mode == "spacetime" and ta in finite_times \
                    and tb in finite_times:
                ia, ib = finite_times.index(ta), finite_times.index(tb)
                a2, b2, _, _, lm2 = cur[1]
                for ja, jb in ((ia + 1, ib), (ia - 1, ib), (ia, ib + 1),
                               (ia, ib - 1)):
                    if 0 <= ja < len(finite_times) \
                            and 0 <= jb < len(finite_times):
                        t1, t3 = finite_times[ja], finite_times[jb]
                        v = tuple_value(a2, b2, t1, t3, lm2)
                        samples += 1
                        if v < cur[0] - 1e-15:
                            cur = (v, (a2, b2, t1, t3, lm2))
                            improved = True
            # lambda refinement
            a2, b2, ta2, tb2, lm2 = cur[1]
            lm_new, v = golden_lambda(a2, b2, ta2, tb2, lm2)
            samples += 25
            if v < cur[0] - 1e-15:
                cur = (v, (a2, b2, ta2, tb2, lm_new))
                improved = True
            if not improved:
                break
        if cur[0] < overall[0]:
            overall = cur

    val, (a, b, ta, tb, lm) = overall
    tup = Tuple5(x1=tuple(full_pts[a]), x3=tuple(full_pts[b]),
                 t1=ta, t3=tb, lam=lm)
    grads, spread = _argmin_gradients(ev, tup, dom.h, mode)
    tau = tau_audit_value(ev, times, c_tol)
    return DefectReport(mode=mode, minimum=val, argmin=tup,
                        gradients=grads, gradient_spread=spread,
                        tau_audit=tau, samples=samples)


def _argmin_gradients(ev, tup: Tuple5, h: float, mode: str):
    """Central-difference gradients of the evaluator at x1, x2, x3
    (spatial components; plus a time component in spacetime mode)."""
    pts = [np.asarray(tup.x1), np.asarray(tup.x2), np.asarray(tup.x3)]
    ts = [tup.t1, tup.t2, tup.t3]
    grads = []
    dom, pv = ev.dom, ev.point_value
    lo, hi = [dom.xs[0], dom.ys[0]], [dom.xs[-1], dom.ys[-1]]
    for p, t in zip(pts, ts):
        g = []
        for e in 0.5 * h * np.eye(2):
            pl, pr = np.clip(p - e, lo, hi), np.clip(p + e, lo, hi)
            span = np.linalg.norm(pr - pl)
            if span == 0:
                g.append(0.0)
            else:
                g.append(float((pv(*pr, t) - pv(*pl, t)) / span))
        if mode == "spacetime":
            if math.isinf(t):
                g.append(0.0)
            else:
                dt = max(0.25 * h, 1e-4)
                tl, tr = max(t - dt, 0.0), t + dt
                g.append(float((pv(*p, tr) - pv(*p, tl)) / (tr - tl)))
        grads.append(g)
    spread = max(float(np.linalg.norm(np.array(ga) - np.array(gb)))
                 for ga in grads for gb in grads)
    return grads, spread


# ---------------------------------------------------------------------------
# quasiconcavity
# ---------------------------------------------------------------------------

def quasiconcavity_defect(f: Field, c_tol: float = 10.0) -> float:
    """Worst superlevel-set convexity violation over 16 levels in
    (0, max f): the midpoint of every pair of in-set nodes (of at most
    _SCAN_NODES lattice-strided ones) must stay above level - tau_audit.
    0 when every check passes."""
    ev = FieldEvaluator(f)
    tau = tau_audit_value(ev, [0.0], c_tol)
    top = float(f.values.max())
    if top <= 0:
        return 0.0
    sel = _scan_nodes(f.dom, _SCAN_NODES)
    pts, vals = f.dom.interior_points[sel], f.values[sel]
    worst = 0.0
    for lev in np.linspace(0.0, top, 18)[1:-1]:
        # pair_scan with zero end values gives the least midpoint value
        inset = np.nonzero(vals > lev)[0]
        zero = np.zeros(inset.size)
        (least,), _, _ = pair_scan(zero, zero, [0.5],
                                   ev.pair_block(pts[inset], [0.5]))
        worst = max(worst, float((lev - tau) - least))
    return max(worst, 0.0)
