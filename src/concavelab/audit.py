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
from dataclasses import dataclass

import numpy as np

from .domains import _SCAN_NODES, DiscretizedDomain, _scan_nodes
from .errors import EmptySampler, OutOfDomain
from .operators import (LAMBDAS, Field, bilinear_corners, bilinear_interp,
                        bilinear_weights, grid_cell, pair_scan)
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
        return mid_time(self.t1, self.t3, self.lam)


def mid_time(ta: float, tb: float, lam: float) -> float:
    """t2 of a tuple of the audit, whose time pairs are finite or inf."""
    return INF if math.isinf(ta) else lam * tb + (1 - lam) * ta


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

#: floor under u before the log transform (alpha = 0)
_POSITIVITY_FLOOR = 1e-300
#: tau_audit's factor on the largest undivided second difference
C_TOL = 10.0


class Evaluator:
    """Evaluator of u^alpha(x, t^beta) (log u for alpha = 0) over a
    trajectory: bilinear in space, linear in time between snapshots,
    the stationary slice at t = inf.

    Interpolation happens on u *before* the power/log transformation.
    grid keeps the full grid of u of the last time asked for, which
    bilinear_interp and pair_block read; point_value reads the corners of
    one cell.
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
        self._snap = {s ** (1.0 / beta): s for s in self._times}
        self._x0, self._y0 = float(traj.dom.xs[0]), float(traj.dom.ys[0])

    def _transform(self, u):
        if self.alpha == 0.0:
            return np.log(np.maximum(u, _POSITIVITY_FLOOR))
        if self.alpha == 1.0:
            return u
        return np.maximum(u, 0.0) ** self.alpha

    def _u_time(self, t: float) -> float:
        # a snapshot's audit time s^(1/beta) reads s, which t^beta can miss
        return t if math.isinf(t) else self._snap.get(t, t ** self.beta)

    def grid(self, t: float = 0.0) -> np.ndarray:
        """Full grid of u, before the transform, at time t."""
        s = self._u_time(t)
        if s != self._grid_time:
            self._grid = Field(self.dom,
                               self.traj.values_at_time(s)).to_grid()
            self._grid_time = s
        return self._grid

    def pair_block(self, pts, lambdas, tpairs=((0.0, 0.0),)):
        """pair_scan block of the transformed bilinear_interp at x2 = lam
        * pts[j] + (1 - lam) * pts[i], bit for bit, a slice per time pair
        (ta, tb) at t2 = lam * tb + (1 - lam) * ta (inf for ta = inf):
        grid_cell runs once per axis, on lam * u[b] + (1 - lam) * u[a] for
        every lambda and pair a, b of the axis's distinct coordinates u; a
        block gathers its pairs' cells by code and weights them once."""
        lm = np.asarray(lambdas, dtype=float)[:, None, None]
        axes = [np.unique(pts[:, a], return_inverse=True) for a in (0, 1)]
        cells = [grid_cell(self.dom, a, lm * u + (1 - lm) * u[:, None])
                 for a, (u, _) in enumerate(axes)]
        codes = [(code * u.size, code) for u, code in axes]

        def slices(lam, k, w):
            for ta, tb in tpairs:
                yield self._transform(bilinear_corners(
                    self.grid(mid_time(ta, tb, lam)), k, w))

        def block(idx1, idx3):
            keys = [row[idx1] + col[idx3] for row, col in codes]
            for k, lam in enumerate(lm.ravel()):
                (kx, tx), (ky, ty) = ([t[k].take(key) for t in cell]
                                      for cell, key in zip(cells, keys))
                yield slices(lam, kx + ky, bilinear_weights(tx, ty))
        return block

    def point_value(self, x: float, y: float, t: float = 0.0) -> float:
        """u^alpha of bilinear_interp on grid(t) at (x, y) bit for bit,
        from the four corner nodes of the cell of (x, y) alone: the
        expressions of Trajectory.values_at_time and bilinear_interp in
        plain floats, with no grid."""
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
    """Scan configuration for min_defect: the tuple-endpoint times
    audit_times (default: a subset of the snapshot times, plus inf when
    a stationary slice exists and include_infinity is set)."""

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


def tau_audit_value(ev, times) -> float:
    """C_TOL times the max undivided second difference (h^2 |v_xx|, h^2
    |v_yy|) of the transformed field v over the audited slices, at the
    nodes whose two neighbours on the axis are interior."""
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
    return C_TOL * worst


def _default_times(ev, cfg):
    if cfg.audit_times is not None:
        return list(cfg.audit_times)
    snaps = ev.traj.times
    # tau = s^{1/beta} for 7 spread snapshots s, which ev reads at s
    pick = np.unique(np.linspace(0, len(snaps) - 1, 7).round().astype(int))
    times = [float(snaps[k]) ** (1.0 / ev.beta) for k in pick]
    if cfg.include_infinity and ev.traj.stationary is not None \
            and ev.traj.monotone:
        times.append(INF)
    return times


#: stage-1 minima that stage 2 refines
_REFINE_CANDIDATES = 32
#: golden-section steps of stage 2's lambda refinement
_GOLDEN_STEPS = 25


def min_defect(ev, mode: str, cfg: SamplerConfig | None = None
               ) -> DefectReport:
    """Two-stage minimization of the concavity function.

    Stage 1: one exhaustive pair_scan over lattice-strided interior-node
    pairs and LAMBDAS, with one slice per snapshot-time pair (space mode:
    each audited time separately).  Stage 2: coordinate descent on the
    full grid from the best candidates, spatial moves, time moves and a
    golden-section search in lambda under one acceptance rule.
    """
    if mode not in ("space", "spacetime"):
        raise ValueError("mode must be 'space' or 'spacetime'")
    cfg = cfg or SamplerConfig()
    dom = ev.dom
    sel = _scan_nodes(dom, _SCAN_NODES)
    times = _default_times(ev, cfg)
    if len(times) == 0:
        raise EmptySampler("no audit times")
    pts, n = dom.interior_points[sel], len(sel)

    if mode == "space":
        tpairs = [(t, t) for t in times]
    else:
        finite = [t for t in times if not math.isinf(t)]
        tpairs = [(a, b) for a in finite for b in finite]
        if any(math.isinf(t) for t in times):
            tpairs.append((INF, INF))

    nodes_at = functools.lru_cache(maxsize=None)(ev.node_values)

    ends = np.array([[nodes_at(t)[sel] for t in tp] for tp in tpairs])
    mins, i1, i3 = pair_scan(ends[:, 0], ends[:, 1], LAMBDAS,
                             ev.pair_block(pts, LAMBDAS, tpairs))
    samples = len(tpairs) * (n * (n - 1) // 2 * LAMBDAS.size)
    # the minimum of each slice and lambda as (value, i1, i3, t1, t3, lam)
    best = [(float(c), sel[a], sel[b], ta, tb, float(lm))
            for (ta, tb), *row in zip(tpairs, mins, i1, i3)
            for c, a, b, lm in zip(*row, LAMBDAS)]
    best = [r for r in best if math.isfinite(r[0])]
    if not best:
        raise EmptySampler("no finite concavity values in the scan")
    best.sort(key=lambda r: r[0])
    cands = best[:_REFINE_CANDIDATES]

    finite_times = sorted(t for t in times if not math.isinf(t))
    full_pts = dom.interior_points
    px, py = full_pts[:, 0].tolist(), full_pts[:, 1].tolist()

    def tuple_value(a, b, ta, tb, lm):
        return (ev.point_value(lm * px[b] + (1 - lm) * px[a],
                               lm * py[b] + (1 - lm) * py[a],
                               mid_time(ta, tb, lm))
                - lm * float(nodes_at(tb)[b])
                - (1 - lm) * float(nodes_at(ta)[a]))

    # each node, then its neighbours in the order the moves are tried
    nbr = np.column_stack([np.arange(dom.n_interior), dom.neighbours])

    # stage 2's sources: each yields (value, tuple, samples) for the
    # moves from one tuple
    def spatial_moves(a, b, ta, tb, lm):
        """Node pairs around (a, b): u interpolated in one batch, each
        value transformed by the scalar path."""
        ra, rb = nbr[a][nbr[a] >= 0], nbr[b][nbr[b] >= 0]
        na, nb = np.repeat(ra, rb.size)[1:], np.tile(rb, ra.size)[1:]
        u = bilinear_interp(dom, ev.grid(mid_time(ta, tb, lm)),
                            lm * full_pts[nb] + (1 - lm) * full_pts[na])
        v = (np.array([ev._transform(x) for x in u.tolist()], dtype=float)
             - lm * nodes_at(tb)[nb] - (1 - lm) * nodes_at(ta)[na])
        return ((x, (c, d, ta, tb, lm), 1)
                for c, d, x in zip(na.tolist(), nb.tolist(), v.tolist()))

    def time_moves(a, b, ta, tb, lm):
        """One step of t1 or t3 along the audited snapshot times."""
        if ta not in finite_times or tb not in finite_times:
            return
        ia, ib = finite_times.index(ta), finite_times.index(tb)
        for ja, jb in ((ia + 1, ib), (ia - 1, ib), (ia, ib + 1),
                       (ia, ib - 1)):
            if 0 <= ja < len(finite_times) and 0 <= jb < len(finite_times):
                t1, t3 = finite_times[ja], finite_times[jb]
                yield tuple_value(a, b, t1, t3, lm), (a, b, t1, t3, lm), 1

    def golden_lambda(a, b, ta, tb, lm0):
        lo, hi = max(lm0 - 1 / 16, 1e-6), min(lm0 + 1 / 16, 1 - 1e-6)
        phi = (math.sqrt(5) - 1) / 2
        c1, c2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        f1, f2 = tuple_value(a, b, ta, tb, c1), tuple_value(a, b, ta, tb, c2)
        for _ in range(_GOLDEN_STEPS):
            if f1 <= f2:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - phi * (hi - lo)
                f1 = tuple_value(a, b, ta, tb, c1)
            else:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + phi * (hi - lo)
                f2 = tuple_value(a, b, ta, tb, c2)
        lm = 0.5 * (lo + hi)
        yield tuple_value(a, b, ta, tb, lm), (a, b, ta, tb, lm), _GOLDEN_STEPS

    sources = (spatial_moves, golden_lambda) if mode == "space" \
        else (spatial_moves, time_moves, golden_lambda)
    overall = (math.inf, None)
    for val, *tup in cands:
        cur = (val, tuple(tup))
        for _ in range(30):
            start = cur
            # each source starts from the best tuple so far; a move is
            # taken when it beats the best value so far by over 1e-15
            for source in sources:
                for v, t, s in source(*cur[1]):
                    samples += s
                    if v < cur[0] - 1e-15:
                        cur = (v, t)
            if cur is start:
                break
        if cur[0] < overall[0]:
            overall = cur

    val, (a, b, ta, tb, lm) = overall
    tup = Tuple5(x1=tuple(full_pts[a]), x3=tuple(full_pts[b]),
                 t1=ta, t3=tb, lam=lm)
    grads, spread = _argmin_gradients(ev, tup, dom.h, mode)
    tau = tau_audit_value(ev, times)
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

def quasiconcavity_defect(f: Field) -> float:
    """Worst superlevel-set convexity violation over 16 levels in
    (0, max f): the midpoint of every pair of in-set nodes (of at most
    _SCAN_NODES lattice-strided ones) must stay above level - tau_audit.
    0 when every check passes."""
    ev = FieldEvaluator(f)
    tau = tau_audit_value(ev, [0.0])
    top = float(f.values.max())
    if top <= 0:
        return 0.0
    sel = _scan_nodes(f.dom, _SCAN_NODES)
    pts, vals = f.dom.interior_points[sel], f.values[sel]
    worst = 0.0
    for lev in np.linspace(0.0, top, 18)[1:-1]:
        # pair_scan with zero end values gives the least midpoint value
        zero = np.zeros((1, np.count_nonzero(vals > lev)))
        ((least,),), _, _ = pair_scan(zero, zero, [0.5],
                                      ev.pair_block(pts[vals > lev], [0.5]))
        worst = max(worst, float((lev - tau) - least))
    return max(worst, 0.0)
