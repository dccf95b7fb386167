"""Concavity audit machinery.

Concavity function      C_v  = v(x2,t2) - lam v(x3,t3) - (1-lam) v(x1,t1)
Spatial version         C*_v = same with one fixed time
Harmonic concavity      HC_g = g2 - g1 g3 / (lam g1 + (1-lam) g3)

with x2 = lam x3 + (1-lam) x1 and t2 = lam t3 + (1-lam) t1.  Provides
two-stage defect minimization over tuple samples, a quasiconcavity
(superlevel-set) check and discretization tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domains import DiscretizedDomain
from .errors import EmptySampler, OutOfDomain
from .operators import Field, bilinear_interp, pair_scan
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

class TrajectoryEvaluator:
    """Space-time evaluator over a trajectory: bilinear in space,
    linear in time between snapshots, stationary slice at t = inf."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.dom = traj.dom
        self._grids = {}

    def _grid_at(self, t: float) -> np.ndarray:
        key = float(t)
        if key not in self._grids:
            vals = self.traj.values_at_time(t)
            self._grids[key] = Field(self.dom, vals).to_grid()
        return self._grids[key]

    def value(self, pts, t: float):
        g = self._grid_at(t)
        return bilinear_interp(self.dom, g, pts)


class TransformedEvaluator:
    """Evaluator of u^alpha(x, t^beta) (log u for alpha = 0).

    Interpolation happens on u *before* the power/log transformation.
    """

    def __init__(self, base: TrajectoryEvaluator, alpha: float,
                 beta: float = 1.0, positivity_floor: float = 1e-300):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (1.0 <= beta <= 2.0):
            raise ValueError("beta must lie in [1, 2]")
        self.base = base
        self.dom = base.dom
        self.alpha = alpha
        self.beta = beta
        self.floor = positivity_floor

    def value(self, pts, t: float):
        s = t if math.isinf(t) else t ** self.beta
        u = self.base.value(pts, s)
        if self.alpha == 0.0:
            u = np.maximum(u, self.floor)
            return np.log(u)
        if self.alpha == 1.0:
            return u
        return np.maximum(u, 0.0) ** self.alpha

    def node_values(self, t: float) -> np.ndarray:
        """Transformed values exactly at interior nodes."""
        s = t if math.isinf(t) else t ** self.beta
        u = self.traj_values(s)
        if self.alpha == 0.0:
            return np.log(np.maximum(u, self.floor))
        if self.alpha == 1.0:
            return u
        return np.maximum(u, 0.0) ** self.alpha

    def traj_values(self, s: float) -> np.ndarray:
        return self.base.traj.values_at_time(s)


class FieldEvaluator:
    """Timeless evaluator over a single field (space mode audits)."""

    def __init__(self, f: Field):
        self.dom = f.dom
        self.grid = f.to_grid()
        self.node_vals = f.values

    def value(self, pts, t: float = 0.0):
        return bilinear_interp(self.dom, self.grid, pts)

    def node_values(self, t: float = 0.0):
        return self.node_vals


def power_transform(traj: Trajectory, alpha: float,
                    beta: float = 1.0) -> TransformedEvaluator:
    return TransformedEvaluator(TrajectoryEvaluator(traj), alpha, beta)


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def _eval(ev, pts, t):
    out = ev.value(np.asarray(pts, dtype=float), t)
    return out.reshape(-1)[0] if np.ndim(out) else out


def _check_inside(dom: DiscretizedDomain, p):
    x, y = p
    if not (dom.xs[0] - 1e-12 <= x <= dom.xs[-1] + 1e-12
            and dom.ys[0] - 1e-12 <= y <= dom.ys[-1] + 1e-12):
        raise OutOfDomain(f"point {p} outside the grid bounding box")


def concavity_value(ev, tup: Tuple5) -> float:
    """C at a single tuple (times equal => the spatial version C*)."""
    dom = ev.dom
    for p in (tup.x1, tup.x3, tup.x2):
        _check_inside(dom, p)
    v1 = float(_eval(ev, tup.x1, tup.t1))
    v3 = float(_eval(ev, tup.x3, tup.t3))
    v2 = float(_eval(ev, tup.x2, tup.t2))
    return v2 - tup.lam * v3 - (1 - tup.lam) * v1


def harmonic_concavity_value(g, tup: Tuple5):
    """HC at a tuple; returns OUTSIDE_DOMAIN when the harmonic
    combination is undefined (denominator <= 0 with g1, g3 not both 0)."""
    g1 = float(_eval(g, tup.x1, tup.t1))
    g3 = float(_eval(g, tup.x3, tup.t3))
    g2 = float(_eval(g, tup.x2, tup.t2))
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
    audited slices, both axes (h^2 * |discrete second derivative|)."""
    dom = ev.dom
    idx = dom.index_of
    worst = 0.0
    for t in times:
        vals = ev.node_values(t)
        g = np.full(idx.shape, np.nan)
        iy, ix = dom.interior_idx[:, 0], dom.interior_idx[:, 1]
        g[iy, ix] = vals
        for d2 in (g[1:-1, :-2] - 2 * g[1:-1, 1:-1] + g[1:-1, 2:],
                   g[:-2, 1:-1] - 2 * g[1:-1, 1:-1] + g[2:, 1:-1]):
            finite = np.isfinite(d2)
            if finite.any():
                worst = max(worst, float(np.max(np.abs(d2[finite]))))
    return worst


def tau_audit_value(ev, times, c_tol: float = 10.0) -> float:
    return c_tol * _second_difference_scale(ev, times)


def _default_times(ev, mode, cfg):
    if cfg.audit_times is not None:
        return list(cfg.audit_times)
    if isinstance(ev, FieldEvaluator):
        return [0.0]
    traj = ev.base.traj if isinstance(ev, TransformedEvaluator) else ev.traj
    beta = getattr(ev, "beta", 1.0)
    snaps = traj.times
    # tuple-endpoint times sit exactly on snapshots (tau = s^{1/beta})
    pick = np.unique(np.round(
        np.linspace(0, len(snaps) - 1, 7)).astype(int))
    times = [float(snaps[k]) ** (1.0 / beta) for k in pick]
    if cfg.include_infinity and traj.stationary is not None \
            and traj.monotone:
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
    times = _default_times(ev, mode, cfg)
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

    node_cache = {}

    def nodes_at(t):
        if t not in node_cache:
            node_cache[t] = ev.node_values(t)
        return node_cache[t]

    best = []  # (value, i1, i3, t1, t3, lam)
    samples = 0
    lam_grid = np.asarray(cfg.lambdas, dtype=float)
    inner = lam_grid[(lam_grid > 0) & (lam_grid < 1)]
    for (ta, tb) in tpairs:
        def mid(x2, lm, ta=ta, tb=tb):
            return ev.value(x2, INF if math.isinf(ta)
                            else lm * tb + (1 - lm) * ta)

        mins, i1, i3 = pair_scan(pts, nodes_at(ta)[sel], nodes_at(tb)[sel],
                                 inner, mid)
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

    def tuple_value(a, b, ta, tb, lm):
        x1, x3 = full_pts[a], full_pts[b]
        x2 = lm * x3 + (1 - lm) * x1
        t2 = INF if math.isinf(ta) else lm * tb + (1 - lm) * ta
        return (float(ev.value(x2, t2))
                - lm * float(nodes_at(tb)[b])
                - (1 - lm) * float(nodes_at(ta)[a]))

    # neighbor moves on the interior index lattice
    idx_of = dom.index_of
    moves = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1),
             (-1, -1)]

    def neighbors(k):
        j, i = dom.interior_idx[k]
        out = []
        for dj, di in moves:
            jj, ii = j + dj, i + di
            if 0 <= jj < idx_of.shape[0] and 0 <= ii < idx_of.shape[1] \
                    and idx_of[jj, ii] >= 0:
                out.append(int(idx_of[jj, ii]))
        return out

    def golden_lambda(a, b, ta, tb, lm0):
        lo = max(lm0 - 1 / 16, 1e-6)
        hi = min(lm0 + 1 / 16, 1 - 1e-6)
        phi = (math.sqrt(5) - 1) / 2
        c1 = hi - phi * (hi - lo)
        c2 = lo + phi * (hi - lo)
        f1 = tuple_value(a, b, ta, tb, c1)
        f2 = tuple_value(a, b, ta, tb, c2)
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
            # spatial moves
            for na in [a] + neighbors(a):
                for nb in [b] + neighbors(b):
                    if na == a and nb == b:
                        continue
                    v = tuple_value(na, nb, ta, tb, lm)
                    samples += 1
                    if v < cur[0] - 1e-15:
                        cur = (v, (na, nb, ta, tb, lm))
                        improved = True
            # time moves along the audited snapshot times
            if mode == "spacetime" and not math.isinf(ta):
                ia = finite_times.index(ta) if ta in finite_times else None
                ib = finite_times.index(tb) if tb in finite_times else None
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if ia is None or ib is None:
                        break
                    ja, jb = ia + da, ib + db
                    if 0 <= ja < len(finite_times) \
                            and 0 <= jb < len(finite_times):
                        v = tuple_value(cur[1][0], cur[1][1],
                                        finite_times[ja], finite_times[jb],
                                        cur[1][4])
                        samples += 1
                        if v < cur[0] - 1e-15:
                            cur = (v, (cur[1][0], cur[1][1],
                                       finite_times[ja], finite_times[jb],
                                       cur[1][4]))
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
    dom = ev.dom
    for p, t in zip(pts, ts):
        g = []
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = 0.5 * h
            pl = np.clip(p - e, [dom.xs[0], dom.ys[0]],
                         [dom.xs[-1], dom.ys[-1]])
            pr = np.clip(p + e, [dom.xs[0], dom.ys[0]],
                         [dom.xs[-1], dom.ys[-1]])
            span = np.linalg.norm(pr - pl)
            if span == 0:
                g.append(0.0)
            else:
                g.append(float((ev.value(pr, t) - ev.value(pl, t)) / span))
        if mode == "spacetime":
            if math.isinf(t):
                g.append(0.0)
            else:
                dt = max(0.25 * h, 1e-4)
                tl, tr = max(t - dt, 0.0), t + dt
                g.append(float((ev.value(p, tr) - ev.value(p, tl))
                               / (tr - tl)))
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
        (least,), _, _ = pair_scan(pts[inset], zero, zero, [0.5],
                                   lambda x2, lm: ev.value(x2))
        worst = max(worst, float((lev - tau) - least))
    return max(worst, 0.0)
