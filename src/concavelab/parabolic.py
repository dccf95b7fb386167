"""Time integration of u_t - Lap u = b(x,u,t) with Dirichlet data.

IMEX backward Euler with an optional semi-implicit source correction,
subsolution seeding for the positive branch from zero initial data,
monotonicity tracking, and trajectory storage with an optional
stationary (t = infinity) slice.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .domains import DiscretizedDomain, build_discretization
from .errors import HypothesisViolated, StateBlowup
from .operators import (EigenPair, Field, principal_eigenpair,
                        solve_shifted_poisson)
from .problems import Problem, check_hypotheses

BLOWUP_THRESHOLD = 1e6
# sources whose slope can be stiff near the running state: take one
# semi-implicit (linearized) correction of the source term
_STIFF_SOURCES = ("logistic", "log_s")


@dataclass
class TimeGrid:
    t0: float
    snapshots: np.ndarray  # strictly increasing, up to T
    substeps: int = 4

    def __post_init__(self):
        self.snapshots = np.asarray(self.snapshots, dtype=float)
        if np.any(np.diff(self.snapshots) <= 0):
            raise ValueError("snapshot times must be strictly increasing")


def quadratic_snapshots(T: float, count: int) -> np.ndarray:
    """Snapshot times T*(k/count)^2, k=1..count (graded toward t=0)."""
    k = np.arange(1, count + 1)
    return T * (k / count) ** 2


def make_time_grid(problem: Problem, h: float, dt: float | None = None,
                   count: int = 24, grading: str = "quadratic") -> TimeGrid:
    """Default grid: t0 for seeding, graded snapshots, dt ~ h substeps."""
    T = problem.horizon
    dt = h if dt is None else dt
    snaps = quadratic_snapshots(T, count) if grading == "quadratic" \
        else np.linspace(T / count, T, count)
    t0 = min(10 * dt, 0.01 * T, 0.5 * float(snaps[0]))
    return TimeGrid(t0=t0, snapshots=snaps, substeps=4)


@dataclass
class Trajectory:
    dom: DiscretizedDomain
    times: np.ndarray
    fields: list  # list of value arrays aligned with times
    stationary: np.ndarray | None = None
    monotone: bool = False

    def values_at_time(self, t: float) -> np.ndarray:
        """Node values at time t: linear interpolation between snapshots,
        stationary slice for t = infinity."""
        if math.isinf(t):
            if self.stationary is None:
                raise ValueError("trajectory has no stationary slice")
            return self.stationary
        if t <= self.times[0]:
            return self.fields[0]
        if t >= self.times[-1]:
            return self.fields[-1]
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[k], self.times[k + 1]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.fields[k] + w * self.fields[k + 1]


# ---------------------------------------------------------------------------
# seeding and stepping
# ---------------------------------------------------------------------------

def subsolution_value(k: float, q: float, gamma: float, lam1: float,
                      t: float, phi) -> np.ndarray:
    """Explicit comparison seed C e^{-lam1 t} t^{(1+gamma)/(1-q)} phi."""
    C = ((1.0 - q) * k / (1.0 + gamma)) ** (1.0 / (1.0 - q))
    if t <= 0:
        return np.zeros_like(np.asarray(phi, dtype=float))
    return C * math.exp(-lam1 * t) * t ** ((1.0 + gamma) / (1.0 - q)) \
        * np.asarray(phi, dtype=float)


def seed_from_subsolution(problem: Problem, dom: DiscretizedDomain,
                          t0: float, eig: EigenPair,
                          hyp=None) -> Field:
    """Seed field at t0 from the explicit subsolution; verified a
    posteriori to be a discrete subsolution (w_t - Lap_h w <= b + 1e-8)."""
    hyp = hyp or check_hypotheses(problem, M=1.0)
    if not hyp.require("lower_power"):
        raise HypothesisViolated(
            "subsolution seeding needs the certified power lower bound")
    k = hyp.constants["k"]
    q = hyp.constants["q"]
    gamma = hyp.constants["gamma"]
    w = subsolution_value(k, q, gamma, eig.lam, t0, eig.phi.values)
    if t0 > 0:
        # w_t - Lap_h w = ((1+gamma)/(1-q)) w / t0 exactly, since phi is a
        # discrete eigenfunction; check against b at the seed state
        lhs = ((1.0 + gamma) / (1.0 - q)) * w / t0
        rhs = problem.source_values(dom, w, t0)
        if np.any(lhs > rhs + 1e-8):
            raise HypothesisViolated(
                "seed failed the a-posteriori subsolution check")
    return Field(dom, w, t0)


def advance(problem: Problem, dom: DiscretizedDomain, u: Field,
            t: float, dt: float) -> Field:
    """One IMEX backward-Euler step from t to t + dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if np.any(u.values < -1e-12):
        raise ValueError("state below the -1e-12 tolerance")
    tn = t + dt
    b = problem.source_values(dom, u.values, tn)
    rhs = Field(dom, u.values + dt * b, tn)
    if problem.source.kind in _STIFF_SOURCES:
        # predictor, then one linearized correction of the source term:
        # (I + dt(-Lap) - dt diag(bs)) u+ = u + dt (b(u*) - bs u*)
        star = solve_shifted_poisson(dt, rhs).values
        star = np.maximum(star, 0.0)
        eps = 1e-7 * np.maximum(star, 1e-7)
        b_star = problem.source_values(dom, star, tn)
        bs = (problem.source_values(dom, star + eps, tn) - b_star) / eps
        bs = np.minimum(bs, 0.0)  # keep the implicit part dissipative
        rhs2 = Field(dom, u.values + dt * (b_star - bs * star), tn)
        new = solve_shifted_poisson(dt, rhs2, diag_shift=-dt * bs)
    else:
        new = solve_shifted_poisson(dt, rhs)
    vals = new.values
    if np.max(np.abs(vals)) > BLOWUP_THRESHOLD:
        raise StateBlowup(f"sup norm {np.max(np.abs(vals)):.3e} exceeds 1e6")
    if np.any(vals < -1e-12):
        raise ValueError("integration produced values below -1e-12")
    return Field(dom, np.maximum(vals, 0.0), tn)


def solve_trajectory(problem: Problem, dom: DiscretizedDomain,
                     grid: TimeGrid, dt: float | None = None,
                     eig: EigenPair | None = None) -> Trajectory:
    """Integrate to the horizon, recording the snapshot fields.

    Zero initial data with a genuinely degenerate source (f(0) = 0 with
    q > 0) is seeded at grid.t0 from the explicit subsolution; sources
    with f(0) > 0 start from zero directly.
    """
    dt = dom.h if dt is None else dt
    hyp = check_hypotheses(problem, M=1.0)
    needs_seed = (problem.u0 == "zero"
                  and problem.source.kind in ("power_q", "power_sum",
                                              "saturable", "saturable_q",
                                              "identity", "log_s",
                                              "logistic")
                  and problem.u0_values is None)
    times = [0.0]
    fields = [np.zeros(dom.n_interior)]
    if problem.u0 == "explicit":
        u = Field(dom, np.array(problem.u0_values, dtype=float), 0.0)
        fields[0] = u.values.copy()
        t = 0.0
    elif problem.u0 == "subsolution_seed" or (problem.u0 == "zero"
                                              and needs_seed):
        eig = eig or principal_eigenpair(dom)
        if hyp.require("lower_power"):
            u = seed_from_subsolution(problem, dom, grid.t0, eig, hyp)
        else:
            # no certified power bound (e.g. eigen-type f=s): a small
            # multiple of the principal eigenfunction selects the
            # positive branch without overshooting
            u = Field(dom, 1e-8 * eig.phi.values, grid.t0)
        t = grid.t0
    else:
        u = Field(dom, np.zeros(dom.n_interior), 0.0)
        t = 0.0

    s1 = float(grid.snapshots[0])
    for ts in grid.snapshots:
        span = ts - t
        n = max(int(math.ceil(span / dt - 1e-12)), 1) * grid.substeps
        # near t=0 the solution ramps on the time scale t itself: cap the
        # step at t/32 (floored) so the transient is resolved to ~1%
        # relative accuracy (backward Euler is first order in the ramp)
        step_cap = max(t / 32.0, s1 / 512.0)
        n = max(n, int(math.ceil(span / step_cap - 1e-12)))
        step = span / n
        for _ in range(n):
            u = advance(problem, dom, u, t, step)
            t += step
        times.append(ts)
        fields.append(u.values.copy())

    tau_mono = 10.0 * dom.h * dom.h
    monotone = all(np.all(fields[k + 1] >= fields[k] - tau_mono)
                   for k in range(len(fields) - 1))
    return Trajectory(dom=dom, times=np.asarray(times), fields=fields,
                      monotone=monotone)


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def dump_field_csv(f: Field, path) -> None:
    pts = f.dom.interior_points
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for (x, y), v in zip(pts, f.values):
            fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")


def dump_field_binary(f: Field, path) -> None:
    """Little-endian float64 columns with header {h, nx, ny, time}:
    header then x, y, value triplets per interior node."""
    dom = f.dom
    t = f.time if f.time is not None else math.nan
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4d", dom.h, float(dom.xs.size),
                             float(dom.ys.size), float(t)))
        pts = dom.interior_points
        data = np.column_stack([pts, f.values]).astype("<f8")
        fh.write(data.tobytes())


def load_field_csv(dom: DiscretizedDomain, path, time=None) -> Field:
    """Read a dump_field_csv file back onto the interior nodes of dom.

    Each row is mapped to the grid node at round((x - xs[0]) / h),
    round((y - ys[0]) / h).  ValueError if a row lies more than 1e-9*h
    off that node or on a non-interior node, if two rows share a node,
    or if an interior node has no row, and if the file is blank.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}: empty file, expected an x,y,value "
                         f"header and one row per interior node")
    data = np.genfromtxt(lines, delimiter=",", names=True)
    x = np.atleast_1d(data["x"])
    y = np.atleast_1d(data["y"])
    h = dom.h
    fx = np.rint((x - dom.xs[0]) / h)
    fy = np.rint((y - dom.ys[0]) / h)
    near = ((np.abs(x - (dom.xs[0] + h * fx)) <= 1e-9 * h)
            & (np.abs(y - (dom.ys[0] + h * fy)) <= 1e-9 * h))
    ny, nx = dom.index_of.shape
    on = (fx >= 0) & (fx < nx) & (fy >= 0) & (fy < ny)
    k = np.full(x.size, -1)
    k[on] = dom.index_of[fy[on].astype(int), fx[on].astype(int)]
    counts = np.bincount(k[k >= 0], minlength=dom.n_interior)
    for bad, what in ((~near, "lies more than 1e-9*h off a grid node"),
                      (k < 0, "is not on an interior node"),
                      (counts[k] > 1, "repeats an interior node")):
        if bad.any():
            r = int(np.argmax(bad))
            raise ValueError(f"{path}: row {r + 1} at ({x[r]!r}, {y[r]!r}) "
                             f"{what}")
    if np.any(counts == 0):
        raise ValueError(f"{path}: {int(np.sum(counts == 0))} interior "
                         f"node(s) have no row")
    vals = np.empty(dom.n_interior)
    vals[k] = np.atleast_1d(data["value"])
    return Field(dom, vals, time)
