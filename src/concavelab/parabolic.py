"""Time integration of u_t - Lap u = b(x,u,t) with Dirichlet data.

IMEX backward Euler in one shifted-Poisson solve per step, with a
source's sinks taken implicit in their own rate, subsolution seeding
for the positive branch from zero initial data, monotonicity tracking,
and trajectory storage with an optional stationary (t = infinity) slice.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bounds import boundary_lower_bound
from .domains import DiscretizedDomain
from .errors import HypothesisViolated, StateBlowup
from .operators import (EigenPair, Field, principal_eigenpair,
                        solve_shifted_poisson)
from .problems import Problem, check_hypotheses

BLOWUP_THRESHOLD = 1e6
MAX_STEPS = 1e6  # most time steps a trajectory may take


def monotone_slack(h: float) -> float:
    """Slack 10 h^2 of the monotone and below-stationary checks."""
    return 10.0 * h * h


def quadratic_snapshots(T: float, count: int) -> np.ndarray:
    """Snapshot times T*(k/count)^2, k=1..count (graded toward t=0)."""
    k = np.arange(1, count + 1)
    return T * (k / count) ** 2


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

def seed_from_subsolution(problem: Problem, dom: DiscretizedDomain,
                          t0: float, eig: EigenPair, hyp) -> np.ndarray:
    """Node values at t0 > 0 of the explicit subsolution, the interior
    barrier C e^{-lam1 t0} t0^{(1+gamma)/(1-q)} phi1, from the constants
    of hyp = check_hypotheses(problem); verified a posteriori to be a
    discrete subsolution (w_t - Lap_h w <= b + 1e-8)."""
    if not hyp.require("lower_power"):
        raise HypothesisViolated(
            "subsolution seeding needs the certified power lower bound")
    w = boundary_lower_bound(hyp.constants, t0, eig)
    q, gamma = hyp.constants["q"], hyp.constants["gamma"]
    # w_t - Lap_h w = ((1+gamma)/(1-q)) w / t0 exactly, since phi is a
    # discrete eigenfunction; check against b at the seed state
    lhs = ((1.0 + gamma) / (1.0 - q)) * w / t0
    rhs = problem.source_values(dom, w, t0)
    if np.any(lhs > rhs + 1e-8):
        raise HypothesisViolated(
            "seed failed the a-posteriori subsolution check")
    return w


def advance(problem: Problem, dom: DiscretizedDomain, u: np.ndarray,
            t: float, dt: float) -> np.ndarray:
    """One IMEX backward-Euler step of the node values u from t to
    t + dt, b = source_values(u, t + dt) taken explicit but for its
    sinks (b < 0 < u), whose rate b/u is taken implicit, lagged
    (Patankar-type): first order and positive at any dt; one shifted
    solve per step.  Returns the new node values (u is not written)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if np.fmin.reduce(u, initial=math.inf) < -1e-12:  # NaN is not below
        raise ValueError("state below the -1e-12 tolerance")
    b = problem.source.compose(problem.weight_values(dom, t + dt),
                               np.maximum(u, 0.0))  # source_values, u tested
    rhs, sink = dt * b, np.flatnonzero((b < 0) & (u > 0))
    rhs += u  # u + dt * b
    us = u[sink]
    rhs[sink] = us / (1 - dt * b[sink] / us)
    vals = solve_shifted_poisson(dom, dt, rhs)  # finite: residual checked
    lo, hi = vals.min(), vals.max()
    if max(hi, -lo) > BLOWUP_THRESHOLD:
        raise StateBlowup(f"sup norm {max(hi, -lo):.3e} exceeds 1e6")
    if lo < -1e-12:
        raise ValueError("integration produced values below -1e-12")
    return np.maximum(vals, 0.0, out=vals)


def solve_trajectory(problem: Problem, dom: DiscretizedDomain, count: int,
                     dt: float | None = None) -> Trajectory:
    """Integrate to the horizon T, recording count snapshots near the
    times quadratic_snapshots(T, count), in steps set by dt (default
    dom.h): to the first, s1, 4 per dt, each at most t/64 (t the start,
    floored at s1/512); from each later start t, round(span / tau) steps
    of tau, the largest dt/4 * 2^-j at most t/32 and the span, to a
    snapshot at the time reached, or to T exactly in equal steps of at
    most tau.  So each ladder level tau is one LU factorization.

    Zero data (u0_values None) starts from zero when b(., 0) is positive
    and finite, else (b(., 0) = 0: zero is a solution; inf or NaN: no
    first step) from t0 = min(10 dt, T/100, s1/2) on the positive branch:
    the explicit subsolution when the power lower bound is certified,
    else 1e-8 phi1.  ValueError names a T or dt not positive and finite,
    count < 1, a T too small for count distinct snapshot times (or for
    s1 / 512), over MAX_STEPS steps, or a u0_values not finite.
    """
    dt = dom.h if dt is None else dt
    T = problem.horizon
    for name, x in (("horizon T", T), ("dt", dt)):
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")
    if count < 1:
        raise ValueError(f"snapshot count must be at least 1, got {count}")
    snapshots = quadratic_snapshots(T, count)
    s1 = float(snapshots[0])  # the first interval's least step is s1 / 512
    if not (np.all(np.diff(snapshots, prepend=0.0) > 0) and s1 / 512 > 0):
        raise ValueError(f"horizon T = {T!r} is too small for {count} "
                         f"snapshot times and their time steps after t = 0")
    hyp = check_hypotheses(problem)
    times, fields = [0.0], [np.zeros(dom.n_interior)]
    u, t = fields[0], 0.0
    if problem.u0_values is not None:
        u = fields[0] = np.array(problem.u0_values, dtype=float)
        if u.shape != (dom.n_interior,):
            raise ValueError("field length must match interior node count")
        if not np.all(np.isfinite(u)):
            raise ValueError("initial data u0_values must be finite")
    elif not 0.0 < problem.source.compose(1.0, np.zeros(1))[0] < math.inf:
        t = min(10 * dt, 0.01 * T, 0.5 * s1)
        eig = principal_eigenpair(dom)
        if hyp.require("lower_power"):
            u = seed_from_subsolution(problem, dom, t, eig, hyp)
        else:
            # no certified power bound (e.g. eigen-type f=s): a small
            # multiple of phi1 selects the positive branch, no overshoot
            u = 1e-8 * eig.phi.values

    plan, total = [], 0.0  # (start, steps, step, end) per snapshot
    for k, ts in enumerate(snapshots):
        span, exact = ts - t, k in (0, count - 1)  # exact: ends at ts
        if k == 0:
            n = max(4 * np.ceil(span / dt - 1e-12),
                    np.ceil(span / max(t / 64.0, s1 / 512.0) - 1e-12))
        else:
            tau = dt / 4
            while tau > min(t / 32, span):
                tau /= 2
            n = (np.ceil if exact else np.rint)(span / tau)
        if not (total := total + n) <= MAX_STEPS:  # NaN fails; t stays finite
            raise ValueError(f"at least {total:.3g} steps from dt = {dt!r} to "
                             f"T = {T!r}, above the cap of {MAX_STEPS:.0e}")
        step, end = (span / n, ts) if exact else (tau, t + n * tau)
        plan.append((t, int(n), step, end))
        t = end
    for ta, n, step, tb in plan:
        for i in range(n):
            u = advance(problem, dom, u, ta + i * step, step)
        times.append(tb)
        fields.append(u)
    dom._cache.pop("lu", None)  # the domain's factor: no later user

    slack = monotone_slack(dom.h)
    monotone = all(np.all(fields[k + 1] >= fields[k] - slack)
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
    """Read a dump_field_csv file back onto dom (see _rows_to_field).
    The header names the columns x, y and value once each, in any order,
    and every later line that is not blank is a row of three numbers;
    ValueError naming the file (and the row) if not, or if it is blank."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected an x,y,value "
                         f"header and one row per interior node")
    names = [name.strip() for name in lines[0].split(",")]
    if sorted(names) != ["value", "x", "y"]:
        raise ValueError(f"{path}: header {lines[0]!r} does not name the "
                         f"columns x, y and value once each")
    data = np.empty((len(lines) - 1, 3))
    for r, row in enumerate(lines[1:], 1):
        fields = row.split(",")
        try:
            if len(fields) != 3 or "_" in row:  # float reads 1_0 as 10
                raise ValueError
            data[r - 1] = [float(x) for x in fields]
        except ValueError:
            raise ValueError(f"{path}: row {r} {row!r} is not three "
                             f"comma-separated numbers") from None
    cols = [names.index(name) for name in ("x", "y", "value")]
    return _rows_to_field(dom, path, *data[:, cols].T, time)


def load_field_binary(dom: DiscretizedDomain, path, time=None) -> Field:
    """Read a dump_field_binary file back onto dom (see _rows_to_field)
    as a Field at `time` (the header's time is not read); ValueError
    also for a partial header or triplet, or another grid's header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 32 or (len(raw) - 32) % 24:
        raise ValueError(f"{path}: {len(raw)} bytes, expected a 32-byte "
                         f"header and 24 bytes per interior node")
    h, nx, ny, _ = struct.unpack("<4d", raw[:32])
    grid = (dom.h, dom.xs.size, dom.ys.size)
    if not (abs(h - dom.h) <= 1e-9 * dom.h and (nx, ny) == grid[1:]):
        raise ValueError(f"{path}: header (h, nx, ny) = {(h, nx, ny)} does "
                         f"not match the grid's {grid}")
    data = np.frombuffer(raw, "<f8", offset=32).reshape(-1, 3)
    return _rows_to_field(dom, path, *data.T, time)


def _rows_to_field(dom: DiscretizedDomain, path, x, y, values,
                   time) -> Field:
    """Field from dump rows, each on the node round((x - xs[0]) / h),
    round((y - ys[0]) / h); ValueError naming the file and the first
    bad row if a row holds a non-finite number, lies over 1e-9*h off its
    node or on a non-interior node, or repeats a node, and naming the
    file if an interior node has no row."""
    def reject(bad, what):
        if bad.any():
            r = int(np.argmax(bad))
            raise ValueError(f"{path}: row {r + 1} at ({x[r]!r}, {y[r]!r}) "
                             f"{what}")

    reject(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(values)),
           "holds a non-finite number")
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
    reject(~near, "lies more than 1e-9*h off a grid node")
    reject(k < 0, "is not on an interior node")
    reject(counts[k] > 1, "repeats an interior node")
    if np.any(counts == 0):
        raise ValueError(f"{path}: {int(np.sum(counts == 0))} interior "
                         f"node(s) have no row")
    vals = np.empty(dom.n_interior)
    vals[k] = values
    return Field(dom, vals, time)
