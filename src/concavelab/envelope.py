"""Least concave majorant and concave-approximation certificates.

Given a bounded sampled function f, computes the least concave majorant
g_hat via the upper convex hull of the lifted point cloud, then the
concave approximant g = g_hat - 0.5 ||g_hat - f||_inf.  The certificate
checks the distance against k_n * delta where delta is the measured
concavity defect of f and k_n = n(n+3)/(4(n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .audit import FieldEvaluator
from .domains import _scan_nodes
from .errors import HullDegenerate
from .operators import LAMBDAS, Field, pair_scan

#: nodes the 2-D envelope and its defect scan subsample
_ENVELOPE_NODES = 600
_FACET_BLOCK = 64  # upper facets whose planes the running min takes at once


def hyers_ulam_constant(n: int) -> float:
    return n * (n + 3) / (4.0 * (n + 1))


@dataclass
class EnvelopeResult:
    g: np.ndarray          # concave approximant at the sample points
    g_hat: np.ndarray      # least concave majorant at the sample points
    distance: float        # 0.5 * ||g_hat - f||_inf
    delta: float           # measured concavity defect of f
    k_n: float
    bound_ok: bool
    dimension: int


def _defect_1d(x: np.ndarray, y: np.ndarray) -> float:
    """Worst negative concavity-function value over sample triples
    (endpoints at samples, middle point at every sample between)."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    n = len(xs)
    worst = 0.0
    for i in range(n - 2):
        for j in range(i + 2, n):
            if xs[j] == xs[i]:  # lambda would be 0/0
                continue
            lam = (xs[i + 1:j] - xs[i]) / (xs[j] - xs[i])
            c = ys[i + 1:j] - lam * ys[j] - (1 - lam) * ys[i]
            m = c.min()
            if m < worst:
                worst = m
    return -worst


def _upper_envelope(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Least concave majorant at samples pts of shape (n, d) via the
    lifted hull: the pointwise minimum of the upper-facet planes."""
    d = pts.shape[1]
    cloud = np.column_stack([pts, vals])
    try:
        hull = ConvexHull(cloud)
    except QhullError as exc:
        # samples affine in pts (a flat cloud) are their own majorant
        plane = np.column_stack([np.ones(len(pts)), pts])
        c, _, rank, _ = np.linalg.lstsq(plane, vals, rcond=None)
        if rank == d + 1 and np.allclose(plane @ c, vals, rtol=0.0,
                                         atol=1e-12 * (1 + abs(vals).max())):
            return vals
        raise HullDegenerate(str(exc).strip().splitlines()[0]) from exc
    eqs = hull.equations  # outward normals: n . (pts, vals) + off = 0
    upper = eqs[eqs[:, d] > 1e-12]
    if upper.shape[0] == 0:
        raise HullDegenerate("no upper facets: samples are degenerate")
    # plane value -(n0 x0 + n1 x1 + ... + off)/n_d per facet, summed in
    # coordinate order; envelope = min
    env = np.inf
    for b in range(0, len(upper), _FACET_BLOCK):
        *n, nv, off = upper[b:b + _FACET_BLOCK, :, None].transpose(1, 0, 2)
        s = n[0] * pts[:, 0]
        for nk, xk in zip(n[1:], pts.T[1:]):
            s = s + nk * xk
        env = np.minimum(env, (-(s + off) / nv).min(axis=0))
    return np.maximum(env, vals)  # guard roundoff: majorant dominates f


def concave_approximation(f) -> EnvelopeResult:
    """Concave approximant with a distance certificate.

    f may be a Field (2-D) or a tuple (x, values) for a 1-D section.
    Returns the approximant, the sup-distance 0.5 ||g_hat - f||, the
    measured defect delta, and the bound check distance <= k_n delta.
    """
    if isinstance(f, tuple):
        x, vals = (np.asarray(v, dtype=float) for v in f)
        if len(np.unique(x)) < 2:
            raise HullDegenerate("need at least 2 distinct sample abscissae")
        g_hat = _upper_envelope(x[:, None], vals)
        delta, dim = _defect_1d(x, vals), 1
    elif not isinstance(f, Field):
        raise TypeError("expected a Field or a 1-D (x, values) tuple")
    else:
        sel = _scan_nodes(f.dom, _ENVELOPE_NODES)
        pts, vals = f.dom.interior_points[sel], f.values[sel]
        if len(pts) < 3:
            raise HullDegenerate("need at least 3 sample points in 2-D")
        g_hat = _upper_envelope(pts, vals)
        # delta: the defect over sample pairs and LAMBDAS, with the
        # middle value interpolated bilinearly on the full grid
        (mins,), _, _ = pair_scan(vals[None], vals[None], LAMBDAS,
                                  FieldEvaluator(f).pair_block(pts, LAMBDAS))
        delta, dim = -min([0.0] + mins.tolist()), 2
    k, dist = hyers_ulam_constant(dim), 0.5 * float(np.max(g_hat - vals))
    return EnvelopeResult(g=g_hat - dist, g_hat=g_hat, distance=dist,
                          delta=delta, k_n=k,
                          bound_ok=dist <= k * delta + 1e-12, dimension=dim)
