"""Bounded convex planar domains on uniform grids.

Supports disks, ellipses and convex polygons; a rectangle (the unit
square too) is the polygon of its four corners.
Provides signed distance to the boundary, the interior nodes, cut-cell
fractions for embedded-boundary stencils and inner regions (distance >
rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NoInteriorNodes, NonConvexPolygon

MAX_NODES = 1e7  # most grid nodes nx * ny (150 times h = 1/128's 257^2)


@dataclass(frozen=True)
class DomainSpec:
    """Geometric description of a bounded convex planar domain.

    kind is one of "disk", "ellipse", "convex_polygon".
    strongly_convex is true exactly for disk/ellipse.
    """

    kind: str
    radius: float = 1.0
    semi_axes: tuple = (1.0, 1.0)
    vertices: tuple = ()

    @property
    def strongly_convex(self) -> bool:
        return self.kind in ("disk", "ellipse")

    @property
    def bounding_box(self):
        """((xmin, xmax), (ymin, ymax))"""
        if self.kind == "disk":
            r = self.radius
            return (-r, r), (-r, r)
        if self.kind == "ellipse":
            a, b = self.semi_axes
            return (-a, a), (-b, b)
        v = np.asarray(self.vertices)
        return (v[:, 0].min(), v[:, 0].max()), (v[:, 1].min(), v[:, 1].max())

    @property
    def inradius(self) -> float:
        if self.kind == "disk":
            return self.radius
        if self.kind == "ellipse":
            return min(self.semi_axes)
        return _polygon_inradius(np.asarray(self.vertices, dtype=float))


def unit_square() -> DomainSpec:
    return rectangle(1.0, 1.0)


def rectangle(width: float, height: float) -> DomainSpec:
    """The convex polygon [0, width] x [0, height]."""
    if width <= 0 or height <= 0:
        raise ValueError("rectangle sides must be positive")
    return convex_polygon([(0, 0), (width, 0), (width, height), (0, height)])


def disk(radius: float = 1.0) -> DomainSpec:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return DomainSpec(kind="disk", radius=radius)


def ellipse(a: float, b: float) -> DomainSpec:
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    return DomainSpec(kind="ellipse", semi_axes=(float(a), float(b)))


def convex_polygon(vertices) -> DomainSpec:
    """Convex polygon from a counterclockwise vertex list."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise NonConvexPolygon("need at least 3 planar vertices")
    e = np.roll(v, -1, axis=0) - v
    if not np.all(np.any(e != 0, axis=1)):
        raise NonConvexPolygon("two consecutive vertices coincide")
    crosses = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    if np.any(crosses < -1e-12):
        raise NonConvexPolygon("vertex turn signs are not uniformly "
                               "counterclockwise (tolerance 1e-12)")
    if np.all(np.abs(crosses) <= 1e-12):
        raise NonConvexPolygon("vertices are collinear")
    return DomainSpec(kind="convex_polygon",
                      vertices=tuple(map(tuple, v.tolist())))


# ---------------------------------------------------------------------------
# signed distance to the boundary (positive inside, negative outside)
# ---------------------------------------------------------------------------

def _polygon_boundary_distance(verts, p):
    """Least distance from the points p (n, 2) to an edge segment."""
    v = np.asarray(verts, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    rel = p[:, None, :] - v
    t = np.clip((rel * e).sum(-1) / (e * e).sum(-1), 0.0, 1.0)
    off = rel - t[..., None] * e
    return np.hypot(off[..., 0], off[..., 1]).min(axis=-1)


def _polygon_inradius(v):
    """Inradius: the Chebyshev centre (p, r) of the half-planes n . p >=
    c (n the inward unit normals) is r from three edge lines, so it is
    the largest r of an edge triple's solution that is r from every
    line.  O(m^3) in m edges."""
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(*e.T)[:, None]
    c = (n * v).sum(axis=1)
    tri = np.array(list(combinations(range(len(v)), 3)))
    A = np.concatenate([n[tri], -np.ones(tri.shape + (1,))], axis=-1)
    regular = np.abs(np.linalg.det(A)) > 1e-12
    sol = np.linalg.solve(A[regular], c[tri[regular], None])[..., 0]
    slack = sol[:, :2] @ n.T - c - sol[:, 2:]
    feasible = np.all(slack >= -1e-12 * np.abs(v).max(), axis=1)
    return float(sol[feasible, 2].max())


# points per block of the ellipse bracket scan: 256 x 257 doubles keep
# each temporary of the scan at about 0.5 MB
_ELLIPSE_BLOCK = 256


def _ellipse_g(t, a, b, px, py):
    """Critical-angle function of the squared distance from (px, py) to
    the ellipse point (a cos t, b sin t)."""
    c, s = np.cos(t), np.sin(t)
    return (a * a - b * b) * c * s - px * a * s + py * b * c


def _ellipse_boundary_distance(a, b, px, py):
    """Distance from the points (px, py) (1-D arrays) to the ellipse
    x^2/a^2 + y^2/b^2 = 1.

    Works in the first quadrant by symmetry.  A 257-point scan of
    _ellipse_g over [0, pi/2], one array per block of points, brackets
    the critical angles; 60 halvings of all brackets of a block at once,
    on the sign of _ellipse_g, shrink each to 2^-60 of its width.  The
    distance is the least over the end angles, the exact zeros of the
    scan and the bisected angles.  Every step is elementwise, so a
    point's distance does not depend on the block it falls in.
    """
    px, py = np.abs(px), np.abs(py)
    ts = np.linspace(0.0, 0.5 * np.pi, 257)

    def dist(t, x, y):
        return np.hypot(x - a * np.cos(t), y - b * np.sin(t))

    out = np.minimum(dist(0.0, px, py), dist(0.5 * np.pi, px, py))
    for start in range(0, px.size, _ELLIPSE_BLOCK):
        x = px[start:start + _ELLIPSE_BLOCK]
        y = py[start:start + _ELLIPSE_BLOCK]
        gs = _ellipse_g(ts, a, b, x[:, None], y[:, None])
        zero = gs[:, :-1] == 0.0
        r, i = np.nonzero(zero | (gs[:, :-1] * gs[:, 1:] < 0))
        x, y, g_lo, lo, hi = x[r], y[r], gs[r, i], ts[i], ts[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = _ellipse_g(mid, a, b, x, y) * g_lo > 0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        t = np.where(zero[r, i], ts[i], 0.5 * (lo + hi))
        np.minimum.at(out, start + r, dist(t, x, y))
    return out


def _inside(spec: DomainSpec, pts) -> np.ndarray:
    """Strict-interior predicate on an (n, 2) array of points: the sign
    rule of distance_to_boundary, by the implicit equation for the
    ellipse and every edge's open half-plane for the polygon."""
    if spec.kind == "ellipse":
        a, b = spec.semi_axes
        return (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 < 1.0
    if spec.kind == "convex_polygon":
        v = np.asarray(spec.vertices, dtype=float)
        e, rel = np.roll(v, -1, axis=0) - v, pts[:, None, :] - v
        return np.all(e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0] > 0, 1)
    return distance_to_boundary(spec, pts) > 0


def distance_to_boundary(spec: DomainSpec, x) -> float:
    """Signed distance to the domain boundary, positive inside.

    kind is "disk", "ellipse" or "convex_polygon".  The disk's is
    radius - |x|; the ellipse's and the polygon's are the unsigned
    distance, negated unless _inside holds (a point on the boundary is
    not inside).  Exact up to rounding for the disk and polygon.  For the
    ellipse, bisection narrows each critical angle to 2^-60 of the
    pi/512 scan step, so the distance is that of the nearest boundary
    point up to rounding; the tests hold it within 1e-12 of a
    dense-angle reference.
    Accepts a single point (returns float) or an (...,2) array.
    """
    p = np.asarray(x, dtype=float)
    scalar = p.ndim == 1
    if spec.kind == "disk":
        d = spec.radius - np.linalg.norm(p, axis=-1)
    elif spec.kind in ("ellipse", "convex_polygon"):
        flat = p.reshape(-1, 2)
        dd = (_ellipse_boundary_distance(*spec.semi_axes, *flat.T)
              if spec.kind == "ellipse"
              else _polygon_boundary_distance(spec.vertices, flat))
        d = np.where(_inside(spec, flat), dd, -dd).reshape(p.shape[:-1])
    else:
        raise ValueError(f"unknown domain kind {spec.kind!r}")
    return float(d) if scalar else d


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

#: the grid moves (diy, dix) of DiscretizedDomain.neighbours' columns:
#: E, W, N, S (the columns of fractions), then the diagonals; the
#: audit's stage 2 tries them in this order, so it decides ties
MOVES = np.array([[0, 1], [0, -1], [1, 0], [-1, 0], [1, 1], [1, -1],
                  [-1, 1], [-1, -1]])


@dataclass
class DiscretizedDomain:
    """Uniform grid over a domain's bounding box and its interior nodes.

    Attributes
    ----------
    spec : DomainSpec
    h : grid spacing
    xs, ys : node coordinate axes
    interior_idx : (N, 2) array of (iy, ix) indices of interior nodes
    index_of : (ny, nx) map to the interior ordinal, -1 elsewhere
    interior_points : (N, 2) coordinates of the interior nodes
    interior_distances : (N,) their signed distances to the boundary
    neighbours : (N, 8) interior ordinals of each node's neighbours
        along MOVES, -1 where the neighbour is not interior; every grid
        adjacency (cut edges, stencil, Hopf nodes, audit moves and
        second differences) is read from it
    fractions : (N, 4) cut-cell fractions theta in (0, 1] for the
        E, W, N, S neighbor directions (1 when the neighbor is interior),
        found by one array bisection over all cut edges

    The three (N, ...) node arrays are read-only.
    """

    spec: DomainSpec
    h: float
    xs: np.ndarray
    ys: np.ndarray
    interior_idx: np.ndarray
    index_of: np.ndarray
    interior_points: np.ndarray
    interior_distances: np.ndarray
    neighbours: np.ndarray
    fractions: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_interior(self) -> int:
        return self.interior_idx.shape[0]


def _cut_fractions(spec: DomainSpec, p, d, h) -> np.ndarray:
    """Fractions s in (0, 1] at which the segments p -> p + h*d cross
    the boundary, for all (n, 2) starts p and directions d at once.

    A segment whose far end is inside gets 1 (on-boundary ends are not
    inside).  The others take 60 halvings of [0, 1] on the inside
    predicate, keep the upper end and are floored at 1e-12.
    """
    def inside(s):
        return _inside(spec, p + (s * h)[:, None] * d)

    lo, hi = np.zeros(len(p)), np.ones(len(p))
    far_inside = inside(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ins = inside(mid)
        lo = np.where(ins, mid, lo)
        hi = np.where(ins, hi, mid)
    return np.where(far_inside, 1.0, np.maximum(hi, 1e-12))


def build_discretization(spec: DomainSpec, h: float) -> DiscretizedDomain:
    """Uniform-grid discretization with its neighbour table and cut-cell
    boundary fractions.

    Every (interior node, direction) pair whose neighbor is not interior
    (or off the grid) gets its fraction from one array bisection over
    all such pairs (_cut_fractions)."""
    if h <= 0:
        raise ValueError("h must be positive")
    if h >= spec.inradius:
        raise NoInteriorNodes(
            f"h={h} is not smaller than the inradius {spec.inradius}")
    (x0, _), (y0, _) = spec.bounding_box
    nx, ny = (np.ceil(float(b - a) / h - 1e-12) + 1
              for a, b in spec.bounding_box)
    if nx * ny > MAX_NODES:  # inf when h is subnormal
        raise ValueError(f"h = {h!r} gives a {nx:.0f} x {ny:.0f} grid, above"
                         f" the cap of {MAX_NODES:.0e} nodes")
    xs, ys = x0 + h * np.arange(int(nx)), y0 + h * np.arange(int(ny))
    dist = distance_to_boundary(spec, np.stack(np.meshgrid(xs, ys), -1))

    interior = dist > 0
    if not interior.any():
        raise NoInteriorNodes("no grid node falls strictly inside the domain")

    iy, ix = np.nonzero(interior)
    index_of = np.full(interior.shape, -1, dtype=int)
    index_of[iy, ix] = np.arange(len(iy))
    neighbours = np.pad(index_of, 1, constant_values=-1)[
        iy[:, None] + 1 + MOVES[:, 0], ix[:, None] + 1 + MOVES[:, 1]]

    k, a = np.nonzero(neighbours[:, :4] < 0)
    fractions = np.ones((len(iy), 4))
    fractions[k, a] = _cut_fractions(
        spec, np.column_stack([xs[ix[k]], ys[iy[k]]]), MOVES[a, ::-1], h)

    nodes = (np.column_stack([xs[ix], ys[iy]]), dist[iy, ix], neighbours)
    for arr in nodes:
        arr.flags.writeable = False
    return DiscretizedDomain(spec, h, xs, ys, np.column_stack([iy, ix]),
                             index_of, *nodes, fractions)


def inner_region_mask(dom: DiscretizedDomain, rho: float) -> np.ndarray:
    """Boolean mask over interior nodes with distance > rho (may be empty)."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return dom.interior_distances > rho
