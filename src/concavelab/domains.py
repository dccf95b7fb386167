"""Bounded convex planar domains on uniform grids.

Supports unit squares, rectangles, disks, ellipses and convex polygons.
Provides signed distance to the boundary, the interior nodes, cut-cell
fractions for embedded-boundary stencils, inner regions (distance >
rho) and interior unit normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import NoInteriorNodes, NonConvexPolygon, VertexAmbiguity

@dataclass(frozen=True)
class DomainSpec:
    """Geometric description of a bounded convex planar domain.

    kind is one of "unit_square", "rectangle", "disk", "ellipse",
    "convex_polygon".  strongly_convex is true exactly for disk/ellipse.
    """

    kind: str
    width: float = 1.0
    height: float = 1.0
    radius: float = 1.0
    semi_axes: tuple = (1.0, 1.0)
    vertices: tuple = ()

    @property
    def strongly_convex(self) -> bool:
        return self.kind in ("disk", "ellipse")

    @property
    def bounding_box(self):
        """((xmin, xmax), (ymin, ymax))"""
        if self.kind in ("unit_square", "rectangle"):
            return (0.0, self.width), (0.0, self.height)
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
        if self.kind in ("unit_square", "rectangle"):
            return 0.5 * min(self.width, self.height)
        if self.kind == "disk":
            return self.radius
        if self.kind == "ellipse":
            return min(self.semi_axes)
        # polygon: maximize distance-to-boundary starting from the centroid
        v = np.asarray(self.vertices, dtype=float)
        c = v.mean(axis=0)
        res = minimize(lambda p: -distance_to_boundary(self, p), c,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12})
        return float(-res.fun)


def unit_square() -> DomainSpec:
    return DomainSpec(kind="unit_square", width=1.0, height=1.0)


def rectangle(width: float, height: float) -> DomainSpec:
    if width <= 0 or height <= 0:
        raise ValueError("rectangle sides must be positive")
    return DomainSpec(kind="rectangle", width=width, height=height)


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
    n = v.shape[0]
    crosses = []
    for i in range(n):
        e1 = v[(i + 1) % n] - v[i]
        e2 = v[(i + 2) % n] - v[(i + 1) % n]
        crosses.append(e1[0] * e2[1] - e1[1] * e2[0])
    crosses = np.array(crosses)
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

def _rect_signed_distance(w, h, x, y):
    inside = np.minimum(np.minimum(x, w - x), np.minimum(y, h - y))
    # outside: Euclidean distance to the rectangle, negated
    dx = np.maximum(np.maximum(-x, x - w), 0.0)
    dy = np.maximum(np.maximum(-y, y - h), 0.0)
    outside = np.hypot(dx, dy)
    return np.where(inside > 0, inside, -outside)


def _segment_distance(p, a, b):
    """Distance from points p (...,2) to segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip(((p - a) @ ab) / denom, 0.0, 1.0)
    proj = a + np.multiply.outer(t, ab)
    return np.linalg.norm(p - proj, axis=-1)


def _polygon_signed_distance(verts, p):
    v = np.asarray(verts, dtype=float)
    n = v.shape[0]
    p = np.asarray(p, dtype=float)
    d = np.full(p.shape[:-1] if p.ndim > 1 else (), np.inf)
    inside = np.ones_like(d, dtype=bool)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        d = np.minimum(d, _segment_distance(p, a, b))
        e = b - a
        cross = e[0] * (p[..., 1] - a[1]) - e[1] * (p[..., 0] - a[0])
        inside &= cross >= 0
    return np.where(inside, d, -d)


# points per block of the ellipse bracket scan: 256 x 257 doubles keep
# each temporary of the scan at about 0.5 MB
_ELLIPSE_BLOCK = 256


def _ellipse_g(t, a, b, px, py):
    """Critical-angle function of the squared distance from (px, py) to
    the ellipse point (a cos t, b sin t)."""
    return ((a * a - b * b) * np.cos(t) * np.sin(t)
            - px * a * np.sin(t) + py * b * np.cos(t))


def _ellipse_boundary_distance(a, b, px, py):
    """Distance from the points (px, py) (1-D arrays) to the ellipse
    x^2/a^2 + y^2/b^2 = 1.

    Works in the first quadrant by symmetry.  A 257-point scan of
    _ellipse_g over [0, pi/2], one array per block of points, brackets
    the critical angles; a scalar root solve (abs tol 1e-12) refines
    each bracket.  The distance is the least over the end angles, the
    exact zeros of the scan and the roots.
    """
    px, py = np.abs(px), np.abs(py)
    ts = np.linspace(0.0, 0.5 * np.pi, 257)

    def dist(t, x, y):
        return np.hypot(x - a * np.cos(t), y - b * np.sin(t))

    out = np.minimum(dist(0.0, px, py), dist(0.5 * np.pi, px, py))
    for start in range(0, px.size, _ELLIPSE_BLOCK):
        gs = _ellipse_g(ts, a, b, px[start:start + _ELLIPSE_BLOCK, None],
                        py[start:start + _ELLIPSE_BLOCK, None])
        zero = gs[:, :-1] == 0.0
        for r, i in zip(*np.nonzero(zero | (gs[:, :-1] * gs[:, 1:] < 0))):
            k = start + r
            t = ts[i] if zero[r, i] else brentq(
                _ellipse_g, ts[i], ts[i + 1],
                args=(a, b, float(px[k]), float(py[k])), xtol=1e-12)
            out[k] = min(out[k], dist(t, px[k], py[k]))
    return out


def _inside(spec: DomainSpec, pts) -> np.ndarray:
    """Strict-interior predicate on an (n, 2) array of points: the sign
    rule of distance_to_boundary, without the ellipse root solve."""
    if spec.kind == "ellipse":
        a, b = spec.semi_axes
        return (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 < 1.0
    return distance_to_boundary(spec, pts) > 0


def distance_to_boundary(spec: DomainSpec, x) -> float:
    """Signed distance to the domain boundary, positive inside.

    Exact for square/rectangle/disk/polygon; for the ellipse a
    one-dimensional root solve with absolute tolerance 1e-10.
    Accepts a single point (returns float) or an (...,2) array.
    """
    p = np.asarray(x, dtype=float)
    scalar = p.ndim == 1
    if spec.kind in ("unit_square", "rectangle"):
        d = _rect_signed_distance(spec.width, spec.height,
                                  p[..., 0], p[..., 1])
    elif spec.kind == "disk":
        d = spec.radius - np.linalg.norm(p, axis=-1)
    elif spec.kind == "ellipse":
        a, b = spec.semi_axes
        flat = p.reshape(-1, 2)
        dd = _ellipse_boundary_distance(a, b, flat[:, 0], flat[:, 1])
        d = np.where(_inside(spec, flat), dd, -dd)
        d = d.reshape(p.shape[:-1])
    elif spec.kind == "convex_polygon":
        d = _polygon_signed_distance(spec.vertices, p)
    else:
        raise ValueError(f"unknown domain kind {spec.kind!r}")
    return float(d) if scalar else d


def boundary_normal(spec: DomainSpec, p) -> np.ndarray:
    """Unit inward normal at a boundary point (within 1e-8 of it)."""
    p = np.asarray(p, dtype=float)
    if abs(distance_to_boundary(spec, p)) > 1e-8:
        raise ValueError("point is not on the boundary (tolerance 1e-8)")
    if spec.kind in ("unit_square", "rectangle"):
        w, h = spec.width, spec.height
        # inward normal on the nearest side
        dists = np.array([p[0], w - p[0], p[1], h - p[1]])
        normals = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        return normals[int(np.argmin(np.abs(dists)))]
    if spec.kind == "disk":
        return -p / np.linalg.norm(p)
    if spec.kind == "ellipse":
        a, b = spec.semi_axes
        g = np.array([2 * p[0] / a ** 2, 2 * p[1] / b ** 2])
        return -g / np.linalg.norm(g)
    # polygon: locate the edge containing p
    v = np.asarray(spec.vertices, dtype=float)
    n = v.shape[0]
    on_edges = []
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        if _segment_distance(p, a, b) <= 1e-8:
            on_edges.append((a, b))
    if len(on_edges) != 1:
        raise VertexAmbiguity("point lies at (or within 1e-8 of) a "
                              "polygon vertex; the normal is ambiguous")
    a, b = on_edges[0]
    e = (b - a) / np.linalg.norm(b - a)
    return np.array([-e[1], e[0]])  # left turn of a CCW edge points inward


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

@dataclass
class DiscretizedDomain:
    """Uniform grid over a domain's bounding box and its interior nodes.

    Attributes
    ----------
    spec : DomainSpec
    h : grid spacing
    xs, ys : node coordinate axes
    dist : (ny, nx) signed distance field
    interior_idx : (N, 2) array of (iy, ix) indices of interior nodes
    index_of : (ny, nx) map to the interior ordinal, -1 elsewhere
    fractions : (N, 4) cut-cell fractions theta in (0, 1] for the
        E, W, N, S neighbor directions (1 when the neighbor is interior),
        found by one array bisection over all cut edges
    """

    spec: DomainSpec
    h: float
    xs: np.ndarray
    ys: np.ndarray
    dist: np.ndarray
    interior_idx: np.ndarray
    index_of: np.ndarray
    fractions: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_interior(self) -> int:
        return self.interior_idx.shape[0]

    @property
    def interior_points(self) -> np.ndarray:
        """(N, 2) coordinates of the interior nodes."""
        iy, ix = self.interior_idx[:, 0], self.interior_idx[:, 1]
        return np.column_stack([self.xs[ix], self.ys[iy]])

    @property
    def interior_distances(self) -> np.ndarray:
        iy, ix = self.interior_idx[:, 0], self.interior_idx[:, 1]
        return self.dist[iy, ix]


_DIRS = np.array([[0, 1], [0, -1], [1, 0], [-1, 0]])  # E, W, N, S as (diy,dix)


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
    """Uniform-grid discretization with cut-cell boundary fractions.

    Every (interior node, direction) pair whose neighbor is not interior
    (or off the grid) gets its fraction from one array bisection over
    all such pairs (_cut_fractions)."""
    if h <= 0:
        raise ValueError("h must be positive")
    if h >= spec.inradius:
        raise NoInteriorNodes(
            f"h={h} is not smaller than the inradius {spec.inradius}")
    (x0, x1), (y0, y1) = spec.bounding_box
    nx = int(np.ceil((x1 - x0) / h - 1e-12)) + 1
    ny = int(np.ceil((y1 - y0) / h - 1e-12)) + 1
    xs = x0 + h * np.arange(nx)
    ys = y0 + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X, Y], axis=-1)
    dist = distance_to_boundary(spec, pts)

    interior = dist > 0
    if not interior.any():
        raise NoInteriorNodes("no grid node falls strictly inside the domain")

    iy, ix = np.nonzero(interior)
    interior_idx = np.column_stack([iy, ix])
    index_of = np.full((ny, nx), -1, dtype=int)
    index_of[iy, ix] = np.arange(len(iy))

    nb_inside = np.pad(interior, 1)[iy[:, None] + 1 + _DIRS[:, 0],
                                    ix[:, None] + 1 + _DIRS[:, 1]]
    k, a = np.nonzero(~nb_inside)
    fractions = np.ones((len(iy), 4))
    fractions[k, a] = _cut_fractions(
        spec, np.column_stack([xs[ix[k]], ys[iy[k]]]), _DIRS[a, ::-1], h)

    return DiscretizedDomain(spec=spec, h=h, xs=xs, ys=ys, dist=dist,
                             interior_idx=interior_idx, index_of=index_of,
                             fractions=fractions)


def inner_region_mask(dom: DiscretizedDomain, rho: float) -> np.ndarray:
    """Boolean mask over interior nodes with distance > rho (may be empty)."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return dom.interior_distances > rho
