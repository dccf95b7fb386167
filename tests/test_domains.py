import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavelab import (build_discretization, convex_polygon, disk,
                        distance_to_boundary, ellipse, inner_region_mask,
                        rectangle, unit_square)
from concavelab import domains
from concavelab.domains import MOVES
from concavelab.errors import NoInteriorNodes, NonConvexPolygon


def test_unit_square_node_counts():
    # 5x5 lattice at h=0.25 -> 9 interior nodes
    dom = build_discretization(unit_square(), 0.25)
    assert dom.n_interior == 9
    assert dom.xs.size == 5 and dom.ys.size == 5


def test_square_interior_fractions_full():
    dom = build_discretization(unit_square(), 0.25)
    assert np.allclose(dom.fractions, 1.0)


def test_square_distance_center():
    assert distance_to_boundary(unit_square(), (0.5, 0.5)) == pytest.approx(0.5)
    assert distance_to_boundary(unit_square(), (0.1, 0.4)) == pytest.approx(0.1)


def test_disk_distance():
    # radius 1, |x| = 0.5 -> distance 0.5
    assert distance_to_boundary(disk(), (0.3, 0.4)) == pytest.approx(0.5)
    assert distance_to_boundary(disk(radius=2.0), (0.0, 0.0)) == pytest.approx(2.0)


def test_disk_cut_fractions():
    dom = build_discretization(disk(), 0.25)
    assert np.all(dom.fractions > 0.0)
    assert np.all(dom.fractions <= 1.0 + 1e-12)
    # curved boundary must produce genuinely cut cells
    assert np.any(dom.fractions < 1.0 - 1e-6)


def test_disk_interior_nodes_inside():
    dom = build_discretization(disk(), 0.1)
    r = np.hypot(dom.interior_points[:, 0], dom.interior_points[:, 1])
    assert np.all(r < 1.0)


def test_ellipse_distance_on_axes():
    e = ellipse(1.0, 0.5)
    assert distance_to_boundary(e, (0.0, 0.0)) == pytest.approx(0.5)
    assert distance_to_boundary(e, (0.9, 0.0)) == pytest.approx(0.1, abs=1e-6)


def test_rectangle_distance():
    r = rectangle(2.0, 1.0)
    assert distance_to_boundary(r, (1.0, 0.5)) == pytest.approx(0.5)


def test_inner_region_mask_square():
    # h=0.25, rho=0.3: only the center node is deeper than 0.3
    dom = build_discretization(unit_square(), 0.25)
    mask = inner_region_mask(dom, 0.3)
    pts = dom.interior_points[mask]
    assert pts.shape == (1, 2)
    assert np.allclose(pts[0], [0.5, 0.5])


def test_inner_region_mask_monotone_in_rho():
    dom = build_discretization(unit_square(), 0.1)
    m1 = inner_region_mask(dom, 0.1)
    m2 = inner_region_mask(dom, 0.3)
    assert np.all(m2 <= m1)


def test_convex_polygon_rejects_nonconvex():
    verts = [(0, 0), (1, 0), (0.4, 0.4), (0, 1)]
    with pytest.raises(NonConvexPolygon):
        convex_polygon(verts)


def test_convex_polygon_rejects_repeated_vertex():
    # a repeated vertex makes a zero-length edge, whose distance was NaN:
    # the build then found no interior node
    with pytest.raises(NonConvexPolygon, match="coincide"):
        convex_polygon([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])


def test_convex_polygon_triangle_builds():
    spec = convex_polygon([(0, 0), (1, 0), (0.5, 1.0)])
    dom = build_discretization(spec, 0.05)
    assert dom.n_interior > 0
    d = np.array([distance_to_boundary(spec, p) for p in dom.interior_points])
    assert np.all(d > 0)


@pytest.mark.parametrize("vertices, n_interior", [
    ([(0, 0), (3, 0), (0, 3)], 406),
    ([(0, 0), (0.5, 0), (0.5, 0.7), (0, 0.7)], 24),
])
def test_polygon_nodes_on_an_edge_are_not_interior(vertices, n_interior):
    # at h = 0.1 grid lines run along the edges: a node on an edge is
    # outside the open half-plane, so it is no unknown and no cut
    # fraction falls to the 1e-12 floor
    spec = convex_polygon(vertices)
    dom = build_discretization(spec, 0.1)
    assert dom.n_interior == n_interior
    assert np.all(domains._inside(spec, dom.interior_points))
    assert dom.fractions.min() > 1e-12


def test_strong_convexity_flags():
    assert disk().strongly_convex
    assert ellipse(1.0, 0.5).strongly_convex
    assert not unit_square().strongly_convex


def test_ellipse_distance_independent_of_scan_blocks(monkeypatch):
    # the bracket scan runs over blocks of points; the split must not
    # change any distance
    e = ellipse(1.3, 0.6)
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, (300, 2))
    whole = distance_to_boundary(e, pts)
    monkeypatch.setattr(domains, "_ELLIPSE_BLOCK", 7)
    assert np.array_equal(distance_to_boundary(e, pts), whole)
    single = [distance_to_boundary(e, p) for p in pts[:20]]
    assert np.array_equal(single, whole[:20])


def test_import_leaves_scipy_optimize_out():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, concavelab; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "'scipy.optimize')))"], env=env, capture_output=True, text=True,
        check=True, timeout=120)
    assert out.stdout.strip() == "[]"


_HEXAGON = [(np.cos(t), np.sin(t)) for t in np.arange(6) * np.pi / 3]


@pytest.mark.parametrize("vertices, want", [
    ([(0, 0), (1, 0), (1, 1), (0, 1)], 0.5),
    ([(0, 0), (2, 0), (2, 1), (0, 1)], 0.5),
    (_HEXAGON, np.sqrt(3) / 2),
    ([(0, 0), (4, 0), (0, 3)], 1.0),
    # a collinear middle vertex adds a parallel edge line
    ([(0, 0), (2, 0), (4, 0), (0, 3)], 1.0),
])
def test_polygon_inradius_exact(vertices, want):
    spec = convex_polygon(vertices)
    assert spec.inradius == pytest.approx(want, rel=1e-14, abs=0)
    # translating the polygon moves the centre, not the radius
    moved = convex_polygon(np.asarray(vertices, dtype=float) + [3.0, -2.0])
    assert moved.inradius == pytest.approx(want, rel=1e-13, abs=0)


def test_polygon_h_above_inradius_has_no_interior_nodes():
    spec = convex_polygon([(0, 0), (4, 0), (0, 3)])  # inradius 1
    with pytest.raises(NoInteriorNodes, match="inradius"):
        build_discretization(spec, 1.0 + 1e-9)
    assert build_discretization(spec, 1.0 - 1e-9).n_interior > 0


@pytest.mark.parametrize("h, grid", [(1e-6, "1000001 x 1000001"),
                                     (5e-324, "inf x inf")])
def test_grid_above_node_cap_is_refused_before_allocating(h, grid):
    # 10^12 nodes would need terabytes: the refusal comes first, so the
    # call allocates no array of the grid's size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^h = {h!r} gives a {grid}"):
            build_discretization(unit_square(), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_node_cap_is_inclusive(monkeypatch):
    # h = 1/8 on the unit square is a 9 x 9 grid
    monkeypatch.setattr(domains, "MAX_NODES", 81)
    assert build_discretization(unit_square(), 1.0 / 8.0).n_interior == 49
    with pytest.raises(ValueError, match="10 x 10 grid, above the cap"):
        build_discretization(unit_square(), 1.0 / 8.5)


def _dense_ellipse_distance(a, b, p):
    """|p - (a cos t, b sin t)| minimised over 4,001 angles, then a
    golden-section search around every local minimum of that scan."""
    ts = np.linspace(0.0, 2 * np.pi, 4001)[:-1]
    step = ts[1]

    def dist(t):
        return np.hypot(p[0] - a * np.cos(t), p[1] - b * np.sin(t))

    d = dist(ts)
    lo_min = (d <= np.roll(d, 1)) & (d <= np.roll(d, -1))
    lo, hi = ts[lo_min] - step, ts[lo_min] + step
    r = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        m1, m2 = hi - r * (hi - lo), lo + r * (hi - lo)
        left = dist(m1) <= dist(m2)
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    return min(d.min(), dist(0.5 * (lo + hi)).min())


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (0.6, 1.3), (2.0, 0.3),
                                  (1.1, 1.0)])
def test_ellipse_distance_matches_dense_reference(a, b):
    rng = np.random.default_rng(17)
    t = rng.uniform(0, 2 * np.pi, 12)
    rho = np.concatenate([rng.uniform(0.0, 0.98, 6), rng.uniform(1.02, 2, 6)])
    pts = np.concatenate([
        np.column_stack([rho * a * np.cos(t), rho * b * np.sin(t)]),
        # on the axes, inside and outside, and the centre
        [[0.3 * a, 0.0], [-0.9 * a, 0.0], [1.5 * a, 0.0], [0.0, 0.5 * b],
         [0.0, -1.7 * b], [0.0, 0.0]]])
    d = distance_to_boundary(ellipse(a, b), pts)
    inside = (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 < 1
    assert np.array_equal(d > 0, inside)
    ref = np.array([_dense_ellipse_distance(a, b, p) for p in pts])
    assert np.max(np.abs(np.abs(d) - ref)) <= 1e-12


@pytest.mark.parametrize("spec", [unit_square(), disk(0.8),
                                  ellipse(1.0, 0.5),
                                  convex_polygon([(0, 0), (1, 0.2),
                                                  (0.4, 0.9)])],
                         ids=["unit_square", "disk", "ellipse",
                              "convex_polygon"])
def test_neighbours_match_index_map(spec):
    dom = build_discretization(spec, 1.0 / 10.0)
    ny, nx = dom.index_of.shape
    want = np.full((dom.n_interior, 8), -1)
    for k, (j, i) in enumerate(dom.interior_idx):
        for c, (diy, dix) in enumerate(MOVES):
            if 0 <= j + diy < ny and 0 <= i + dix < nx:
                want[k, c] = dom.index_of[j + diy, i + dix]
    assert np.array_equal(dom.neighbours, want)
    j, i = dom.interior_idx.T
    assert np.array_equal(dom.interior_points,
                          np.column_stack([dom.xs[i], dom.ys[j]]))
    assert np.array_equal(dom.interior_distances,
                          distance_to_boundary(spec, dom.interior_points))
    for arr in (dom.neighbours, dom.interior_points,
                dom.interior_distances):
        assert not arr.flags.writeable


# ---------------------------------------------------------------------------
# cut-cell fractions against a scalar reference bisection
# ---------------------------------------------------------------------------

def _reference_fractions(dom):
    """Every cut edge p -> p + h*d, found node by node on the grid, gets
    60 halvings on the signed distance: the bisections of all edges run
    in lockstep, one distance call per halving."""
    ny, nx = dom.index_of.shape
    out = np.ones((dom.n_interior, 4))
    cut = []
    for k, (j, i) in enumerate(dom.interior_idx):
        for a, (diy, dix) in enumerate(MOVES[:4]):
            jj, ii = j + diy, i + dix
            if not (0 <= jj < ny and 0 <= ii < nx
                    and dom.index_of[jj, ii] >= 0):
                cut.append((k, a, dom.xs[i], dom.ys[j], dix, diy))
    k, a, px, py, dx, dy = np.array(cut).T
    p, d = np.column_stack([px, py]), np.column_stack([dx, dy])

    def f(s):
        return distance_to_boundary(dom.spec, p + (s * dom.h)[:, None] * d)

    lo, hi = np.zeros(len(p)), np.ones(len(p))
    far_inside = f(hi) > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ins = f(mid) > 0
        lo = np.where(ins, mid, lo)
        hi = np.where(ins, hi, mid)
    out[k.astype(int), a.astype(int)] = np.where(far_inside, 1.0,
                                                 np.maximum(hi, 1e-12))
    return out


_GRID = st.sampled_from([1 / 7, 1 / 9, 1 / 10, 1 / 12, 0.13])
_FAST = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None)
_SLOW = settings(max_examples=8, deadline=None, derandomize=True,
                 database=None)


@_FAST
@given(w=st.floats(0.5, 2.0), hgt=st.floats(0.5, 2.0), h=_GRID)
def test_rectangle_fractions_match_scalar_bisection(w, hgt, h):
    dom = build_discretization(rectangle(w, hgt), h)
    assert np.array_equal(dom.fractions, _reference_fractions(dom))

    # the rectangle's closed-form distance, bit for bit, on the interior
    # set it makes positive
    def closed_form(x, y):
        return np.minimum(np.minimum(x, w - x), np.minimum(y, hgt - y))

    X, Y = np.meshgrid(dom.xs, dom.ys)
    assert np.array_equal(dom.index_of >= 0, closed_form(X, Y) > 0)
    assert np.array_equal(dom.interior_distances,
                          closed_form(*dom.interior_points.T))


@_FAST
@given(r=st.floats(0.4, 1.5), h=_GRID)
def test_disk_fractions_match_scalar_bisection(r, h):
    dom = build_discretization(disk(r), h)
    assert np.array_equal(dom.fractions, _reference_fractions(dom))


@_SLOW
@given(a=st.floats(0.4, 1.2), b=st.floats(0.4, 1.2), h=_GRID)
def test_ellipse_fractions_match_scalar_bisection(a, b, h):
    # the scalar reference decides the sign by a root solve, which reads
    # 0 within an ulp of the boundary; the array pass uses the implicit
    # equation there, so the two may differ in the last bits
    dom = build_discretization(ellipse(a, b), h)
    assert np.max(np.abs(dom.fractions - _reference_fractions(dom))) <= 1e-13


@_SLOW
@given(n=st.integers(4, 8), turn=st.floats(0.0, 2 * np.pi),
       jitter=st.lists(st.floats(-0.2, 0.2), min_size=8, max_size=8),
       r=st.floats(0.7, 1.1), h=_GRID)
def test_polygon_fractions_match_scalar_bisection(n, turn, jitter, r, h):
    # vertices on a circle, each within a fifth of a step of an even
    # spread: convex, with the inradius above 2h on every grid drawn
    t = turn + 2 * np.pi * (np.arange(n) + np.array(jitter[:n])) / n
    spec = convex_polygon(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    dom = build_discretization(spec, h)
    assert np.max(np.abs(dom.fractions - _reference_fractions(dom))) <= 1e-13
