import tracemalloc
import warnings

import numpy as np
import pytest

from concavelab import (Field, build_discretization, concave_approximation,
                        ellipse, field_from_function, hyers_ulam_constant,
                        unit_square)
from concavelab.domains import _scan_nodes
from concavelab.envelope import _FACET_BLOCK, _upper_envelope
from concavelab.errors import HullDegenerate
from concavelab.operators import bilinear_interp


def test_stability_constants():
    assert hyers_ulam_constant(1) == pytest.approx(0.5)
    assert hyers_ulam_constant(2) == pytest.approx(5.0 / 6.0)
    assert hyers_ulam_constant(3) == pytest.approx(9.0 / 8.0)


def test_1d_vee_exact_values():
    # f = |x - 1/2|: majorant 1/2, approximant 1/4, distance 0.25,
    # defect 0.5, and the bound 0.5 * 0.5 holds with equality
    x = np.linspace(0.0, 1.0, 101)
    res = concave_approximation((x, np.abs(x - 0.5)))
    assert res.dimension == 1
    assert res.distance == pytest.approx(0.25, abs=1e-12)
    assert res.delta == pytest.approx(0.5, abs=1e-12)
    assert res.k_n == pytest.approx(0.5)
    assert np.allclose(res.g_hat, 0.5)
    assert np.allclose(res.g, 0.25)
    assert res.bound_ok


def test_1d_concave_input_unchanged():
    x = np.linspace(0.0, 1.0, 60)
    y = x * (1.0 - x)
    res = concave_approximation((x, y))
    assert res.distance <= 1e-12
    assert res.delta <= 1e-12
    assert np.allclose(res.g_hat, y, atol=1e-12)


def test_1d_unsorted_input():
    rng = np.random.default_rng(2)
    x = rng.permutation(np.linspace(0.0, 1.0, 41))
    res = concave_approximation((x, np.abs(x - 0.5)))
    assert res.distance == pytest.approx(0.25, abs=1e-12)


def test_1d_majorant_dominates():
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 1.0, 80)
    y = np.sin(np.pi * x) + 0.1 * rng.standard_normal(80)
    res = concave_approximation((x, y))
    assert np.all(res.g_hat >= y - 1e-12)
    assert res.bound_ok


def test_1d_degenerate_raises():
    with pytest.raises(HullDegenerate):
        concave_approximation((np.zeros(5), np.arange(5.0)))


def test_1d_nan_section_raises():
    x = np.linspace(0.0, 1.0, 11)
    y = np.abs(x - 0.5)
    y[4] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        concave_approximation((x, y))


def test_1d_duplicate_first_abscissa_is_dominated():
    # the majorant at x = 0 is the largest of the three values there
    res = concave_approximation((np.array([0.0, 0.0, 0.0, 1.0]),
                                 np.array([0.0, 2.0, 1.0, 0.0])))
    assert res.g_hat.tolist() == [2.0, 2.0, 2.0, 0.0]
    assert res.distance == 1.0


def _monotone_chain_envelope(x, y):
    """Least concave majorant of a 1-D section by a monotone-chain sweep
    over the samples sorted by abscissa, then value (sorted by abscissa
    alone, three samples at the first abscissa can leave the majorant
    below f there), interpolated linearly between hull points."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    hull = []  # indices into xs
    for i in range(len(xs)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (xs[i2] - xs[i1]) * (ys[i] - ys[i1]) \
                - (ys[i2] - ys[i1]) * (xs[i] - xs[i1])
            if cross >= 0:  # middle point below the chord: drop it
                hull.pop()
            else:
                break
        hull.append(i)
    env_sorted = np.interp(xs, xs[hull], ys[hull])
    env = np.empty_like(env_sorted)
    env[order] = env_sorted
    return env


def _section(kind, n, rng):
    if kind == "sorted":
        x = np.sort(rng.uniform(0.0, 1.0, n))
    elif kind == "unsorted":
        x = rng.uniform(-1.0, 2.0, n)
    elif kind == "duplicates":  # about three samples per abscissa
        x = rng.integers(0, max(2, n // 3), n) / 7.0
        x[:2] = 0.0, 1.0
    else:  # collinear runs: a concave broken line with some samples lowered
        x = rng.permutation(np.linspace(0.0, 1.0, n))
        y = np.minimum(np.minimum(3.0 * x, 1.0 + 0.5 * x), 4.0 - 3.0 * x)
        low = rng.random(n) < 0.3
        return x, y - low * rng.uniform(0.0, 1.0, n)
    return x, np.sin(3.0 * x) + rng.standard_normal(n)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 300])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "duplicates",
                                  "collinear"])
def test_1d_majorant_matches_monotone_chain(kind, n):
    # the lifted hull agrees with the sweep to the rounding floor
    x, y = _section(kind, n, np.random.default_rng(n))
    want = _monotone_chain_envelope(x, y)
    dist = 0.5 * float(np.max(want - y))
    res = concave_approximation((x, y))
    scale = np.abs(want).max()
    assert np.max(np.abs(res.g_hat - want)) <= 1e-13 * scale
    assert abs(res.distance - dist) <= 1e-13 * scale
    assert res.bound_ok == (dist <= res.k_n * res.delta + 1e-12)


@pytest.mark.parametrize("n, want", [(5, "1.2052255934098"),
                                     (17, "3.886469714464373"),
                                     (64, "5.591572481807006")])
def test_1d_duplicate_abscissae_delta_without_warnings(n, want):
    # a pair of samples at one abscissa has no middle point (its lambda
    # would be 0/0): it is skipped, with no RuntimeWarning
    x, y = _section("duplicates", n, np.random.default_rng(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = concave_approximation((x, y))
    assert repr(float(res.delta)) == want


def test_2d_concave_field():
    dom = build_discretization(unit_square(), 1.0 / 12.0)
    f = field_from_function(dom, lambda x, y: x * (1 - x) + y * (1 - y))
    res = concave_approximation(f)
    assert res.dimension == 2
    assert res.distance <= 1e-10
    assert res.k_n == pytest.approx(5.0 / 6.0)
    assert np.all(res.g_hat >= f.values - 1e-12)


@pytest.mark.parametrize("spec", [unit_square(), ellipse(1.0, 0.6)],
                         ids=["square", "ellipse"])
@pytest.mark.parametrize("fn", [lambda x, y: 0.0 * x,
                                lambda x, y: 2.0 * x - 3.0 * y + 0.7],
                         ids=["zero", "affine"])
def test_2d_affine_field_is_its_own_envelope(spec, fn):
    # the lifted samples are coplanar, which Qhull cannot hull: the
    # majorant is the samples themselves, at distance 0
    f = field_from_function(build_discretization(spec, 1.0 / 8.0), fn)
    res = concave_approximation(f)
    sel = _scan_nodes(f.dom, 600)
    assert np.array_equal(res.g_hat, f.values[sel])
    assert res.distance == 0.0
    assert res.bound_ok


def test_2d_collinear_samples_raise_a_one_line_error():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(HullDegenerate) as info:
        _upper_envelope(pts, np.array([0.0, 1.0, 5.0, 2.0]))
    assert "\n" not in str(info.value)


def test_2d_perturbed_field_bound():
    dom = build_discretization(unit_square(), 1.0 / 12.0)
    rng = np.random.default_rng(4)
    base = field_from_function(dom, lambda x, y: x * (1 - x) + y * (1 - y))
    vals = base.values + 0.01 * rng.standard_normal(dom.n_interior)
    res = concave_approximation(Field(dom, vals))
    assert res.delta > 0
    assert res.distance <= res.k_n * res.delta + 1e-12
    assert res.bound_ok


def test_2d_subsampling_large_fields():
    dom = build_discretization(unit_square(), 1.0 / 48.0)
    f = field_from_function(dom, lambda x, y: x * (1 - x) + y * (1 - y))
    res = concave_approximation(f)
    assert len(res.g) <= 650  # stride subsample of ~600, not the 47^2
    assert res.bound_ok


def test_rejects_unknown_input():
    with pytest.raises(TypeError):
        concave_approximation(np.zeros(10))


def _reference_delta(f, max_nodes=600):
    """The unchunked delta scan: lattice subsample of at most about
    max_nodes nodes, one triu_indices gather of all pairs per lambda,
    middle values interpolated bilinearly on the full grid."""
    dom = f.dom
    pts, vals = dom.interior_points, f.values
    if len(pts) > max_nodes:
        stride = int(np.ceil(np.sqrt(len(pts) / max_nodes)))
        iy, ix = dom.interior_idx[:, 0], dom.interior_idx[:, 1]
        keep = (iy % stride == 0) & (ix % stride == 0)
        pts, vals = pts[keep], vals[keep]
    grid = f.to_grid()
    i1, i3 = np.triu_indices(len(pts), k=1)
    worst = 0.0
    for lam in np.linspace(0, 1, 17)[1:-1]:
        x2 = lam * pts[i3] + (1 - lam) * pts[i1]
        c = bilinear_interp(dom, grid, x2) - lam * vals[i3] \
            - (1 - lam) * vals[i1]
        worst = min(worst, float(c.min()))
    return -worst


def _wavy_field(dom):
    return field_from_function(
        dom, lambda x, y: np.cos(x) * np.cos(2 * y) + 0.1 * np.sin(7 * x))


@pytest.mark.parametrize("spec,h", [(unit_square(), 1 / 24),
                                    (ellipse(1.3, 0.5), 1 / 32)],
                         ids=["square-all-nodes", "ellipse-subsampled"])
def test_2d_delta_matches_unchunked_scan(spec, h):
    # 529 square nodes (139,656 pairs); the ellipse's 2,073 nodes are
    # subsampled to about 600
    dom = build_discretization(spec, h)
    rng = np.random.default_rng(1)
    for f in (_wavy_field(dom),
              Field(dom, rng.uniform(0.0, 1.0, dom.n_interior))):
        res = concave_approximation(f)
        assert res.delta == _reference_delta(f)
        assert res.delta > 0


def test_2d_delta_interpolates_no_point(monkeypatch):
    # delta gathers tabulated cells: no bilinear_interp call, and
    # np.floor sees 2 * 15 * nu^2 elements for the one scan
    import concavelab.audit as audit_mod
    dom = build_discretization(ellipse(1.3, 0.5), 1 / 32)
    pts = dom.interior_points[_scan_nodes(dom, 600)]
    nu = max(np.unique(pts[:, axis]).size for axis in (0, 1))
    calls, floor_elems = [], []
    floor, interp = np.floor, audit_mod.bilinear_interp

    def counting_floor(x, *args, **kwargs):
        floor_elems.append(np.size(x))
        return floor(x, *args, **kwargs)

    def counting_interp(*args):
        calls.append(args)
        return interp(*args)

    monkeypatch.setattr(np, "floor", counting_floor)
    monkeypatch.setattr(audit_mod, "bilinear_interp", counting_interp)
    res = concave_approximation(_wavy_field(dom))
    assert res.delta > 0
    assert calls == []
    assert 0 < sum(floor_elems) <= 2 * 15 * nu ** 2


def test_2d_memory_bounded():
    # gathering all 139,656 pairs at once peaked at 18 MB
    dom = build_discretization(unit_square(), 1 / 24)
    f = _wavy_field(dom)
    tracemalloc.start()
    try:
        concave_approximation(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _dense_envelope(pts, vals):
    """The envelope from the whole facets x points plane matrix."""
    from scipy.spatial import ConvexHull
    eqs = ConvexHull(np.column_stack([pts, vals])).equations
    upper = eqs[eqs[:, 2] > 1e-12]
    z = -(upper[:, 0][:, None] * pts[:, 0][None, :]
          + upper[:, 1][:, None] * pts[:, 1][None, :]
          + upper[:, 3][:, None]) / upper[:, 2][:, None]
    return np.maximum(z.min(axis=0), vals), len(upper)


@pytest.mark.parametrize("seed", range(4))
def test_envelope_facet_blocks_match_dense_planes(seed):
    # the running minimum over blocks of facets gives the bits of the
    # minimum over the dense plane matrix, on scattered and grid points
    rng = np.random.default_rng(seed)
    if seed < 2:
        pts = rng.uniform(-1.0, 1.0, (600, 2))
    else:
        dom = build_discretization(ellipse(1.3, 0.7), 1 / 32)
        pts = dom.interior_points[_scan_nodes(dom, 600)]
    x, y = pts.T
    vals = 1.0 - x ** 2 - 0.5 * y ** 2 + 0.05 * rng.standard_normal(len(x))
    want, facets = _dense_envelope(pts, vals)
    assert facets > _FACET_BLOCK  # more than one block
    assert _upper_envelope(pts, vals).tobytes() == want.tobytes()
