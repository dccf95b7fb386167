import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from concavelab import (Field, apply_laplacian, build_discretization,
                        convex_polygon, disk, ellipse, field_from_function,
                        poisson_solve, principal_eigenpair, rectangle,
                        unit_square)
from concavelab.domains import _DIRS
from concavelab.operators import (_PAIR_CHUNK, bilinear_interp,
                                  neg_laplacian_matrix, pair_scan,
                                  solve_shifted_poisson)


@pytest.fixture(scope="module")
def square32():
    return build_discretization(unit_square(), 1.0 / 32.0)


def test_field_length_validation(square32):
    with pytest.raises(ValueError):
        Field(square32, np.zeros(3))


def test_laplacian_exact_on_quadratic(square32):
    # Lap(x^2 + y^2) = 4, exact for the 5-point stencil away from the
    # boundary (where the Dirichlet fill makes the stencil inconsistent
    # with the non-vanishing quadratic)
    f = field_from_function(square32, lambda x, y: x ** 2 + y ** 2)
    lap = apply_laplacian(f)
    d = square32.interior_distances
    inside = d > 2.5 * square32.h
    assert np.allclose(lap.values[inside], 4.0, atol=1e-9)


def test_poisson_second_order_convergence():
    # -Lap u = 2 pi^2 sin(pi x) sin(pi y) has the exact solution
    # sin(pi x) sin(pi y)
    errs = []
    for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        dom = build_discretization(unit_square(), h)
        x, y = dom.interior_points.T
        rhs = 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        u = poisson_solve(dom, rhs)
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        errs.append(float(np.max(np.abs(u - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_poisson_disk_torsion_center():
    # -Lap v = 1 on the unit disk: v = (1 - |x|^2)/4, v(0) = 0.25
    dom = build_discretization(disk(), 1.0 / 32.0)
    v = poisson_solve(dom, np.ones(dom.n_interior))
    k = int(np.argmin(np.hypot(*dom.interior_points.T)))
    assert v[k] == pytest.approx(0.25, abs=2e-3)


def test_shifted_poisson_residual(square32):
    rng = np.random.default_rng(3)
    rhs = Field(square32, rng.standard_normal(square32.n_interior))
    u = solve_shifted_poisson(0.01, rhs)
    # residual of (I + tau * (-Lap)) u = rhs
    res = u.values + 0.01 * (-apply_laplacian(u).values) - rhs.values
    assert np.max(np.abs(res)) < 1e-9


def test_eigenpair_square(square32):
    eig = principal_eigenpair(square32)
    assert eig.lam == pytest.approx(2 * np.pi ** 2, rel=0.01)
    assert np.all(eig.phi.values > 0)
    assert eig.phi.values.max() == pytest.approx(1.0)


def test_eigenpair_disk():
    dom = build_discretization(disk(), 1.0 / 32.0)
    eig = principal_eigenpair(dom)
    # j_{0,1}^2 = 5.7832...
    assert eig.lam == pytest.approx(5.7832, rel=0.02)
    assert np.all(eig.phi.values > 0)


def test_bilinear_interp_reproduces_nodes(square32):
    f = field_from_function(square32, lambda x, y: x * (1 - x) * y)
    g = f.to_grid()
    got = bilinear_interp(square32, g, square32.interior_points)
    assert np.allclose(got, f.values)


def test_bilinear_interp_linear_exact(square32):
    f = field_from_function(square32, lambda x, y: 2 * x - y)
    g = f.to_grid()
    pts = np.array([[0.51, 0.47], [0.33, 0.26]])
    # exact away from the boundary fill
    assert np.allclose(bilinear_interp(square32, g, pts),
                       2 * pts[:, 0] - pts[:, 1], atol=1e-12)


# ---------------------------------------------------------------------------
# assembly against a per-node loop
# ---------------------------------------------------------------------------

def _reference_neg_laplacian(dom):
    h2 = dom.h * dom.h
    N = dom.n_interior
    rows, cols, vals = [], [], []
    diag = np.zeros(N)
    idx = dom.index_of
    ny, nx = idx.shape
    for k in range(N):
        j, i = dom.interior_idx[k]
        for a0, a1 in ((0, 1), (2, 3)):
            tp = dom.fractions[k, a0]
            tm = dom.fractions[k, a1]
            diag[k] += 2.0 / (tp * tm * h2)
            for a, t in ((a0, tp), (a1, tm)):
                diy, dix = _DIRS[a]
                jj, ii = j + diy, i + dix
                if 0 <= jj < ny and 0 <= ii < nx and idx[jj, ii] >= 0 \
                        and t == 1.0:
                    rows.append(k)
                    cols.append(idx[jj, ii])
                    vals.append(-2.0 / (t * (tp + tm) * h2))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    A += sp.diags(diag)
    return A.tocsr()


_SPECS = st.one_of(
    st.builds(rectangle, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(disk, st.floats(0.4, 1.5)),
    st.builds(ellipse, st.floats(0.4, 1.2), st.floats(0.4, 1.2)),
    st.builds(lambda r, t: convex_polygon(
        [(r * np.cos(t + s), r * np.sin(t + s))
         for s in (0.0, 1.5, 2.6, 3.9, 5.0)]),
        st.floats(0.6, 1.2), st.floats(0.0, 2 * np.pi)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(spec=_SPECS, h=st.sampled_from([1 / 8, 1 / 11, 1 / 16]))
def test_neg_laplacian_matches_node_loop(spec, h):
    dom = build_discretization(spec, h)
    A, R = neg_laplacian_matrix(dom), _reference_neg_laplacian(dom)
    assert np.array_equal(A.indptr, R.indptr)
    assert np.array_equal(A.indices, R.indices)
    assert np.array_equal(A.data, R.data)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.4, 1.5), b=st.floats(0.4, 1.5),
       h=st.sampled_from([1 / 8, 1 / 11, 1 / 16, 1 / 32]))
def test_laplacian_exact_on_quadratic_vanishing_on_curved_boundary(a, b, h):
    # u = 1 - (x/a)^2 - (y/b)^2 is quadratic along each grid line and 0
    # where the line leaves the domain, so the cut-cell stencil, boundary
    # value 0 included, reproduces -Lap u = 2/a^2 + 2/b^2 at every node
    for spec in (disk(a), ellipse(a, b)):
        ax, by = (a, a) if spec.kind == "disk" else (a, b)
        dom = build_discretization(spec, h)
        u = field_from_function(dom,
                                lambda x, y: 1 - (x / ax) ** 2 - (y / by) ** 2)
        cut = np.any(dom.fractions < 1.0, axis=1)
        assert cut.any()
        A = neg_laplacian_matrix(dom)
        # rounding in u and in the crossing points, amplified by the
        # row's absolute sum (large where a fraction is tiny)
        tol = 1e-14 * (abs(A) @ np.ones(dom.n_interior))
        err = np.abs(A @ u.values - (2 / ax ** 2 + 2 / by ** 2))
        assert np.all(err <= tol)


# ---------------------------------------------------------------------------
# pair x lambda kernel
# ---------------------------------------------------------------------------

def _reference_pair_scan(pts, v1, v3, lambdas, mid):
    """Unchunked scan: one triu_indices gather per lambda, np.argmin."""
    i1, i3 = np.triu_indices(len(pts), k=1)
    mins, bi, bj = [], [], []
    for lm in lambdas:
        c = mid(lm * pts[i3] + (1 - lm) * pts[i1], lm) \
            - lm * v3[i3] - (1 - lm) * v1[i1]
        k = int(np.argmin(c))
        mins.append(c[k])
        bi.append(i1[k])
        bj.append(i3[k])
    return np.array(mins), np.array(bi), np.array(bj)


def _scan_inputs(n=400, seed=0):
    # 400 nodes: 79,800 pairs, about five chunks
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    v1, v3 = rng.normal(size=(2, n))
    return pts, v1, v3


def _wavy(x2, lm):
    return np.sin(3 * x2[:, 0]) * np.cos(2 * x2[:, 1]) + lm


def _coarse(x2, lm):
    # few distinct values, so the minimum is tied across chunks
    return np.round(np.sin(3 * x2[:, 0] + x2[:, 1]), 1)


@pytest.mark.parametrize("mid", [_wavy, _coarse])
def test_pair_scan_matches_unchunked(mid):
    pts, v1, v3 = _scan_inputs()
    n_pairs = len(pts) * (len(pts) - 1) // 2
    assert n_pairs > 3 * _PAIR_CHUNK
    lambdas = np.linspace(0.0, 1.0, 17)[1:-1]
    if mid is _coarse:
        v1 = v3 = np.zeros(len(pts))
    got = pair_scan(pts, v1, v3, lambdas, mid)
    ref = _reference_pair_scan(pts, v1, v3, lambdas, mid)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    if mid is _coarse:
        # the tie-break matters: the first minimum is not in the last chunk
        last_row = np.searchsorted(
            np.cumsum(np.arange(len(pts) - 1, 0, -1)),
            n_pairs - _PAIR_CHUNK)
        assert np.all(got[1] < last_row)


def test_pair_scan_nan_first_occurrence():
    # a NaN in a late chunk wins over smaller values before and after it,
    # as np.argmin over the unchunked scan does
    pts, v1, v3 = _scan_inputs()
    bad = (350, 390)

    def mid(x2, lm):
        out = _wavy(x2, lm)
        out[np.all(x2 == lm * pts[bad[1]] + (1 - lm) * pts[bad[0]],
                   axis=1)] = np.nan
        return out

    lambdas = [0.25, 0.5]
    mins, bi, bj = pair_scan(pts, v1, v3, lambdas, mid)
    ref = _reference_pair_scan(pts, v1, v3, lambdas, mid)
    assert np.all(np.isnan(mins)) and np.all(np.isnan(ref[0]))
    assert np.array_equal(bi, ref[1]) and np.array_equal(bj, ref[2])
    assert tuple(bi) == (bad[0],) * 2 and tuple(bj) == (bad[1],) * 2


def test_pair_scan_visits_every_pair_once():
    # the callback sees the lambda points of each pair i < j, each once
    pts, v1, v3 = _scan_inputs(n=300)
    calls = []

    def mid(x2, lm):
        calls.append(np.column_stack([x2, np.full(len(x2), lm)]))
        return np.zeros(len(x2))

    lambdas = np.linspace(0.0, 1.0, 5)[1:-1]
    pair_scan(pts, v1, v3, lambdas, mid)
    assert len(calls) > 2 * len(lambdas)  # more than two chunks
    i1, i3 = np.triu_indices(len(pts), k=1)
    ref = np.concatenate([np.column_stack(
        [lm * pts[i3] + (1 - lm) * pts[i1], np.full(len(i1), lm)])
        for lm in lambdas])
    got = np.concatenate(calls)
    assert got.shape == ref.shape
    assert np.array_equal(got[np.lexsort(got.T)], ref[np.lexsort(ref.T)])


@pytest.mark.parametrize("n", [0, 1])
def test_pair_scan_without_pairs(n):
    mins, bi, bj = pair_scan(np.zeros((n, 2)), np.zeros(n), np.zeros(n),
                             [0.5], _wavy)
    assert mins.tolist() == [math.inf]
    assert bi.tolist() == bj.tolist() == [-1]
