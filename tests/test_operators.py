import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from concavelab import (Field, Problem, SourceTerm, Weight,
                        build_discretization, convex_polygon, disk, ellipse,
                        field_from_function, poisson_solve,
                        principal_eigenpair, rectangle, solve_trajectory,
                        unit_square)
from concavelab.domains import MOVES
from concavelab.errors import MaxIterations
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
    lap = -(neg_laplacian_matrix(square32) @ f.values)
    d = square32.interior_distances
    inside = d > 2.5 * square32.h
    assert np.allclose(lap[inside], 4.0, atol=1e-9)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solves_reject_non_finite_rhs(square32, bad):
    # NaN residuals used to pass the residual check: the solve returned
    # NaN everywhere and raised nothing
    rhs = np.ones(square32.n_interior)
    rhs[7] = bad
    with pytest.raises(MaxIterations, match="direct solve residual"):
        poisson_solve(square32, rhs)
    with pytest.raises(MaxIterations, match="direct solve residual"):
        solve_shifted_poisson(square32, 0.01, rhs)


def test_zero_rhs_solves_to_zero(square32):
    zero = np.zeros(square32.n_interior)
    assert not np.any(poisson_solve(square32, zero))
    assert not np.any(solve_shifted_poisson(square32, 0.01, zero))


def test_shifted_poisson_residual(square32):
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(square32.n_interior)
    u = solve_shifted_poisson(square32, 0.01, rhs)
    # residual of (I + tau * (-Lap)) u = rhs
    res = u + 0.01 * (neg_laplacian_matrix(square32) @ u) - rhs
    assert np.max(np.abs(res)) < 1e-9


def test_trajectory_keeps_one_shift_factorization(monkeypatch):
    import concavelab.operators as operators
    dom = build_discretization(disk(), 1.0 / 16.0)
    principal_eigenpair(dom)  # its Laplacian LU is not a shift
    p = Problem(domain=disk(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_q", q=0.5), horizon=1.0)
    taus, factored = [], []
    shifted = operators.solve_shifted_poisson
    splu = operators.splu

    def record_tau(dom, tau, b):
        taus.append(tau)
        return shifted(dom, tau, b)

    def record_splu(M, **kw):
        factored.append(M)
        return splu(M, **kw)

    monkeypatch.setattr("concavelab.parabolic.solve_shifted_poisson",
                        record_tau)
    monkeypatch.setattr(operators, "splu", record_splu)
    solve_trajectory(p, dom, 8)
    changes = 1 + sum(a != b for a, b in zip(taus, taus[1:]))
    assert len(set(taus)) > 1
    assert len(factored) == changes
    shift_keys = [k for k in dom._cache if "shift" in str(k)]
    assert shift_keys == ["shift_lu"]
    assert dom._cache["shift_lu"][0] == taus[-1]


_SOLVE_SPECS = (unit_square(), disk(), ellipse(1.0, 0.5), convex_polygon(
    [(np.cos(s), np.sin(s)) for s in (0.0, 1.5, 2.6, 3.9, 5.0)]))


_SOLVE_CASES = dict(k=st.integers(0, len(_SOLVE_SPECS) - 1),
                    tau=st.sampled_from([1e-4, 3e-3, 0.05, 2.0]),
                    seed=st.integers(0, 2 ** 16))


def _symmetric_lu(A):
    """-Lap_h's factor in SuperLU's symmetric minimum-degree order, with
    diagonal pivots."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True})


def _permuted_solve(M, r, b):
    """x with M x = b by a NATURAL factor, with diagonal pivots, of P M
    P^T for the permutation P with (P v)[i] = v[r[i]]."""
    N = len(r)
    P = sp.csr_matrix((np.ones(N), (np.arange(N), r)), shape=(N, N))
    Mp = (P @ M @ P.T).tocsc()
    Mp.sort_indices()
    x = np.empty(N)
    x[r] = splu(Mp, permc_spec="NATURAL", diag_pivot_thresh=0).solve(P @ b)
    return x


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_SOLVE_CASES)
def test_cached_order_solve_is_plain_splu(k, tau, seed):
    # the shared symmetric order r gives the bits of a fresh factor of
    # the assembled matrix permuted by r in its rows and columns, on the
    # first solve at tau and on the next, which reuses its LU; and
    # poisson_solve those of a fresh factor of -Lap_h in that order
    dom = build_discretization(_SOLVE_SPECS[k], 1.0 / 16.0)
    rng = np.random.default_rng(seed)
    A = neg_laplacian_matrix(dom)
    M = sp.identity(dom.n_interior, format="csc") + tau * A
    lu = _symmetric_lu(A)
    r = np.argsort(lu.perm_c)
    for _ in range(2):
        b = rng.standard_normal(dom.n_interior)
        got = solve_shifted_poisson(dom, tau, b)
        assert np.array_equal(got, _permuted_solve(M, r, b))
    b = rng.standard_normal(dom.n_interior)
    assert np.array_equal(poisson_solve(dom, b), lu.solve(b))


@pytest.mark.parametrize("k", range(len(_SOLVE_SPECS)))
def test_symmetric_order_thins_the_factors(k):
    # both cached factors pivot on the diagonal (the shifted one's perm_r
    # is the identity) and hold at most 0.7 of the L + U entries of a
    # default splu (COLAMD, partial pivoting) of the same matrix
    tau, dom = 0.05, build_discretization(_SOLVE_SPECS[k], 1.0 / 32.0)
    N, A = dom.n_interior, neg_laplacian_matrix(dom)
    solve_shifted_poisson(dom, tau, np.ones(N))
    lap, shifted = dom._cache["lap_lu"][0], dom._cache["shift_lu"][2]
    assert np.array_equal(lap.perm_r, lap.perm_c)
    assert np.array_equal(shifted.perm_r, np.arange(N))
    for lu, M in ((lap, A), (shifted, sp.identity(N) + tau * A)):
        ref = splu(M.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (ref.L.nnz + ref.U.nnz)


def test_diagonal_pivots_are_safe_at_a_floored_cut_fraction():
    # a vertex 2e-13 above the grid line y = 0 floors cut fractions at
    # 1e-12, so diagonals reach about 2/(1e-12 h^2); the solves without
    # row interchanges agree with a partial-pivoting splu to 1e-12
    # relative and pass the residual check
    dom = build_discretization(convex_polygon(
        [(-1, -1), (1, -1), (1, 1), (-1, 2e-13)]), 1.0 / 16.0)
    N, A = dom.n_interior, neg_laplacian_matrix(dom)
    assert dom.fractions.min() == 1e-12
    assert A.diagonal().max() >= 2 / (1e-12 * dom.h ** 2)
    b = np.random.default_rng(5).standard_normal(N)
    cases = [(poisson_solve(dom, b), A)] + [
        (solve_shifted_poisson(dom, tau, b), sp.identity(N) + tau * A)
        for tau in (1e-4, 0.05, 2.0)]
    for got, M in cases:
        ref = splu(M.tocsc()).solve(b)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(M @ got - b) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("rejected", [False, True])
def test_shifted_solve_leaks_nothing(rejected):
    # a solve leaves the step size's Mp and LU as they were: the next
    # solve at that tau is a fresh domain's, also after a solve whose
    # residual check rejected a NaN right-hand side
    tau, h = 0.01, 1.0 / 8.0
    dom, fresh = (build_discretization(unit_square(), h) for _ in range(2))
    rng = np.random.default_rng(11)
    b1, b2 = rng.standard_normal((2, dom.n_interior))
    if rejected:
        b1[3] = math.nan

    def solve(d, b):
        return solve_shifted_poisson(d, tau, b).tobytes()

    solve(dom, b2)
    Mp = dom._cache["shift_lu"][1]
    kept = Mp.data.copy()
    if rejected:
        with pytest.raises(MaxIterations):
            solve(dom, b1)
    else:
        solve(dom, b1)
    assert dom._cache["shift_lu"][1] is Mp
    assert Mp.data.tobytes() == kept.tobytes()
    assert solve(dom, b2) == solve(fresh, b2)


def test_stiff_trajectory_factors_once_per_tau(monkeypatch):
    # logistic-square, whose sinks take the implicit rate: one shifted
    # solve per step; one minimum-degree factorization of the Laplacian
    # and one NATURAL one per step size, all with diagonal pivots
    import concavelab.operators as operators
    import concavelab.parabolic as parabolic
    from concavelab.scenarios import build_problem, get_scenario
    taus, steps, factored = [], [], []
    shifted, splu = operators.solve_shifted_poisson, operators.splu
    advance = parabolic.advance

    def record_solve(dom, tau, b):
        taus.append(tau)
        return shifted(dom, tau, b)

    def record_step(*args):
        steps.append(len(taus))  # the solves made before this step
        return advance(*args)

    def record_splu(M, **kw):
        factored.append((kw.get("permc_spec"), kw.get("diag_pivot_thresh")))
        return splu(M, **kw)

    monkeypatch.setattr(parabolic, "solve_shifted_poisson", record_solve)
    monkeypatch.setattr(parabolic, "advance", record_step)
    monkeypatch.setattr(operators, "splu", record_splu)
    dom = build_discretization(unit_square(), 1.0 / 16.0)
    eig = principal_eigenpair(dom)
    problem = build_problem(get_scenario("logistic-square"), eig)
    solve_trajectory(problem, dom, 16)
    assert steps == list(range(len(steps))) and len(taus) == len(steps)
    tau_changes = sum(a != b for a, b in zip(taus, taus[1:]))
    assert factored == [("MMD_AT_PLUS_A", 0)] + [
        ("NATURAL", 0)] * (1 + tau_changes)


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
                diy, dix = MOVES[a]
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

def point_block(pts, lambdas, mid):
    """pair_scan block from a point function: mid(x2, lam) at the
    points x2 = lam * pts[j] + (1 - lam) * pts[i]."""
    def block(idx1, idx3):
        p1, p3 = pts[idx1], pts[idx3]
        return (mid(lm * p3 + (1 - lm) * p1, lm)
                for lm in np.asarray(lambdas, dtype=float))
    return block


def scan1(v1, v3, lambdas, block):
    """pair_scan of one slice, from a block with one array per lambda."""
    mins, i1, i3 = pair_scan(np.asarray(v1)[None], np.asarray(v3)[None],
                             lambdas, lambda a, b: ([m] for m in block(a, b)))
    return mins[0], i1[0], i3[0]


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
    got = scan1(v1, v3, lambdas, point_block(pts, lambdas, mid))
    ref = _reference_pair_scan(pts, v1, v3, lambdas, mid)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    if mid is _coarse:
        # the tie-break matters: the first minimum is not in the last run
        last_run = (n_pairs - 1) // _PAIR_CHUNK * _PAIR_CHUNK
        assert np.all(got[1] < np.triu_indices(len(pts), k=1)[0][last_run])


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
    mins, bi, bj = scan1(v1, v3, lambdas,
                         point_block(pts, lambdas, mid))
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
    scan1(v1, v3, lambdas, point_block(pts, lambdas, mid))
    assert len(calls) > 2 * len(lambdas)  # more than two chunks
    i1, i3 = np.triu_indices(len(pts), k=1)
    ref = np.concatenate([np.column_stack(
        [lm * pts[i3] + (1 - lm) * pts[i1], np.full(len(i1), lm)])
        for lm in lambdas])
    got = np.concatenate(calls)
    assert got.shape == ref.shape
    assert np.array_equal(got[np.lexsort(got.T)], ref[np.lexsort(ref.T)])


def test_pair_scan_runs_are_row_major_pairs(monkeypatch):
    # runs of at most _PAIR_CHUNK consecutive pairs that need not hold
    # whole rows: with runs of 5 the first one stops inside row 0
    monkeypatch.setattr("concavelab.operators._PAIR_CHUNK", 5)
    runs = []

    def block(idx1, idx3):
        runs.append((idx1.copy(), idx3.copy()))
        return ([np.zeros(len(idx1))] for _ in range(2))

    pair_scan(np.zeros((1, 12)), np.zeros((1, 12)), [0.25, 0.5], block)
    assert all(len(i1) <= 5 for i1, _ in runs)
    got = [np.concatenate(a) for a in zip(*runs)]
    assert all(np.array_equal(g, r)
               for g, r in zip(got, np.triu_indices(12, k=1)))


@pytest.mark.parametrize("n", [2, 3, 7, 240, 601])
def test_pair_scan_runs_are_full_until_the_last(n):
    # each run computes its pairs from its first pair's place in the
    # row-major order: all but the last hold _PAIR_CHUNK pairs, and
    # together they are np.triu_indices(n, 1) in order
    runs = []

    def block(idx1, idx3):
        runs.append((idx1.copy(), idx3.copy()))
        return iter([[np.zeros(len(idx1))]])

    pair_scan(np.zeros((1, n)), np.zeros((1, n)), [0.5], block)
    assert all(len(i1) == _PAIR_CHUNK for i1, _ in runs[:-1])
    got = [np.concatenate(a) for a in zip(*runs)]
    assert all(np.array_equal(g, r)
               for g, r in zip(got, np.triu_indices(n, k=1)))


@pytest.mark.parametrize("n", [0, 1])
def test_pair_scan_without_pairs(n):
    mins, bi, bj = scan1(np.zeros(n), np.zeros(n), [0.5],
                         point_block(np.zeros((n, 2)), [0.5], _wavy))
    assert mins.tolist() == [math.inf]
    assert bi.tolist() == bj.tolist() == [-1]


def _slice_mid(s, nan_pair=None, pts=None):
    """The middle values of slice s: _wavy shifted by s, NaN at the
    points of nan_pair (i, j) when given."""
    def mid(x2, lm):
        out = _wavy(x2, lm) + 0.25 * s
        if nan_pair is not None:
            i, j = nan_pair
            out[np.all(x2 == lm * pts[j] + (1 - lm) * pts[i], axis=1)] = \
                np.nan
        return out
    return mid


@pytest.mark.parametrize("n", [0, 1, 2, 40, 300])
def test_multi_slice_scan_is_each_one_slice_scan(n):
    # S slices in one pass give, bit for bit, each slice's own scan and
    # the unchunked reference: minima, first pairs, the NaN rule (slice
    # 1 holds a NaN) and the no-pair result; 300 nodes take more than
    # one chunk
    pts, v1, v3 = _scan_inputs(n=n, seed=5)
    rng = np.random.default_rng(n)
    v1s = np.vstack([v1, rng.normal(size=n), np.zeros(n)])
    v3s = np.vstack([v3, rng.normal(size=n), np.zeros(n)])
    lambdas = np.linspace(0.0, 1.0, 17)[1:-1]
    nan_pair = (n // 3, n - 1) if n >= 2 else None
    mids = [_slice_mid(0), _slice_mid(1, nan_pair, pts), _coarse]
    calls = []

    def block(idx1, idx3):
        calls.append(len(idx1))
        p1, p3 = pts[idx1], pts[idx3]
        for lm in lambdas:
            x2 = lm * p3 + (1 - lm) * p1
            yield (mid(x2, lm) for mid in mids)

    got = pair_scan(v1s, v3s, lambdas, block)
    assert all(g.shape == (3, lambdas.size) for g in got)
    if n == 300:
        assert len(calls) > 1 and max(calls) <= _PAIR_CHUNK
    for s, mid in enumerate(mids):
        one = scan1(v1s[s], v3s[s], lambdas, point_block(pts, lambdas, mid))
        ref = (_reference_pair_scan(pts, v1s[s], v3s[s], lambdas, mid)
               if n >= 2 else one)
        for g, o, r in zip(got, one, ref):
            assert g[s].tobytes() == o.tobytes() == np.asarray(r).tobytes()
    if n >= 2:
        assert np.all(np.isnan(got[0][1]))
        assert set(got[1][1]) == {nan_pair[0]}
        assert set(got[2][1]) == {nan_pair[1]}
    else:
        assert np.all(got[0] == math.inf) and np.all(got[1] == -1)
