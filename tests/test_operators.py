import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, gmres, splu

from concavelab import (Field, Problem, SourceTerm, Weight,
                        build_discretization, convex_polygon, disk, ellipse,
                        field_from_function, poisson_solve,
                        principal_eigenpair, rectangle, solve_trajectory,
                        unit_square)
from concavelab.domains import MOVES
from concavelab.errors import MaxIterations
from concavelab.operators import (_GMRES_CYCLES, _GMRES_RTOL, _PAIR_CHUNK,
                                  bilinear_interp, neg_laplacian_matrix,
                                  pair_scan, solve_shifted_poisson)


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
        solve_shifted_poisson(0.01, Field(square32, rhs))
    with pytest.raises(MaxIterations, match="shifted solve .* residual"):
        solve_shifted_poisson(0.01, Field(square32, rhs),
                              np.full(square32.n_interior, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_shifted_solve_runs_no_gmres_on_non_finite_rhs(square32, bad,
                                                       monkeypatch):
    # GMRES used to run all its iterations on such a right-hand side
    # before the residual check rejected it
    import concavelab.operators as operators
    calls, gmres = [], operators.gmres

    def count_gmres(*args, **kw):
        calls.append(1)
        return gmres(*args, **kw)

    monkeypatch.setattr(operators, "gmres", count_gmres)
    rhs = np.ones(square32.n_interior)
    rhs[7] = bad
    with pytest.raises(MaxIterations, match="0 GMRES iterations"):
        solve_shifted_poisson(0.01, Field(square32, rhs),
                              np.full(square32.n_interior, 0.5))
    assert calls == []


def test_zero_rhs_solves_to_zero(square32):
    zero = np.zeros(square32.n_interior)
    assert not np.any(poisson_solve(square32, zero))
    assert not np.any(solve_shifted_poisson(0.01, Field(square32, zero))
                      .values)


def test_shifted_poisson_residual(square32):
    rng = np.random.default_rng(3)
    rhs = Field(square32, rng.standard_normal(square32.n_interior))
    u = solve_shifted_poisson(0.01, rhs)
    # residual of (I + tau * (-Lap)) u = rhs
    res = u.values + 0.01 * (neg_laplacian_matrix(square32) @ u.values) \
        - rhs.values
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

    def record_tau(tau, rhs, diag_shift=None):
        taus.append(tau)
        return shifted(tau, rhs, diag_shift)

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


def _solve_case(k, tau, shift, seed):
    """A domain of _SOLVE_SPECS at h = 1/16, its generator, the diagonal
    shift of the named kind and I + tau*(-Lap_h)."""
    dom = build_discretization(_SOLVE_SPECS[k], 1.0 / 16.0)
    rng = np.random.default_rng(seed)
    N = dom.n_interior
    M = sp.identity(N, format="csc") + tau * neg_laplacian_matrix(dom)
    s = {"zero": np.zeros(N), "neg_zero": np.full(N, -0.0),
         "nonpositive": -rng.uniform(0.0, 0.9, N),
         "nonnegative": rng.uniform(0.0, 5.0, N)}.get(shift)
    if shift == "mixed":
        s = np.where(rng.random(N) < 0.5, 0.0, rng.uniform(0.0, 5.0, N))
    elif shift == "log":  # -tau (log u + 1) of states u down to 1e-300
        u = 10.0 ** rng.uniform(-300.0, 0.0, N)
        s = -tau * np.minimum(np.log(u) + 1.0, 0.0)
    elif shift == "restart":  # a spread the LU of M barely captures
        s = rng.uniform(0.0, 50.0, N) * M.diagonal()
    return dom, rng, s, M


_SOLVE_CASES = dict(k=st.integers(0, len(_SOLVE_SPECS) - 1),
                    tau=st.sampled_from([1e-4, 3e-3, 0.05, 2.0]),
                    seed=st.integers(0, 2 ** 16))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shift=st.sampled_from(["zero", "neg_zero"]), **_SOLVE_CASES)
def test_cached_order_solve_is_plain_splu(k, tau, shift, seed):
    # the shared column order gives the bits of a fresh COLAMD
    # factorization of the assembled matrix; a zero shift is no shift
    dom, rng, s, M = _solve_case(k, tau, shift, seed)
    for diag_shift in (s, None):
        b = rng.standard_normal(dom.n_interior)
        got = solve_shifted_poisson(tau, Field(dom, b), diag_shift).values
        assert np.array_equal(got, splu(M.tocsc()).solve(b))
    b = rng.standard_normal(dom.n_interior)
    assert np.array_equal(poisson_solve(dom, b), splu(
        neg_laplacian_matrix(dom).tocsc()).solve(b))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shift=st.sampled_from(["nonpositive", "nonnegative"]),
       **_SOLVE_CASES)
def test_nonzero_shift_solve_meets_residual(k, tau, shift, seed):
    # GMRES on the step size's LU: the relative residual is within the
    # solve's 1e-8 check, and x is a fresh LU's solve to 1e-9 relative
    dom, rng, s, M = _solve_case(k, tau, shift, seed)
    system = (M + sp.diags(s)).tocsc()
    b = rng.standard_normal(dom.n_interior)
    got = solve_shifted_poisson(tau, Field(dom, b), s).values
    ref = splu(system).solve(b)
    assert np.linalg.norm(system @ got - b) <= 1e-8 * np.linalg.norm(b)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_singular_shifted_system_raises_max_iterations():
    # the shift cancels the diagonal of I + tau*(-Lap_h); a fresh LU of
    # that system is exactly singular and used to escape as SuperLU's
    # RuntimeError
    dom = build_discretization(unit_square(), 1.0 / 8.0)
    shift = -(1 + 0.01 * neg_laplacian_matrix(dom).diagonal())
    f = Field(dom, np.ones(dom.n_interior))
    with pytest.raises(MaxIterations, match=r"shifted solve \(tau 0\.01, "
                       r"\d+ GMRES iterations\) residual"):
        solve_shifted_poisson(0.01, f, shift)


class _CountingLU:
    """A SuperLU factor that counts its solve calls."""

    def __init__(self, lu):
        self.lu, self.perm_c, self.solves = lu, lu.perm_c, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _shifted_solve_as_formulated(dom, tau, b, s):
    """The shifted solve as first written: the NATURAL LU's solve of b,
    and for a nonzero s, gmres on a copy of the column-ordered I +
    tau*(-Lap_h) with s added on its diagonal, started from that solve
    and preconditioned by a LinearOperator of the LU's solve.  Returns
    x, whether its relative residual is within 1e-8, the LU solves and
    the GMRES iterations."""
    A = neg_laplacian_matrix(dom)
    perm = splu(A.tocsc()).perm_c
    q = np.argsort(perm)
    Mp = (sp.identity(len(q), format="csc") + tau * A).tocsc()[:, q]
    diag = np.flatnonzero(Mp.indices == q.repeat(np.diff(Mp.indptr)))
    lu = _CountingLU(splu(Mp, permc_spec="NATURAL"))
    y, M, its = lu.solve(b), Mp, []
    if np.any(s):
        M = Mp.copy()
        M.data[diag] += s[q]
        y = gmres(M, b, y, rtol=_GMRES_RTOL, maxiter=_GMRES_CYCLES,
                  M=LinearOperator(M.shape, lu.solve), callback=its.append,
                  callback_type="pr_norm")[0]
    ok = np.linalg.norm(M @ y - b) <= 1e-8 * np.linalg.norm(b)
    return y[perm], ok, lu.solves, len(its)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shift=st.sampled_from(["zero", "neg_zero", "mixed", "log",
                              "restart"]), **_SOLVE_CASES)
def test_shifted_solve_reuses_the_start_solve(k, tau, shift, seed):
    # k GMRES iterations in c restart cycles take k + 1 + c LU solves
    # (k + 2 in one cycle): the start solve, one per cycle start and one
    # per iteration.  The bits are those of the first formulation, which
    # takes two more: scipy's dtype probe of the LinearOperator and
    # gmres's own solve of b (for the norm of M^-1 b)
    import concavelab.operators as operators
    if shift == "restart":
        tau = min(tau, 3e-3)  # 100 to 170 iterations: several cycles
    dom, rng, s, _ = _solve_case(k, tau, shift, seed)
    b = rng.standard_normal(dom.n_interior)
    want, ok, solves, its = _shifted_solve_as_formulated(dom, tau, b, s)
    lus = []

    def counting_splu(M, **kw):
        lus.append(_CountingLU(splu(M, **kw)))
        return lus[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "splu", counting_splu)
        if ok:
            got = solve_shifted_poisson(tau, Field(dom, b), s).values
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(MaxIterations):
                solve_shifted_poisson(tau, Field(dom, b), s)
    made = sum(lu.solves for lu in lus)
    if shift in ("zero", "neg_zero"):
        assert made == solves == 1
        return
    cycles = solves - 3 - its
    assert cycles >= (2 if shift == "restart" else 1)
    assert made == its + 1 + cycles == solves - 2


@pytest.mark.parametrize("singular", [False, True])
def test_shifted_solve_leaks_nothing(singular):
    # a corrector shifts a copy of the step size's Mp, never Mp or its
    # LU: the next zero-shift and s2-shift solves at that tau are a fresh
    # domain's, also after a singular shift whose corrector raised
    tau, h = 0.01, 1.0 / 8.0
    dom, fresh = (build_discretization(unit_square(), h) for _ in range(2))
    rng = np.random.default_rng(11)
    N = dom.n_interior
    b, s1, s2 = rng.standard_normal(N), rng.uniform(0.0, 5.0, N), \
        rng.uniform(0.0, 5.0, N)
    if singular:  # cancels the diagonal of I + tau*(-Lap_h)
        s1 = -(1 + tau * neg_laplacian_matrix(dom).diagonal())

    def solve(d, s):
        return solve_shifted_poisson(tau, Field(d, b), s).values.tobytes()

    solve(dom, s2)
    Mp = dom._cache["shift_lu"][1]
    kept = Mp.data.copy()
    if singular:
        with pytest.raises(MaxIterations):
            solve(dom, s1)
    else:
        solve(dom, s1)
    assert dom._cache["shift_lu"][1] is Mp
    assert Mp.data.tobytes() == kept.tobytes()
    assert solve(dom, None) == solve(fresh, None)
    assert solve(dom, s2) == solve(fresh, s2)


def _record_stiff_solves(monkeypatch, sid, h):
    """Run sid's trajectory at h; return the (tau, nonzero shift) of each
    shifted solve, the permc_spec of each splu call and the GMRES
    iterations of each GMRES call."""
    import concavelab.operators as operators
    from concavelab.scenarios import build_problem, get_scenario
    calls, factored, iterations = [], [], []
    shifted, splu, gmres = (operators.solve_shifted_poisson, operators.splu,
                            operators.gmres)

    def record_solve(tau, rhs, diag_shift=None):
        calls.append((tau, diag_shift is not None and bool(np.any(
            diag_shift))))
        return shifted(tau, rhs, diag_shift)

    def record_splu(M, **kw):
        factored.append(kw.get("permc_spec"))
        return splu(M, **kw)

    def record_gmres(*args, callback, **kw):
        iterations.append(0)

        def count(r):
            iterations[-1] += 1
            callback(r)
        return gmres(*args, callback=count, **kw)

    monkeypatch.setattr("concavelab.parabolic.solve_shifted_poisson",
                        record_solve)
    monkeypatch.setattr(operators, "splu", record_splu)
    monkeypatch.setattr(operators, "gmres", record_gmres)
    dom = build_discretization(unit_square(), h)
    eig = principal_eigenpair(dom)
    problem = build_problem(get_scenario(sid), eig)
    solve_trajectory(problem, dom, 16)
    return calls, factored, iterations


def test_stiff_trajectory_factors_once_per_tau(monkeypatch):
    # logistic-square: one COLAMD factorization of the Laplacian and one
    # NATURAL one per step size; a corrector with a nonzero shift runs
    # GMRES on its step size's LU instead of factoring its own
    calls, factored, iterations = _record_stiff_solves(
        monkeypatch, "logistic-square", 1.0 / 16.0)
    taus = [tau for tau, _ in calls]
    tau_changes = 1 + sum(a != b for a, b in zip(taus, taus[1:]))
    nonzero = sum(nz for _, nz in calls)
    assert 0 < nonzero < len(calls)
    assert len(iterations) == nonzero
    assert factored == [None] + ["NATURAL"] * tau_changes


def test_log_square_correctors_take_few_gmres_iterations(monkeypatch):
    # the step size's LU preconditions the shifted system well: at most
    # 6 iterations per corrector when this test was written
    calls, _, iterations = _record_stiff_solves(
        monkeypatch, "log-square", 1.0 / 32.0)
    assert len(iterations) == sum(nz for _, nz in calls) > 0
    assert max(iterations) <= 8


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
