import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concavelab import (Field, Problem, SourceTerm, SamplerConfig, Weight,
                        build_discretization, concave_approximation,
                        concavity_value,
                        convex_polygon, disk,
                        ellipse, field_from_function, get_scenario,
                        harmonic_concavity_value, min_defect,
                        principal_eigenpair,
                        quasiconcavity_defect, solve_stationary,
                        solve_trajectory, unit_square)
import concavelab.audit as audit_mod
from concavelab.audit import (DefectReport, Evaluator, FieldEvaluator,
                              LAMBDAS, OUTSIDE_DOMAIN, Tuple5,
                              _REFINE_CANDIDATES, _argmin_gradients,
                              _default_times, harmonic_combination,
                              mid_time, pair_scan, tau_audit_value)
from concavelab.domains import _SCAN_NODES, _scan_nodes
from concavelab.errors import EmptySampler
from concavelab.operators import bilinear_interp
from concavelab.parabolic import Trajectory, quadratic_snapshots
from concavelab.scenarios import build_problem


def value(ev, pts, t=0.0):
    """The evaluator's transformed u at points (..., 2) and time t,
    interpolated on its full grid: the oracle of pair_block and
    point_value."""
    return ev._transform(bilinear_interp(ev.dom, ev.grid(t), pts))


def scan1(v1, v3, lambdas, block):
    """pair_scan of one slice, from a block with one array per lambda."""
    mins, i1, i3 = pair_scan(np.asarray(v1)[None], np.asarray(v3)[None],
                             lambdas, lambda a, b: ([m] for m in block(a, b)))
    return mins[0], i1[0], i3[0]


@pytest.fixture(scope="module")
def square16():
    return build_discretization(unit_square(), 1.0 / 16.0)


class _FnEvaluator:
    """Analytic space-time evaluator for hand-checked tuples."""

    def __init__(self, dom, fn):
        self.dom = dom
        self.fn = fn

    def value(self, pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.fn(pts[:, 0], pts[:, 1], t)

    def point_value(self, x, y, t):
        return float(self.fn(x, y, t))


def test_concavity_value_bilinear_example(square16):
    # v(x, t) = x1 * t at ((0+, t=0), (1-, t=1), lambda=1/2):
    # middle value 1/4 minus the mean of endpoints 1/2 -> -1/4
    ev = _FnEvaluator(square16, lambda x, y, t: x * t)
    tup = Tuple5(x1=(1e-9, 0.5), x3=(1.0 - 1e-9, 0.5), t1=0.0, t3=1.0,
                 lam=0.5)
    assert concavity_value(ev, tup) == pytest.approx(-0.25, abs=1e-8)


def test_concavity_value_spatial_quadratic(square16):
    # v = x1^2 slice: the same tuple at fixed time gives -0.25
    ev = _FnEvaluator(square16, lambda x, y, t: x ** 2)
    tup = Tuple5(x1=(1e-9, 0.5), x3=(1.0 - 1e-9, 0.5), t1=0.3, t3=0.3,
                 lam=0.5)
    assert concavity_value(ev, tup) == pytest.approx(-0.25, abs=1e-8)


def test_concavity_value_nonneg_for_concave(square16):
    ev = _FnEvaluator(square16, lambda x, y, t: x * (1 - x) + y * (1 - y))
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.05, 0.95, 2), rng.uniform(0.05, 0.95, 2)
        tup = Tuple5(x1=tuple(a), x3=tuple(b), t1=0.1, t3=0.1,
                     lam=float(rng.uniform(0.05, 0.95)))
        assert concavity_value(ev, tup) >= -1e-12


def test_tuple_t2_is_mid_time():
    # one middle-time rule for tuples and the audit's time pairs
    rng = np.random.default_rng(8)
    for lam in list(LAMBDAS) + rng.uniform(0.0, 1.0, 20).tolist():
        t1, t3 = rng.uniform(0.0, 5.0, 2)
        tup = Tuple5(x1=(0.2, 0.5), x3=(0.8, 0.5), t1=t1, t3=t3, lam=lam)
        assert tup.t2.hex() == mid_time(t1, t3, lam).hex()
    tup = Tuple5(x1=(0.2, 0.5), x3=(0.8, 0.5), t1=math.inf, t3=math.inf,
                 lam=0.5)
    assert tup.t2 == math.inf


def test_harmonic_combination_formula():
    # g = (1, g2, 3), lam = 1/2: HC = g2 - 3/2
    assert harmonic_combination(1.0, 2.0, 3.0, 0.5) == pytest.approx(0.5)
    assert harmonic_combination(1.0, 1.4, 3.0, 0.5) == pytest.approx(-0.1)


def test_harmonic_combination_zero_and_sentinel():
    # both endpoints zero: HC reduces to g2
    assert harmonic_combination(0.0, 0.7, 0.0, 0.5) == pytest.approx(0.7)
    # nonpositive denominator with a nonzero endpoint: undefined
    assert harmonic_combination(-1.0, 0.5, 1.0, 0.5) == OUTSIDE_DOMAIN
    assert harmonic_combination(0.0, 0.5, 1.0, 1.0) == OUTSIDE_DOMAIN


def test_harmonic_dominates_plain_concavity():
    # HC_g >= C_g for positive endpoint values (weighted AM-HM)
    rng = np.random.default_rng(5)
    for _ in range(200):
        g1, g2, g3 = rng.uniform(0.1, 5.0, 3)
        lam = float(rng.uniform(0.01, 0.99))
        hc = harmonic_combination(g1, g2, g3, lam)
        c = g2 - lam * g3 - (1 - lam) * g1
        assert hc >= c - 1e-12


def test_harmonic_concavity_value_matches_combination(square16):
    ev = _FnEvaluator(square16, lambda x, y, t: 1.0 + x)
    tup = Tuple5(x1=(0.2, 0.5), x3=(0.8, 0.5), t1=0.0, t3=0.0, lam=0.5)
    got = harmonic_concavity_value(ev, tup)
    assert got == pytest.approx(harmonic_combination(1.2, 1.5, 1.8, 0.5))


def test_min_defect_concave_field(square16):
    f = field_from_function(square16,
                            lambda x, y: x * (1 - x) + y * (1 - y))
    rep = min_defect(FieldEvaluator(f), "space",
                     SamplerConfig(include_infinity=False))
    assert rep.minimum >= -1e-10
    assert rep.tau_audit > 0


def test_min_defect_finds_planted_bump(square16):
    # two-bump field: genuinely non-concave, defect far below -tau
    f = field_from_function(
        square16,
        lambda x, y: (np.exp(-80 * ((x - 0.3) ** 2 + (y - 0.5) ** 2))
                      + np.exp(-80 * ((x - 0.7) ** 2 + (y - 0.5) ** 2))))
    rep = min_defect(FieldEvaluator(f), "space",
                     SamplerConfig(include_infinity=False))
    assert rep.minimum < -0.1
    x2 = rep.argmin.x2
    # the defect must sit in the valley between the bumps
    assert 0.35 < x2[0] < 0.65


def test_min_defect_rejects_bad_mode(square16):
    f = field_from_function(square16, lambda x, y: x * y)
    with pytest.raises(ValueError):
        min_defect(FieldEvaluator(f), "timespace")


def test_min_defect_empty_sampler(square16):
    f = field_from_function(square16, lambda x, y: x * y)
    with pytest.raises(EmptySampler):
        min_defect(FieldEvaluator(f), "space", SamplerConfig(audit_times=[]))


def test_lambdas_are_fixed_and_read_only():
    assert np.array_equal(LAMBDAS, np.linspace(0.0, 1.0, 17)[1:-1])
    with pytest.raises(ValueError):
        LAMBDAS[0] = 0.5


def test_evaluator_node_values(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    traj = solve_trajectory(p, square16, 6)
    ev = Evaluator(traj, 0.5, 1.0)
    t = float(traj.times[-1])
    got = ev.node_values(t)
    assert np.allclose(got, np.maximum(traj.fields[-1], 0.0) ** 0.5)


def test_evaluator_validates_exponents(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    traj = solve_trajectory(p, square16, 4)
    with pytest.raises(ValueError):
        Evaluator(traj, 1.5)
    with pytest.raises(ValueError):
        Evaluator(traj, 0.5, 3.0)


def test_time_rescaling_in_transform(square16):
    # beta = 2 evaluates u at t^2
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    traj = solve_trajectory(p, square16, 6)
    ev = Evaluator(traj, 1.0, 2.0)
    t = math.sqrt(float(traj.times[3]))
    assert np.allclose(ev.node_values(t), traj.fields[3])


def test_evaluator_revisited_time_matches_fresh(square16):
    # the evaluator keeps the grid of the last time only: going back to
    # an earlier time must rebuild it, not reuse the later one
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    traj = solve_trajectory(p, square16, 6)
    pts = np.random.default_rng(4).uniform(0.05, 0.95, (40, 2))
    t_a, t_b = 0.3 * float(traj.times[2]), float(traj.times[4]) + 0.01
    ev = Evaluator(traj, 0.5, 1.5)
    for t in (t_a, t_b, t_a):
        fresh = value(Evaluator(traj, 0.5, 1.5), pts, t)
        assert np.array_equal(value(ev, pts, t), fresh)


@pytest.mark.parametrize("count", [16, 24, 48])
@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_default_times_read_their_snapshots_alone(square16, count, beta):
    # tau = s^(1/beta) with tau^beta != s for some picks (at beta = 2,
    # 5 of 7 at 16 snapshots): each audited time reads its snapshot's
    # field bit for bit, with no weight on a neighbour
    rng = np.random.default_rng(count)
    times = np.concatenate(([0.0], quadratic_snapshots(2.0, count)))
    fields = list(rng.uniform(0.5, 1.5, (count + 1, square16.n_interior)))
    ev = Evaluator(Trajectory(dom=square16, times=times, fields=fields),
                   1.0, beta)
    audited = _default_times(ev, SamplerConfig(include_infinity=False))
    assert len(audited) == 7
    x, y = square16.interior_points[40]
    for t in audited:
        k = int(np.argmin(np.abs(times ** (1.0 / beta) - t)))
        assert np.array_equal(ev.node_values(t), fields[k])
        assert ev.point_value(x, y, t) == fields[k][40]


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_field_evaluator_transforms_after_interpolation(square16, alpha):
    f = field_from_function(square16, lambda x, y: 0.1 + x * (1 - x) * y)
    pts = np.random.default_rng(8).uniform(0.0, 1.0, (50, 2))
    u = bilinear_interp(square16, f.to_grid(), pts)
    want = {0.0: np.log(u), 0.25: u ** 0.25, 1.0: u}[alpha]
    assert np.array_equal(value(FieldEvaluator(f, alpha), pts), want)
    assert np.array_equal(FieldEvaluator(f, alpha).node_values(),
                          {0.0: np.log(f.values), 0.25: f.values ** 0.25,
                           1.0: f.values}[alpha])


def test_tau_audit_scales_with_h():
    taus = []
    for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        dom = build_discretization(unit_square(), h)
        f = field_from_function(dom, lambda x, y: np.sin(np.pi * x)
                                * np.sin(np.pi * y))
        taus.append(tau_audit_value(FieldEvaluator(f), [0.0]))
    assert taus[0] / taus[1] == pytest.approx(4.0, rel=0.2)
    assert taus[1] / taus[2] == pytest.approx(4.0, rel=0.2)


def _nan_grid_second_difference_scale(ev, times):
    """The undivided second differences read off a full grid that holds
    NaN outside the interior, both axes, ignoring every NaN."""
    worst = 0.0
    iy, ix = ev.dom.interior_idx.T
    for t in times:
        g = np.full(ev.dom.index_of.shape, np.nan)
        g[iy, ix] = ev.node_values(t)
        for d2 in (g[1:-1, :-2] - 2 * g[1:-1, 1:-1] + g[1:-1, 2:],
                   g[:-2, 1:-1] - 2 * g[1:-1, 1:-1] + g[2:, 1:-1]):
            if np.isfinite(d2).any():
                worst = max(worst, float(np.nanmax(np.abs(d2))))
    return worst


@pytest.mark.parametrize("spec", [unit_square(), disk(0.9),
                                  ellipse(1.1, 0.6),
                                  convex_polygon([(0, 0), (1.2, 0.1),
                                                  (0.9, 1.0), (0.1, 0.8)])],
                         ids=["unit_square", "disk", "ellipse",
                              "convex_polygon"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_tau_audit_matches_nan_grid_differences(spec, alpha):
    dom = build_discretization(spec, 1.0 / 12.0)
    rng = np.random.default_rng(5)
    f = Field(dom, rng.uniform(0.1, 1.0, dom.n_interior))
    ev = FieldEvaluator(f, alpha)
    assert tau_audit_value(ev, [0.0]) \
        == 10.0 * _nan_grid_second_difference_scale(ev, [0.0])


def test_quasiconcavity_defect(square16, monkeypatch):
    concave = field_from_function(square16,
                                  lambda x, y: x * (1 - x) * y * (1 - y))
    assert quasiconcavity_defect(concave) <= 0.0
    bumps = field_from_function(
        square16,
        lambda x, y: (np.exp(-80 * ((x - 0.3) ** 2 + (y - 0.5) ** 2))
                      + np.exp(-80 * ((x - 0.7) ** 2 + (y - 0.5) ** 2))))
    # analytic field: the sharp-Gaussian curvature inflates the default
    # tolerance, so tighten C_TOL to expose the genuine violation
    monkeypatch.setattr(audit_mod, "C_TOL", 1.0)
    assert quasiconcavity_defect(bumps) > 0.01


def _reference_quasiconcavity(f):
    """The unchunked scan: at most about 240 lattice-strided nodes, one
    triu_indices gather of the in-set pairs per level of 16."""
    ev = FieldEvaluator(f)
    tau = tau_audit_value(ev, [0.0])
    top = float(f.values.max())
    if top <= 0:
        return 0.0
    dom = f.dom
    stride = max(1, math.ceil(math.sqrt(dom.n_interior / 240)))
    iy, ix = dom.interior_idx[:, 0], dom.interior_idx[:, 1]
    keep = (iy % stride == 0) & (ix % stride == 0)
    pts, vals = dom.interior_points[keep], f.values[keep]
    worst = 0.0
    for lev in np.linspace(0.0, top, 18)[1:-1]:
        inset = np.nonzero(vals > lev)[0]
        if inset.size < 2:
            continue
        i1, i3 = np.triu_indices(inset.size, k=1)
        vm = value(ev, 0.5 * (pts[inset[i1]] + pts[inset[i3]]))
        worst = max(worst, float(((lev - tau) - vm).max()))
    return max(worst, 0.0)


@pytest.mark.parametrize("c_tol", [0.1, 1.0, 10.0])
def test_quasiconcavity_matches_unchunked_scan(square16, c_tol,
                                               monkeypatch):
    monkeypatch.setattr(audit_mod, "C_TOL", c_tol)
    ell = build_discretization(ellipse(1.3, 0.6), 1.0 / 32.0)
    rng = np.random.default_rng(3)
    got = []
    for dom in (square16, ell):
        for f in (field_from_function(
                      dom, lambda x, y: np.exp(-4 * (x - 0.3) ** 2)
                      * (1 + 0.5 * np.cos(6 * y)) + np.exp(-9 * x * x)),
                  Field(dom, rng.uniform(0.0, 1.0, dom.n_interior))):
            got.append(quasiconcavity_defect(f))
            assert got[-1] == _reference_quasiconcavity(f)
    assert max(got) > 0


def test_defect_report_json_roundtrip(square16):
    f = field_from_function(square16, lambda x, y: x * (1 - x))
    rep = min_defect(FieldEvaluator(f), "space",
                     SamplerConfig(include_infinity=False))
    payload = json.loads(rep.to_json())
    assert payload["mode"] == "space"
    assert set(payload) >= {"min", "argmin", "tau_audit", "samples"}
    # identical input -> identical serialized report
    rep2 = min_defect(FieldEvaluator(f), "space",
                      SamplerConfig(include_infinity=False))
    assert rep.to_json() == rep2.to_json()


# ---------------------------------------------------------------------------
# the scalar point path and the batched stage 2
# ---------------------------------------------------------------------------

_SNAPS = np.array([0.05, 0.2, 0.45, 0.9])
_PENTAGON = [(np.cos(a), 0.8 * np.sin(a))
             for a in 2 * np.pi * np.arange(5) / 5 + 0.3]
_POINT_DOMAINS = {"square": (unit_square(), 0.1), "disk": (disk(), 0.125),
                  "ellipse": (ellipse(1.0, 0.6), 0.1),
                  "pentagon": (convex_polygon(_PENTAGON), 0.1)}


@functools.lru_cache(maxsize=None)
def _synthetic_trajectory(name):
    """Seeded node values, some negative or zero, at four snapshots and
    a stationary slice."""
    spec, h = _POINT_DOMAINS[name]
    dom = build_discretization(spec, h)
    rng = np.random.default_rng(7)
    fields = [rng.uniform(-0.05, 1.0, dom.n_interior) for _ in _SNAPS]
    fields[0][:5] = 0.0
    return Trajectory(dom=dom, times=_SNAPS.copy(), fields=fields,
                      stationary=rng.uniform(0.0, 1.2, dom.n_interior),
                      monotone=True)


def _coordinate(axis, h):
    lo, hi = float(axis[0]), float(axis[-1])
    return st.one_of(st.floats(lo - 0.5 * h, hi + 0.5 * h),
                     st.sampled_from([float(c) for c in axis]),  # cell edge
                     st.sampled_from([lo, hi]))  # bounding-box edge


@pytest.mark.parametrize("name", sorted(_POINT_DOMAINS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_point_value_is_value_bit_for_bit(name, data):
    traj = _synthetic_trajectory(name)
    dom, h = traj.dom, traj.dom.h
    alpha = data.draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]))
    beta = data.draw(st.sampled_from([1.0, 2.0]))
    on_snaps = [float(s) ** (1.0 / beta) for s in _SNAPS]
    between = [0.5 * (a + b) for a, b in zip(on_snaps, on_snaps[1:])]
    t = data.draw(st.one_of(
        st.sampled_from(on_snaps + between + [0.0, 0.01, 2.0, math.inf]),
        st.floats(0.0, 1.5)))
    x = data.draw(_coordinate(dom.xs, h))
    y = data.draw(_coordinate(dom.ys, h))
    ev = Evaluator(traj, alpha, beta)
    want = value(ev, np.array([x, y]), t)
    assert repr(ev.point_value(x, y, t)) == repr(float(want))


def point_block(pts, lambdas, mid):
    """pair_scan block from a point function: mid(x2, lam) at the
    points x2 = lam * pts[j] + (1 - lam) * pts[i]."""
    def block(idx1, idx3):
        p1, p3 = pts[idx1], pts[idx3]
        return (mid(lm * p3 + (1 - lm) * p1, lm)
                for lm in np.asarray(lambdas, dtype=float))
    return block


def _parent_min_defect(ev, mode, cfg=None):
    """min_defect with the one-tuple-at-a-time stage 2 it had before the
    spatial moves were batched, and every value through ev.value: stage
    1 interpolates each point, not per-axis tables."""
    cfg = cfg or SamplerConfig()
    dom = ev.dom
    sel = _scan_nodes(dom, _SCAN_NODES)
    times = _default_times(ev, cfg)
    pts = dom.interior_points[sel]
    n = len(pts)
    if mode == "space":
        tpairs = [(t, t) for t in times]
    else:
        finite = [t for t in times if not math.isinf(t)]
        tpairs = [(a, b) for a in finite for b in finite]
        if any(math.isinf(t) for t in times):
            tpairs.append((math.inf, math.inf))
    node_cache = {}

    def nodes_at(t):
        if t not in node_cache:
            node_cache[t] = ev.node_values(t)
        return node_cache[t]

    best = []
    samples = 0
    inner = np.linspace(0.0, 1.0, 17)[1:-1]
    for (ta, tb) in tpairs:
        def mid(x2, lm, ta=ta, tb=tb):
            return value(ev, x2, math.inf if math.isinf(ta)
                         else lm * tb + (1 - lm) * ta)

        mins, i1, i3 = scan1(nodes_at(ta)[sel], nodes_at(tb)[sel],
                             inner, point_block(pts, inner, mid))
        samples += n * (n - 1) // 2 * inner.size
        best += [(float(c), sel[a], sel[b], ta, tb, float(lm))
                 for c, a, b, lm in zip(mins, i1, i3, inner)]
    best = [r for r in best if math.isfinite(r[0])]
    best.sort(key=lambda r: r[0])
    cands = best[:_REFINE_CANDIDATES]
    finite_times = sorted(t for t in times if not math.isinf(t))
    full_pts = dom.interior_points

    def tuple_value(a, b, ta, tb, lm):
        x1, x3 = full_pts[a], full_pts[b]
        x2 = lm * x3 + (1 - lm) * x1
        t2 = math.inf if math.isinf(ta) else lm * tb + (1 - lm) * ta
        return (float(value(ev, x2, t2))
                - lm * float(nodes_at(tb)[b])
                - (1 - lm) * float(nodes_at(ta)[a]))

    idx_of = dom.index_of
    moves = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1),
             (-1, -1)]

    def neighbors(k):
        j, i = dom.interior_idx[k]
        out = []
        for dj, di in moves:
            jj, ii = j + dj, i + di
            if 0 <= jj < idx_of.shape[0] and 0 <= ii < idx_of.shape[1] \
                    and idx_of[jj, ii] >= 0:
                out.append(int(idx_of[jj, ii]))
        return out

    def golden_lambda(a, b, ta, tb, lm0):
        lo = max(lm0 - 1 / 16, 1e-6)
        hi = min(lm0 + 1 / 16, 1 - 1e-6)
        phi = (math.sqrt(5) - 1) / 2
        c1 = hi - phi * (hi - lo)
        c2 = lo + phi * (hi - lo)
        f1 = tuple_value(a, b, ta, tb, c1)
        f2 = tuple_value(a, b, ta, tb, c2)
        for _ in range(25):
            if f1 <= f2:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - phi * (hi - lo)
                f1 = tuple_value(a, b, ta, tb, c1)
            else:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + phi * (hi - lo)
                f2 = tuple_value(a, b, ta, tb, c2)
        lm = 0.5 * (lo + hi)
        return lm, tuple_value(a, b, ta, tb, lm)

    overall = (math.inf, None)
    for val, a, b, ta, tb, lm in cands:
        cur = (val, (a, b, ta, tb, lm))
        for _ in range(30):
            improved = False
            _, (a, b, ta, tb, lm) = cur
            for na in [a] + neighbors(a):
                for nb in [b] + neighbors(b):
                    if na == a and nb == b:
                        continue
                    v = tuple_value(na, nb, ta, tb, lm)
                    samples += 1
                    if v < cur[0] - 1e-15:
                        cur = (v, (na, nb, ta, tb, lm))
                        improved = True
            if mode == "spacetime" and not math.isinf(ta):
                ia = finite_times.index(ta) if ta in finite_times else None
                ib = finite_times.index(tb) if tb in finite_times else None
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if ia is None or ib is None:
                        break
                    ja, jb = ia + da, ib + db
                    if 0 <= ja < len(finite_times) \
                            and 0 <= jb < len(finite_times):
                        v = tuple_value(cur[1][0], cur[1][1],
                                        finite_times[ja], finite_times[jb],
                                        cur[1][4])
                        samples += 1
                        if v < cur[0] - 1e-15:
                            cur = (v, (cur[1][0], cur[1][1],
                                       finite_times[ja], finite_times[jb],
                                       cur[1][4]))
                            improved = True
            a2, b2, ta2, tb2, lm2 = cur[1]
            lm_new, v = golden_lambda(a2, b2, ta2, tb2, lm2)
            samples += 25
            if v < cur[0] - 1e-15:
                cur = (v, (a2, b2, ta2, tb2, lm_new))
                improved = True
            if not improved:
                break
        if cur[0] < overall[0]:
            overall = cur

    val, (a, b, ta, tb, lm) = overall
    tup = Tuple5(x1=tuple(full_pts[a]), x3=tuple(full_pts[b]),
                 t1=ta, t3=tb, lam=lm)
    grads, spread = _argmin_gradients(ev, tup, dom.h, mode)
    return DefectReport(mode=mode, minimum=val, argmin=tup,
                        gradients=grads, gradient_spread=spread,
                        tau_audit=tau_audit_value(ev, times),
                        samples=samples)


def test_batched_stage_two_matches_scalar_loop_space():
    # a rippled, non-concave field on an ellipse, so that stage 2 takes
    # many spatial moves
    dom = build_discretization(ellipse(1.0, 0.6), 1.0 / 24.0)
    f = field_from_function(
        dom, lambda x, y: (1 - x ** 2 - (y / 0.6) ** 2)
        * (1 + 0.3 * np.cos(9 * x)))
    cfg = SamplerConfig(include_infinity=False)
    want = _parent_min_defect(FieldEvaluator(f, 0.25), "space", cfg)
    got = min_defect(FieldEvaluator(f, 0.25), "space", cfg)
    assert got.to_json() == want.to_json()


def test_batched_stage_two_matches_scalar_loop_spacetime():
    h = 1.0 / 24.0
    scn = get_scenario("lane-emden-disk")
    dom = build_discretization(disk(), h)
    eig = principal_eigenpair(dom)
    problem = build_problem(scn, eig, None)
    traj = solve_trajectory(problem, dom, 18)
    traj.stationary = solve_stationary(problem, dom).v.values
    # four snapshot times and t = inf: time moves in both directions
    cfg = SamplerConfig(audit_times=[float(traj.times[k])
                                     for k in (0, 5, 11, 17)] + [math.inf])
    want = _parent_min_defect(Evaluator(traj, 0.25), "spacetime", cfg)
    got = min_defect(Evaluator(traj, 0.25), "spacetime", cfg)
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# the tabulated stage-1 block
# ---------------------------------------------------------------------------

#: lambdas next to 0 and 1
_LAMBDA_EDGES = [1e-300, 1e-12, 2.0 ** -53, 1 - 2.0 ** -53, 1 - 1e-12]


def _random_points(dom, rng, n):
    """n points of the grid's box widened by h/2, a quarter of their
    coordinates moved onto a box edge and a quarter onto a grid line."""
    pts = []
    for lines in (dom.xs, dom.ys):
        c = rng.uniform(lines[0] - 0.5 * dom.h, lines[-1] + 0.5 * dom.h, n)
        pick = rng.integers(0, 4, n)
        c[pick == 0] = rng.choice([lines[0], lines[-1]], n)[pick == 0]
        c[pick == 1] = rng.choice(lines, n)[pick == 1]
        pts.append(c)
    return np.column_stack(pts)


@pytest.mark.parametrize("name", sorted(_POINT_DOMAINS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pair_block_is_value_bit_for_bit(name, data):
    traj = _synthetic_trajectory(name)
    dom = traj.dom
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    if data.draw(st.booleans()):  # NaN node values
        fields = [f.copy() for f in traj.fields]
        for f in fields:
            f[rng.integers(0, dom.n_interior, 3)] = np.nan
        traj = Trajectory(dom=dom, times=traj.times, fields=fields,
                          stationary=traj.stationary, monotone=True)
    alpha = data.draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]))
    beta = data.draw(st.sampled_from([1.0, 2.0]))
    sel = _scan_nodes(dom, data.draw(st.integers(4, _SCAN_NODES)))
    kind = data.draw(st.sampled_from(["scan", "random", "in-set"]))
    if kind == "scan":
        pts = dom.interior_points[sel]
    elif kind == "random":
        pts = _random_points(dom, rng, data.draw(st.integers(0, 40)))
    else:  # quasiconcavity's nodes above a level
        level = data.draw(st.floats(0.0, 1.0))
        pts = dom.interior_points[sel][traj.fields[-1][sel] > level]
    on_snaps = [float(s) ** (1.0 / beta) for s in _SNAPS]
    between = [0.5 * (a + b) for a, b in zip(on_snaps, on_snaps[1:])]
    t = st.one_of(st.sampled_from(on_snaps + between + [0.0, 0.01, 2.0]),
                  st.floats(0.0, 1.5))
    # one slice per time pair, from cells and weights formed once per
    # lambda for all of them
    tpairs = data.draw(st.lists(st.one_of(
        st.tuples(t, t), st.just((math.inf, math.inf))),
        min_size=1, max_size=3))
    lambdas = data.draw(st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from(_LAMBDA_EDGES)), min_size=1, max_size=4))
    ev, oracle = Evaluator(traj, alpha, beta), Evaluator(traj, alpha, beta)
    i1, i3 = np.triu_indices(len(pts), k=1)
    got = list(ev.pair_block(pts, lambdas, tpairs)(i1, i3))
    assert len(got) == len(lambdas)
    for lm, slices in zip(np.asarray(lambdas), got):
        mids = list(slices)
        assert len(mids) == len(tpairs)
        for (ta, tb), mid in zip(tpairs, mids):
            t2 = math.inf if math.isinf(ta) else lm * tb + (1 - lm) * ta
            want = value(oracle, lm * pts[i3] + (1 - lm) * pts[i1], t2)
            assert mid.dtype == want.dtype
            assert mid.tobytes() == want.tobytes()


def _count_scan_work(monkeypatch):
    """Counters of the pair scans' point work: bilinear_interp calls
    made inside a pair_scan, pair_scan calls, and the elements np.floor
    sees outside bilinear_interp (the per-axis tables)."""
    counts = {"interp_in_scan": 0, "scans": 0, "floor": 0}
    inside = {"scan": False, "interp": False}
    floor, interp, scan = np.floor, audit_mod.bilinear_interp, pair_scan

    def counting_floor(x, *args, **kwargs):
        if not inside["interp"]:
            counts["floor"] += np.size(x)
        return floor(x, *args, **kwargs)

    def counting_interp(*args):
        counts["interp_in_scan"] += inside["scan"]
        inside["interp"] = True
        try:
            return interp(*args)
        finally:
            inside["interp"] = False

    def counting_scan(*args):
        counts["scans"] += 1
        inside["scan"] = True
        try:
            return scan(*args)
        finally:
            inside["scan"] = False

    monkeypatch.setattr(np, "floor", counting_floor)
    monkeypatch.setattr(audit_mod, "bilinear_interp", counting_interp)
    monkeypatch.setattr(audit_mod, "pair_scan", counting_scan)
    return counts


def _axis_values(pts):
    """The most distinct coordinates along one axis of pts."""
    return max(np.unique(pts[:, axis]).size for axis in (0, 1))


def test_pair_scans_interpolate_no_point(monkeypatch):
    # stage 1 and the quasiconcavity levels gather tabulated cells: no
    # bilinear_interp call inside a pair_scan, and np.floor sees at most
    # 2 * 15 * nu^2 elements per scan (stage 2 interpolates its moves);
    # stage 1 scans its 5 time pairs in one pass
    traj = _synthetic_trajectory("disk")
    dom = traj.dom
    nu = _axis_values(dom.interior_points[_scan_nodes(dom, _SCAN_NODES)])
    counts = _count_scan_work(monkeypatch)
    cfg = SamplerConfig(audit_times=[0.05, 0.45, math.inf])
    min_defect(Evaluator(traj, 0.5), "spacetime", cfg)
    assert counts["scans"] == 1
    assert counts["interp_in_scan"] == 0
    assert 0 < counts["floor"] <= counts["scans"] * 2 * 15 * nu ** 2
    counts.update(scans=0, floor=0)
    quasiconcavity_defect(Field(dom, traj.fields[-1]))
    assert counts["scans"] == 16
    assert counts["interp_in_scan"] == 0
    assert 0 < counts["floor"] <= counts["scans"] * 2 * 15 * nu ** 2


# ---------------------------------------------------------------------------
# random convex shapes through solve, audit and envelope
# ---------------------------------------------------------------------------

def _all_finite(obj):
    """Every number in a nested report (dicts, lists, arrays) is
    finite; strings are skipped."""
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    return isinstance(obj, str) or bool(np.all(np.isfinite(obj)))


_SHAPES = st.one_of(
    st.builds(ellipse, st.floats(0.35, 1.2), st.floats(0.35, 1.2)),
    st.builds(lambda n, turn, jitter, r: convex_polygon(
        [(r * np.cos(t), r * np.sin(t)) for t in
         turn + 2 * np.pi * (np.arange(n) + np.array(jitter[:n])) / n]),
        st.integers(4, 8), st.floats(0.0, 2 * np.pi),
        st.lists(st.floats(-0.2, 0.2), min_size=8, max_size=8),
        st.floats(0.8, 1.2)))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(spec=_SHAPES, h=st.sampled_from([1 / 12, 1 / 13, 1 / 14, 1 / 16]))
def test_random_convex_shapes_solve_audit_envelope(spec, h):
    # Lane-Emden (q = 1/2) on an ellipse or a jittered convex polygon of
    # inradius >= 4h: the stationary solve, the space audit of v^(1/4)
    # and the envelope of v^(1/4) raise nothing and report finite numbers
    assume(spec.inradius >= 4 * h)
    dom = build_discretization(spec, h)
    problem = Problem(domain=spec, weight=Weight(kind="constant", c=1.0),
                      source=SourceTerm(kind="power_q", q=0.5))
    v = solve_stationary(problem, dom).v
    rep = min_defect(FieldEvaluator(v, 0.25), "space")
    f = Field(dom, np.maximum(v.values, 0.0) ** 0.25)
    env = concave_approximation(f)
    assert _all_finite(json.loads(rep.to_json()))
    assert _all_finite(vars(env))
