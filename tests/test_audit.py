import json
import math

import numpy as np
import pytest

from concavelab import (Field, Problem, SourceTerm, SamplerConfig, Weight,
                        build_discretization, concavity_value, ellipse,
                        field_from_function, harmonic_concavity_value,
                        make_time_grid, min_defect, power_transform,
                        quasiconcavity_defect, solve_trajectory, unit_square)
from concavelab.audit import (FieldEvaluator, OUTSIDE_DOMAIN, Tuple5,
                              harmonic_combination, tau_audit_value)
from concavelab.errors import EmptySampler


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
        min_defect(FieldEvaluator(f), "space",
                   SamplerConfig(lambdas=np.array([]),
                                 include_infinity=False))


def test_power_transform_node_values(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    g = make_time_grid(p, square16.h, count=6)
    traj = solve_trajectory(p, square16, g)
    ev = power_transform(traj, 0.5, 1.0)
    t = float(traj.times[-1])
    got = ev.node_values(t)
    assert np.allclose(got, np.maximum(traj.fields[-1], 0.0) ** 0.5)


def test_power_transform_validates_exponents(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    g = make_time_grid(p, square16.h, count=4)
    traj = solve_trajectory(p, square16, g)
    with pytest.raises(ValueError):
        power_transform(traj, 1.5)
    with pytest.raises(ValueError):
        power_transform(traj, 0.5, 3.0)


def test_time_rescaling_in_transform(square16):
    # beta = 2 evaluates u at t^2
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    g = make_time_grid(p, square16.h, count=6)
    traj = solve_trajectory(p, square16, g)
    ev = power_transform(traj, 1.0, 2.0)
    t = math.sqrt(float(traj.times[3]))
    assert np.allclose(ev.node_values(t), traj.fields[3])


def test_tau_audit_scales_with_h():
    taus = []
    for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        dom = build_discretization(unit_square(), h)
        f = field_from_function(dom, lambda x, y: np.sin(np.pi * x)
                                * np.sin(np.pi * y))
        taus.append(tau_audit_value(FieldEvaluator(f), [0.0]))
    assert taus[0] / taus[1] == pytest.approx(4.0, rel=0.2)
    assert taus[1] / taus[2] == pytest.approx(4.0, rel=0.2)


def test_quasiconcavity_defect(square16):
    concave = field_from_function(square16,
                                  lambda x, y: x * (1 - x) * y * (1 - y))
    assert quasiconcavity_defect(concave) <= 0.0
    bumps = field_from_function(
        square16,
        lambda x, y: (np.exp(-80 * ((x - 0.3) ** 2 + (y - 0.5) ** 2))
                      + np.exp(-80 * ((x - 0.7) ** 2 + (y - 0.5) ** 2))))
    # analytic field: the sharp-Gaussian curvature inflates the default
    # tolerance, so tighten c_tol to expose the genuine violation
    assert quasiconcavity_defect(bumps, c_tol=1.0) > 0.01


def _reference_quasiconcavity(f, c_tol=10.0):
    """The unchunked scan: at most about 240 lattice-strided nodes, one
    triu_indices gather of the in-set pairs per level of 16."""
    ev = FieldEvaluator(f)
    tau = tau_audit_value(ev, [0.0], c_tol)
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
        vm = ev.value(0.5 * (pts[inset[i1]] + pts[inset[i3]]))
        worst = max(worst, float(((lev - tau) - vm).max()))
    return max(worst, 0.0)


@pytest.mark.parametrize("c_tol", [0.1, 1.0, 10.0])
def test_quasiconcavity_matches_unchunked_scan(square16, c_tol):
    ell = build_discretization(ellipse(1.3, 0.6), 1.0 / 32.0)
    rng = np.random.default_rng(3)
    got = []
    for dom in (square16, ell):
        for f in (field_from_function(
                      dom, lambda x, y: np.exp(-4 * (x - 0.3) ** 2)
                      * (1 + 0.5 * np.cos(6 * y)) + np.exp(-9 * x * x)),
                  Field(dom, rng.uniform(0.0, 1.0, dom.n_interior))):
            got.append(quasiconcavity_defect(f, c_tol=c_tol))
            assert got[-1] == _reference_quasiconcavity(f, c_tol)
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
