import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from concavelab import (Problem, SourceTerm, Weight, build_discretization,
                        check_hypotheses, disk, distance_to_boundary,
                        inner_region_mask, sup_slope_lambda, unit_square,
                        weight_concavity_defect)
from concavelab.domains import _SCAN_NODES, _scan_nodes
from concavelab.problems import _concavity_min
from concavelab.scenarios import _weight_min_C


@pytest.fixture(scope="module")
def square16():
    return build_discretization(unit_square(), 1.0 / 16.0)


def test_constant_weight_bounds(square16):
    # m and M as scenarios._bound_report takes them: the extremes of the
    # profile times the time factor at the horizon
    w = Weight(kind="constant", c=2.0)
    at_T = w.spatial_profile(square16) * w.time_factor(1.0)
    assert float(at_T.min()) == pytest.approx(2.0)
    assert float(at_T.max()) == pytest.approx(2.0)


#: for every field of Weight and SourceTerm, a value other than its default
_OFF_DEFAULT = {"c": 2.0, "gamma": 0.5, "omega": 0.5, "eps": 0.2, "a1": 2.0,
                "a2": 0.5, "eta": 0.1, "theta": 2.0, "q": 0.3, "p": 0.7}


def _kind_fields(read):
    """(class, kind, field) for every kind of Weight and SourceTerm and
    every field after kind that the kind reads (read) or does not."""
    return [pytest.param(cls, kind, f.name, id=f"{kind}-{f.name}")
            for cls in (Weight, SourceTerm)
            for kind, names in cls.KINDS.items()
            for f in dataclasses.fields(cls)[1:]
            if (f.name in names) == read]


def test_kinds_tables_name_only_fields():
    for cls in (Weight, SourceTerm):
        names = {f.name for f in dataclasses.fields(cls)[1:]}
        assert dataclasses.fields(cls)[0].name == "kind"
        assert set(_OFF_DEFAULT) >= names
        for kind, read in cls.KINDS.items():
            assert set(read) <= names, kind
    assert all("theta" in read for read in Weight.KINDS.values())


@pytest.mark.parametrize("value", ["off", math.nan], ids=["off", "nan"])
@pytest.mark.parametrize("cls,kind,name", _kind_fields(read=False))
def test_unread_field_off_its_default_is_rejected(cls, kind, name, value):
    # a field the kind does not read would change nothing, so only its
    # default is accepted
    value = _OFF_DEFAULT[name] if value == "off" else value
    what = "weight" if cls is Weight else "source"
    with pytest.raises(ValueError, match=re.escape(
            f"{what} {kind!r} with {name} = {value}: ")):
        cls(kind=kind, **{name: value})
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    assert getattr(cls(kind=kind, **{name: default}), name) == default


@pytest.mark.parametrize("cls,kind,name", _kind_fields(read=True))
def test_read_field_is_accepted(cls, kind, name):
    obj = cls(kind=kind, **{name: _OFF_DEFAULT[name]})
    assert getattr(obj, name) == _OFF_DEFAULT[name]


@pytest.mark.parametrize("cls", [Weight, SourceTerm])
def test_unknown_kind_is_rejected(cls):
    with pytest.raises(ValueError, match="kind must be one of") as exc:
        cls(kind="pentagon")
    assert "'pentagon'" in str(exc.value)
    assert all(repr(kind) in str(exc.value) for kind in cls.KINDS)


@pytest.mark.parametrize("kind", sorted(SourceTerm.KINDS))
def test_sign_changing_sources_take_negative_values(kind):
    # the one rule that picks the hypothesis verdicts of a sign change
    src = SourceTerm(kind)
    s = np.geomspace(1e-3, 10.0, 400)
    assert src.sign_changing == bool(np.any(src.compose(1.0, s) < 0))


def test_distance_weight_profile(square16):
    w = Weight(kind="distance_power", c=1.0, omega=1.0)
    vals = w.spatial_profile(square16)
    k = int(np.argmin(np.sum((square16.interior_points - 0.5) ** 2, axis=1)))
    assert vals[k] == pytest.approx(0.5)  # d_Omega at the center


def _closed_form(weight, spec, pts):
    """a(x) in one expression per kind, apart from Weight.spatial_at."""
    x, y = pts[:, 0], pts[:, 1]
    (x0, x1), (y0, y1) = spec.bounding_box
    if weight.kind == "ramp_bump_perturbed":
        xi, et = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
        return 1.0 + weight.eps * (np.cos(2 * np.pi * xi)
                                   * np.cos(2 * np.pi * et))
    if weight.kind == "smoothed_bang_bang":
        s = np.clip((x - 0.5 * (x0 + x1)) / weight.eta + 0.5, 0.0, 1.0)
        return weight.a1 * (1 - s) + (-weight.a2) * s
    d = np.maximum(distance_to_boundary(spec, pts), 0.0)
    return weight.c * d ** weight.omega


@pytest.mark.parametrize("weight", [
    Weight(kind="ramp_bump_perturbed", eps=0.2),
    Weight(kind="smoothed_bang_bang", a1=1.0, a2=0.5, eta=0.1),
    Weight(kind="distance_power", c=1.5, omega=0.5)], ids=lambda w: w.kind)
@pytest.mark.parametrize("spec", [unit_square(), disk(0.8)],
                         ids=["square", "disk"])
def test_factored_profile_is_closed_form_bit_for_bit(weight, spec):
    # spatial_at keeps the one-expression formula, so profiles, scans
    # and reports do not move
    rng = np.random.default_rng(3)
    (x0, x1), (y0, y1) = spec.bounding_box
    pts = rng.uniform((x0, y0), (x1, y1), (500, 2))
    assert np.array_equal(weight.spatial_at(spec, pts),
                          _closed_form(weight, spec, pts))


def test_time_factor_power(square16):
    w = Weight(kind="separable_power_time", c=1.0, gamma=0.5)
    assert w.time_factor(4.0) == pytest.approx(2.0)
    assert w.time_factor(0.0) == 0.0


@pytest.mark.parametrize("kind,gamma", [
    ("constant", 0.5), ("ramp_bump_perturbed", 0.5),
    ("smoothed_bang_bang", 0.5), ("separable_power_time", -0.5),
    ("distance_power", -0.5), ("separable_power_time", math.nan)])
def test_weight_rejects_gamma_it_has_no_factor_for(kind, gamma):
    # time_factor reads gamma only when it is > 0 on a kind with the
    # factor t^gamma; the seed's barrier and the stationary solve used
    # to read it on every kind and sign
    with pytest.raises(ValueError, match=f"weight '{kind}' with gamma = "
                                         f"{gamma}"):
        Weight(kind=kind, gamma=gamma)


def test_source_power_q():
    s = SourceTerm(kind="power_q", q=0.5)
    assert s.f(4.0) == pytest.approx(2.0)
    assert s.f(0.0) == 0.0
    assert s.sublinear_exponent == pytest.approx(0.5)


def test_source_saturable_slope():
    s = SourceTerm(kind="saturable")
    x = np.linspace(0.01, 50, 2000)
    vals = s.f(x)
    assert np.all(np.diff(vals) > 0)  # monotone
    assert np.all(vals <= x)  # s^2/(1+s) <= s


def test_sup_slope_lambda_closed_forms():
    # Lambda = sup_s s * (f(s)/s)'
    assert sup_slope_lambda(SourceTerm(kind="one")) == 0.0
    assert sup_slope_lambda(SourceTerm(kind="power_q", q=0.5)) == 0.0
    assert sup_slope_lambda(SourceTerm(kind="identity")) == 0.0
    assert sup_slope_lambda(SourceTerm(kind="log_s")) == pytest.approx(1.0)
    assert sup_slope_lambda(SourceTerm(kind="saturable")) == pytest.approx(0.25)
    assert sup_slope_lambda(SourceTerm(kind="saturable_q", q=0.6)) \
        == pytest.approx(0.15)


def test_logistic_source_values(square16):
    # b = a(x) s - s^2
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=2.0),
                source=SourceTerm(kind="logistic"))
    s = np.full(square16.n_interior, 0.5)
    b = p.source_values(square16, s, 1.0)
    assert np.allclose(b, 2.0 * 0.5 - 0.25)


def test_power_sum_source_values(square16):
    # b = a(x) s^p + s^q
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_sum", q=0.6, p=0.5))
    s = np.full(square16.n_interior, 4.0)
    b = p.source_values(square16, s, 1.0)
    assert np.allclose(b, 2.0 + 4.0 ** 0.6)


# the composition b = a(x,t) f(s) before it was one expression: a
# plain f(s) per kind, and two kinds that mixed the weight in by hand
def _former_f(src, s):
    k = src.kind
    if k == "one":
        return np.ones_like(s)
    if k == "power_q":
        if src.q == 0.0:
            return np.ones_like(s)
        return np.where(s > 0, s, 0.0) ** src.q
    if k == "identity":
        return s
    if k == "log_s":
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = s[pos] * np.log(s[pos])
        return out
    if k == "log1p_q":
        return s * np.log1p(np.maximum(s, 0.0)) ** src.q
    if k == "saturable_q":
        sq = np.where(s > 0, s, 0.0) ** src.q
        return s * sq / (1.0 + sq)
    if k == "saturable":
        return s * s / (1.0 + s)
    if k == "one_minus_s_p":
        return np.where(s < 1, (1.0 - np.minimum(s, 1.0)) ** src.p, 0.0)
    raise AssertionError(k)


def _former_source_values(problem, dom, s, t):
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    a, src = problem.weight_values(dom, t), problem.source
    if src.kind == "logistic":
        return a * s - s * s
    if src.kind == "power_sum":
        sp_ = np.where(s > 0, s, 0.0)
        base_p = sp_ ** src.p if src.p > 0 else np.ones_like(s)
        base_q = sp_ ** src.q if src.q > 0 else np.ones_like(s)
        return a * base_p + base_q
    return a * _former_f(src, s)


SOURCES = [SourceTerm("one"), SourceTerm("power_q", q=0.0),
           SourceTerm("power_q", q=0.5), SourceTerm("identity"),
           SourceTerm("log_s"), SourceTerm("log1p_q", q=0.0),
           SourceTerm("log1p_q", q=0.7), SourceTerm("saturable_q", q=0.0),
           SourceTerm("saturable_q", q=0.6), SourceTerm("saturable"),
           SourceTerm("logistic"), SourceTerm("one_minus_s_p", p=0.5),
           SourceTerm("one_minus_s_p", p=0.0)] + [
    SourceTerm("power_sum", p=p, q=q)
    for p, q in ((0.5, 0.6), (0.0, 0.6), (0.5, 0.0), (0.0, 0.0))]

WEIGHTS = [Weight("constant", c=1.5),
           Weight("ramp_bump_perturbed", eps=0.2),
           Weight("smoothed_bang_bang", a1=1.0, a2=2.0, eta=0.25),
           Weight("distance_power", c=1.0, gamma=0.5, omega=0.5)]


@pytest.mark.parametrize("weight", WEIGHTS, ids=lambda w: w.kind)
@pytest.mark.parametrize("src", SOURCES,
                         ids=lambda s: f"{s.kind}-p{s.p:g}-q{s.q:g}")
def test_source_values_compose_bit_for_bit(square16, src, weight):
    # a f(s) + g(s) gives the former per-kind formulas' bits, signed
    # zeros included: a negative weight times f(0) = 0 stays -0.0
    prob = Problem(domain=unit_square(), weight=weight, source=src,
                   horizon=1.0, truncate=True)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 3.0, square16.n_interior)
    s[::5], s[1::7], s[2::11] = 0.0, -0.0, -1e-13
    s[3::13] = 1.0
    for t in (0.5, math.inf):
        got = prob.source_values(square16, s, t)
        want = _former_source_values(prob, square16, s, t)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert (src.g(s) is None) == (src.kind not in ("logistic", "power_sum"))


def _former_sup_slope_numeric(source):
    """The numeric fallback of sup_slope_lambda as it was."""
    s = np.geomspace(1e-8, 1e8, 20001)

    def fbar(v):
        return _former_f(source, v) / v

    ds = s * 1e-6
    slope = s * (fbar(s + ds) - fbar(np.maximum(s - ds, 1e-12))) \
        / (ds + np.minimum(s - 1e-12, ds))
    val = float(np.nanmax(slope))
    return val * 1.01 if val > 0 else val * 0.99


@pytest.mark.parametrize("src", [
    SourceTerm("log1p_q", q=0.5), SourceTerm("log1p_q", q=0.0)],
    ids=lambda s: f"{s.kind}-p{s.p:g}-q{s.q:g}")
def test_sup_slope_lambda_fallback_bit_for_bit(src):
    assert sup_slope_lambda(src) == _former_sup_slope_numeric(src)


@pytest.mark.parametrize("p, q", [(0.5, 0.6), (0.5, 0.0), (0.0, 0.3),
                                  (1.0, 1.0), (1.0, 0.2)])
def test_sup_slope_lambda_power_sum_is_zero(p, q):
    # s * fbar'(s) = (p-1) s^(p-1) + (q-1) s^(q-1) <= 0 tends to 0 as
    # s -> infinity; the numeric fallback gave -2.99e-4 at (0.5, 0.6)
    # and -4.95e-5 at (0.5, 0), below the supremum a lower bound needs
    assert sup_slope_lambda(SourceTerm("power_sum", p=p, q=q)) == 0.0


def test_hypotheses_torsion(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"))
    hyp = check_hypotheses(p)
    assert hyp.require("lower_power")
    assert hyp.require("one_sided_lipschitz")
    assert hyp.require("time_monotone")
    assert hyp.constants["k"] > 0


def test_hypotheses_one_minus_s_p_has_no_power_bound():
    # f(s) = (1 - s)^p vanishes at s = 1, the top of the checked states
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one_minus_s_p", p=0.5))
    hyp = check_hypotheses(p)
    assert hyp.flags["lower_power"] is False
    assert hyp.flags["lower_power_uniform"] is False
    assert "k" not in hyp.constants


@pytest.mark.parametrize("src", [
    SourceTerm(kind="power_q", q=1.0), SourceTerm(kind="power_q", q=1.5),
    SourceTerm(kind="power_sum", p=1.5, q=2.0),
    SourceTerm(kind="power_sum", p=1.0, q=0.5)])
def test_superlinear_power_bound_is_not_certified(src):
    # the interior barrier needs q in [0, 1): a superlinear exponent
    # certifies no power lower bound, so the run is seeded from phi1
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=src)
    hyp = check_hypotheses(p)
    assert not hyp.require("lower_power")
    assert not hyp.require("lower_power_uniform")
    assert "q" not in hyp.constants
    lower = check_hypotheses(dataclasses.replace(p, source=SourceTerm(
        kind="power_q", q=0.5)))
    assert lower.require("lower_power") and lower.constants["q"] == 0.5


def test_weight_defect_zero_for_constant(square16):
    for w in (Weight(kind="constant", c=2.5),
              Weight(kind="separable_power_time", c=0.7, gamma=0.5)):
        assert w.spatially_constant
        p = Problem(domain=unit_square(), weight=w,
                    source=SourceTerm(kind="one"))
        for theta in (0.0, 1.0, math.inf):
            assert weight_concavity_defect(p, square16, theta) == 0.0


def test_weight_defect_positive_for_ripple(square16):
    p = Problem(domain=unit_square(),
                weight=Weight(kind="ramp_bump_perturbed", eps=0.2),
                source=SourceTerm(kind="one"))
    d = weight_concavity_defect(p, square16, 1.0)
    assert d > 0.0


def test_weight_defect_monotone_in_eps(square16):
    defects = []
    for eps in (0.05, 0.1, 0.2):
        p = Problem(domain=unit_square(),
                    weight=Weight(kind="ramp_bump_perturbed", eps=eps),
                    source=SourceTerm(kind="one"))
        defects.append(weight_concavity_defect(p, square16, 1.0))
    assert defects[0] <= defects[1] <= defects[2]


def _reference_mins(weight, spec, pts, prof, thetas):
    """Signed min of the concavity function of a^theta per theta, by one
    full triu_indices gather per lambda (the unchunked scan)."""
    def transform(a, theta):
        if math.isinf(theta):
            return a
        if theta == 0.0:
            return np.log(np.maximum(a, 1e-300))
        return np.sign(a) * np.abs(a) ** theta

    idx1, idx3 = np.triu_indices(len(pts), k=1)
    worst = dict.fromkeys(thetas, math.inf)
    for lm in np.linspace(0.0, 1.0, 17)[1:-1]:
        x2 = lm * pts[idx3] + (1 - lm) * pts[idx1]
        a2 = weight.spatial_at(spec, x2)
        for theta in thetas:
            vals = transform(prof, theta)
            c = transform(a2, theta) - lm * vals[idx3] \
                - (1 - lm) * vals[idx1]
            worst[theta] = min(worst[theta], float(c.min()))
    return worst


def test_theta_one_transform_is_a_plus_zero_bit_for_bit():
    # _concavity_min maps a to a + 0.0 at theta = 1 in place of
    # sign(a) * |a| ** theta; both give +0.0 for -0.0
    rng = np.random.default_rng(9)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf,
               -math.inf, math.nan, -math.nan]
    spread = rng.choice([-1.0, 1.0], 10 ** 6) \
        * 10.0 ** rng.uniform(-300, 300, 10 ** 6)
    a = np.concatenate([special, spread])
    want = np.sign(a) * np.abs(a) ** 1.0
    assert np.array_equal((a + 0.0).view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def square32():
    # 961 interior nodes (461,280 pairs), 100 on every third row and
    # column
    return build_discretization(unit_square(), 1.0 / 32.0)


_SCAN_WEIGHTS = (Weight(kind="ramp_bump_perturbed", eps=0.2),
                 Weight(kind="smoothed_bang_bang", a1=1.0, a2=0.5),
                 Weight(kind="distance_power", c=1.0, omega=2.0))


@pytest.mark.parametrize("weight", _SCAN_WEIGHTS, ids=lambda w: w.kind)
@pytest.mark.parametrize("masked", [False, True])
def test_weight_defect_bit_exact(square32, weight, masked):
    # the scan visits the nodes _scan_nodes keeps (100 of 961, and 81
    # of the inner region's 361), every pair of them once
    p = Problem(domain=unit_square(), weight=weight,
                source=SourceTerm(kind="one"))
    mask = inner_region_mask(square32, 0.2) if masked else None
    sel = _scan_nodes(square32, _SCAN_NODES, mask)
    n = square32.n_interior if mask is None else np.count_nonzero(mask)
    assert len(sel) <= _SCAN_NODES < n
    thetas = (0.0, 1.0, 2.5, math.inf)
    ref = _reference_mins(weight, p.domain, square32.interior_points[sel],
                          weight.spatial_profile(square32)[sel], thetas)
    for theta in thetas:
        got = weight_concavity_defect(p, square32, theta, mask=mask)
        assert got == max(0.0, -ref[theta])
    assert ref[1.0] < 0.0  # every weight here has a positive defect


def test_sampled_defect_is_at_most_the_full_one(square32):
    # the sampled pairs are some of all pairs, so the defect the bounds
    # read is at or below the one over every node: a stricter rhs
    w = Weight(kind="ramp_bump_perturbed", eps=0.2)
    p = Problem(domain=unit_square(), weight=w, source=SourceTerm("one"))
    thetas = (0.0, 1.0, math.inf)
    full = _reference_mins(w, p.domain, square32.interior_points,
                           w.spatial_profile(square32), thetas)
    for theta in thetas:
        got = weight_concavity_defect(p, square32, theta)
        assert 0.0 < got <= -full[theta]


@pytest.mark.parametrize("masked", [False, True])
def test_weight_min_C_bit_exact(square32, masked):
    w = Weight(kind="ramp_bump_perturbed", eps=0.2)
    p = Problem(domain=unit_square(), weight=w,
                source=SourceTerm(kind="one"))
    mask = inner_region_mask(square32, 0.2) if masked else None
    prof = w.spatial_profile(square32)
    pts = square32.interior_points
    if masked:
        prof, pts = prof[mask], pts[mask]
    # every k-th row and column of the lattice, k = ceil(sqrt(N / 240))
    iy, ix = square32.interior_idx[mask if masked else slice(None)].T
    k = math.ceil(math.sqrt(len(pts) / 240))
    on = (iy % k == 0) & (ix % k == 0)
    ref = _reference_mins(w, p.domain, pts[on], prof[on], (math.inf,))
    assert _weight_min_C(p, square32, mask) == ref[math.inf]


class _Recorder:
    """A stand-in weight, 0 everywhere: spatial_at records the lambda
    points x2 it gets."""

    def __init__(self):
        self.calls = []

    def spatial_profile(self, dom):
        return np.zeros(dom.n_interior)

    def spatial_at(self, spec, pts):
        self.calls.append(pts)
        return np.zeros(len(pts))


def test_pair_scan_visits_every_pair_once(square16):
    # the 15 lambda points of each pair i < j come exactly once, in
    # pair_scan's runs, of the full square (225 nodes, none dropped by
    # _scan_nodes) and of a disk-shaped mask
    pts = square16.interior_points
    for mask in (None, np.hypot(*(pts - 0.5).T) < 0.4):
        rec = _Recorder()
        _concavity_min(rec, square16, 1.0, mask)
        if mask is None:
            assert len(rec.calls) > 15  # more than one run per lambda
        sub = pts if mask is None else pts[mask]
        idx1, idx3 = np.triu_indices(len(sub), k=1)
        ref = np.concatenate([lm * sub[idx3] + (1 - lm) * sub[idx1]
                              for lm in np.linspace(0.0, 1.0, 17)[1:-1]])
        got = np.concatenate(rec.calls)
        assert got.shape == ref.shape
        assert np.array_equal(got[np.lexsort(got.T)],
                              ref[np.lexsort(ref.T)])


@pytest.fixture(scope="module")
def square64():
    return build_discretization(unit_square(), 1.0 / 64.0)


#: _concavity_min of the ramp weight with eps = 0.05 at h = 1/64 per
#: (theta, inner region), on the 144 (inner: 169) nodes _scan_nodes
#: keeps, as _reference_mins gives them
_RAMP64_MINS = {(0.0, False): -0.0880984006757661,
                (0.0, True): -0.01736269968785786,
                (1.0, False): -0.08784689385794131,
                (1.0, True): -0.017262295554397955,
                (math.inf, False): -0.08784689385794131,
                (math.inf, True): -0.017262295554397955}


@pytest.mark.parametrize("theta", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("inner", [False, True])
def test_rectangle_scan_bit_exact_at_h64(square64, theta, inner):
    w = Weight(kind="ramp_bump_perturbed", eps=0.05)
    mask = inner_region_mask(square64, 0.2) if inner else None
    got = _concavity_min(w, square64, theta, mask)
    assert type(got) is float
    assert repr(got) == repr(_RAMP64_MINS[theta, inner])
    if inner and theta == 1.0:
        p = Problem(domain=unit_square(), weight=w, source=SourceTerm("one"))
        d = weight_concavity_defect(p, square64, theta, mask=mask)
        assert type(d) is float and d == -_RAMP64_MINS[theta, inner]


#: _concavity_min on the disk at h = 1/16 (193 of its 793 nodes) per
#: (weight kind, theta), as _reference_mins gives it
_DISK16_MINS = {
    ("ramp_bump_perturbed", 0.0): -0.20518292249444642,
    ("ramp_bump_perturbed", 1.0): -0.1955409662519293,
    ("ramp_bump_perturbed", math.inf): -0.1955409662519293,
    ("smoothed_bang_bang", 0.0): -646.3024064410255,
    ("smoothed_bang_bang", 1.0): -1.21875,
    ("smoothed_bang_bang", math.inf): -1.21875,
    ("distance_power", 0.0): 0.0010050691560135432,
    ("distance_power", 1.0): -0.23828124999999994,
    ("distance_power", math.inf): -0.23828124999999994}


@pytest.mark.parametrize("theta", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("weight", _SCAN_WEIGHTS, ids=lambda w: w.kind)
def test_disk_scan_bit_exact_at_h16(weight, theta):
    dom = build_discretization(disk(), 1.0 / 16.0)
    got = _concavity_min(weight, dom, theta)
    assert type(got) is float
    assert repr(got) == repr(_DISK16_MINS[weight.kind, theta])


def test_lambda_with_a_nan_value_is_skipped(square16):
    # x2 = (239/256, 15/16) comes only from the top row's last pair at
    # lambda = 15/16, where the weight is NaN: that lambda, which holds
    # the least value -479/256, is skipped whole, and the min is the one
    # of lambda = 14/16
    class NanAtOnePoint(_Recorder):
        def spatial_at(self, spec, pts):
            x, y = pts[..., 0], pts[..., 1]
            return np.where((x == 239 / 256) & (y == 15 / 16), np.nan,
                            -(x + y))

    pts = square16.interior_points
    for mask in (None, np.any(pts != 1 / 16, axis=1)):  # 225 or 224 nodes
        assert _concavity_min(NanAtOnePoint(), square16, math.inf,
                              mask) == -478 / 256


def test_weight_scan_is_capped_at_the_scan_nodes(monkeypatch):
    # the disk at h = 1/32 has 3,205 nodes: every pair would take about
    # 77 M middle points; the scan takes those of _SCAN_NODES at most
    dom = build_discretization(disk(), 1.0 / 32.0)
    w = Weight(kind="distance_power", c=1.0, omega=2.0)
    p = Problem(domain=disk(), weight=w, source=SourceTerm("one"))
    w.spatial_profile(dom)  # the node profile is not the scan
    points, spatial_at = [], Weight.spatial_at

    def counted(self, spec, pts):
        points.append(len(pts))
        return spatial_at(self, spec, pts)

    monkeypatch.setattr(Weight, "spatial_at", counted)
    assert weight_concavity_defect(p, dom, 1.0) > 0.0
    assert 0 < sum(points) <= 15 * _SCAN_NODES * (_SCAN_NODES - 1) // 2


def test_weight_defect_memory_bounded():
    # h=1/48: 2,209 nodes, 2.4M pairs; gathering them all at once
    # peaks near 250 MB.  h=1/64 is the benchmark's scan.  The disk at
    # h=1/32 has 3,205 nodes (5.1M pairs): a list of every pair, 16
    # bytes each, peaked near 88 MB.  Each scan takes the pairs of at
    # most _SCAN_NODES nodes in pair_scan's runs, one at a time
    p = Problem(domain=unit_square(),
                weight=Weight(kind="ramp_bump_perturbed", eps=0.05),
                source=SourceTerm(kind="one"))
    for spec, h, mb in ((unit_square(), 1.0 / 48.0, 64),
                        (unit_square(), 1.0 / 64.0, 16),
                        (disk(), 1.0 / 32.0, 16)):
        dom = build_discretization(spec, h)
        tracemalloc.start()
        try:
            weight_concavity_defect(p, dom, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mb * 2 ** 20


def test_truncation_caps_time():
    p = Problem(domain=disk(), weight=Weight(kind="separable_power_time",
                                             c=1.0, gamma=0.5),
                source=SourceTerm(kind="one"), horizon=2.0, truncate=True)
    assert p.effective_time(5.0) == pytest.approx(2.0)
    assert p.effective_time(1.0) == pytest.approx(1.0)


def test_spatial_profile_cached_per_domain_and_weight():
    dom = build_discretization(disk(), 1.0 / 16.0)
    w = Weight(kind="distance_power", c=1.0, omega=1.0)
    prof = w.spatial_profile(dom)
    assert w.spatial_profile(dom) is prof
    assert not prof.flags.writeable  # shared by every caller
    assert np.array_equal(prof, w.spatial_at(dom.spec, dom.interior_points))
    other = Weight(kind="distance_power", c=2.0, omega=1.0)
    assert np.array_equal(other.spatial_profile(dom), 2.0 * prof)
