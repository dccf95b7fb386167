"""Scenario catalog and verification pipeline.

Each scenario bundles a problem, a transform (alpha, beta), an audit
mode, and the checks it must satisfy: exact-concavity verdicts against
the discretization tolerance, quantitative defect bounds driven by the
weight, quasiconcavity of snapshots, plus solver diagnostics (monotone
flag, boundary barrier, Hopf quotients).  run_property_suite runs the
randomized inequality checks for the concavity-function algebra.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .audit import (Evaluator, SamplerConfig, min_defect,
                    quasiconcavity_defect)
from .bounds import (BoundParams, BoundReport, log_concavity_rhs,
                     quantitative_rhs, boundary_lower_bound,
                     spacetime_alpha_window)
from .domains import (build_discretization, disk, distance_to_boundary,
                      inner_region_mask, unit_square)
from .errors import ValidityViolation
from .operators import Field, principal_eigenpair
from .parabolic import monotone_slack, solve_trajectory
from .problems import (Problem, SourceTerm, Weight, _concavity_min,
                       check_hypotheses, sup_slope_lambda,
                       weight_concavity_defect)
from .stationary import solve_stationary


@dataclass(frozen=True)
class AuditSpec:
    """One transform + audit + checks within a scenario.

    checks entries:
      ("exact",)                    defect >= -tau_audit
      ("quantitative", mode)       defect >= rhs(mode) - tau_audit
      ("log_bound", variant)       defect >= log rhs(variant) - tau_audit
    """
    alpha: float
    beta: float = 1.0
    mode: str = "spacetime"
    checks: tuple = (("exact",),)


@dataclass(frozen=True)
class Scenario:
    """A catalog entry: the problem, the initial data u0_scale * phi1
    (zero data when u0_scale is None), the audits and optional checks."""
    id: str
    description: str
    problem: Problem
    u0_scale: float | None = None
    audits: tuple = ()
    check_boundary_barrier: bool = False
    check_quasiconcave: bool = False  # snapshots' superlevel sets convex


@dataclass
class VerificationReport:
    scenario_id: str
    verdict: str           # pass | fail | not_applicable
    assertions: list = dc_field(default_factory=list)
    defect_reports: list = dc_field(default_factory=list)
    bound_reports: list = dc_field(default_factory=list)
    diagnostics: dict = dc_field(default_factory=dict)
    runtime: float = 0.0

    def add_assertion(self, name, passed, measured, bound):
        self.assertions.append(
            {"name": name, "passed": bool(passed),
             "measured": float(measured), "bound": float(bound),
             "margin": float(measured - bound)})

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario_id,
            "verdict": self.verdict,
            "assertions": self.assertions,
            "defects": [json.loads(r.to_json())
                        for r in self.defect_reports],
            "bounds": [dataclasses.asdict(r) for r in self.bound_reports],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _catalog() -> dict:
    scns = []
    add = scns.append
    square = unit_square()
    one = Weight("constant", c=1.0)
    dist = Weight("distance_power", c=1.0, omega=1.0, theta=1.0)
    for name, spec in (("square", square), ("disk", disk())):
        add(Scenario(
            id=f"torsion-{name}",
            description="constant-source problem; sqrt of the rescaled "
                        "solution is concave in space-time",
            problem=Problem(spec, one, SourceTerm("one")),
            audits=(AuditSpec(alpha=0.5, beta=2.0),),
            check_boundary_barrier=True))
        add(Scenario(
            id=f"lane-emden-{name}",
            description="sublinear power source u^(1/2); u^(1/4) concave "
                        "in space-time",
            problem=Problem(spec, one, SourceTerm("power_q", q=0.5)),
            audits=(AuditSpec(alpha=0.25),),
            check_boundary_barrier=True))

    add(Scenario(
        id="sum-powers-square",
        description="source a u^p + u^q with p=0.5, q=0.6; u^((1-q)/2) "
                    "concave in rescaled space-time",
        problem=Problem(square, one, SourceTerm("power_sum", q=0.6, p=0.5)),
        audits=(AuditSpec(alpha=0.2, beta=2.0),)))

    add(Scenario(
        id="dist-weight-torsion-disk",
        description="torsion with the concave weight d(x); u^(1/3) "
                    "concave in rescaled space-time",
        problem=Problem(disk(), dist, SourceTerm("one")),
        audits=(AuditSpec(alpha=1.0 / 3.0, beta=2.0),)))

    add(Scenario(
        id="eigen-square",
        description="linear source a u with constant a; log u concave "
                    "at every time",
        problem=Problem(square, one, SourceTerm("identity")), u0_scale=1.0,
        audits=(AuditSpec(alpha=0.0, mode="space",
                          checks=(("exact",), ("log_bound", "eigen"))),)))

    add(Scenario(
        id="saturable-square",
        description="saturable source s^2/(1+s) with constant a; log u "
                    "concave at every time",
        problem=Problem(square, one, SourceTerm("saturable")), u0_scale=1.0,
        audits=(AuditSpec(alpha=0.0, mode="space",
                          checks=(("exact",), ("log_bound", "general"))),)))

    add(Scenario(
        id="logistic-square",
        description="logistic source a(x) u - u^2 with concave a = d(x); "
                    "log u concave at every time",
        problem=Problem(square, dist, SourceTerm("logistic")), u0_scale=0.5,
        audits=(AuditSpec(alpha=0.0, mode="space"),)))

    add(Scenario(
        id="log-square",
        description="logarithmic source s log s with constant a; log u "
                    "concave at every time on the finite horizon",
        problem=Problem(square, one, SourceTerm("log_s"), horizon=1.0),
        u0_scale=0.5,
        audits=(AuditSpec(alpha=0.0, mode="space",
                          checks=(("exact",),
                                  ("log_bound", "product_cases"))),)))

    add(Scenario(
        id="eigen-dist-square",
        description="linear source with the concave weight "
                    "sqrt(t) sqrt(d(x)); log u concave at every time",
        problem=Problem(square, Weight("distance_power", c=1.0, gamma=0.5,
                                       omega=0.5, theta=1.0),
                        SourceTerm("identity"), truncate=True), u0_scale=1.0,
        audits=(AuditSpec(alpha=0.0, mode="space"),)))

    add(Scenario(
        id="kennington-square",
        description="source (1-u)^p from zero data; snapshots are "
                    "quasiconcave (convex superlevel sets)",
        problem=Problem(square, one, SourceTerm("one_minus_s_p", p=0.5)),
        check_quasiconcave=True))

    for eps in (0.05, 0.1, 0.2):
        tag = str(eps).replace("0.", "")
        ramp = Weight("ramp_bump_perturbed", eps=eps, theta=1.0)
        add(Scenario(
            id=f"ramp-le-eps{tag}",
            description=f"sublinear source with a rippled weight "
                        f"(eps={eps}); quantitative defect bounds",
            problem=Problem(square, ramp, SourceTerm("power_q", q=0.5)),
            audits=(
                AuditSpec(alpha=0.25, checks=(("quantitative", "oscillation"),
                                              ("quantitative", "rough"),
                                              ("quantitative", "prop413"))),
                AuditSpec(alpha=1.0 / 6.0,
                          checks=(("quantitative", "theta"),)),
            )))
        add(Scenario(
            id=f"ramp-eigen-eps{tag}",
            description=f"linear source with a rippled weight "
                        f"(eps={eps}); log-concavity defect bound",
            problem=Problem(square, ramp, SourceTerm("identity")),
            u0_scale=1.0,
            audits=(AuditSpec(alpha=0.0, mode="space",
                              checks=(("log_bound", "eigen"),)),)))

    return {s.id: s for s in scns}


CATALOG = _catalog()


def scenario_ids():
    return sorted(CATALOG)


def get_scenario(sid: str) -> Scenario:
    if sid not in CATALOG:
        raise KeyError(f"unknown scenario {sid!r}; known: "
                       + ", ".join(scenario_ids()))
    return CATALOG[sid]


# ---------------------------------------------------------------------------
# pipeline helpers
# ---------------------------------------------------------------------------

def build_problem(scn: Scenario, eig,
                  horizon: float | None = None) -> Problem:
    """scn.problem with the initial data u0_scale * phi1 when u0_scale
    is set, and with the horizon when one is given."""
    kw = {} if horizon is None else {"horizon": horizon}
    if scn.u0_scale is not None:
        kw["u0_values"] = scn.u0_scale * eig.phi.values
    return dataclasses.replace(scn.problem, **kw)


def hopf_margin(dom, values) -> float:
    """Min inward difference quotient at boundary-adjacent nodes (those
    with an E, W, N or S neighbour that is not interior)."""
    sel = np.any(dom.neighbours[:, :4] < 0, axis=1)
    frac = np.maximum(dom.fractions.min(axis=1), 1e-3)
    quot = values / (frac * dom.h)
    return float(np.min(quot[sel])) if sel.any() else math.inf


def boundary_barrier_margin(problem, traj, eig, hyp) -> float:
    """Min over interior snapshots of u / barrier (barrier from the
    certified power lower bound); > 1 means the barrier holds."""
    worst = math.inf
    for t, vals in zip(traj.times, traj.fields):
        if t <= 0.0 or t >= problem.horizon:
            continue
        barrier = boundary_lower_bound(hyp.constants, t, eig)
        pos = barrier > 1e-14
        if pos.any():
            worst = min(worst, float(np.min(vals[pos] / barrier[pos])))
    return worst


def _weight_min_C(problem, dom, mask=None) -> float:
    """Signed min of the weight's concavity function over the interior
    nodes (of those in mask) that _scan_nodes keeps, 0 for < 2 nodes."""
    worst = _concavity_min(problem.weight, dom, math.inf, mask)
    return worst if math.isfinite(worst) else 0.0


def _bound_report(problem, ev, rep, stat, q, kind, arg):
    """BoundReport of a quantitative (arg: its mode) or log_bound (arg:
    its variant) check, measured on the inner region: the interior nodes
    deeper than rho, the boundary distance of the nearer endpoint of the
    audit report's argmin (at least 2h), or all when none lies deeper."""
    w, src, dom = problem.weight, problem.source, ev.dom
    d = distance_to_boundary(problem.domain,
                             np.array([rep.argmin.x1, rep.argmin.x3]))
    mask = inner_region_mask(dom, max(float(d.min()), 2 * dom.h))
    mask = mask if mask.any() else None
    if kind == "log_bound":
        lam = sup_slope_lambda(src)
        sup_defect = weight_concavity_defect(problem, dom, theta=1.0,
                                             mask=mask)
        # sup of f(u)/u over the inner region and the snapshots; 1 for a
        # source with a term g(u) without the weight
        fbar = 1.0 if src.composite else 0.0
        for vals in () if src.composite else ev.traj.fields:
            v = vals if mask is None else vals[mask]
            pos = v > 1e-12
            if pos.any():
                fbar = max(fbar, float(np.max(src.f(v[pos]) / v[pos])))
        rhs = log_concavity_rhs(problem.horizon, lam, sup_defect, arg,
                                fbar_norm=fbar)
        return BoundReport(bound_id=f"log_{arg}", rhs=rhs, constants={
            "Lambda": lam, "sup_defect": sup_defect, "fbar_norm": fbar})
    prof = w.spatial_profile(dom)
    at_T = prof * w.time_factor(problem.horizon)  # (m, M) at the horizon
    prof_rho = prof if mask is None else prof[mask]
    kw = dict(q=q, m=float(at_T.min()), M=float(at_T.max()),
              sup_norm_u_inf=stat.sup_norm if stat is not None else
              max(float(np.max(f)) for f in ev.traj.fields),
              theta=w.theta if math.isfinite(w.theta) else 1.0)
    if arg == "oscillation":
        kw["osc_a2"] = float((prof ** 2).max() - (prof ** 2).min())
    elif arg == "rough":
        kw["osc_a"] = float(prof.max() - prof.min())
    elif arg in ("theta", "elliptic_theta"):
        kw["sup_neg_defect"] = weight_concavity_defect(
            problem, dom, theta=kw["theta"])
    elif arg == "prop413":
        kw["inf_a_rho"] = float(prof_rho.min())
        kw["sup_a_rho"] = float(prof_rho.max())
        kw["inf_C_a"] = _weight_min_C(problem, dom, mask)
        grads = np.asarray([g[:2] for g in rep.gradients])
        kw["xi"] = grads.mean(axis=0)
        kw["xi_mismatch"] = rep.gradient_spread
        kw["lam_argmin"] = rep.argmin.lam
        kw["v1"] = ev.point_value(*rep.argmin.x1, rep.argmin.t1)
        kw["v3"] = ev.point_value(*rep.argmin.x3, rep.argmin.t3)
    return quantitative_rhs(BoundParams(**kw), arg)


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

def run_scenario(scn: Scenario, h: float = 1.0 / 64.0,
                 dt: float | None = None,
                 horizon: float | None = None) -> VerificationReport:
    t_start = time.perf_counter()
    report = VerificationReport(scenario_id=scn.id, verdict="pass")
    spec = scn.problem.domain
    if any(a.alpha == 0.0 for a in scn.audits) and not spec.strongly_convex:
        warnings.warn(f"{scn.id}: the domain is not strongly convex; "
                      "running anyway", UserWarning)
        report.diagnostics["strong_convexity"] = False

    dom = build_discretization(spec, h)
    eig = principal_eigenpair(dom)
    problem = build_problem(scn, eig, horizon)
    hyp = check_hypotheses(problem)
    report.diagnostics["hypotheses"] = dict(hyp.flags)

    # theorem gate: the alpha window for space-time audits
    q = problem.source.q if problem.source.kind == "power_q" else 0.0
    for aud in scn.audits:
        if aud.mode == "spacetime" and aud.alpha > 0:
            cap = spacetime_alpha_window(q, problem.weight.gamma, aud.beta)
            if not 0.0 < aud.alpha < cap + 1e-12:
                report.verdict = "not_applicable"
                report.diagnostics["gate_failure"] = \
                    f"alpha={aud.alpha} outside (0, {cap})"
                report.runtime = time.perf_counter() - t_start
                return report

    needs_inf = any(a.mode == "spacetime" for a in scn.audits)
    count = max(12, int(round(0.75 / h))) if needs_inf else 16
    traj = solve_trajectory(problem, dom, count, dt)
    report.diagnostics["monotone"] = bool(traj.monotone)

    stat = None
    if needs_inf:
        stat = solve_stationary(problem, dom)
        traj.stationary = stat.v.values
        report.diagnostics["stationary_residual"] = stat.residual
        report.diagnostics["below_stationary"] = bool(np.all(
            traj.fields[-1] <= stat.v.values + monotone_slack(h)))

    late = [k for k, t in enumerate(traj.times) if t >= 0.1]
    margins = [hopf_margin(dom, traj.fields[k]) for k in late]
    report.diagnostics["hopf_min_quotient"] = min(margins) if margins \
        else None
    if margins and min(margins) <= 0:
        report.add_assertion("hopf_positive", False, min(margins), 0.0)

    if scn.check_boundary_barrier and hyp.require("lower_power"):
        ratio = boundary_barrier_margin(problem, traj, eig, hyp)
        report.diagnostics["barrier_min_ratio"] = ratio
        report.add_assertion("boundary_barrier", ratio >= 0.99,
                             ratio, 0.99)

    if scn.check_quasiconcave:
        worst = max([0.0] + [quasiconcavity_defect(
            Field(dom, traj.fields[k], traj.times[k]))
            for k in range(0, len(traj.fields), 3) if traj.times[k] > 0])
        report.add_assertion("quasiconcave_snapshots",
                             worst <= 0.0, -worst, -1e-12)

    for aud in scn.audits:
        ev = Evaluator(traj, aud.alpha, aud.beta)
        rep = min_defect(ev, aud.mode, SamplerConfig(
            include_infinity=aud.mode == "spacetime"))
        report.defect_reports.append(rep)
        for check in aud.checks:
            # exact: defect >= -tau; quantitative and log_bound: defect
            # >= rhs - tau, and no assertion when a validity gate fails
            if check[0] == "exact":
                name, bound = f"exact_alpha{aud.alpha:g}", -rep.tau_audit
            else:
                try:
                    brep = _bound_report(problem, ev, rep, stat, q, *check)
                except ValidityViolation as exc:
                    report.diagnostics[f"{check[1]}_gate"] = str(exc)
                    continue
                report.bound_reports.append(brep)
                name = brep.bound_id if check[0] == "log_bound" else \
                    f"quant_{check[1]}_alpha{aud.alpha:g}"
                bound = brep.rhs - rep.tau_audit
            report.add_assertion(name, rep.minimum >= bound, rep.minimum,
                                 bound)

    if any(not a["passed"] for a in report.assertions):
        report.verdict = "fail"
    report.runtime = time.perf_counter() - t_start
    return report


# ---------------------------------------------------------------------------
# randomized property suites
# ---------------------------------------------------------------------------

_SUITE_TOL = 1e-10  # a property-suite margin below -_SUITE_TOL violates


def _suite_entry(name, margins, skipped):
    margins = np.asarray(margins, dtype=float)
    worst = float(margins.min()) if margins.size else 0.0
    return {"name": name, "draws": int(margins.size),
            "skipped": int(skipped),
            "violations": int(np.count_nonzero(margins < -_SUITE_TOL)),
            "worst_margin": worst}


def run_property_suite(seed: int = 1, draws: int = 10000) -> dict:
    """Randomized checks of the concavity-function inequalities.

    Returns {"seed", "draws", "results": [entry...], "violations"}.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    results = []

    # harmonic concavity dominates concavity (positive endpoint values)
    g1, g3 = np.exp(rng.uniform(-2, 2, (2, draws)))
    g2 = np.exp(rng.uniform(-2, 2, draws))
    lam = rng.uniform(0, 1, draws)
    hc = g2 - g1 * g3 / (lam * g1 + (1 - lam) * g3)
    c = g2 - lam * g3 - (1 - lam) * g1
    results.append(_suite_entry("harmonic_dominates", hc - c, 0))

    # time rescaling: slower time exponents preserve harmonic concavity
    a0 = rng.uniform(0.1, 2, draws)
    a1, a2c, a3 = rng.uniform(0, 2, (3, draws))

    def gfun(t):
        return a0 + a1 * t + a2c * t * t + a3 * np.sqrt(t)

    t1, t3 = rng.uniform(0.01, 3.0, (2, draws))
    beta = rng.uniform(0.05, 1.0, draws)
    lam = rng.uniform(0, 1, draws)
    e1, e3 = gfun(t1 ** beta), gfun(t3 ** beta)
    denom = lam * e1 + (1 - lam) * e3
    lhs = gfun((lam * t3 + (1 - lam) * t1) ** beta) - e1 * e3 / denom
    rhs = gfun(lam * t3 ** beta + (1 - lam) * t1 ** beta) \
        - e1 * e3 / denom
    results.append(_suite_entry("time_rescaling", lhs - rhs, 0))

    # product lower bound with the band side conditions; draws whose
    # values violate the band (min^al >= max^al / 2) are skipped
    al = rng.uniform(1.1, 4.0, draws)
    be = al / (al - 1.0)
    kf = (rng.uniform(0.5, 2.5, draws) * 2.0) ** (1.0 / al)
    f123 = rng.uniform(0.5, 2.0, draws)[None, :] \
        * (1 + rng.uniform(0, 1, (3, draws)) * (kf - 1.0))
    kg = (rng.uniform(0.5, 2.5, draws) * 2.0) ** (1.0 / be)
    g123 = rng.uniform(0.5, 2.0, draws)[None, :] \
        * (1 + rng.uniform(0, 1, (3, draws)) * (kg - 1.0))
    lam = rng.uniform(0, 1, draws)
    f_ok = f123.min(axis=0) ** al >= 0.5 * f123.max(axis=0) ** al
    g_ok = g123.min(axis=0) ** be >= 0.5 * g123.max(axis=0) ** be
    keep = f_ok & g_ok
    al, be, lam = al[keep], be[keep], lam[keep]
    f1, f2, f3 = f123[:, keep]
    g1, g2, g3 = g123[:, keep]
    cf = np.maximum(0.0, -(f2 ** al - lam * f3 ** al
                           - (1 - lam) * f1 ** al)) ** (1.0 / al)
    cg = np.maximum(0.0, -(g2 ** be - lam * g3 ** be
                           - (1 - lam) * g1 ** be)) ** (1.0 / be)
    lhs = f2 * g2 - lam * f3 * g3 - (1 - lam) * f1 * g1
    rhs = -cf * (lam * g3 + (1 - lam) * g1) \
        - cg * (lam * f3 + (1 - lam) * f1) + cf * cg
    results.append(_suite_entry("product_bound", lhs - rhs,
                                int(draws - keep.sum())))

    # quotient by a squared coordinate
    g1, g2, g3 = np.exp(rng.uniform(-1, 1, (3, draws)))
    z1, z3 = rng.uniform(0.5, 2.0, (2, draws))
    lam = rng.uniform(0, 1, draws)
    z2 = lam * z3 + (1 - lam) * z1
    f1, f3 = g1 / z1 ** 2, g3 / z3 ** 2
    hcf = g2 / z2 ** 2 - f1 * f3 / (lam * f1 + (1 - lam) * f3)
    cg = g2 - lam * g3 - (1 - lam) * g1
    results.append(_suite_entry("quotient_bound", hcf - cg / z2 ** 2, 0))

    # subtracting a harmonically concave positive term
    f1, f2, f3 = np.exp(rng.uniform(0.2, 1.5, (3, draws)))
    lam = rng.uniform(0, 1, draws)
    const = rng.uniform(0.05, 0.8, draws)
    gam = rng.uniform(-1.0, 0.0, draws)
    tt1, tt3 = rng.uniform(0.5, 3.0, (2, draws))
    tt2 = lam * tt3 + (1 - lam) * tt1
    use_pow = rng.random(draws) < 0.5
    gg1 = np.where(use_pow, tt1 ** gam, const)
    gg2 = np.where(use_pow, tt2 ** gam, const)
    gg3 = np.where(use_pow, tt3 ** gam, const)
    h1, h2, h3 = f1 - gg1, f2 - gg2, f3 - gg3
    den_h = lam * h1 + (1 - lam) * h3
    den_f = lam * f1 + (1 - lam) * f3
    den_g = lam * gg1 + (1 - lam) * gg3
    ok = (den_h > 1e-9) & (den_f > 1e-9) & (den_g > 1e-9)
    hch = h2[ok] - h1[ok] * h3[ok] / den_h[ok]
    hcf = f2[ok] - f1[ok] * f3[ok] / den_f[ok]
    hcg = gg2[ok] - gg1[ok] * gg3[ok] / den_g[ok]
    margins = hch - (hcf - hcg)
    # the subtracted terms are harmonically concave: certificate
    if not np.all(hcg <= _SUITE_TOL):
        raise ValidityViolation("difference_bound: a subtracted term is "
                                "not harmonically concave")
    results.append(_suite_entry("difference_bound", margins,
                                int(draws - ok.sum())))

    violations = sum(r["violations"] for r in results)
    return {"seed": seed, "draws": draws, "results": results,
            "violations": violations}


def run_suite(ids=None, h: float = 1.0 / 64.0, **kw) -> list:
    """Run every catalog scenario (or the given ids); returns reports
    sorted by scenario id."""
    ids = sorted(ids) if ids is not None else scenario_ids()
    return [run_scenario(get_scenario(sid), h=h, **kw) for sid in ids]
