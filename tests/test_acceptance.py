"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
CRITERION k: PASS/FAIL line (straight to the terminal, bypassing
capture) before asserting.
"""

import math

import numpy as np
import pytest

from concavelab import (Field, Problem, SamplerConfig, SourceTerm, Weight,
                        alpha_exponent, build_discretization,
                        concave_approximation, disk, min_defect,
                        principal_eigenpair, run_property_suite,
                        run_scenario, solve_trajectory, unit_square)
from concavelab.audit import Evaluator
from concavelab.parabolic import advance
from concavelab.scenarios import build_problem, get_scenario

NOISE_FLOOR = 1e-12


def _line(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs (reused by criteria 3, 5, 6, 7, 8)
# ---------------------------------------------------------------------------

_REPORTS = {}


def _report(sid, h):
    key = (sid, h)
    if key not in _REPORTS:
        _REPORTS[key] = run_scenario(get_scenario(sid), h=h)
    return _REPORTS[key]


BARRIER_IDS = ("torsion-square", "torsion-disk", "lane-emden-square",
               "lane-emden-disk")


# ---------------------------------------------------------------------------
# 1. heat-equation solver oracle
# ---------------------------------------------------------------------------

def _heat_error(h, T=0.05):
    dom = build_discretization(unit_square(), h)
    x, y = dom.interior_points.T
    u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
    problem = Problem(domain=unit_square(),
                      weight=Weight(kind="constant", c=0.0),
                      source=SourceTerm(kind="one"),
                      u0_values=u0, horizon=T)
    n = max(int(round(T / (2.0 * h * h))), 1)
    dt = T / n
    u, t = u0, 0.0
    for _ in range(n):
        u = advance(problem, dom, u, t, dt)
        t += dt
    exact = math.exp(-2.0 * math.pi ** 2 * T) * u0
    return float(np.max(np.abs(u - exact)))


def test_criterion_01_heat_oracle(capsys):
    e32 = _heat_error(1.0 / 32.0)
    e64 = _heat_error(1.0 / 64.0)
    ratio = e32 / e64
    ok = e64 <= 0.02 and 3.0 <= ratio <= 5.0
    _line(capsys, 1, ok,
          f"heat oracle: Linf error {e64:.2e} at h=1/64 (<= 0.02), "
          f"refinement ratio {ratio:.2f} in 4+-1")
    assert ok


# ---------------------------------------------------------------------------
# 2. principal eigenpairs
# ---------------------------------------------------------------------------

def test_criterion_02_eigenpairs(capsys):
    sq = build_discretization(unit_square(), 1.0 / 64.0)
    eig_sq = principal_eigenpair(sq)
    dk = build_discretization(disk(), 1.0 / 64.0)
    eig_dk = principal_eigenpair(dk)
    err_sq = abs(eig_sq.lam - 2.0 * math.pi ** 2) / (2.0 * math.pi ** 2)
    err_dk = abs(eig_dk.lam - 5.7832) / 5.7832
    ok = (err_sq <= 0.01 and err_dk <= 0.02
          and np.all(eig_sq.phi.values > 0) and np.all(eig_dk.phi.values > 0)
          and abs(eig_sq.phi.values.max() - 1.0) < 1e-12
          and abs(eig_dk.phi.values.max() - 1.0) < 1e-12)
    _line(capsys, 2, ok,
          f"eigenvalues: square {eig_sq.lam:.4f} ({100 * err_sq:.2f}% off "
          f"2 pi^2), disk {eig_dk.lam:.4f} ({100 * err_dk:.2f}% off "
          f"5.7832); both eigenfunctions positive, sup-normalized")
    assert ok


# ---------------------------------------------------------------------------
# 3. exact space-time concavity with grid-halving
# ---------------------------------------------------------------------------

def test_criterion_03_exact_concavity(capsys):
    pairs = {"torsion-disk": (1.0 / 32.0, 1.0 / 64.0),
             "lane-emden-disk": (1.0 / 16.0, 1.0 / 32.0)}
    details, ok = [], True
    for sid, (h, h2) in pairs.items():
        coarse, fine = _report(sid, h), _report(sid, h2)
        for rep in (coarse, fine):
            ok &= rep.verdict == "pass"
            ok &= "stationary_residual" in rep.diagnostics  # inf slice ran
        neg_c = max(0.0, -coarse.defect_reports[0].minimum)
        neg_f = max(0.0, -fine.defect_reports[0].minimum)
        ok &= neg_f <= max(0.5 * neg_c, NOISE_FLOOR)
        details.append(f"{sid} neg {neg_c:.2e} -> {neg_f:.2e}")
    _line(capsys, 3, ok,
          "spacetime audits incl. stationary slice pass with defect >= "
          "-tau_audit and the negative part halves: " + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 4. per-snapshot log-concavity audits
# ---------------------------------------------------------------------------

def test_criterion_04_log_concavity_every_snapshot(capsys):
    details, ok = [], True
    for sid in ("eigen-square", "saturable-square", "logistic-square"):
        scn = get_scenario(sid)
        h = 1.0 / 16.0
        dom = build_discretization(unit_square(), h)
        eig = principal_eigenpair(dom)
        problem = build_problem(scn, eig)
        traj = solve_trajectory(problem, dom, 16)
        ev = Evaluator(traj, 0.0)
        times = [float(t) for t in traj.times if t > 0]
        rep = min_defect(ev, "space",
                         SamplerConfig(audit_times=times,
                                       include_infinity=False))
        ok &= rep.minimum >= -rep.tau_audit
        details.append(f"{sid} min {rep.minimum:.2e} >= -tau "
                       f"{-rep.tau_audit:.2e}")
    _line(capsys, 4, ok,
          "log-transform audits over every snapshot time: "
          + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 5. quantitative bounds under the eps sweep
# ---------------------------------------------------------------------------

def test_criterion_05_quantitative_bounds(capsys):
    h = 1.0 / 32.0
    negs, details, ok = [], [], True
    for tag in ("05", "1", "2"):
        rep = _report(f"ramp-le-eps{tag}", h)
        ok &= rep.verdict == "pass"
        quants = [a for a in rep.assertions
                  if a["name"].startswith("quant_")]
        ok &= len(quants) >= 2 and all(a["passed"] for a in quants)
        margins = ", ".join(f"{a['name']} margin {a['margin']:.3g}"
                            for a in quants)
        worst = min(d.minimum for d in rep.defect_reports)
        negs.append(max(0.0, -worst))
        details.append(f"eps=0.{tag}: {margins}")
    # defect magnitude must not decrease as the perturbation grows
    # (all three sit at roundoff here, hence the noise floor)
    ok &= negs[0] <= negs[1] + NOISE_FLOOR
    ok &= negs[1] <= negs[2] + NOISE_FLOOR
    # concave (constant) weight: defect is discretization noise only
    base = _report("lane-emden-square", 1.0 / 16.0)
    d = base.defect_reports[0]
    ok &= abs(d.minimum) <= d.tau_audit
    _line(capsys, 5, ok,
          "quantitative bounds hold at every eps with reported margins; "
          f"defect magnitudes {negs[0]:.1e} <= {negs[1]:.1e} <= "
          f"{negs[2]:.1e} (noise floor 1e-12); concave-weight defect "
          f"{d.minimum:.1e} within tau {d.tau_audit:.1e}. "
          + " | ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. monotonicity and comparison
# ---------------------------------------------------------------------------

def test_criterion_06_monotonicity_and_comparison(capsys):
    ok = True
    checked = []
    for sid, h in (("torsion-square", 1.0 / 16.0),
                   ("torsion-disk", 1.0 / 32.0),
                   ("lane-emden-square", 1.0 / 16.0),
                   ("lane-emden-disk", 1.0 / 16.0),
                   ("ramp-le-eps2", 1.0 / 32.0)):
        rep = _report(sid, h)
        flags = rep.diagnostics["hypotheses"]
        if flags.get("one_sided_lipschitz") and flags.get("time_monotone"):
            ok &= rep.diagnostics["monotone"] is True
            checked.append(sid)
    ok &= len(checked) >= 4

    # comparison principle: a sub-run seeded strictly below the main run
    # stays below it at every node and snapshot
    h = 1.0 / 16.0
    dom = build_discretization(unit_square(), h)
    eig = principal_eigenpair(dom)

    def run(scale):
        p = Problem(domain=unit_square(),
                    weight=Weight(kind="constant", c=1.0),
                    source=SourceTerm(kind="saturable"),
                    u0_values=scale * eig.phi.values, horizon=1.0)
        return solve_trajectory(p, dom, 10)

    main, sub = run(1.0), run(0.5)
    below = all(np.all(s <= m + NOISE_FLOOR)
                for m, s in zip(main.fields, sub.fields))
    ok &= below
    _line(capsys, 6, ok,
          f"monotone flag true (tau_mono = 10h^2) for {checked}; seeded "
          f"sub-run below the main run at every node/snapshot: {below}")
    assert ok


# ---------------------------------------------------------------------------
# 7. boundary lower barrier
# ---------------------------------------------------------------------------

def test_criterion_07_boundary_barrier(capsys):
    hs = {"torsion-square": 1.0 / 16.0, "torsion-disk": 1.0 / 32.0,
          "lane-emden-square": 1.0 / 16.0, "lane-emden-disk": 1.0 / 16.0}
    details, ok = [], True
    for sid in BARRIER_IDS:
        rep = _report(sid, hs[sid])
        ratio = rep.diagnostics.get("barrier_min_ratio")
        ok &= ratio is not None and ratio >= 0.99
        barrier = [a for a in rep.assertions
                   if a["name"] == "boundary_barrier"]
        ok &= len(barrier) == 1 and barrier[0]["passed"]
        details.append(f"{sid} min ratio {ratio:.3f}")
    _line(capsys, 7, ok,
          "u >= 0.99 x explicit barrier at all interior nodes/snapshots: "
          + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. Hopf-type boundary quotients
# ---------------------------------------------------------------------------

def test_criterion_08_hopf(capsys):
    hs = {"torsion-square": 1.0 / 16.0, "torsion-disk": 1.0 / 32.0,
          "lane-emden-square": 1.0 / 16.0, "lane-emden-disk": 1.0 / 16.0}
    details, ok = [], True
    for sid in BARRIER_IDS:
        rep = _report(sid, hs[sid])
        q = rep.diagnostics["hopf_min_quotient"]
        ok &= q is not None and q > 0.0
        details.append(f"{sid} {q:.3g}")
    _line(capsys, 8, ok,
          "inward boundary difference quotients strictly positive for "
          "t >= 0.1: " + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 9. randomized inequality suites
# ---------------------------------------------------------------------------

def test_criterion_09_property_suites(capsys):
    suite = run_property_suite(seed=1, draws=10000)
    ok = suite["violations"] == 0
    worst = min(e["worst_margin"] for e in suite["results"])
    ok &= worst >= -1e-10
    _line(capsys, 9, ok,
          f"5 suites x 10^4 seeded draws: {suite['violations']} violations "
          f"beyond 1e-10 (worst margin {worst:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 10. concave-approximation stability certificate
# ---------------------------------------------------------------------------

def test_criterion_10_stability(capsys):
    dom = build_discretization(unit_square(), 1.0 / 10.0)
    pts = dom.interior_points
    rng = np.random.default_rng(0)
    fails = 0
    for _ in range(50):
        a, b = rng.uniform(0.5, 3.0, 2)
        cx, cy = rng.uniform(0.3, 0.7, 2)
        base = (-a * (pts[:, 0] - cx) ** 2 - b * (pts[:, 1] - cy) ** 2
                + rng.uniform(0.5, 2.0))
        vals = base + rng.uniform(0.0, 0.05) * rng.standard_normal(len(pts))
        if not concave_approximation(Field(dom, vals)).bound_ok:
            fails += 1
    x = np.linspace(0.0, 1.0, 101)
    vee = concave_approximation((x, np.abs(x - 0.5)))
    exact = (abs(vee.distance - 0.25) < 1e-12
             and abs(vee.k_n * vee.delta - 0.25) < 1e-12)
    ok = fails == 0 and exact
    _line(capsys, 10, ok,
          f"50 seeded perturbed-concave fields: {fails} bound failures; "
          f"1-D vee section distance {vee.distance:.4f} = k_1 * delta "
          f"= {vee.k_n * vee.delta:.4f} exactly")
    assert ok


# ---------------------------------------------------------------------------
# 11. exponent formulas
# ---------------------------------------------------------------------------

def test_criterion_11_exponents(capsys):
    got = (alpha_exponent(0.0, 0.0, 1.0, math.inf, "lane_emden"),
           alpha_exponent(0.0, 0.5, 1.0, variant="constant_weight"),
           alpha_exponent(0.5, 0.0, 1.0, math.inf, "lane_emden"),
           alpha_exponent(0.0, 0.0, theta=1.0, variant="torsion"))
    want = (0.5, 0.4, 0.25, 1.0 / 3.0)
    ok = all(abs(g - w) < 1e-14 for g, w in zip(got, want))
    _line(capsys, 11, ok,
          "exponent formulas reproduce 1/2, 0.4, 1/4, 1/3 on the four "
          f"worked parameter sets (got {[round(g, 6) for g in got]})")
    assert ok
