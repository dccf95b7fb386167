import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest
from scipy.sparse.linalg import SuperLU

from concavelab import (CATALOG, Scenario, disk, get_scenario, run_scenario,
                        run_suite, scenario_ids, unit_square)


def test_catalog_ids_unique_and_sorted():
    ids = scenario_ids()
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    assert len(ids) >= 15


def test_get_scenario_lookup():
    scn = get_scenario("torsion-square")
    assert scn.problem.domain == unit_square()
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_catalog_fields_consistent():
    for scn in CATALOG.values():
        assert scn.problem.domain in (unit_square(), disk())
        assert scn.problem.horizon > 0
        assert scn.audits or scn.check_quasiconcave, scn.id
        for aud in scn.audits:
            assert 0.0 <= aud.alpha <= 1.0
            assert aud.mode in ("space", "spacetime")
    # kennington's convex superlevel sets are a check, not an audit of u
    assert [scn.id for scn in CATALOG.values()
            if scn.check_quasiconcave] == ["kennington-square"]
    assert not get_scenario("kennington-square").audits


def test_run_scenario_torsion_coarse():
    rep = run_scenario(get_scenario("torsion-square"), h=1.0 / 8.0)
    assert rep.verdict == "pass"
    assert rep.assertions
    assert all(a["passed"] for a in rep.assertions)
    assert rep.diagnostics["monotone"] is True
    assert rep.runtime > 0


def test_run_scenario_report_deterministic():
    a = run_scenario(get_scenario("lane-emden-square"), h=1.0 / 8.0)
    b = run_scenario(get_scenario("lane-emden-square"), h=1.0 / 8.0)
    assert a.to_json() == b.to_json()


def test_alpha_gate_yields_not_applicable():
    base = get_scenario("lane-emden-square")
    aud = dataclasses.replace(base.audits[0], alpha=0.9)
    scn = dataclasses.replace(base, id="gate-check", audits=(aud,))
    rep = run_scenario(scn, h=1.0 / 8.0)
    assert rep.verdict == "not_applicable"
    assert "gate_failure" in rep.diagnostics
    assert not rep.assertions


#: catalog entries whose log audits (alpha = 0) ask for a strongly
#: convex domain, on the square
NEEDS_STRONG_CONVEXITY = {
    "eigen-square", "saturable-square", "logistic-square", "log-square",
    "eigen-dist-square", "ramp-eigen-eps05", "ramp-eigen-eps1",
    "ramp-eigen-eps2"}


class _Audited(Exception):
    pass


def _factors(dom):
    """The SuperLU factors that the domain's cache holds."""
    return [x for v in dom._cache.values()
            for x in (v if isinstance(v, tuple) else (v,))
            if isinstance(x, SuperLU)]


@pytest.fixture(scope="module")
def lane_emden_factors():
    """run_scenario of lane-emden-disk at h = 1/16, recording each splu
    call's permc_spec with the factors then cached, the step sizes of
    the shifted solves and the factors cached after the trajectory."""
    import concavelab.operators as operators
    import concavelab.parabolic as parabolic
    import concavelab.scenarios as scenarios
    doms, rec = [], {"splu": [], "taus": [], "after_trajectory": None}
    build, splu = scenarios.build_discretization, operators.splu
    shifted, trajectory = parabolic.solve_shifted_poisson, \
        scenarios.solve_trajectory

    def record_build(*args):
        doms.append(build(*args))
        return doms[-1]

    def record_splu(M, **kw):
        rec["splu"].append((kw["permc_spec"], _factors(doms[0])))
        return splu(M, **kw)

    def record_tau(dom, tau, b):
        rec["taus"].append(tau)
        return shifted(dom, tau, b)

    def record_trajectory(*args):
        traj = trajectory(*args)
        rec["after_trajectory"] = _factors(doms[0])
        return traj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "build_discretization", record_build)
        mp.setattr(operators, "splu", record_splu)
        mp.setattr(parabolic, "solve_shifted_poisson", record_tau)
        mp.setattr(scenarios, "solve_trajectory", record_trajectory)
        run_scenario(get_scenario("lane-emden-disk"), h=1.0 / 16.0)
    assert len(doms) == 1
    return rec


def test_no_factor_beside_another_at_any_factorization(lane_emden_factors):
    # the domain holds one factor at a time: the Laplacian's is gone
    # before the first shifted one is made, and each shifted one before
    # the next
    assert all(not held for _, held in lane_emden_factors["splu"])


def test_one_laplacian_factor_and_one_per_step_size(lane_emden_factors):
    # the stationary slice runs before the trajectory, so the eigenpair's
    # Laplacian factor serves it and is not made a second time
    taus = lane_emden_factors["taus"]
    assert len(set(taus)) > 1
    assert [spec for spec, _ in lane_emden_factors["splu"]] == [
        "MMD_AT_PLUS_A"] + ["NATURAL"] * len(set(taus))


def test_no_factor_stays_after_the_trajectory(lane_emden_factors):
    # the audit and the bounds run with no factor resident
    assert lane_emden_factors["after_trajectory"] == []


def test_strong_convexity_warning(monkeypatch):
    # run_scenario derives both rules from the audits: a log audit warns
    # on a domain that is not strongly convex, and exactly the
    # space-time audits take tuples at t = inf, from a stationary slice
    import warnings
    import concavelab.scenarios as scenarios
    with pytest.warns(UserWarning):
        rep = run_scenario(get_scenario("eigen-square"), h=1.0 / 8.0)
    assert rep.diagnostics["strong_convexity"] is False
    seen = []

    def audited(ev, mode, cfg):
        seen.append((mode, cfg.include_infinity,
                     ev.traj.stationary is not None))
        raise _Audited

    monkeypatch.setattr(scenarios, "min_defect", audited)
    warned = set()
    for scn in CATALOG.values():
        for aud in scn.audits:
            seen.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    run_scenario(dataclasses.replace(scn, audits=(aud,)),
                                 h=0.25)
                except _Audited:
                    pass
            if any(issubclass(w.category, UserWarning) for w in caught):
                warned.add(scn.id)
            st = aud.mode == "spacetime"
            assert seen == [(aud.mode, st, st)], scn.id
    assert warned == NEEDS_STRONG_CONVEXITY
    # the quasiconcavity check runs no defect audit
    seen.clear()
    run_scenario(get_scenario("kennington-square"), h=0.25)
    assert seen == []


def test_report_json_shape():
    rep = run_scenario(get_scenario("torsion-square"), h=1.0 / 8.0)
    payload = json.loads(rep.to_json())
    assert payload["scenario"] == "torsion-square"
    assert payload["verdict"] == "pass"
    assert isinstance(payload["assertions"], list)
    assert isinstance(payload["defects"], list)
    # runtime is excluded so identical runs serialize identically
    assert "runtime" not in payload


def test_run_suite_subset():
    reports = run_suite(["torsion-square", "lane-emden-square"], h=1.0 / 8.0)
    assert [r.scenario_id for r in reports] == ["lane-emden-square",
                                                "torsion-square"]
    assert all(r.verdict == "pass" for r in reports)


def test_ramp_scenarios_cover_eps_sweep():
    eps = sorted(get_scenario(f"ramp-le-eps{tag}").problem.weight.eps
                 for tag in ("05", "1", "2"))
    assert eps == [0.05, 0.1, 0.2]


REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / \
    "reference"


def _benchmark_gate():
    """perfbench's check_report: the verdict, and every defect minimum
    within the reference report's own tau_audit."""
    path = REFERENCE_DIR.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_report


GOLDEN_DIR = Path(__file__).resolve().parent / "reference"


@pytest.mark.parametrize("sid", ["logistic-square", "lane-emden-disk",
                                 "ramp-le-eps05", "saturable-square"])
def test_report_matches_stored_reference(sid):
    # tests/reference/ holds the bits of run_scenario's reports at h =
    # 1/16 (numpy 2.4.6, scipy 1.17.1): a change that leaves the numerics
    # alone must reproduce them exactly.  perfbench/reference/, made
    # before the step-size ladder, is held to the benchmark's gate, and
    # for logistic-square only that: its reference was stepped by an
    # older sink scheme; tests/reference/ has its bits at 1/12, 1/32
    got = run_scenario(get_scenario(sid), h=1.0 / 16.0).to_json()
    ref = (REFERENCE_DIR / f"{sid}-h16.json").read_text()
    assert _benchmark_gate()(got, ref) == []
    if sid != "logistic-square":
        assert got == (GOLDEN_DIR / f"{sid}-h16.json").read_text()


def test_report_matches_stored_reference_h64():
    # at h = 1/64 the weight scans differ from h <= 1/16: the square's
    # 3,969 nodes are more than _SCAN_NODES, so they take every third
    # row and column
    got = run_scenario(get_scenario("ramp-le-eps05"), h=1.0 / 64.0).to_json()
    ref = (REFERENCE_DIR / "ramp-le-eps05-h64.json").read_text()
    assert _benchmark_gate()(got, ref) == []
    assert got == (GOLDEN_DIR / "ramp-le-eps05-h64.json").read_text()


@pytest.mark.filterwarnings("ignore:.*not strongly convex")
@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*-h12.json")),
                         ids=lambda p: p.stem)
def test_report_matches_golden_h12(path):
    # made by tests/make_reference.py; the catalog ids that no h = 1/16
    # report above holds
    sid = path.stem[:-len("-h12")]
    assert run_scenario(get_scenario(sid), h=1.0 / 12.0).to_json() == \
        path.read_text()


def test_golden_reports_cover_the_catalog():
    stored = {p.stem[:-len("-h12")] for p in GOLDEN_DIR.glob("*-h12.json")}
    stored |= {p.stem[:-len("-h16")] for p in REFERENCE_DIR.glob("*-h16.json")}
    assert stored == set(scenario_ids())


@pytest.mark.filterwarnings("ignore:.*not strongly convex")
@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*-h32.json")),
                         ids=lambda p: p.stem)
def test_report_matches_golden_h32(path):
    # made by tests/make_reference.py for the whole catalog at h = 1/32,
    # where the scans subsample their nodes (the disks stride them)
    sid = path.stem[:-len("-h32")]
    assert run_scenario(get_scenario(sid), h=1.0 / 32.0).to_json() == \
        path.read_text()


def test_h32_goldens_cover_the_catalog():
    stored = {p.stem[:-len("-h32")] for p in GOLDEN_DIR.glob("*-h32.json")}
    assert stored == set(scenario_ids())


def _ramp_le_eps50():
    """ramp-le-eps05 with the ripple eps = 0.5, which fails the theta
    bound's gate m^theta >= M^theta / 2 (m = 0.567, M = 1.5)."""
    scn = get_scenario("ramp-le-eps05")
    weight = dataclasses.replace(scn.problem.weight, eps=0.5)
    return dataclasses.replace(
        scn, problem=dataclasses.replace(scn.problem, weight=weight))


def test_report_matches_golden_with_a_failed_gate():
    # made by tests/make_reference.py; pins a check that a validity gate
    # turns into a <mode>_gate diagnostic and no assertion
    rep = run_scenario(_ramp_le_eps50(), h=1.0 / 12.0)
    assert "theta_gate" in rep.diagnostics
    assert [a["name"] for a in rep.assertions] == [
        f"quant_{m}_alpha0.25" for m in ("oscillation", "rough", "prop413")]
    assert rep.to_json() == \
        (GOLDEN_DIR / "ramp-le-eps50-h12-gated.json").read_text()
