import dataclasses
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("sid", ["logistic-square", "lane-emden-disk",
                                 "ramp-le-eps05", "saturable-square"])
def test_report_matches_stored_reference(sid):
    # the stored reports are byte-for-byte what run_scenario produced
    # when they were made (numpy 2.4.6, scipy 1.17.1); a change that
    # leaves the numerics alone must reproduce them exactly
    ref = (REFERENCE_DIR / f"{sid}-h16.json").read_text()
    assert run_scenario(get_scenario(sid), h=1.0 / 16.0).to_json() == ref


def test_report_matches_stored_reference_h64():
    # at h = 1/64 the weight scans differ from h <= 1/16: _weight_min_C
    # strides its nodes onto the every-k-th scan of a non-rectangle node
    # set, and the rectangle scan needs more than one band of rows
    ref = (REFERENCE_DIR / "ramp-le-eps05-h64.json").read_text()
    rep = run_scenario(get_scenario("ramp-le-eps05"), h=1.0 / 64.0)
    assert rep.to_json() == ref


GOLDEN_DIR = Path(__file__).resolve().parent / "reference"


@pytest.mark.filterwarnings("ignore:.*not strongly convex")
@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*-h12.json")),
                         ids=lambda p: p.stem)
def test_report_matches_golden_h12(path):
    # made by tests/make_reference.py before stage 2 was batched; the
    # catalog ids that perfbench/reference/ does not store
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
