"""Benchmark workloads: inputs from a seed, item runners, correctness gate.

Each workload is a slice of the real pipeline that one module dominates:

* ``stiff-square``   logistic-square: stiff-source refactorization on
  every step (``parabolic`` + ``operators.splu``).
* ``spacetime-disk`` lane-emden-disk: cut-cell disk with one cached LU
  per step size, Picard stationary slice and a space-time audit
  (``parabolic`` + ``audit``).
* ``weight-bounds``  ramp-le-eps05 (non-constant weight, full-domain
  theta call) and saturable-square (constant weight, masked log-bound
  call): ``problems.weight_concavity_defect``.
* ``field-pipeline`` a seeded ellipse and convex polygon through
  build -> stationary -> CSV/binary dump -> CSV load -> space audit ->
  concave approximation (``domains.build_discretization``).

Only ``field-pipeline`` draws inputs from the seed; the catalog items
are fixed.  Catalog items are checked against reports written by
``make_reference.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from pathlib import Path

import numpy as np

import concavelab
from concavelab import (audit, domains, envelope, parabolic, scenarios,
                        stationary)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: catalog items per workload as (scenario id, 1/h).  The weight-defect
#: item stays at the default h=1/64, where the pair scan is over half
#: of the work; the others are as coarse as still shows their layer, so
#: that every run fits the benchmark's time budget.
SCENARIO_ITEMS = {
    "stiff-square": (("logistic-square", 48),),
    "spacetime-disk": (("lane-emden-disk", 64),),
    "weight-bounds": (("ramp-le-eps05", 64), ("saturable-square", 48)),
}
FIELD_WORKLOAD = "field-pipeline"
FIELD_H_INV = 32

#: h-scaling curve of the spacetime-disk traced run (not gated); run.py
#: prints why the disk stops at h=1/64
H_SCALING = (("torsion-square", 32), ("torsion-square", 64),
             ("torsion-square", 128), ("torsion-disk", 32),
             ("torsion-disk", 64))

#: coarse grids for the smoke mode (same code paths, seconds not minutes)
SMOKE_H_INV = 16
SMOKE_FIELD_H_INV = 12
SMOKE_H_SCALING = (("torsion-square", 8), ("torsion-square", 16),
                   ("torsion-disk", 8))

#: layers predicted to take over half of each workload's wall time
DOMINANT_LAYERS = {
    "stiff-square": ("parabolic.solve_trajectory",),
    "spacetime-disk": ("parabolic.solve_trajectory", "audit.min_defect"),
    "weight-bounds": ("problems.weight_concavity_defect",),
    "field-pipeline": ("domains.build_discretization",),
}

# field pipeline problem: Lane-Emden source u^q, for which u^((1-q)/2)
# is concave on convex domains
FIELD_Q = 0.5
FIELD_ALPHA = (1.0 - FIELD_Q) / 2.0
# The seed moves the shapes, not the amount of work: interior nodes go
# with the area, the build's cut edges with the perimeter (a narrow band
# of aspect ratios) and each polygon distance with the vertex count.
FIELD_AREA = 2.0
FIELD_ASPECT = (1.4, 1.7)
FIELD_VERTICES = 6


def _scenario_item(sid, h_inv):
    return {"id": f"{sid}@1/{h_inv}", "scenario": sid, "h_inv": h_inv}


def _field_items(seed, h_inv):
    """Seeded ellipse and convex polygon, both of area FIELD_AREA."""
    rng = np.random.default_rng(seed)
    ratio = float(rng.uniform(*FIELD_ASPECT))
    r = math.sqrt(FIELD_AREA / math.pi)
    a, b = r * math.sqrt(ratio), r / math.sqrt(ratio)
    n = FIELD_VERTICES
    # jittered angles keep the order, so the inscribed polygon is convex
    ang = (2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
           + rng.uniform(0, 2 * np.pi))
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    x, y = verts[:, 0], verts[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    verts *= math.sqrt(FIELD_AREA / area)
    return [
        {"id": "ellipse", "h_inv": h_inv,
         "domain": {"kind": "ellipse", "semi_axes": [a, b]}},
        {"id": "polygon", "h_inv": h_inv,
         "domain": {"kind": "convex_polygon", "vertices": verts.tolist()}},
    ]


def make_inputs(workload: str, seed: int, smoke: bool = False) -> list:
    """The items of one workload run, as plain JSON-able data."""
    if workload == "h-scaling":
        pairs = SMOKE_H_SCALING if smoke else H_SCALING
        return [_scenario_item(sid, h_inv) for sid, h_inv in pairs]
    if workload == FIELD_WORKLOAD:
        return _field_items(seed, SMOKE_FIELD_H_INV if smoke
                            else FIELD_H_INV)
    return [_scenario_item(sid, SMOKE_H_INV if smoke else h_inv)
            for sid, h_inv in SCENARIO_ITEMS[workload]]


def reference_path(sid: str, h_inv: int) -> Path:
    return REFERENCE_DIR / f"{sid}-h{h_inv}.json"


def check_report(text: str, ref_text: str) -> list:
    """Mismatches of a scenario report against its reference: the
    verdict, and every defect minimum within the reference report's
    own tau_audit.  Empty when the report passes."""
    got, ref = json.loads(text), json.loads(ref_text)
    errors = []
    if got["verdict"] != ref["verdict"]:
        errors.append(f"verdict {got['verdict']} != {ref['verdict']}")
    if len(got["defects"]) != len(ref["defects"]):
        errors.append(f"{len(got['defects'])} defect reports != "
                      f"{len(ref['defects'])}")
    for k, (g, r) in enumerate(zip(got["defects"], ref["defects"])):
        if not abs(g["min"] - r["min"]) <= r["tau_audit"]:
            errors.append(f"defect {k}: min {g['min']!r} vs {r['min']!r} "
                          f"(tau_audit {r['tau_audit']!r})")
    return errors


def _run_scenario_item(item, out_dir, gated):
    scn = scenarios.get_scenario(item["scenario"])
    text = scenarios.run_scenario(scn, h=1.0 / item["h_inv"]).to_json()
    if not gated:
        return [], None
    ref_text = reference_path(item["scenario"], item["h_inv"]).read_text()
    return check_report(text, ref_text), text == ref_text


def _domain_spec(d):
    if d["kind"] == "ellipse":
        return concavelab.ellipse(*d["semi_axes"])
    return concavelab.convex_polygon(d["vertices"])


def _run_field_item(item, out_dir, gated):
    spec = _domain_spec(item["domain"])
    dom = domains.build_discretization(spec, 1.0 / item["h_inv"])
    problem = concavelab.Problem(
        domain=spec, weight=concavelab.Weight("constant", c=1.0),
        source=concavelab.SourceTerm("power_q", q=FIELD_Q))
    v = stationary.solve_stationary(problem, dom).v
    csv_path = out_dir / f"{item['id']}.csv"
    bin_path = out_dir / f"{item['id']}.bin"
    parabolic.dump_field_csv(v, csv_path)
    parabolic.dump_field_binary(v, bin_path)
    loaded = parabolic.load_field_csv(dom, csv_path, time=math.inf)
    f = concavelab.Field(dom, np.maximum(loaded.values, 0.0) ** FIELD_ALPHA)
    rep = audit.min_defect(audit.FieldEvaluator(f), "space",
                           audit.SamplerConfig(include_infinity=False))
    env = envelope.concave_approximation(f)
    errors = []
    if not np.array_equal(loaded.values, v.values):
        errors.append("CSV round trip changed values")
    size = os.path.getsize(bin_path)
    if size != 32 + 24 * dom.n_interior:
        errors.append(f"binary dump is {size} bytes, expected "
                      f"{32 + 24 * dom.n_interior}")
    if not rep.minimum >= -rep.tau_audit:
        errors.append(f"space audit min {rep.minimum!r} below "
                      f"-tau_audit {-rep.tau_audit!r}")
    if not env.bound_ok:
        errors.append(f"envelope distance {env.distance!r} above "
                      f"k_n*delta {env.k_n * env.delta!r}")
    csv_path.unlink()
    bin_path.unlink()
    return errors, None


def run_item(item: dict, out_dir: Path, recorder=None,
             gated: bool = True) -> dict:
    """Run one item to its checked result; an exception is a failure."""
    runner = _run_scenario_item if "scenario" in item else _run_field_item
    start = time.perf_counter()
    try:
        if recorder is None:
            errors, identical = runner(item, out_dir, gated)
        else:
            errors, identical = recorder.run_item(item["id"], runner, item,
                                                  out_dir, gated)
    except Exception:
        errors, identical = [traceback.format_exc()], None
    return {"id": item["id"], "seconds": time.perf_counter() - start,
            "ok": not errors, "errors": errors, "identical": identical}
