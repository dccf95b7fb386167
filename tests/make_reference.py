"""Write the golden reports that tests/test_scenarios.py compares with.

    python3 tests/make_reference.py

Runs every catalog scenario but the benchmark's at h = 1/12, every
catalog scenario at h = 1/32, and the benchmark's scenarios whose bits
perfbench/reference/ no longer holds at h = 1/16 (and ramp-le-eps05 at
h = 1/64), and stores ``run_scenario(...).to_json()`` as
tests/reference/<id>-h<1/h>.json; and ramp-le-eps05 with eps = 0.5,
whose theta check fails its gate, at h = 1/12 as
tests/reference/ramp-le-eps50-h12-gated.json.  The stored reports are
the numerics of the commit that made them; regenerate them only when a
change to the numerics is deliberate and stated.
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from concavelab import get_scenario, run_scenario, scenario_ids  # noqa: E402

REFERENCE_DIR = ROOT / "tests" / "reference"
#: the benchmark's ids whose h = 1/16 bits are stored here (perfbench/
#: reference/ holds them, and logistic-square's, only to its gate)
PERFBENCH_IDS = ("lane-emden-disk", "ramp-le-eps05", "saturable-square")
H_INV = 12
#: the grid of the goldens that cover the whole catalog
CATALOG_H_INV = 32


def golden_ids():
    return [sid for sid in scenario_ids() if sid not in PERFBENCH_IDS]


def reference_path(sid: str, h_inv: int = H_INV) -> Path:
    return REFERENCE_DIR / f"{sid}-h{h_inv}.json"


def gated_scenario():
    """ramp-le-eps05 with the ripple eps = 0.5 (m = 0.567, M = 1.5)."""
    scn = get_scenario("ramp-le-eps05")
    weight = dataclasses.replace(scn.problem.weight, eps=0.5)
    return dataclasses.replace(
        scn, problem=dataclasses.replace(scn.problem, weight=weight))


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for h_inv, ids in ((H_INV, golden_ids()),
                       (CATALOG_H_INV, scenario_ids()),
                       (16, PERFBENCH_IDS), (64, ("ramp-le-eps05",))):
        for sid in ids:
            rep = run_scenario(get_scenario(sid), h=1.0 / h_inv)
            path = reference_path(sid, h_inv)
            path.write_text(rep.to_json())
            print(f"{path.relative_to(ROOT)}: {rep.verdict}")
    path = REFERENCE_DIR / f"ramp-le-eps50-h{H_INV}-gated.json"
    path.write_text(run_scenario(gated_scenario(), h=1.0 / H_INV).to_json())
    print(f"{path.relative_to(ROOT)}: gated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
