"""Write the golden reports that tests/test_scenarios.py compares with.

    python3 tests/make_reference.py

Runs every catalog scenario that perfbench/reference/ does not cover at
h = 1/12, and every catalog scenario at h = 1/32, and stores
``run_scenario(...).to_json()`` as tests/reference/<id>-h<1/h>.json.
The stored reports are the numerics of
the commit that made them; regenerate them only when a change to the
numerics is deliberate and stated.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from concavelab import get_scenario, run_scenario, scenario_ids  # noqa: E402

REFERENCE_DIR = ROOT / "tests" / "reference"
#: the ids whose reports perfbench/reference/ already stores
PERFBENCH_IDS = ("lane-emden-disk", "logistic-square", "ramp-le-eps05",
                 "saturable-square")
H_INV = 12
#: the grid of the goldens that cover the whole catalog
CATALOG_H_INV = 32


def golden_ids():
    return [sid for sid in scenario_ids() if sid not in PERFBENCH_IDS]


def reference_path(sid: str, h_inv: int = H_INV) -> Path:
    return REFERENCE_DIR / f"{sid}-h{h_inv}.json"


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for h_inv, ids in ((H_INV, golden_ids()),
                       (CATALOG_H_INV, scenario_ids())):
        for sid in ids:
            rep = run_scenario(get_scenario(sid), h=1.0 / h_inv)
            path = reference_path(sid, h_inv)
            path.write_text(rep.to_json())
            print(f"{path.relative_to(ROOT)}: {rep.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
