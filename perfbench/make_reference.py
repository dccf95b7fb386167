"""Write the reference reports that the correctness gate compares with.

    python3 perfbench/make_reference.py

Runs every catalog item of the benchmark workloads, at its benchmark
grid and at the smoke grid, and stores each ``VerificationReport.to_json()``
under perfbench/reference/.  The stored reports are the numerics of the
commit that defined the benchmark; regenerate them only when a change
to the numerics is deliberate and stated.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from concavelab import get_scenario, run_scenario  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.SCENARIO_ITEMS:
        for smoke in (False, True):
            for item in workloads.make_inputs(name, seed=0, smoke=smoke):
                sid, h_inv = item["scenario"], item["h_inv"]
                rep = run_scenario(get_scenario(sid), h=1.0 / h_inv)
                path = workloads.reference_path(sid, h_inv)
                path.write_text(rep.to_json())
                print(f"{path.relative_to(ROOT)}: {rep.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
