"""Self-test of the benchmark on coarse grids.

    python3 perfbench/selftest.py

Runs every workload once in smoke mode (``run.py --smoke``), untraced and
traced, and checks that each run prints a correct result with exactly the
metrics of BENCHMARK.json and their units.  Then checks that the
correctness gate fires on a corrupted reference, and that the seed
changes the field-pipeline inputs and nothing else.  Exits 0 when every
check holds, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def check_smoke_runs(spec, failures):
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w['name']} --trace {trace}"
            n_failures = len(failures)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 w["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append(f"{tag}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in
                   result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: printed metrics and units {got} "
                                f"differ from BENCHMARK.json {key} {want}")
            bad = [name for name, m in result["metrics"].items()
                   if isinstance(m["value"], bool)
                   or not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            if bad:
                failures.append(f"{tag}: non-numeric values for {bad}")
            ok = len(failures) == n_failures
            print(f"smoke {tag}: {'ok' if ok else 'FAILED'}")


def check_gate_fires(failures):
    """A smoke catalog item passes against its reference and fails
    against a copy with the verdict or a defect minimum corrupted."""
    item = workloads.make_inputs("stiff-square", seed=1, smoke=True)[0]
    ref_path = workloads.reference_path(item["scenario"], item["h_inv"])
    ref = json.loads(ref_path.read_text())
    shifted = json.loads(ref_path.read_text())
    d = shifted["defects"][0]
    d["min"] += 2.0 * d["tau_audit"] + 1e-9
    out = ROOT / ".perfbench_out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    real_dir = workloads.REFERENCE_DIR
    try:
        res = workloads.run_item(item, out)
        if not res["ok"]:
            failures.append(f"gate fails the true reference: {res}")
        for what, bad in (("verdict", dict(ref, verdict="fail")),
                          ("defect minimum", shifted)):
            workloads.REFERENCE_DIR = out
            workloads.reference_path(item["scenario"], item["h_inv"]) \
                .write_text(json.dumps(bad, sort_keys=True))
            res = workloads.run_item(item, out)
            if res["ok"]:
                failures.append(f"gate passes a reference with a "
                                f"corrupted {what}")
            else:
                print(f"gate fires on a corrupted {what}: "
                      f"{res['errors'][0]}")
    finally:
        workloads.REFERENCE_DIR = real_dir


def check_seed_scope(spec, failures):
    for w in spec["workloads"]:
        name = w["name"]
        a = workloads.make_inputs(name, 1)
        if a != workloads.make_inputs(name, 1):
            failures.append(f"{name}: the same seed gave other inputs")
        changed = a != workloads.make_inputs(name, 2)
        if changed != (name == workloads.FIELD_WORKLOAD):
            verb = "changes" if changed else "does not change"
            failures.append(f"{name}: the seed {verb} the inputs")
    print("seed scope checked")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_seed_scope(spec, failures)
    check_gate_fires(failures)
    check_smoke_runs(spec, failures)
    for f in failures:
        print("FAIL: " + f)
    print("selftest " + ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
