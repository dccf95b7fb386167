"""concavelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ... --smoke     # coarse grids, same code paths
    python3 perfbench/selftest.py            # checks the benchmark itself

Run from the root of a checkout.  The workloads and metrics are listed in
BENCHMARK.json; the items behind each workload are in workloads.py.

Every pass over a workload's items runs in a fresh process (worker.py)
with one OpenBLAS thread, one item after the other, without
gc.collect() in between, as a user's process would.  Passes repeat until --seconds have gone by (at least
one pass).  With --trace 0 the run reports, as medians over its passes:

* norm_wall_s  time from the first item to the last checked result,
               scaled to the reference host speed (hostspeed.py)
* setup_s      import of concavelab plus input generation, in each pass
               process and in SETUP_PROBES set-up-only processes, scaled
               the same way
* peak_rss_mb  peak resident memory of a pass process

The host's speed drifts by a quarter or more over minutes, so raw wall
times of the same code spread past any useful bound.  Each untraced
pass times a small fixed kernel every 0.2 s of its wall clock and each
process times it right after its set-up; a time divided by the
(trimmed) mean kernel time over the reference kernel time is the time at
the reference speed.  The raw times are printed and kept in the details.

With --trace 1 it first runs one untraced pass, then traced passes whose
wrappers (tracer.py) record a span per call of each public layer
function; it reports the per-layer metrics of BENCHMARK.json, including
trace.overhead_s (traced wall_s minus untraced wall_s).  The traced run
of spacetime-disk also runs the h-scaling curve of torsion-square and
torsion-disk, one process per grid, which is reported but not gated.

Details (environment, per-item checks, per-item layer self times, the
h-scaling curve) are printed above the last line and written under
.perfbench_out/, with the raw spans of traced passes.  The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit
code 0 with a result; 1 when a pass could not finish; 2 on a checkout
without concavelab sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_PROBES = 4             # set-up-only processes per untraced run
H_SCALING_WORKLOAD = "spacetime-disk"
# One OpenBLAS thread in every worker.  With the default two on a 2-vCPU
# Xeon, SuperLU's BLAS calls made lane-emden-disk take 12 to 18 s
# depending on whether the second vCPU was free (wall_s spread 0.29 of
# the median over ten runs).
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


class RunFailed(Exception):
    pass


def _worker(args, deadline) -> dict:
    """Run one worker process to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"no time left for worker {' '.join(args)}")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {' '.join(args)} exited with "
                        f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _closed_loop(args, seconds, deadline) -> list:
    """Passes, each in a fresh process, until `seconds` have gone by."""
    start = time.monotonic()
    passes = []
    while True:
        t = time.monotonic()
        passes.append(_worker(args, deadline))
        now = time.monotonic()
        if now - start >= seconds or deadline - now < 1.5 * (now - t):
            return passes


def _print_items(passes):
    for k, p in enumerate(passes):
        norm = "" if p["norm_wall_s"] is None else \
            f", normalized {p['norm_wall_s']:.3f} s"
        print(f"pass {k}: wall {p['wall_s']:.3f} s{norm} (cpu user "
              f"{p['user_s']:.3f} s, sys {p['sys_s']:.3f} s), setup "
              f"{p['setup_s']:.3f} s, normalized {p['norm_setup_s']:.3f} s"
              f", peak {p['peak_rss_mb']:.1f} MB")
        for item in p["items"]:
            mark = "ok" if item["ok"] else "FAILED"
            same = {True: ", report byte-identical",
                    False: ", report differs from reference",
                    None: ""}[item["identical"]]
            print(f"  {item['id']}: {item['seconds']:.3f} s {mark}{same}")
            for err in item["errors"]:
                print("    " + err.replace("\n", "\n    "))


def _print_layers(title, layers, wall):
    print(title)
    for name, (s, self_s, calls) in sorted(layers.items(),
                                           key=lambda kv: -kv[1][1]):
        print(f"  {name:36s} self {self_s:9.3f} s  incl {s:9.3f} s  "
              f"calls {calls:7d}  self share {self_s / wall:6.1%}")


def untraced_run(common, seconds, deadline) -> tuple:
    setups = [_worker(common + ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    passes = _closed_loop(common + ["--trace", "0"], seconds, deadline)
    _print_items(passes)
    setups += passes
    metrics = {
        "norm_wall_s": statistics.median(p["norm_wall_s"] for p in passes),
        "setup_s": statistics.median(p["norm_setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {"setup_samples": [{key: p[key] for key in
                                 ("setup_s", "norm_setup_s", "setup_kernel")}
                                for p in setups],
              "passes": passes}
    return passes, metrics, detail


def _h_scaling(seed, smoke, deadline) -> list:
    curve = []
    base = ["--workload", "h-scaling", "--seed", str(seed), "--trace", "1"]
    base += ["--smoke"] if smoke else []
    k, total = 0, 1
    while k < total:
        try:
            res = _worker(base + ["--item", str(k)], deadline)
        except RunFailed as exc:
            curve.append({"item": k, "error": str(exc)})
            break
        total = res["n_items"]
        item = res["items"][0]
        curve.append({"id": item["id"], "ok": item["ok"],
                      "wall_s": res["wall_s"],
                      "peak_rss_mb": res["peak_rss_mb"],
                      "layers": res["item_layers"][item["id"]]})
        k += 1
    return curve


def traced_run(workload, seed, smoke, common, seconds, deadline) -> tuple:
    baseline = _worker(common + ["--trace", "0"], deadline)
    passes = _closed_loop(common + ["--trace", "1"], seconds, deadline)
    print("pass 0 untraced, the others traced:")
    _print_items([baseline] + passes)
    metrics = {name: statistics.median(p["metrics"][name] for p in passes)
               for name in passes[0]["metrics"]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] \
        - baseline["wall_s"]
    metrics["scenarios.reports_identical"] = statistics.median(
        sum(1 for item in p["items"] if item["identical"]) for p in passes)
    last = passes[-1]
    for item_id, layers in last["item_layers"].items():
        _print_layers(f"layers of item {item_id} (traced):", layers,
                      layers["bench.item"][0])
    if len(last["item_layers"]) > 1:
        _print_layers(f"layers of workload {workload} (traced):",
                      last["layers"], last["wall_s"])
    print(f"trace: traced wall {metrics['trace.wall_s']:.3f} s, untraced "
          f"{baseline['wall_s']:.3f} s, overhead "
          f"{metrics['trace.overhead_s']:.3f} s; dominant-layer share "
          f"{metrics['trace.dominant_share']:.1%}")
    detail = {"untraced_pass": baseline, "passes": passes}
    if workload == H_SCALING_WORKLOAD:
        curve = _h_scaling(seed, smoke, deadline)
        print("h-scaling (traced, not gated):")
        for point in curve:
            if "error" in point:
                print(f"  item {point['item']}: {point['error']}")
                continue
            top = max(((name, vals) for name, vals in point["layers"].items()
                       if name != "bench.item"), key=lambda kv: kv[1][1])
            print(f"  {point['id']}: {point['wall_s']:.3f} s, peak "
                  f"{point['peak_rss_mb']:.1f} MB, top self {top[0]} "
                  f"{top[1][1]:.3f} s{'' if point['ok'] else ', FAILED'}")
        note = "torsion-disk at h=1/128 left out: one LU factor measured " \
               "62 MB there, and 49 retained factors would be about 3 GB " \
               "on a 7.6 GB machine"
        print("  " + note)
        detail["h_scaling"] = {"points": curve, "note": note}
    # the untraced pass's items are checked results too
    return [baseline] + passes, metrics, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(
        description="concavelab benchmark (see the module docstring)")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="coarse grids: every code path once, quickly")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "concavelab" / "__init__.py").is_file():
        print(f"no concavelab sources under {ROOT / 'src'}: run from the "
              "root of a concavelab checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] if args.smoke else []
    try:
        if args.trace:
            passes, computed, detail = traced_run(
                args.workload, args.seed, args.smoke, common, args.seconds,
                deadline)
            wanted = spec["per_layer"]
        else:
            passes, computed, detail = untraced_run(common, args.seconds,
                                                    deadline)
            wanted = spec["end_to_end"]
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    env = passes[0]["env"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items())
          + f", seed={args.seed}")
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    items = [item for p in passes for item in p["items"]]
    failed = sum(1 for item in items if not item["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    detail.update(env=env, seed=args.seed, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" \
           f"{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
