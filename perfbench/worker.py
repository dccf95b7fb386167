"""One fresh benchmark process.

Imports concavelab from the checkout, generates the workload's inputs
(together: the set-up time), then runs the items in a closed loop: the
next item starts only after the previous one has its checked result.
Untraced passes time the host-speed kernel (hostspeed.py) every 0.2 s
and take the kernel's time off their wall time.  Prints one JSON line
with the timings, the checks and, when traced, the per-layer numbers.
Run by ``run.py``; not meant to be called directly.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import concavelab  # noqa: E402

if not Path(concavelab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"concavelab imported from {concavelab.__file__}, "
             f"not from {ROOT / 'src'}")

import workloads  # noqa: E402

#: kernel timings after the set-up, for its host-speed normalization
SETUP_KERNELS = 7


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()
                    and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": _openblas_threads(),
            "concavelab": concavelab.__version__}


def _layer_metrics(rec, wall, workload) -> dict:
    """Per-layer metrics of one traced pass (every span, every counter)."""
    import tracer
    layers = rec.layers()
    out = {}
    names = {name for _, _, name, _ in tracer.WRAPPED if name} \
        | {tracer.ITEM_SPAN}
    for name in sorted(names):
        s, self_s, calls = layers.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = s
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    for name in tracer.COUNTERS:
        out[name] = rec.counts.get(name, 0)
    solves = out["operators.solve_shifted_poisson.calls"] \
        + out["operators.poisson_solve.calls"]
    out["operators.lu_reuse_ratio"] = \
        1.0 - out["operators.factorizations"] / solves if solves else 0.0
    out["trace.wall_s"] = wall
    dominant = workloads.DOMINANT_LAYERS.get(workload, ())
    out["trace.dominant_share"] = \
        sum(out[f"{name}.s"] for name in dominant) / wall
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--item", type=int, default=None,
                   help="run only this item of the workload (ungated)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    items = workloads.make_inputs(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - _T0
    import hostspeed
    hostspeed.time_kernel()
    setup_kernel = [hostspeed.time_kernel() for _ in range(SETUP_KERNELS)]
    result = {"setup_s": setup_s,
              "norm_setup_s": hostspeed.normalize(setup_s, setup_kernel),
              "setup_kernel": setup_kernel, "n_items": len(items)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    gated = args.item is None
    if not gated:
        items = [items[args.item]]
    rec = None
    sampler = hostspeed.Sampler()
    if args.trace:
        import tracer
        rec = tracer.Recorder()
        rec.install()
    args.out.mkdir(parents=True, exist_ok=True)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    if not args.trace:
        sampler.start()
    start = time.perf_counter()
    try:
        results = [workloads.run_item(item, args.out, rec, gated)
                   for item in items]
        wall = time.perf_counter() - start
    finally:
        sampler.stop()
    wall -= sampler.spent
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall,
        kernel_samples=sampler.samples,
        # a pass shorter than the sampling interval (smoke mode) is
        # scaled by one kernel timing taken right after it
        norm_wall_s=(None if args.trace else hostspeed.normalize(
            wall, sampler.samples or [hostspeed.time_kernel()])),
        user_s=cpu1.ru_utime - cpu0.ru_utime,
        sys_s=cpu1.ru_stime - cpu0.ru_stime,
        peak_rss_mb=cpu1.ru_maxrss / 1024.0,
        items=results, env=environment())
    if rec is not None:
        rec.uninstall()
        result["metrics"] = _layer_metrics(rec, wall, args.workload)
        result["layers"] = rec.layers()
        result["item_layers"] = {item["id"]: rec.layers(item["id"])
                                 for item in items}
        tag = ("" if gated else f"-item{args.item}") \
            + ("-smoke" if args.smoke else "")
        spans = args.out / f"spans-{args.workload}-seed{args.seed}{tag}.jsonl"
        rec.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
