"""Command-line entry point.

Subcommands: solve (trajectory dump), stationary, audit (defect report
for a dumped field), envelope, verify --scenario <id>, suite --all,
props --seed <n>.  Every run writes a machine-readable JSON report and
prints a one-line human summary.  Exit codes: 0 = all pass (or not
applicable), 1 = a check failed, 2 = usage/validation/execution error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .audit import SamplerConfig, min_defect, FieldEvaluator
from .bounds import alpha_exponent
from .domains import (build_discretization, disk, ellipse, rectangle,
                      unit_square)
from .envelope import concave_approximation
from .errors import ConcavelabError
from .operators import Field
from .parabolic import (dump_field_binary, dump_field_csv, load_field_csv,
                        make_time_grid, solve_trajectory)
from .problems import Problem, SourceTerm, Weight
from .scenarios import (get_scenario, run_property_suite, run_scenario,
                        run_suite, scenario_ids)
from .stationary import solve_stationary


def _positive(name):
    def parse(text):
        v = float(text)
        if v <= 0 or not math.isfinite(v):
            raise argparse.ArgumentTypeError(
                f"{name} must be a positive number, got {text}")
        return v
    return parse


def _alpha_arg(text):
    if text == "auto":
        return "auto"
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(
            f"alpha must lie in [0,1] (or 'auto'), got {text}")
    return v


#: flags shared by several subcommands; each subcommand takes only the
#: ones its handler reads
_FLAGS = {
    "h": dict(type=_positive("h"), default=None,
              help="grid spacing (default: the config's [grid] h if "
                   "there is a config, else 1/64)"),
    "dt": dict(type=_positive("dt"), default=None,
               help="time step (default: h)"),
    "T": dict(type=_positive("T"), default=None,
              help="time horizon (default 2, or the scenario's)"),
    "alpha": dict(type=_alpha_arg, default=None,
                  help="power-transform exponent in [0,1], or 'auto'"),
    "out": dict(type=Path, default=Path("."), help="output directory"),
    "format": dict(choices=("binary", "csv"), default="binary",
                   help="field dump format"),
    "config": dict(type=Path, required=True,
                   help="problem/grid config file (INI sections: "
                        "domain, weight, source, grid, audit)"),
}


def _add_flags(p, names: str):
    for name in names.split():
        p.add_argument(f"--{name}", **_FLAGS[name])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_DOMAINS = {
    "square": lambda c: unit_square(),
    "disk": lambda c: disk(radius=c.getfloat("radius", 1.0)),
    "rectangle": lambda c: rectangle(c.getfloat("width", 1.0),
                                     c.getfloat("height", 1.0)),
    "ellipse": lambda c: ellipse(c.getfloat("a", 1.0),
                                 c.getfloat("b", 0.5)),
}


#: the keys each config section may hold (configparser lowercases them)
_KEYS = {"domain": "kind radius width height a b",
         "weight": "kind c gamma omega eps a1 a2 eta theta truncate",
         "source": "kind q p u0",
         "grid": "h dt t snapshots",
         "audit": "mode alpha beta include_infinity"}


def load_config(path: Path):
    """Parse a flat key-value config with sections domain / weight /
    source / grid / audit into (Problem, grid dict, audit dict)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not cp.read(path):
        raise ValueError(f"config file {path} not found or unreadable")
    for sec in cp.sections():
        bad = [f"section [{sec}]"] if sec not in _KEYS else [
            f"key {k!r} in section [{sec}]" for k in cp[sec]
            if k not in _KEYS[sec].split()]
        if bad:
            raise ValueError(f"config file {path}: unknown {bad[0]}")
    dom_sec = cp["domain"] if "domain" in cp else {}
    kind = dom_sec.get("kind", "square")
    if kind not in _DOMAINS:
        raise ValueError(f"domain kind must be one of "
                         f"{sorted(_DOMAINS)}, got {kind!r}")
    spec = _DOMAINS[kind](dom_sec)

    # absent weight keys take Weight's defaults
    w = dict(cp["weight"]) if "weight" in cp else {}
    truncate = w.pop("truncate", "false").lower() == "true"
    weight = Weight(**{k: v if k == "kind" else float(v)
                       for k, v in w.items()})

    s = cp["source"] if "source" in cp else {}
    source = SourceTerm(kind=s.get("kind", "one"),
                        q=float(s.get("q", 0.0)),
                        p=float(s.get("p", 0.5)))

    g = cp["grid"] if "grid" in cp else {}
    grid = {"h": float(g.get("h", 1.0 / 64.0)),
            "dt": float(g["dt"]) if "dt" in g else None,
            "T": float(g.get("T", 2.0)),
            "snapshots": int(g.get("snapshots", 16))}
    if grid["h"] <= 0:
        raise ValueError("grid key h must be positive")
    if grid["dt"] is not None and grid["dt"] <= 0:
        raise ValueError("grid key dt must be positive")

    a = cp["audit"] if "audit" in cp else {}
    alpha = a.get("alpha", "1.0")
    audit = {"mode": a.get("mode", "space"),
             "alpha": alpha if alpha == "auto" else float(alpha),
             "beta": float(a.get("beta", 1.0)),
             "include_infinity": str(a.get("include_infinity",
                                           "false")).lower() == "true"}

    problem = Problem(domain=spec, weight=weight, source=source,
                      u0=s.get("u0", "zero"), horizon=grid["T"],
                      truncate=truncate)
    return problem, grid, audit


def _problem_from_args(args, horizon=None):
    """(problem, grid, audit) of --config, with the horizon replaced
    when one is given and the config's h by --h when that is given."""
    problem, grid, audit = load_config(args.config)
    if horizon is not None:
        problem = dataclasses.replace(problem, horizon=horizon)
    if args.h is not None:
        grid["h"] = args.h
    return problem, grid, audit


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem, grid, _ = _problem_from_args(args, args.T)
    h = grid["h"]
    dt = args.dt if args.dt is not None else grid["dt"]
    dom = build_discretization(problem.domain, h)
    tg = make_time_grid(problem, h, dt, count=grid["snapshots"])
    traj = solve_trajectory(problem, dom, tg, dt)
    files = []
    for k, t in enumerate(traj.times):
        f = Field(dom, traj.fields[k], t)
        if args.format == "csv":
            name = f"field_{k:03d}.csv"
            dump_field_csv(f, args.out / name)
        else:
            name = f"field_{k:03d}.bin"
            dump_field_binary(f, args.out / name)
        files.append(name)
    summary = {"command": "solve", "h": h, "dt": dt or h,
               "T": problem.horizon, "monotone": bool(traj.monotone),
               "snapshots": [float(t) for t in traj.times],
               "files": files}
    path = _write(args.out, "solve_report.json",
                  json.dumps(summary, sort_keys=True))
    print(f"solve: {len(files)} snapshots written; monotone="
          f"{traj.monotone}; report {path}")
    return 0


def _cmd_stationary(args) -> int:
    problem, grid, _ = _problem_from_args(args, args.T)
    dom = build_discretization(problem.domain, grid["h"])
    res = solve_stationary(problem, dom)
    if args.format == "csv":
        dump_field_csv(res.v, args.out / "stationary.csv")
    else:
        dump_field_binary(res.v, args.out / "stationary.bin")
    summary = {"command": "stationary", "h": grid["h"],
               "residual": res.residual, "iterations": res.iterations,
               "sup_norm": res.sup_norm}
    path = _write(args.out, "stationary_report.json",
                  json.dumps(summary, sort_keys=True))
    print(f"stationary: sup norm {res.sup_norm:.6g}, residual "
          f"{res.residual:.3g}; report {path}")
    return 0


def _resolve_alpha(problem: Problem, alpha, beta: float) -> float:
    """alpha itself, or for "auto" the exponent formula at the source's
    sublinear exponent and the weight's gamma and theta."""
    if alpha != "auto":
        return alpha
    q = problem.source.sublinear_exponent
    if q is None:
        raise ValueError(f"alpha = auto needs a sublinear exponent, and "
                         f"source {problem.source.kind!r} has none; "
                         f"give alpha as a number")
    return alpha_exponent(q, problem.weight.gamma, beta,
                          problem.weight.theta)


def _cmd_audit(args) -> int:
    problem, grid, audit = _problem_from_args(args)
    alpha = _resolve_alpha(problem, audit["alpha"] if args.alpha is None
                           else args.alpha, audit["beta"])
    dom = build_discretization(problem.domain, grid["h"])
    f = load_field_csv(dom, args.field)
    rep = min_defect(FieldEvaluator(f, alpha), "space",
                     SamplerConfig(include_infinity=False))
    path = _write(args.out, "audit_report.json", rep.to_json())
    print(f"audit: min defect {rep.minimum:.6g} (tau_audit "
          f"{rep.tau_audit:.3g}); report {path}")
    return 0 if rep.minimum >= -rep.tau_audit else 1


def _cmd_envelope(args) -> int:
    problem, grid, _ = _problem_from_args(args)
    dom = build_discretization(problem.domain, grid["h"])
    f = load_field_csv(dom, args.field)
    res = concave_approximation(f)
    summary = {"command": "envelope", "distance": res.distance,
               "delta": res.delta, "k_n": res.k_n,
               "bound_ok": bool(res.bound_ok),
               "dimension": res.dimension}
    path = _write(args.out, "envelope_report.json",
                  json.dumps(summary, sort_keys=True))
    if args.format == "csv" and len(res.g) == dom.n_interior:
        dump_field_csv(Field(dom, res.g), args.out / "envelope.csv")
    print(f"envelope: distance {res.distance:.6g} <= k_n*delta = "
          f"{res.k_n * res.delta:.6g}: {res.bound_ok}; report {path}")
    return 0 if res.bound_ok else 1


def _verdict_exit(reports) -> int:
    if any(r.verdict == "fail" for r in reports):
        return 1
    return 0


def _cmd_verify(args) -> int:
    scn = get_scenario(args.scenario)
    rep = run_scenario(scn, h=args.h, dt=args.dt, horizon=args.T)
    path = _write(args.out, f"verify_{scn.id}.json", rep.to_json())
    print(f"verify {scn.id}: {rep.verdict} "
          f"({len(rep.assertions)} assertions); report {path}")
    return _verdict_exit([rep])


def _cmd_suite(args) -> int:
    ids = args.ids if args.ids else (scenario_ids() if args.all else None)
    if ids is None:
        raise ValueError("suite needs --all or --ids")
    reports = run_suite(ids, h=args.h, dt=args.dt)
    merged = {"command": "suite",
              "reports": {r.scenario_id: json.loads(r.to_json())
                          for r in reports},
              "verdicts": {r.scenario_id: r.verdict for r in reports}}
    path = _write(args.out, "suite_report.json",
                  json.dumps(merged, sort_keys=True))
    for r in reports:
        print(f"  {r.scenario_id}: {r.verdict} ({r.runtime:.1f}s)")
    code = _verdict_exit(reports)
    print(f"suite: {len(reports)} scenarios, exit {code}; report {path}")
    return code


def _cmd_props(args) -> int:
    rep = run_property_suite(seed=args.seed, draws=args.draws)
    path = _write(args.out, "props_report.json",
                  json.dumps(rep, sort_keys=True))
    for e in rep["results"]:
        print(f"  {e['name']}: {e['violations']} violations / "
              f"{e['draws']} draws (skipped {e['skipped']}, worst "
              f"margin {e['worst_margin']:.3g})")
    print(f"props: {rep['violations']} total violations; report {path}")
    return 0 if rep["violations"] == 0 else 1


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="concavelab", allow_abbrev=False,
        description="Numerical verification of concavity properties of "
                    "parabolic Dirichlet problems on convex planar "
                    "domains.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="integrate and dump the trajectory")
    _add_flags(p, "config h dt T out format")

    p = sub.add_parser("stationary", help="solve the stationary problem")
    _add_flags(p, "config h T out format")

    p = sub.add_parser("audit", help="defect report for a dumped field")
    _add_flags(p, "config h alpha out")
    p.add_argument("--field", type=Path, required=True,
                   help="CSV field dump to audit")

    p = sub.add_parser("envelope",
                       help="concave approximant of a dumped field")
    _add_flags(p, "config h out format")
    p.add_argument("--field", type=Path, required=True,
                   help="CSV field dump")

    p = sub.add_parser("verify", help="run one catalog scenario")
    _add_flags(p, "h dt T out")
    p.set_defaults(h=1.0 / 64.0)
    p.add_argument("--scenario", required=True,
                   choices=scenario_ids(), help="scenario id")

    p = sub.add_parser("suite", help="run catalog scenarios")
    _add_flags(p, "h dt out")
    p.set_defaults(h=1.0 / 64.0)
    p.add_argument("--all", action="store_true",
                   help="run every catalog scenario")
    p.add_argument("--ids", nargs="+", default=None,
                   help="specific scenario ids")

    p = sub.add_parser("props", help="randomized inequality suites")
    _add_flags(p, "out")
    p.add_argument("--seed", type=int, default=1, help="random seed")
    p.add_argument("--draws", type=int, default=10000,
                   help="draws per property (default 10000)")
    for p in sub.choices.values():  # no prefixes: --h must not be --help
        p.allow_abbrev = False
    return ap


_HANDLERS = {"solve": _cmd_solve, "stationary": _cmd_stationary,
             "audit": _cmd_audit, "envelope": _cmd_envelope,
             "verify": _cmd_verify, "suite": _cmd_suite,
             "props": _cmd_props}


def parse_and_dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](args)
    except (ConcavelabError, ValueError, KeyError, OSError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
