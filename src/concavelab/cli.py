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
from .audit import FieldEvaluator, min_defect
from .bounds import alpha_exponent
from .domains import (build_discretization, disk, ellipse, rectangle,
                      unit_square)
from .envelope import concave_approximation
from .errors import ConcavelabError
from .operators import Field
from .parabolic import (dump_field_binary, dump_field_csv, load_field_binary,
                        load_field_csv, make_time_grid, solve_trajectory)
from .problems import Problem, SourceTerm, Weight
from .scenarios import (get_scenario, run_property_suite, run_scenario,
                        run_suite, scenario_ids)
from .stationary import solve_stationary


def _positive(name, kind=float):
    """Parser of a positive finite number, or integer for kind=int."""
    def parse(text):
        try:
            v = math.nan if "_" in text else kind(text)  # 1_0 is not 10
            if v > 0 and (kind is int or math.isfinite(v)):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"{name} must be a positive "
            f"{'integer' if kind is int else 'number'}, got {text!r}")
    return parse


def _alpha_arg(text):
    if text == "auto":
        return "auto"
    v = float(text)
    if "_" in text or not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(
            f"alpha must lie in [0,1] (or 'auto'), got {text}")
    return v


#: field dump formats: file suffix, dump and load function per --format
_FORMATS = {"binary": (".bin", dump_field_binary, load_field_binary),
            "csv": (".csv", dump_field_csv, load_field_csv)}

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
    "format": dict(choices=tuple(_FORMATS), default="binary",
                   help="field dump format"),
    "field": dict(type=Path, required=True,
                  help="field dump to read (.bin binary, else CSV)"),
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
    "square": lambda d: unit_square(),
    "disk": lambda d: disk(radius=d.get("radius", 1.0)),
    "rectangle": lambda d: rectangle(d.get("width", 1.0),
                                     d.get("height", 1.0)),
    "ellipse": lambda d: ellipse(d.get("a", 1.0), d.get("b", 0.5)),
}


#: the keys each config section may hold (configparser lowercases them)
_KEYS = {"domain": "kind radius width height a b",
         "weight": "kind c gamma omega eps a1 a2 eta theta truncate",
         "source": "kind q p",
         "grid": "h dt t snapshots",
         "audit": "mode alpha beta include_infinity"}


def _get(cp, sec, key, default):
    """cp[sec][key] parsed like default, or default when absent: a bool
    from configparser's boolean words, else a number that is finite or
    equals the default (theta = inf); ValueError naming the key if not."""
    if not cp.has_option(sec, key):
        return default
    text, flag = cp[sec][key], isinstance(default, bool)
    try:
        v = cp.getboolean(sec, key) if flag else float(text)
    except ValueError:
        v = math.nan
    if "_" in text or v != default and not math.isfinite(v):
        raise ValueError(f"[{sec}] {key} = {text} is not a "
                         f"{'boolean' if flag else 'finite number'}")
    return v


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
    spec = _DOMAINS[kind]({k: _get(cp, "domain", k, 1.0)
                           for k in dom_sec if k != "kind"})

    # absent weight keys take Weight's defaults
    w = cp["weight"] if "weight" in cp else {}
    weight = Weight(**{k: w[k] if k == "kind" else _get(
        cp, "weight", k, getattr(Weight, k)) for k in w if k != "truncate"})

    s = cp["source"] if "source" in cp else {}
    source = SourceTerm(kind=s.get("kind", "one"),
                        q=_get(cp, "source", "q", 0.0),
                        p=_get(cp, "source", "p", 0.5))

    g = cp["grid"] if "grid" in cp else {}
    grid = {"h": 1.0 / 64.0, "dt": None, "T": 2.0, "snapshots": 16}
    for key in grid:
        if key in g:
            grid[key] = _positive(f"grid key {key}", int if
                                  key == "snapshots" else float)(g[key])

    a = cp["audit"] if "audit" in cp else {}
    audit = {"mode": a.get("mode", "space"),
             "alpha": "auto" if a.get("alpha") == "auto"
             else _get(cp, "audit", "alpha", 1.0),
             "beta": _get(cp, "audit", "beta", 1.0),
             "include_infinity": _get(cp, "audit", "include_infinity",
                                      False)}

    problem = Problem(domain=spec, weight=weight, source=source,
                      horizon=grid["T"],
                      truncate=_get(cp, "weight", "truncate", False))
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
    (out_dir / name).write_text(text)
    return out_dir / name


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
    ext, dump, _ = _FORMATS[args.format]
    files = [f"field_{k:03d}{ext}" for k in range(len(traj.times))]
    for name, vals, t in zip(files, traj.fields, traj.times):
        dump(Field(dom, vals, t), args.out / name)
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
    ext, dump, _ = _FORMATS[args.format]
    dump(res.v, args.out / f"stationary{ext}")
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


def _load_field(problem: Problem, grid, path: Path) -> Field:
    """The field dump at path on the config's grid: binary for a .bin
    file, CSV otherwise."""
    load = _FORMATS["binary" if path.suffix == ".bin" else "csv"][2]
    return load(build_discretization(problem.domain, grid["h"]), path)


def _cmd_audit(args) -> int:
    problem, grid, audit = _problem_from_args(args)
    if audit["mode"] != "space":
        raise ValueError(f"[audit] mode = {audit['mode']}: a field dump "
                         f"has no time axis; use mode = space")
    if audit["include_infinity"]:
        raise ValueError("[audit] include_infinity = true: a field dump "
                         "has no t = infinity slice")
    alpha = _resolve_alpha(problem, audit["alpha"] if args.alpha is None
                           else args.alpha, audit["beta"])
    f = _load_field(problem, grid, args.field)
    rep = min_defect(FieldEvaluator(f, alpha), "space")
    path = _write(args.out, "audit_report.json", rep.to_json())
    print(f"audit: min defect {rep.minimum:.6g} (tau_audit "
          f"{rep.tau_audit:.3g}); report {path}")
    return 0 if rep.minimum >= -rep.tau_audit else 1


def _cmd_envelope(args) -> int:
    problem, grid, _ = _problem_from_args(args)
    f = _load_field(problem, grid, args.field)
    res = concave_approximation(f)
    summary = {"command": "envelope", "distance": res.distance,
               "delta": res.delta, "k_n": res.k_n,
               "bound_ok": bool(res.bound_ok),
               "dimension": res.dimension}
    path = _write(args.out, "envelope_report.json",
                  json.dumps(summary, sort_keys=True))
    if len(res.g) == f.dom.n_interior:  # not a sample of the nodes
        ext, dump, _ = _FORMATS[args.format]
        dump(Field(f.dom, res.g), args.out / f"envelope{ext}")
    print(f"envelope: distance {res.distance:.6g} <= k_n*delta = "
          f"{res.k_n * res.delta:.6g}: {res.bound_ok}; report {path}")
    return 0 if res.bound_ok else 1


def _cmd_verify(args) -> int:
    scn = get_scenario(args.scenario)
    rep = run_scenario(scn, h=args.h, dt=args.dt, horizon=args.T)
    path = _write(args.out, f"verify_{scn.id}.json", rep.to_json())
    print(f"verify {scn.id}: {rep.verdict} "
          f"({len(rep.assertions)} assertions); report {path}")
    return int(rep.verdict == "fail")


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
    code = int(any(r.verdict == "fail" for r in reports))
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
    _add_flags(p, "config field h alpha out")

    p = sub.add_parser("envelope",
                       help="concave approximant of a dumped field")
    _add_flags(p, "config field h out format")

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
            configparser.Error, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
