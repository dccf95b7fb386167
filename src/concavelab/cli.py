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
                        load_field_csv, solve_trajectory)
from .problems import Problem, SourceTerm, Weight
from .scenarios import (get_scenario, run_property_suite, run_scenario,
                        run_suite, scenario_ids)
from .stationary import solve_stationary


def _number(text, kind=float):
    """kind(text), or nan where text is not a number of that kind or
    has a digit separator (1_0 is not 10)."""
    try:
        return math.nan if "_" in text else kind(text)
    except ValueError:
        return math.nan


def _positive(name, kind=float, zero_ok=False):
    """Parser of a finite number > 0 (>= 0 if zero_ok), int for kind=int."""
    def parse(text):
        v = _number(text, kind)
        if (v >= 0 if zero_ok else v > 0) and (
                kind is int or math.isfinite(v)):
            return v
        raise argparse.ArgumentTypeError(
            f"{name} must be a {'non-negative' if zero_ok else 'positive'} "
            f"{'integer' if kind is int else 'number'}, got {text!r}")
    return parse


def _alpha_arg(name):
    """Parser of a number in [0, 1] or the word auto."""
    def parse(text):
        v = text if text == "auto" else _number(text)
        if v == "auto" or 0.0 <= v <= 1.0:
            return v
        raise argparse.ArgumentTypeError(
            f"{name} must be a number in [0, 1] or 'auto', got {text!r}")
    return parse


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
    "alpha": dict(type=_alpha_arg("alpha"), default=None,
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

#: each [domain] kind: its constructor and its keys with their defaults
_DOMAINS = {"square": (unit_square, {}),
            "disk": (disk, {"radius": 1.0}),
            "rectangle": (rectangle, {"width": 1.0, "height": 1.0}),
            "ellipse": (ellipse, {"a": 1.0, "b": 0.5})}


def _fields(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


#: the keys of the other sections, with their defaults
_SECTIONS = {"weight": {**_fields(Weight), "truncate": False},
             "source": _fields(SourceTerm),
             "grid": {"h": 1.0 / 64.0, "dt": None, "T": 2.0,
                      "snapshots": 16},
             "audit": {"alpha": 1.0, "beta": 1.0}}


def _parse(sec, key, text, default):
    """[sec] key = text parsed like its default: by the flag's parser
    for [grid] and alpha, else as a word, as one of configparser's
    boolean words, or as a number that is finite or equals the default
    (theta = inf); ValueError naming the key if it does not parse."""
    if sec == "grid":
        return _positive(f"grid key {key}", int if key == "snapshots"
                         else float)(text)
    if key == "alpha":
        return _alpha_arg(f"[{sec}] {key}")(text)
    if isinstance(default, str):
        return text
    flag = isinstance(default, bool)
    v = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower()) \
        if flag else _number(text)
    if v is None or not flag and v != default and not math.isfinite(v):
        raise ValueError(f"[{sec}] {key} = {text} is not a "
                         f"{'boolean' if flag else 'finite number'}")
    return v


def load_config(path: Path):
    """Parse a flat key-value config with sections domain / weight /
    source / grid / audit into (Problem, grid dict, audit dict)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not cp.read(path):
        raise ValueError(f"config file {path} not found or unreadable")
    kind = cp.get("domain", "kind", fallback="square")
    if kind not in _DOMAINS:
        raise ValueError(f"domain kind must be one of "
                         f"{sorted(_DOMAINS)}, got {kind!r}")
    make, keys = _DOMAINS[kind]
    conf = {sec: dict(defaults) for sec, defaults in
            {"domain": {"kind": kind, **keys}, **_SECTIONS}.items()}
    for sec in cp.sections():
        if sec not in conf:
            raise ValueError(f"config file {path}: unknown section [{sec}]")
        names = {key.lower(): key for key in conf[sec]}  # cp lowercases
        for k, text in cp[sec].items():
            if k not in names:
                of = f" of kind {kind}" if sec == "domain" else ""
                raise ValueError(f"config file {path}: unknown key {k!r} "
                                 f"in section [{sec}]{of}")
            key = names[k]
            conf[sec][key] = _parse(sec, key, text, conf[sec][key])
    truncate, grid = conf["weight"].pop("truncate"), conf["grid"]
    problem = Problem(make(**{k: conf["domain"][k] for k in keys}),
                      Weight(**conf["weight"]), SourceTerm(**conf["source"]),
                      horizon=grid["T"], truncate=truncate)
    return problem, grid, conf["audit"]


def _problem_from_args(args):
    """(problem, grid, audit) of --config, with the [grid] keys h, dt
    and T replaced by the flags of the same name that are given."""
    problem, grid, audit = load_config(args.config)
    for key in ("h", "dt", "T"):
        if vars(args).get(key) is not None:
            grid[key] = vars(args)[key]
    return dataclasses.replace(problem, horizon=grid["T"]), grid, audit


def _write(out_dir: Path, name: str, text: str) -> Path:
    (out_dir / name).write_text(text)
    return out_dir / name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem, grid, _ = _problem_from_args(args)
    h, dt = grid["h"], grid["dt"]
    dom = build_discretization(problem.domain, h)
    traj = solve_trajectory(problem, dom, grid["snapshots"], dt)
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
    problem, grid, _ = _problem_from_args(args)
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
    """alpha itself, with beta = 1, or for "auto" the exponent formula at
    beta, the source's sublinear exponent and the weight's gamma, theta."""
    if alpha != "auto":
        if beta != 1.0:
            raise ValueError(f"[audit] beta = {beta} needs alpha = auto")
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
    p.add_argument("--seed", type=_positive("seed", int, zero_ok=True),
                   default=1, help="random seed (an integer >= 0)")
    p.add_argument("--draws", type=_positive("draws", int), default=10000,
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
