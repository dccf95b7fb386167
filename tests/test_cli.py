import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concavelab import (SourceTerm, Weight, build_discretization,
                        concave_approximation, scenario_ids, unit_square)
from concavelab import cli as cli_mod
from concavelab.cli import _FORMATS, load_config, parse_and_dispatch

CONFIG = """\
[domain]
kind = square

[weight]
kind = constant
c = 1.0

[source]
kind = one

[grid]
h = 0.125
T = 0.5
snapshots = 6

[audit]
alpha = 0.5
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "torsion.ini"
    path.write_text(CONFIG)
    return path


def test_usage_error_names_offending_flag(capsys, config_file):
    rc = parse_and_dispatch(["solve", "--config", str(config_file),
                             "--h", "-1"])
    assert rc == 2
    assert "--h" in capsys.readouterr().err


def test_usage_error_bad_format(capsys, config_file):
    rc = parse_and_dispatch(["solve", "--config", str(config_file),
                             "--format", "xml"])
    assert rc == 2
    assert "--format" in capsys.readouterr().err


def test_missing_config_is_usage_error(capsys):
    assert parse_and_dispatch(["solve"]) == 2
    assert "config" in capsys.readouterr().err


def test_bad_domain_kind_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[domain]\nkind = pentagon\n")
    rc = parse_and_dispatch(["solve", "--config", str(path)])
    assert rc == 2
    assert "pentagon" in capsys.readouterr().err


#: the keys each [domain] kind takes
DOMAIN_KEYS = {"square": (), "disk": ("radius",),
               "rectangle": ("width", "height"), "ellipse": ("a", "b")}


@pytest.mark.parametrize("kind,key", [("square", "radius"),
                                      ("disk", "width"),
                                      ("ellipse", "radius")])
def test_domain_key_of_another_kind_rejected(tmp_path, capsys, kind, key):
    # kind = square with radius = 0.3 used to solve the unit square
    path = tmp_path / "domain.ini"
    path.write_text(f"[domain]\nkind = {kind}\n{key} = 0.3\n"
                    "[grid]\nh = 0.25\n")
    rc = parse_and_dispatch(["stationary", "--config", str(path),
                             "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r} in section [domain] of kind {kind}" in err
    assert not (tmp_path / "stationary.bin").exists()


def test_unknown_scenario_rejected(capsys):
    rc = parse_and_dispatch(["verify", "--scenario", "bogus"])
    assert rc == 2


def test_load_config_roundtrip(config_file):
    problem, grid, audit = load_config(config_file)
    assert problem.weight.kind == "constant"
    assert problem.source.kind == "one"
    assert grid["h"] == pytest.approx(0.125)
    assert grid["T"] == pytest.approx(0.5)
    assert audit["alpha"] == pytest.approx(0.5)


def test_solve_then_audit_and_envelope(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    rc = parse_and_dispatch(["solve", "--config", str(config_file),
                             "--out", str(out), "--format", "csv"])
    assert rc == 0
    summary = json.loads((out / "solve_report.json").read_text())
    assert summary["monotone"] is True
    assert len(summary["files"]) == len(summary["snapshots"])

    rc = parse_and_dispatch(["stationary", "--config", str(config_file),
                             "--out", str(out), "--format", "csv"])
    assert rc == 0
    assert (out / "stationary.csv").exists()

    rc = parse_and_dispatch(["audit", "--config", str(config_file),
                             "--field", str(out / "stationary.csv"),
                             "--out", str(out)])
    assert rc == 0  # sqrt of the torsion function is concave up to tau
    rep = json.loads((out / "audit_report.json").read_text())
    assert rep["min"] >= -rep["tau_audit"]

    rc = parse_and_dispatch(["envelope", "--config", str(config_file),
                             "--field", str(out / "stationary.csv"),
                             "--out", str(out)])
    assert rc == 0
    env = json.loads((out / "envelope_report.json").read_text())
    assert env["bound_ok"] is True


def test_envelope_of_the_zero_initial_snapshot(tmp_path, config_file):
    # solve writes u = 0 at t = 0, an affine field whose lifted samples
    # are flat: its envelope is itself
    out = tmp_path / "out"
    assert parse_and_dispatch(["solve", "--config", str(config_file),
                               "--out", str(out), "--format", "csv"]) == 0
    assert parse_and_dispatch(["envelope", "--config", str(config_file),
                               "--field", str(out / "field_000.csv"),
                               "--out", str(out)]) == 0
    env = json.loads((out / "envelope_report.json").read_text())
    assert env["bound_ok"] is True
    assert env["distance"] == 0.0


def test_solve_binary_format(tmp_path, config_file):
    out = tmp_path / "bin"
    rc = parse_and_dispatch(["solve", "--config", str(config_file),
                             "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "solve_report.json").read_text())
    assert summary["files"][0].endswith(".bin")
    assert (out / summary["files"][0]).exists()


def test_verify_scenario_exit_zero(tmp_path):
    out = tmp_path / "v"
    rc = parse_and_dispatch(["verify", "--scenario", "torsion-square",
                             "--h", "0.125", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "verify_torsion-square.json").read_text())
    assert rep["verdict"] == "pass"


def test_verify_reports_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = parse_and_dispatch(["verify", "--scenario",
                                 "lane-emden-square", "--h", "0.125",
                                 "--out", str(out)])
        assert rc == 0
        outs.append((out / "verify_lane-emden-square.json").read_bytes())
    assert outs[0] == outs[1]


def test_props_exit_zero_and_deterministic(tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        rc = parse_and_dispatch(["props", "--seed", "3", "--draws", "400",
                                 "--out", str(out)])
        assert rc == 0
        outs.append((out / "props_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_props_draws_rejects_digit_separator(tmp_path, capsys):
    # type=int read 1_0 as 10 draws
    rc = parse_and_dispatch(["props", "--draws", "1_0", "--out",
                             str(tmp_path)])
    assert rc == 2
    assert "argument --draws: draws must be a positive integer" in \
        capsys.readouterr().err
    assert not (tmp_path / "props_report.json").exists()


def test_props_seed_is_an_integer_from_zero(tmp_path, capsys):
    # type=int read 2_0 as seed 20, and -3 reached numpy, whose error
    # named no flag
    for value in ("2_0", "-3", "1.5"):
        rc = parse_and_dispatch(["props", "--seed", value, "--draws", "50",
                                 "--out", str(tmp_path)])
        assert rc == 2
        assert "argument --seed: seed must be a non-negative integer" in \
            capsys.readouterr().err
    assert not (tmp_path / "props_report.json").exists()
    assert parse_and_dispatch(["props", "--seed", "0", "--draws", "50",
                               "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "props_report.json").read_text())
    assert report["seed"] == 0


def test_suite_requires_selection(capsys):
    assert parse_and_dispatch(["suite"]) == 2


def test_suite_ids_subset(tmp_path):
    out = tmp_path / "s"
    rc = parse_and_dispatch(["suite", "--ids", "torsion-square",
                             "--h", "0.125", "--out", str(out)])
    assert rc == 0
    merged = json.loads((out / "suite_report.json").read_text())
    assert merged["verdicts"] == {"torsion-square": "pass"}


def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "concavelab.cli"],
                          capture_output=True, text=True)
    # no subcommand -> argparse usage error
    assert proc.returncode == 2


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--rho", "0.1"], "--rho"),
    (["solve", "--theta", "2"], "--theta"),
    (["audit", "--field", "f.csv", "--beta", "1.5"], "--beta"),
    (["solve", "--seed", "3"], "--seed"),
    (["verify", "--scenario", "torsion-square", "--seed", "3"], "--seed"),
    (["solve", "--format", "json"], "--format"),
    (["props", "--alpha", "0.3"], "--alpha"),
    (["props", "--dt", "5"], "--dt"),
    (["props", "--T", "1"], "--T"),
    (["props", "--format", "csv"], "--format"),
    (["solve", "--alpha", "0.3"], "--alpha"),
    (["stationary", "--dt", "0.1"], "--dt"),
    (["audit", "--field", "f.csv", "--T", "1"], "--T"),
    (["audit", "--field", "f.csv", "--format", "csv"], "--format"),
    (["envelope", "--field", "f.csv", "--alpha", "0.5"], "--alpha"),
    (["verify", "--scenario", "torsion-square", "--alpha", "0.5"],
     "--alpha"),
    (["suite", "--all", "--T", "1"], "--T"),
])
def test_removed_flags_rejected(capsys, config_file, argv, flag):
    rc = parse_and_dispatch(argv + ["--config", str(config_file)])
    assert rc == 2
    assert flag in capsys.readouterr().err


def _audit_report(tmp_path, config_file, name, extra=()):
    out = tmp_path / name
    field = tmp_path / "stationary.csv"
    if not field.exists():
        assert parse_and_dispatch(["stationary", "--config",
                                   str(config_file), "--out",
                                   str(tmp_path), "--format", "csv"]) == 0
    rc = parse_and_dispatch(["audit", "--config", str(config_file),
                             "--field", str(field), "--out", str(out),
                             *extra])
    assert rc == 0
    return (out / "audit_report.json").read_bytes()


def test_alpha_auto_resolves_exponent(tmp_path, config_file):
    # torsion: q = 0, gamma = 0, beta = 1, theta = inf give alpha = 1/2
    ref = _audit_report(tmp_path, config_file, "flag05",
                        ("--alpha", "0.5"))
    auto_ini = tmp_path / "auto.ini"
    auto_ini.write_text(CONFIG.replace("alpha = 0.5", "alpha = auto"))
    assert _audit_report(tmp_path, auto_ini, "ini") == ref
    # --alpha auto resolves too, rather than falling back to the
    # config's alpha
    one_ini = tmp_path / "one.ini"
    one_ini.write_text(CONFIG.replace("alpha = 0.5", "alpha = 1"))
    assert _audit_report(tmp_path, one_ini, "flag-over-one",
                         ("--alpha", "auto")) == ref


def test_alpha_auto_needs_sublinear_exponent(tmp_path, capsys):
    path = tmp_path / "linear.ini"
    path.write_text(CONFIG.replace("kind = one", "kind = identity")
                    .replace("alpha = 0.5", "alpha = auto"))
    rc = parse_and_dispatch(["audit", "--config", str(path), "--field",
                             str(tmp_path / "f.csv"), "--out",
                             str(tmp_path)])
    assert rc == 2
    assert "'identity'" in capsys.readouterr().err


def test_audit_report_is_library_audit_of_the_field(tmp_path, config_file):
    # the CLI interpolates u and then transforms, as the library does
    from concavelab import (SamplerConfig, build_discretization,
                            load_field_csv, min_defect)
    from concavelab.audit import FieldEvaluator
    grid = ("--config", str(config_file), "--h", "0.125", "--out",
            str(tmp_path))
    assert parse_and_dispatch(["stationary", *grid, "--format", "csv"]) == 0
    field = tmp_path / "stationary.csv"
    assert parse_and_dispatch(["audit", *grid, "--field", str(field)]) == 0
    problem, _, _ = load_config(config_file)
    f = load_field_csv(build_discretization(problem.domain, 0.125), field)
    want = min_defect(FieldEvaluator(f, 0.5), "space",
                      SamplerConfig(include_infinity=False)).to_json()
    assert (tmp_path / "audit_report.json").read_text() == want


def test_binary_dump_audits_as_csv(tmp_path, config_file):
    # stationary's default binary dump gives the CSV route's reports
    grid = ("--config", str(config_file), "--h", "0.125")
    reports = {}
    for fmt, name in (("binary", "stationary.bin"), ("csv", "stationary.csv")):
        out = tmp_path / fmt
        assert parse_and_dispatch(["stationary", *grid, "--out", str(out),
                                   "--format", fmt]) == 0
        field = str(out / name)
        assert parse_and_dispatch(["audit", *grid, "--out", str(out),
                                   "--field", field]) == 0
        assert parse_and_dispatch(["envelope", *grid, "--out", str(out),
                                   "--field", field]) == 0
        reports[fmt] = [(out / r).read_text() for r in
                        ("audit_report.json", "envelope_report.json")]
    assert reports["binary"] == reports["csv"]


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_envelope_writes_its_field(tmp_path, config_file, fmt):
    # binary is the default format; h = 0.125 gives 49 interior nodes,
    # under the 600 above which the envelope samples the nodes
    ext, _, load = _FORMATS[fmt]
    grid = ("--config", str(config_file), "--h", "0.125",
            "--out", str(tmp_path))
    flags = () if fmt == "binary" else ("--format", fmt)
    assert parse_and_dispatch(["stationary", *grid, *flags]) == 0
    field = tmp_path / f"stationary{ext}"
    assert parse_and_dispatch(["envelope", *grid, *flags,
                               "--field", str(field)]) == 0
    dom = build_discretization(unit_square(), 0.125)
    want = concave_approximation(load(dom, field)).g
    assert np.array_equal(load(dom, tmp_path / f"envelope{ext}").values,
                          want)


def test_envelope_of_a_sampled_field_writes_no_field(tmp_path, config_file):
    # h = 1/32 gives 961 interior nodes: the envelope covers a sample
    grid = ("--config", str(config_file), "--h", "0.03125",
            "--out", str(tmp_path))
    assert parse_and_dispatch(["stationary", *grid]) == 0
    assert parse_and_dispatch(["envelope", *grid, "--field",
                               str(tmp_path / "stationary.bin")]) == 0
    assert (tmp_path / "envelope_report.json").exists()
    assert not (tmp_path / "envelope.bin").exists()


@pytest.mark.parametrize("value", ["zro", "explicit"])
def test_source_u0_key_rejected(tmp_path, capsys, config_file, value):
    # the initial data is zero unless given as values: the key is gone,
    # and a typo in it must not pass for zero data
    config_file.write_text(CONFIG.replace(
        "kind = one", f"kind = power_q\nq = 0.5\nu0 = {value}"))
    rc = parse_and_dispatch(["solve", "--config", str(config_file),
                             "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'u0' in section [source]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "solve_report.json").exists()


@pytest.mark.parametrize("damage", ["truncate", "grid"])
def test_audit_of_bad_binary_field_is_usage_error(tmp_path, config_file,
                                                  capsys, damage):
    grid = ("--config", str(config_file), "--out", str(tmp_path))
    assert parse_and_dispatch(["stationary", *grid, "--h", "0.125"]) == 0
    field = tmp_path / "stationary.bin"
    if damage == "truncate":
        field.write_bytes(field.read_bytes()[:-1])
        h = "0.125"
    else:
        h = "0.0625"  # the dump is for h = 1/8
    capsys.readouterr()
    rc = parse_and_dispatch(["audit", *grid, "--h", h, "--field",
                             str(field)])
    assert rc == 2
    assert f"{field}: " in capsys.readouterr().err


def test_audit_of_empty_field_is_usage_error(tmp_path, config_file,
                                             capsys):
    field = tmp_path / "empty.csv"
    field.write_text("")
    rc = parse_and_dispatch(["audit", "--config", str(config_file),
                             "--field", str(field), "--out",
                             str(tmp_path)])
    assert rc == 2
    assert "empty.csv: empty file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "", "nan", " 1_0 "])
def test_audit_of_bad_csv_value_is_usage_error(tmp_path, config_file,
                                               capsys, value):
    grid = ("--config", str(config_file), "--out", str(tmp_path))
    assert parse_and_dispatch(["stationary", *grid, "--format", "csv"]) == 0
    field = tmp_path / "stationary.csv"
    lines = field.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
    field.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = parse_and_dispatch(["audit", *grid, "--field", str(field)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{field}: row 2 " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["props", "--h", "0.1"],
    ["verify", "--sc", "torsion-square"],
])
def test_flag_prefixes_not_expanded(capsys, argv):
    # --h is not a prefix of --help, nor --sc of --scenario
    assert parse_and_dispatch(argv) == 2
    assert argv[1] in capsys.readouterr().err


def _readme_config(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block.group(1))
    return path


def _stationary_nodes(tmp_path, config, name, extra=()):
    out = tmp_path / name
    assert parse_and_dispatch(["stationary", "--config", str(config),
                               "--out", str(out), "--format", "csv",
                               *extra]) == 0
    lines = (out / "stationary.csv").read_text().splitlines()
    return len(lines) - 1  # one header line, then a line per node


def test_grid_h_from_config_and_flag_override(tmp_path):
    config = _readme_config(tmp_path)
    # the README config has h = 0.125: 7 x 7 interior nodes of the square
    assert _stationary_nodes(tmp_path, config, "ini") == 49
    assert _stationary_nodes(tmp_path, config, "flag",
                             ("--h", "0.0625")) == 225


@pytest.mark.parametrize("text,named", [
    ("[domain]\nkind = square\n[mesh]\nh = 0.1\n", "[mesh]"),
    ("[grid]\nh = 0.125\nstep = 0.1\n", "'step' in section [grid]"),
    ("[audit]\nalpha = 0.5\nseed = 3\n", "'seed' in section [audit]"),
    ("h = 0.125\n", "no section headers"),
    ("[grid]\nh = 0.125\nsnapshots = 0\n", "grid key snapshots"),
    ("[grid]\nh = 0.125\nsnapshots = -3\n", "grid key snapshots"),
    ("[grid]\nh = 0.125\nsnapshots = 2.5\n", "grid key snapshots"),
    ("[grid]\nh = 0.125\nT = 0\n", "grid key T"),
    ("[grid]\nh = 0.125\nT = -1\n", "grid key T"),
    ("[grid]\nh = 0.125\nT = inf\n", "grid key T"),
    ("[grid]\nh = 0.125\nT = nan\n", "grid key T"),
])
def test_bad_config_is_usage_error(tmp_path, capsys, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    rc = parse_and_dispatch(["stationary", "--config", str(path),
                             "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["mode = space", "mode = spacetime",
                                  "include_infinity = false",
                                  "include_infinity = true",
                                  "include_infinity = yes",
                                  "include_infinity = maybe"])
def test_removed_audit_keys_rejected(tmp_path, capsys, line):
    # a field dump has one time slice, so the audit of one is a space
    # audit without t = infinity; the keys that could only say so are
    # gone
    grid = ("--h", "0.125", "--out", str(tmp_path))
    config = tmp_path / "torsion.ini"
    config.write_text(CONFIG)
    assert parse_and_dispatch(["stationary", "--config", str(config),
                               *grid, "--format", "csv"]) == 0
    config.write_text(CONFIG + line + "\n")
    rc = parse_and_dispatch(["audit", "--config", str(config), *grid,
                             "--field", str(tmp_path / "stationary.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown key {line.split()[0]!r} in section [audit]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "audit_report.json").exists()


def test_config_alpha_out_of_range_names_the_key(tmp_path, capsys):
    # the message used to be "alpha must lie in [0, 1]", without the
    # section or the key
    path = tmp_path / "alpha.ini"
    path.write_text(CONFIG.replace("alpha = 0.5", "alpha = 1.5"))
    rc = parse_and_dispatch(["audit", "--config", str(path), "--field",
                             str(tmp_path / "f.csv"), "--out",
                             str(tmp_path)])
    assert rc == 2
    assert ("[audit] alpha must be a number in [0, 1] or 'auto', got "
            "'1.5'") in capsys.readouterr().err


def test_alpha_flag_error_says_what_alpha_takes(tmp_path, capsys,
                                                config_file):
    # the message used to be "invalid _alpha_arg value: 'abc'"
    rc = parse_and_dispatch(["audit", "--config", str(config_file),
                             "--field", str(tmp_path / "f.csv"), "--out",
                             str(tmp_path), "--alpha", "abc"])
    assert rc == 2
    assert ("argument --alpha: alpha must be a number in [0, 1] or "
            "'auto', got 'abc'") in capsys.readouterr().err


@pytest.mark.parametrize("kind,gamma", [("constant", "0.5"),
                                        ("ramp_bump_perturbed", "0.5"),
                                        ("smoothed_bang_bang", "0.5"),
                                        ("separable_power_time", "-0.5")])
def test_gamma_a_weight_cannot_honor_is_usage_error(tmp_path, capsys, kind,
                                                    gamma):
    # these weights have no factor t^gamma, and t^gamma with gamma < 0
    # is not read either; the seed's barrier used to read gamma anyway
    path = tmp_path / "gamma.ini"
    path.write_text(f"[weight]\nkind = {kind}\ngamma = {gamma}\n"
                    "[grid]\nh = 0.125\nT = 0.5\nsnapshots = 2\n")
    rc = parse_and_dispatch(["solve", "--config", str(path), "--out",
                             str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"weight {kind!r} with gamma = {float(gamma)}" in err
    assert not (tmp_path / "solve_report.json").exists()


def test_unread_weight_and_source_keys_are_usage_errors(tmp_path, capsys):
    # a constant weight reads neither eps nor omega, and the source one
    # reads no q: the keys would change nothing, so they are refused
    path = tmp_path / "unread.ini"
    path.write_text("[weight]\nkind = constant\neps = 0.5\nomega = 3\n"
                    "[source]\nkind = one\nq = 0.3\n[grid]\nh = 0.25\n")
    rc = parse_and_dispatch(["stationary", "--config", str(path), "--out",
                             str(tmp_path)])
    assert rc == 2
    assert "weight 'constant' with omega = 3.0" in capsys.readouterr().err
    assert not (tmp_path / "stationary.bin").exists()


@pytest.mark.parametrize("source", ["kind = power_q\nq = 1.5",
                                    "kind = power_q\nq = 1.0",
                                    "kind = power_sum\np = 1.5\nq = 2"])
def test_superlinear_power_sources_solve(tmp_path, capsys, source):
    # b(., 0) = 0, so the run is seeded at t0; a superlinear exponent has
    # no interior barrier, and the seed is 1e-8 phi1 instead of an exit 2
    path = tmp_path / "superlinear.ini"
    path.write_text(f"[domain]\nkind = square\n[source]\n{source}\n"
                    "[grid]\nh = 0.25\n")
    assert parse_and_dispatch(["solve", "--config", str(path), "--out",
                               str(tmp_path)]) == 0
    assert "barrier" not in capsys.readouterr().err
    assert (tmp_path / "solve_report.json").exists()


def test_beta_needs_alpha_auto(tmp_path, capsys):
    # beta rescales time only in the exponent formula of alpha = auto;
    # with a numeric alpha it would change nothing, so it is refused
    config = _readme_config(tmp_path)
    assert parse_and_dispatch(["stationary", "--config", str(config),
                               "--out", str(tmp_path)]) == 0
    field = str(tmp_path / "stationary.bin")
    for alpha, flag, refused in (("0.5", (), True), ("auto", (), False),
                                 ("auto", ("--alpha", "0.5"), True)):
        path = tmp_path / f"beta-{alpha}-{len(flag)}.ini"
        path.write_text(config.read_text().replace(
            "alpha = 0.5", f"alpha = {alpha}").replace(
            "beta = 1.0", "beta = 1.7"))
        rc = parse_and_dispatch(["audit", "--config", str(path), "--field",
                                 field, "--out", str(tmp_path), *flag])
        err = capsys.readouterr().err
        assert (rc == 2) == refused, (alpha, flag, err)
        assert ("[audit] beta = 1.7 needs alpha = auto" in err) == refused
    # every command that reads the config accepts its [audit] section
    for argv in (["solve"], ["stationary"], ["envelope", "--field", field],
                 ["audit", "--field", field]):
        assert parse_and_dispatch([*argv, "--config", str(config), "--out",
                                   str(tmp_path / "shared")]) in (0, 1), argv


def _grid_value(valid):
    """Text of a [grid] value: a number from valid, a malformed or
    out-of-range one, or None to leave the key out."""
    return st.one_of(st.none(), valid.map(repr), st.sampled_from(
        ["0", "-0.5", "nan", "inf", "-inf", "1e400", "x", ""]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.sampled_from([0.5, 0.25, 0.2]),
       dt=_grid_value(st.floats(0.02, 2.0) | st.just(1e-300)),
       T=_grid_value(st.floats(-1.0, 2.0) | st.just(1e300)),
       snapshots=st.one_of(st.none(), st.integers(-2, 12).map(str),
                           st.sampled_from(["2.5", "1e1", "x", ""])))
def test_solve_grid_values_exit_cleanly(h, dt, T, snapshots):
    # whatever [grid] holds at a coarse h, solve succeeds or names the
    # bad value
    text = f"[grid]\nh = {h}\n"
    for key, value in (("dt", dt), ("T", T), ("snapshots", snapshots)):
        if value is not None:
            text += f"{key} = {value}\n"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "grid.ini"
        config.write_text(text)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = parse_and_dispatch(["solve", "--config", str(config),
                                     "--out", str(Path(tmp) / "out")])
    assert rc in (0, 2), text
    assert "Traceback" not in err.getvalue()
    assert (rc == 2) == bool(err.getvalue()), text


#: the numeric keys of the sections that Problem and the audit read
NUMERIC_KEYS = [("domain", k) for k in ("radius", "width", "height", "a",
                                        "b")] \
    + [("weight", k) for k in ("c", "gamma", "omega", "eps", "a1", "a2",
                               "eta", "theta")] \
    + [("source", "q"), ("source", "p"), ("audit", "alpha"),
       ("audit", "beta")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sec,key", NUMERIC_KEYS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_non_finite_config_number_is_usage_error(tmp_path, capsys, sec,
                                                 key, value):
    # every numeric key is read, a [domain] key under its own kind and
    # a [weight] or [source] key whether or not its kind uses it; inf
    # is the default of [weight] theta and stays allowed there
    kind = "".join(f"kind = {name}\n" for name, keys in DOMAIN_KEYS.items()
                   if sec == "domain" and key in keys)
    path = tmp_path / "bad.ini"
    path.write_text(f"[{sec}]\n{kind}{key} = {value}\n[grid]\nh = 0.125\n")
    rc = parse_and_dispatch(["stationary", "--config", str(path),
                             "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if (key, value) == ("theta", "inf"):
        assert rc == 0, err
        return
    assert rc == 2
    if key == "alpha":  # read by the parser of --alpha
        assert (f"[audit] alpha must be a number in [0, 1] or 'auto', "
                f"got {value!r}") in err
    else:
        assert f"[{sec}] {key} = {value} is not a finite number" in err
    assert not (tmp_path / "stationary.bin").exists()


@pytest.mark.parametrize("word,rc_want", [("yes", 0), ("on", 0), ("1", 0),
                                          ("True", 0), ("no", 2),
                                          ("maybe", 2)])
def test_truncate_reads_boolean_words(tmp_path, capsys, word, rc_want):
    # a weight growing in t has a stationary slice only when truncated;
    # "yes" used to be read as false
    path = tmp_path / "grow.ini"
    path.write_text("[weight]\nkind = separable_power_time\ngamma = 0.5\n"
                    f"truncate = {word}\n[grid]\nh = 0.125\n")
    rc = parse_and_dispatch(["stationary", "--config", str(path),
                             "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == rc_want, err
    if word == "maybe":
        assert "[weight] truncate = maybe is not a boolean" in err
    elif rc_want == 2:
        assert "time-truncation flag" in err


def _cli_subprocess(args, tmp_path):
    """concavelab run in a child process that is killed after 120 s, so
    that a run without end fails the test instead of hanging it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "concavelab.cli", *args,
                           "--out", str(tmp_path)], env=env, timeout=120,
                          capture_output=True, text=True)


@pytest.mark.parametrize("grid", ["dt = 1e-300", "T = 1e300"])
def test_solve_step_count_is_capped(tmp_path, grid):
    path = tmp_path / "long.ini"
    path.write_text(f"[grid]\nh = 0.25\n{grid}\n")
    proc = _cli_subprocess(["solve", "--config", str(path)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "dt = " in proc.stderr and "T = " in proc.stderr
    assert "above the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_step_count_is_capped(tmp_path):
    proc = _cli_subprocess(["verify", "--scenario", "torsion-square",
                            "--dt", "1e-300"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "dt = 1e-300" in proc.stderr and "above the cap" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "stationary"])
def test_node_count_is_capped(tmp_path, command):
    # a 1000001 x 1000001 grid would need terabytes: refused, not built
    path = tmp_path / "fine.ini"
    path.write_text("[grid]\nh = 1e-6\n")
    args = (["verify", "--scenario", "torsion-square", "--h", "1e-6"]
            if command == "verify" else ["stationary", "--config", str(path)])
    proc = _cli_subprocess(args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "h = 1e-06 gives a 1000001 x 1000001 grid" in proc.stderr
    assert "above the cap" in proc.stderr and "Traceback" not in proc.stderr


def test_memory_error_is_usage_error(monkeypatch, capsys, config_file):
    # an input too large for memory exits 2 with numpy's message
    def too_large(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(cli_mod._HANDLERS, "solve", too_large)
    rc = parse_and_dispatch(["solve", "--config", str(config_file)])
    assert rc == 2
    assert "error: Unable to allocate 7.28 TiB" in capsys.readouterr().err


#: a weight whose mollifying band has width 0: a = 0/0 on the midline
BANG_BANG_ETA0 = """\
[weight]
kind = smoothed_bang_bang
eta = 0

[grid]
h = 0.25
T = 0.5
snapshots = 2
"""


@pytest.mark.parametrize("command", ["solve", "stationary"])
def test_nan_weight_is_usage_error(tmp_path, capsys, command):
    # the NaN weight used to pass the solve's residual check, so the
    # run wrote NaN fields and exited 0
    config = tmp_path / "eta0.ini"
    config.write_text(BANG_BANG_ETA0)
    rc = parse_and_dispatch([command, "--config", str(config),
                             "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "direct solve residual" in err
    assert "Traceback" not in err


def _dumped_values(out: Path) -> list:
    """The value column of every binary field dump in out."""
    return [np.frombuffer(path.read_bytes(), "<f8", offset=32)[2::3]
            for path in sorted(out.glob("*.bin"))]


#: a [weight] or [source] number: absent, a chosen edge value or any
_NUMBER = st.one_of(st.none(), st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0,
                                                2.0]), st.floats(-3.0, 3.0))
_WEIGHT_KEYS = ("c", "gamma", "omega", "eps", "a1", "a2", "eta", "theta")
_CLASSES = {"weight": Weight, "source": SourceTerm}
#: in about a quarter of the draws, one key that the kind does not read:
#: (section, index among the kind's unread keys, value)
_STRAY = st.one_of(st.none(), st.none(), st.none(), st.tuples(
    st.sampled_from(sorted(_CLASSES)), st.integers(0, 7),
    st.sampled_from([0.0, 1.0, 0.0625, 0.5, math.nan])
    | st.floats(-3.0, 3.0)))


def _unset(keys, **values):
    return {key: values.get(key) for key in keys}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example("solve", "smoothed_bang_bang", _unset(_WEIGHT_KEYS, eta=0.0),
         "one", _unset("qp"), None)
@example("stationary", "smoothed_bang_bang", _unset(_WEIGHT_KEYS, eta=0.0),
         "one", _unset("qp"), None)
@example("solve", "constant", _unset(_WEIGHT_KEYS), "log1p_q",
         _unset("qp", q=-1.0), None)
@example("stationary", "constant", _unset(_WEIGHT_KEYS), "one",
         _unset("qp"), ("weight", 2, math.nan))
@example("solve", "ramp_bump_perturbed", _unset(_WEIGHT_KEYS, eps=0.5),
         "one", _unset("qp"), ("source", 0, 0.3))
@given(command=st.sampled_from(["solve", "stationary"]),
       weight=st.sampled_from(sorted(Weight.KINDS)),
       weight_values=st.fixed_dictionaries(
           {key: _NUMBER for key in _WEIGHT_KEYS}),
       source=st.sampled_from(sorted(SourceTerm.KINDS)),
       source_values=st.fixed_dictionaries({"q": _NUMBER, "p": _NUMBER}),
       stray=_STRAY)
def test_weight_and_source_values_exit_cleanly(command, weight,
                                               weight_values, source,
                                               source_values, stray):
    # whatever [weight] and [source] hold of the keys their kinds read,
    # at a coarse h, solve and stationary write finite fields or name
    # what failed; a key the kind does not read, set to other than its
    # default, exits 2, names the key and writes no field
    kinds = {"weight": weight, "source": source}
    keys = {sec: {key: value for key, value in values.items()
                  if key in _CLASSES[sec].KINDS[kinds[sec]]
                  and value is not None}
            for sec, values in (("weight", weight_values),
                                ("source", source_values))}
    named = None
    if stray is not None:
        sec, index, value = stray
        cls = _CLASSES[sec]
        unread = [f for f in dataclasses.fields(cls)[1:]
                  if f.name not in cls.KINDS[kinds[sec]]]
        if unread:
            key = unread[index % len(unread)]
            keys[sec][key.name] = value
            if not value == key.default:
                named = key.name
    text = "[grid]\nh = 0.25\nT = 0.5\nsnapshots = 2\n" + "".join(
        f"[{sec}]\nkind = {kinds[sec]}\n" + "".join(
            f"{key} = {value!r}\n" for key, value in values.items())
        for sec, values in keys.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "problem.ini", Path(tmp) / "out"
        config.write_text(text)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = parse_and_dispatch([command, "--config", str(config),
                                     "--out", str(out)])
        fields = _dumped_values(out)
    assert rc in (0, 2), text
    assert "Traceback" not in err.getvalue()
    if named is not None:
        assert rc == 2, text
        assert f"{named} = " in err.getvalue(), text
        assert fields == [], text
    if rc == 0:
        assert len(fields) == (3 if command == "solve" else 1), text
        assert all(np.all(np.isfinite(v)) for v in fields), text
    else:
        assert "error: " in err.getvalue(), text


# ---------------------------------------------------------------------------
# numbers with Python's digit separator
# ---------------------------------------------------------------------------

def test_digit_separator_in_config_number_is_usage_error(tmp_path, capsys):
    # float() reads 1_0 as 10, so c = 1_0 used to run with c = 10
    path = tmp_path / "sep.ini"
    path.write_text("[weight]\nc = 1_0\n[grid]\nh = 0.25\n")
    rc = parse_and_dispatch(["stationary", "--config", str(path),
                             "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[weight] c = 1_0 is not a finite number" in err
    assert not (tmp_path / "stationary.bin").exists()


@pytest.mark.parametrize("flag,value", [("--h", "2_5e-1"), ("--dt", "1_0"),
                                        ("--T", "0_5"), ("--alpha", "0.2_5")])
def test_digit_separator_in_flag_is_usage_error(tmp_path, capsys,
                                                config_file, flag, value):
    # --h 2_5e-1 used to be read as h = 2.5
    argv = ["solve", "--config", str(config_file), "--out", str(tmp_path)]
    if flag == "--alpha":
        argv = ["audit", *argv[1:], "--field", str(tmp_path / "x.csv")]
    rc = parse_and_dispatch(argv + [flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and value in err


def _numeral(lo, hi):
    """Config text of a number: one in [lo, hi], bare or with spaces
    around it, or an edge case, or one with a digit separator."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.floats(lo, hi).map(lambda v: f"  {v!r}\t"),
        st.sampled_from(["0", "-1", "nan", "inf", "x", "", "1e400", "1_0",
                         "0_5", "2_5e-1", "1__0", "_1", "1_", " 1_0 "]))


def _run_quietly(argv):
    """(exit code, stderr) of parse_and_dispatch(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = parse_and_dispatch(argv)
    return rc, err.getvalue()


def _domain_section(kind):
    """(kind, [domain] values): numbers for some of the kind's own keys
    and, at times, one key of another kind, written before them."""
    own = DOMAIN_KEYS.get(kind, ())
    other = [key for keys in DOMAIN_KEYS.values() for key in keys
             if key not in own]
    return st.tuples(st.just(kind), st.one_of(
        st.just({}), st.sampled_from(other).map(lambda key: {key: "1"})),
        st.fixed_dictionaries({}, optional={
            key: _numeral(0.3, 2) for key in own})).map(
        lambda t: (t[0], {**t[1], **t[2]}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example("audit", ("rectangle", {"width": "1_0"}), {"alpha": " 0_5 "})
@example("envelope", ("disk", {"radius": " 1 "}), {"beta": "1_0"})
@example("audit", ("ellipse", {"radius": "1", "a": "1_0"}), {})
@given(command=st.sampled_from(["audit", "envelope"]),
       section=st.sampled_from([*DOMAIN_KEYS, "x"]).flatmap(_domain_section),
       audit=st.fixed_dictionaries({}, optional={
           "alpha": _numeral(0, 1) | st.just("auto"),
           "beta": _numeral(1, 2)}))
def test_domain_and_audit_values_exit_cleanly(command, section, audit):
    # whatever [domain] and [audit] hold at a coarse h, stationary and
    # then audit or envelope of its field exit 0, 1 or 2 and never with
    # a traceback; a number with a digit separator is never read, and a
    # key of another domain kind is named
    kind, domain = section
    text = f"[grid]\nh = 0.25\n[domain]\nkind = {kind}\n" + "".join(
        f"{key} = {value}\n" for key, value in domain.items()) \
        + "[audit]\n" + "".join(f"{key} = {value}\n"
                                 for key, value in audit.items())
    separator = any("_" in value for value in (*domain.values(),
                                               *audit.values()))
    other = [key for key in domain if key not in DOMAIN_KEYS.get(kind, ())]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out"
        config.write_text(text)
        rcs = [_run_quietly(["stationary", "--config", str(config),
                             "--out", str(out), "--format", "csv"]),
               _run_quietly([command, "--config", str(config), "--out",
                             str(out), "--field",
                             str(out / "stationary.csv")])]
    for rc, err in rcs:
        assert rc in (0, 1, 2), text
        assert "Traceback" not in err
        assert (rc == 2) == ("error: " in err), text
    if separator:
        assert rcs[1][0] == 2, text
    if other and kind in DOMAIN_KEYS:
        for rc, err in rcs:
            assert rc == 2 and f"unknown key {other[0]!r}" in err, text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example("torsion-square", " 0_25 ", None, None)
@example("ramp-eigen-eps05", "0.25", "1_0e-2", " 0.5 ")
@given(scenario=st.sampled_from(["torsion-square", "lane-emden-disk",
                                 "eigen-square", "kennington-square",
                                 "ramp-le-eps05", "ramp-eigen-eps05"]),
       h=st.sampled_from(["0.25", " 0.25 ", "2.5e-1", "0.2"])
       | st.sampled_from(["2_5e-1", "0_25", " 0_25 ", "0", "x"]),
       dt=st.none() | st.sampled_from(["0.1", " 0.25 ", "2e-2"])
       | st.sampled_from(["1_0e-2", "0_1", "inf", "x"]),
       T=st.none() | st.sampled_from(["0.5", " 1 ", "1e0"])
       | st.sampled_from(["1_0", "0_5", "-1", "nan"]))
def test_verify_values_exit_cleanly(scenario, h, dt, T):
    # verify at a coarse h exits 0, 1 or 2, never with a traceback, and
    # rejects every flag number with a digit separator
    argv = ["verify", "--scenario", scenario, "--h", h]
    for flag, value in (("--dt", dt), ("--T", T)):
        if value is not None:
            argv += [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run_quietly(argv + ["--out", tmp])
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err
    assert (rc == 2) == ("error: " in err), argv
    if any("_" in value for value in argv[4::2]):
        assert rc == 2 and "argument --" in err, argv


@pytest.mark.filterwarnings("ignore:.*not strongly convex")
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example(["torsion-square"], "1_0", None)
@example(["lane-emden-disk", "ramp-le-eps05"], "0.25", "inf")
@given(ids=st.lists(st.sampled_from(scenario_ids()), min_size=1,
                    max_size=2, unique=True),
       h=st.sampled_from(["0.25", " 0.25 ", "0.2", "0.125", "2"])
       | st.sampled_from(["1_0", "0_25", "inf", "nan", "-1", "0", "x"]),
       dt=st.none() | st.sampled_from(["0.1", " 0.25 ", "1"])
       | st.sampled_from(["1_0", "inf", "nan", "-1", "0"]))
def test_suite_values_exit_cleanly(ids, h, dt):
    # suite on one or two catalog ids at h >= 1/8 exits 0, 1 or 2, never
    # with a traceback, and rejects every flag number with a digit
    # separator
    argv = ["suite", "--ids", *ids, "--h", h]
    if dt is not None:
        argv += ["--dt", dt]
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run_quietly(argv + ["--out", tmp])
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err
    assert (rc == 2) == ("error: " in err), argv
    if "_" in h or "_" in (dt or ""):
        assert rc == 2 and "argument --" in err, argv
