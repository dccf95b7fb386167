import json
import re
from pathlib import Path

import pytest

from concavelab.cli import load_config, parse_and_dispatch

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
mode = space
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


def test_audit_of_empty_field_is_usage_error(tmp_path, config_file,
                                             capsys):
    field = tmp_path / "empty.csv"
    field.write_text("")
    rc = parse_and_dispatch(["audit", "--config", str(config_file),
                             "--field", str(field), "--out",
                             str(tmp_path)])
    assert rc == 2
    assert "empty.csv: empty file" in capsys.readouterr().err


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
