import functools
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavelab import (Field, Problem, SourceTerm, Weight,
                        build_discretization, check_hypotheses,
                        convex_polygon, disk,
                        dump_field_binary, dump_field_csv, ellipse,
                        load_field_csv, principal_eigenpair,
                        rectangle, solve_trajectory, unit_square)
import concavelab.operators as operators_mod
from concavelab.parabolic import (advance, load_field_binary,
                                  quadratic_snapshots, seed_from_subsolution)
from concavelab.scenarios import build_problem, get_scenario, run_scenario


@pytest.fixture(scope="module")
def square16():
    return build_discretization(unit_square(), 1.0 / 16.0)


def _heat_problem(dom, T):
    # zero reaction term: constant weight 0 kills the source
    x, y = dom.interior_points.T
    u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
    return Problem(domain=unit_square(),
                   weight=Weight(kind="constant", c=0.0),
                   source=SourceTerm(kind="one"),
                   u0_values=u0, horizon=T)


def test_heat_decay_coarse(square16):
    # sin(pi x) sin(pi y) decays by e^{-2 pi^2 t}
    dom = square16
    T = 0.05
    problem = _heat_problem(dom, T)
    n = max(int(round(T / (2.0 * dom.h ** 2))), 1)
    dt = T / n  # ~2h^2, adjusted to land exactly on T
    u = problem.u0_values
    t = 0.0
    for _ in range(n):
        u = advance(problem, dom, u, t, dt)
        t += dt
    exact = math.exp(-2 * math.pi ** 2 * T) * problem.u0_values
    assert np.max(np.abs(u - exact)) < 0.05


def test_quadratic_snapshots_grading():
    s = quadratic_snapshots(2.0, 8)
    assert s[-1] == pytest.approx(2.0)
    assert np.all(np.diff(s) > 0)
    assert np.all(np.diff(np.diff(s)) > 0)  # graded toward t = 0


class _Seeded(Exception):
    pass


@pytest.mark.parametrize("dt, T, count, binding", [
    (1e-4, 1.0, 4, 0),    # 10 dt = 1e-3 < T/100 = 1e-2 < s1/2 = 1/32
    (1e-2, 1.0, 4, 1),    # T/100 = 1e-2 < s1/2 = 1/32 < 10 dt = 0.1
    (1e-2, 1.0, 16, 2)],  # s1/2 = 1/512 < T/100 < 10 dt
    ids=["10dt", "T/100", "s1/2"])
def test_seed_time_is_the_least_of_three(square16, monkeypatch, dt, T,
                                         count, binding):
    # t0 = min(10 dt, T/100, s1/2), s1 the first snapshot; the stand-in
    # seed records t0 and stops the run before it steps
    seen = []

    def record(problem, dom, t0, eig, hyp):
        seen.append(t0)
        raise _Seeded

    monkeypatch.setattr("concavelab.parabolic.seed_from_subsolution",
                        record)
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_q", q=0.5), horizon=T)
    with pytest.raises(_Seeded):
        solve_trajectory(p, square16, count, dt)
    terms = [10 * dt, 0.01 * T, 0.5 * float(quadratic_snapshots(T, count)[0])]
    assert seen == [terms[binding]]
    assert all(terms[binding] < x for k, x in enumerate(terms)
               if k != binding)


@pytest.mark.parametrize("quantity, value", [
    ("horizon", math.nan), ("horizon", math.inf), ("horizon", 0.0),
    ("horizon", 5e-324),  # positive, but its snapshot times round to 0
    ("horizon", 1e-320),  # distinct snapshot times, but s1 / 512 is 0
    ("dt", math.nan), ("dt", math.inf), ("dt", 0.0), ("dt", -0.01),
    ("u0_values", math.nan), ("u0_values", math.inf),
    ("count", 0), ("count", -1)])
@pytest.mark.filterwarnings("error")  # rejected before numpy warns
def test_solve_trajectory_rejects_bad_input(square16, quantity, value):
    # a seeded source: a bad dt must be named before the barrier sees it
    kw = {"horizon": 1.0, "dt": None, "count": 4, "u0_values": None}
    if quantity == "u0_values":
        kw["u0_values"] = np.full(square16.n_interior, 0.1)
        kw["u0_values"][7] = value
    else:
        kw[quantity] = value
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_q", q=0.5),
                u0_values=kw["u0_values"], horizon=kw["horizon"])
    match = {"horizon": "^horizon T",
             "dt": "^dt must be positive and finite",
             "u0_values": "^initial data u0_values must be finite",
             "count": "^snapshot count must be at least 1"}[quantity]
    with pytest.raises(ValueError, match=match):
        solve_trajectory(p, square16, kw["count"], kw["dt"])


@pytest.fixture(scope="module")
def square32():
    return build_discretization(unit_square(), 1.0 / 32.0)


def _stepped(monkeypatch, dom, source, count, dt=None):
    """The trajectory on the unit square (c = 1, T = 2) and its steps as
    an array of (start, length) rows, recorded around advance."""
    steps, step = [], advance

    def record(problem, dom, u, t, dt):
        steps.append((t, dt))
        return step(problem, dom, u, t, dt)

    monkeypatch.setattr("concavelab.parabolic.advance", record)
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=source, horizon=2.0)
    return solve_trajectory(p, dom, count, dt), np.array(steps)


@pytest.mark.parametrize("source", [SourceTerm("one"),
                                    SourceTerm("power_q", q=0.5)],
                         ids=["from-zero", "seeded"])
def test_steps_stay_under_the_ladder_bound(monkeypatch, square32, source):
    # after the first interval every step is at most min(dt/4, t/32), t
    # the interval's start; in a seeded first interval at most t0/64
    traj, steps = _stepped(monkeypatch, square32, source, 24)
    k = np.searchsorted(traj.times, steps[:, 0], side="right") - 1
    start, later = traj.times[k], k > 0
    bound = np.minimum(square32.h / 4, start / 32) * (1 + 1e-12)
    assert np.all(steps[later, 1] <= bound[later])
    if source.kind == "power_q":
        t0 = steps[0, 0]
        assert t0 > 0
        assert np.all(steps[~later, 1] <= t0 / 64 * (1 + 1e-12))
    # a handful of step sizes, each taken in one run of steps
    sizes = steps[np.flatnonzero(np.diff(steps[:, 1], prepend=0.0)), 1]
    assert len(sizes) == len(set(sizes.tolist())) <= 12


def test_from_zero_run_takes_512_steps_to_s1(monkeypatch, square32):
    traj, steps = _stepped(monkeypatch, square32, SourceTerm("one"), 24)
    s1 = float(quadratic_snapshots(2.0, 24)[0])
    first = steps[steps[:, 0] < s1]
    assert traj.times[1] == s1 and len(first) == 512
    assert np.all(first[:, 1] == s1 / 512)
    assert np.array_equal(first[:, 0], np.arange(512) * (s1 / 512))


@pytest.mark.parametrize("count, dt", [(24, None), (12, 0.1), (200, 1.0)],
                         ids=["catalog", "coarse-dt", "dense-snapshots"])
def test_snapshots_lie_within_a_step_of_their_targets(monkeypatch,
                                                     square32, count, dt):
    # the last lands on T; snapshots denser than t/32 still increase
    traj, steps = _stepped(monkeypatch, square32, SourceTerm("one"), count,
                           dt)
    times, target = traj.times, quadratic_snapshots(2.0, count)
    assert times[-1] == 2.0 and np.all(np.diff(times) > 0)
    k = np.searchsorted(times, steps[:, 0], side="right") - 1
    longest = np.zeros(count)
    np.maximum.at(longest, k, steps[:, 1])
    assert np.all(np.abs(times[1:] - target) <= longest)


def test_step_cap_counts_the_steps_taken(monkeypatch, square32):
    # the MAX_STEPS pre-count is the plan the loop runs, step for step
    source = SourceTerm("power_q", q=0.5)
    _, steps = _stepped(monkeypatch, square32, source, 24)
    monkeypatch.setattr("concavelab.parabolic.MAX_STEPS", len(steps))
    assert len(_stepped(monkeypatch, square32, source, 24)[1]) == len(steps)
    monkeypatch.setattr("concavelab.parabolic.MAX_STEPS", len(steps) - 1)
    with pytest.raises(ValueError, match="above the cap"):
        _stepped(monkeypatch, square32, source, 24)


def test_disk_trajectory_factors_few_step_sizes(monkeypatch):
    # one shifted LU per ladder level, not one per snapshot interval
    calls, factor = [], operators_mod.splu
    monkeypatch.setattr(operators_mod, "splu",
                        lambda *a, **k: calls.append(1) or factor(*a, **k))
    rep = run_scenario(get_scenario("lane-emden-disk"), h=1.0 / 32.0)
    assert rep.verdict == "pass"
    assert 0 < len(calls) <= 12


def test_torsion_trajectory_monotone(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=2.0)
    traj = solve_trajectory(p, square16, 10)
    assert traj.monotone
    assert traj.times[0] == 0.0
    assert np.all(traj.fields[0] == 0.0)
    # approaches the stationary torsion sup norm ~0.0737 at the center
    assert float(np.max(traj.fields[-1])) == pytest.approx(0.0737, abs=0.004)


def test_subsolution_seeded_branch_grows(square16):
    # f(s) = s^q with u0 = 0 must select the positive branch
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_q", q=0.5), horizon=2.0)
    traj = solve_trajectory(p, square16, 10)
    assert traj.monotone
    assert float(np.max(traj.fields[-1])) > 1e-3


def _zero_data_trajectory(dom, source):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=source, horizon=1.0)
    return solve_trajectory(p, dom, 4)


def test_log1p_source_seeded_from_zero_data(square16):
    # b(., 0) = 0, so zero data is a solution: the trajectory is seeded
    traj = _zero_data_trajectory(square16, SourceTerm("log1p_q", q=0.5))
    assert np.all(traj.fields[-1] > 0)


@pytest.mark.parametrize("source", [SourceTerm("power_sum", q=-0.5, p=0.5),
                                    SourceTerm("log1p_q", q=-1.0)],
                         ids=lambda s: s.kind)
def test_source_not_finite_at_zero_is_seeded(square16, source):
    # b(., 0) is inf or NaN: zero has no first step, so it is seeded too
    traj = _zero_data_trajectory(square16, source)
    assert all(np.all(np.isfinite(f)) for f in traj.fields)
    assert np.all(traj.fields[-1] > 0)


def test_power_zero_source_is_the_constant_source(square16):
    # s^0 = 1 = f(0): the same equation as f = 1, started from zero
    zero = _zero_data_trajectory(square16, SourceTerm("power_q", q=0.0))
    one = _zero_data_trajectory(square16, SourceTerm("one"))
    assert np.array_equal(zero.times, one.times)
    assert all(np.array_equal(a, b) for a, b in zip(zero.fields,
                                                     one.fields))


def test_seed_is_the_interior_barrier(square16):
    # C e^{-lam1 t0} t0^{(1+gamma)/(1-q)} phi1 with C =
    # ((1-q) k / (1+gamma))^{1/(1-q)}; k = c = 2 lies above 1
    eig = principal_eigenpair(square16)
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=2.0),
                source=SourceTerm(kind="power_q", q=0.5))
    t0, q, k = 0.01, 0.5, 2.0
    C = ((1.0 - q) * k / 1.0) ** (1.0 / (1.0 - q))
    want = C * math.exp(-eig.lam * t0) * t0 ** (1.0 / (1.0 - q)) \
        * eig.phi.values
    got = seed_from_subsolution(p, square16, t0, eig, check_hypotheses(p))
    assert np.array_equal(got, want)


def test_comparison_smaller_initial_data_stays_below(square16):
    eig = principal_eigenpair(square16)

    def run(scale):
        p = Problem(domain=unit_square(),
                    weight=Weight(kind="constant", c=1.0),
                    source=SourceTerm(kind="saturable"),
                    u0_values=scale * eig.phi.values, horizon=1.0)
        return solve_trajectory(p, square16, 8)

    main, sub = run(1.0), run(0.5)
    assert np.allclose(main.times, sub.times)
    for m, s in zip(main.fields, sub.fields):
        assert np.all(s <= m + 1e-10)


def test_values_at_time_interpolates(square16):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=1.0)
    traj = solve_trajectory(p, square16, 6)
    t = 0.5 * (traj.times[2] + traj.times[3])
    v = traj.values_at_time(t)
    lo = np.minimum(traj.fields[2], traj.fields[3])
    hi = np.maximum(traj.fields[2], traj.fields[3])
    assert np.all(v >= lo - 1e-12)
    assert np.all(v <= hi + 1e-12)


def test_field_dump_roundtrip_csv(square16, tmp_path):
    rng = np.random.default_rng(7)
    f = Field(square16, rng.uniform(0, 1, square16.n_interior), 0.25)
    path = tmp_path / "f.csv"
    dump_field_csv(f, path)
    g = load_field_csv(square16, path)
    assert np.array_equal(g.values, f.values)


def _dumped_rows(dom, tmp_path):
    path = tmp_path / "f.csv"
    dump_field_csv(Field(dom, np.arange(dom.n_interior, dtype=float)), path)
    return path, path.read_text().splitlines()


def _load_rows(dom, path, lines):
    path.write_text("\n".join(lines) + "\n")
    return load_field_csv(dom, path)


def test_load_csv_rejects_row_off_grid_node(square16, tmp_path):
    path, lines = _dumped_rows(square16, tmp_path)
    x, y, v = lines[1].split(",")
    lines[1] = f"{float(x) + 1e-6 * square16.h!r},{y},{v}"
    with pytest.raises(ValueError, match="off a grid node"):
        _load_rows(square16, path, lines)


def test_load_csv_rejects_row_on_noninterior_node(square16, tmp_path):
    # (0, 0) is a grid corner on the boundary; (2, 2) is off the grid
    for row in ("0.0,0.0,1.0", "2.0,2.0,1.0"):
        path, lines = _dumped_rows(square16, tmp_path)
        lines[1] = row
        with pytest.raises(ValueError, match="not on an interior node"):
            _load_rows(square16, path, lines)


def test_load_csv_rejects_duplicate_row(square16, tmp_path):
    path, lines = _dumped_rows(square16, tmp_path)
    with pytest.raises(ValueError, match="repeats an interior node"):
        _load_rows(square16, path, lines + [lines[5]])


def test_load_csv_rejects_missing_interior_node(square16, tmp_path):
    path, lines = _dumped_rows(square16, tmp_path)
    with pytest.raises(ValueError, match="1 interior node"):
        _load_rows(square16, path, lines[:3] + lines[4:])


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_load_csv_rejects_empty_file(square16, tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv: empty file"):
        load_field_csv(square16, path)


@pytest.mark.parametrize("value", ["abc", "", "nan", "inf", "-inf",
                                   "0x10"])
def test_load_csv_rejects_bad_value(square16, tmp_path, value):
    # genfromtxt read each of these as NaN or inf without an error
    path, lines = _dumped_rows(square16, tmp_path)
    x, y, _ = lines[3].split(",")
    lines[3] = f"{x},{y},{value}"
    with pytest.raises(ValueError, match=r"f\.csv: row 3 "):
        _load_rows(square16, path, lines)


@pytest.mark.parametrize("row", ["0.125,0.125", "0.125,0.125,1.0,2.0",
                                 "0.125;0.125;1.0"])
def test_load_csv_rejects_wrong_column_count(square16, tmp_path, row):
    path, lines = _dumped_rows(square16, tmp_path)
    lines[4] = row
    with pytest.raises(ValueError, match="f.csv: row 4 .* not three"):
        _load_rows(square16, path, lines)


@pytest.mark.parametrize("header", ["x,y", "x,y,val", "x,x,value",
                                    "x,y,value,w"])
def test_load_csv_rejects_bad_header(square16, tmp_path, header):
    path, lines = _dumped_rows(square16, tmp_path)
    with pytest.raises(ValueError, match="f.csv: header"):
        _load_rows(square16, path, [header] + lines[1:])


def test_load_csv_maps_columns_by_name(square16, tmp_path):
    path, lines = _dumped_rows(square16, tmp_path)
    rows = [row.split(",") for row in lines[1:]]
    swapped = ["value,x,y"] + [f"{v},{x},{y}" for x, y, v in rows]
    g = _load_rows(square16, path, swapped)
    assert np.array_equal(g.values, np.arange(square16.n_interior))


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_binary_rejects_non_finite_number(square16, tmp_path, column,
                                               bad):
    path = tmp_path / "f.bin"
    dump_field_binary(Field(square16, np.zeros(square16.n_interior)), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, 32 + 24 * 6 + 8 * column, bad)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="f.bin: row 7 .* non-finite"):
        load_field_binary(square16, path)


def test_field_dump_binary_header(square16, tmp_path):
    f = Field(square16, np.zeros(square16.n_interior), 0.5)
    path = tmp_path / "f.bin"
    dump_field_binary(f, path)
    raw = path.read_bytes()
    h, nx, ny, t = struct.unpack("<4d", raw[:32])
    assert h == pytest.approx(square16.h)
    assert int(nx) == square16.xs.size
    assert int(ny) == square16.ys.size
    assert t == pytest.approx(0.5)
    assert (len(raw) - 32) == 24 * square16.n_interior


_ROUNDTRIP_DOMAINS = {
    "square": unit_square(), "rectangle": rectangle(1.5, 0.8),
    "disk": disk(), "ellipse": ellipse(1.0, 0.6),
    "polygon": convex_polygon([(0.0, 0.0), (1.2, 0.1), (1.0, 0.9),
                               (0.2, 1.0)]),
}


@functools.lru_cache(maxsize=None)
def _roundtrip_dom(name, h_inv):
    return build_discretization(_ROUNDTRIP_DOMAINS[name], 1.0 / h_inv)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(_ROUNDTRIP_DOMAINS)),
       h_inv=st.sampled_from([6, 8, 11]))
def test_field_dump_roundtrip(data, name, h_inv):
    # every finite double, subnormals and -0.0 included, comes back as
    # the same bits from both dump formats
    dom = _roundtrip_dom(name, h_inv)
    vals = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=dom.n_interior, max_size=dom.n_interior)))
    f = Field(dom, vals, 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        for dump, load, fname in ((dump_field_csv, load_field_csv, "f.csv"),
                                  (dump_field_binary, load_field_binary,
                                   "f.bin")):
            path = Path(tmp) / fname
            dump(f, path)
            g = load(dom, path, time=0.5)
            assert g.time == 0.5
            assert np.array_equal(g.values, vals)
            assert np.array_equal(np.signbit(g.values), np.signbit(vals))


def _dumped_binary(dom, tmp_path):
    path = tmp_path / "f.bin"
    dump_field_binary(Field(dom, np.arange(dom.n_interior, dtype=float)),
                      path)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [0, 20, 32 + 24 * 5 - 1])
def test_load_binary_rejects_truncated_file(square16, tmp_path, cut):
    path, raw = _dumped_binary(square16, tmp_path)
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match=f"f.bin: {cut} bytes"):
        load_field_binary(square16, path)


@pytest.mark.parametrize("header", [(1 / 8, 17, 17), (1 / 16, 18, 17),
                                    (1 / 16, 17, 16)])
def test_load_binary_rejects_other_grid(square16, tmp_path, header):
    path, raw = _dumped_binary(square16, tmp_path)
    path.write_bytes(struct.pack("<4d", *header, 0.0) + raw[32:])
    with pytest.raises(ValueError, match="f.bin: header .* does not match"):
        load_field_binary(square16, path)


def test_load_binary_maps_rows_as_csv(square16, tmp_path):
    # the row checks are the CSV loader's: a dropped triplet is a
    # missing node, a repeated one a repeated node
    path, raw = _dumped_binary(square16, tmp_path)
    path.write_bytes(raw[:32] + raw[56:])
    with pytest.raises(ValueError, match="1 interior node"):
        load_field_binary(square16, path)
    path.write_bytes(raw + raw[32:56])
    with pytest.raises(ValueError, match="repeats an interior node"):
        load_field_binary(square16, path)


def test_advance_rejects_nonpositive_step(square16):
    p = _heat_problem(square16, 1.0)
    with pytest.raises(ValueError):
        advance(p, square16, p.u0_values, 0.0, 0.0)


def test_sink_step_stays_positive_at_a_large_step(square16):
    # u log u at states from 1e-3 down to 1e-30: the sinks' implicit
    # rate keeps the step positive at dt = 0.25, where the explicit
    # u + dt b is below 0 (as it is for u < e^-4) and so is its solve
    phi = principal_eigenpair(square16).phi.values
    u = 1e-3 * phi ** (math.log(1e-27) / math.log(phi.min()))
    assert u.min() == pytest.approx(1e-30)
    dt = 0.25
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="log_s"), u0_values=u, horizon=1.0)
    got = advance(p, square16, u, 0.0, dt)
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    explicit = u + dt * p.source_values(square16, u, dt)
    assert operators_mod.solve_shifted_poisson(square16, dt, explicit).min() \
        < -1e-12


@pytest.mark.parametrize("source", [SourceTerm(kind="power_q", q=0.5),
                                    SourceTerm(kind="identity"),
                                    SourceTerm(kind="saturable")])
def test_step_without_sinks_is_one_explicit_source_solve(square16, source):
    # b >= 0: no sink, and the step is the shifted solve of u + dt b
    u = 0.5 * principal_eigenpair(square16).phi.values
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=source, u0_values=u, horizon=1.0)
    t, dt = 0.3, 0.01
    b = p.source_values(square16, u, t + dt)
    assert b.min() >= 0
    want = operators_mod.solve_shifted_poisson(square16, dt, u + dt * b)
    assert advance(p, square16, u, t, dt).tobytes() == want.tobytes()


@pytest.mark.parametrize("sid", ["log-square", "logistic-square"])
def test_stiff_pair_steps_are_first_order(sid):
    # uniform steps to T = 0.1 at h = 1/16 against a 6,400-step run: the
    # error max |log u - log u_ref| falls by 4^p from 100 to 400 steps
    # with p >= 0.8 (about 1 when this test was written)
    scn = get_scenario(sid)
    dom = build_discretization(scn.problem.domain, 1.0 / 16.0)
    p = build_problem(scn, principal_eigenpair(dom))
    assert np.any(p.source_values(dom, p.u0_values, 0.0) < 0)  # sinks

    def log_u(n):
        u, dt = p.u0_values, 0.1 / n
        for i in range(n):
            u = advance(p, dom, u, i * dt, dt)
        return np.log(u)

    ref = log_u(6400)
    e100, e400 = (np.max(np.abs(log_u(n) - ref)) for n in (100, 400))
    assert math.log(e100 / e400, 4) >= 0.8
