import numpy as np
import pytest

from concavelab import (Problem, SourceTerm, Weight, build_discretization,
                        disk, solve_stationary, unit_square)
from concavelab.errors import ConcavelabError
from concavelab.operators import neg_laplacian_matrix

# torsion function of the unit square at the center, from the double
# Fourier series 16/pi^4 sum_{odd j,k} sin(j pi/2) sin(k pi/2)/(jk(j^2+k^2))
SQUARE_TORSION_CENTER = 0.0736571854


@pytest.fixture(scope="module")
def square32():
    return build_discretization(unit_square(), 1.0 / 32.0)


def test_square_torsion_center(square32):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"))
    res = solve_stationary(p, square32)
    k = int(np.argmin(np.sum((square32.interior_points - 0.5) ** 2, axis=1)))
    assert res.v.values[k] == pytest.approx(SQUARE_TORSION_CENTER, abs=5e-4)
    assert res.residual < 1e-10


def test_disk_torsion_center():
    # exact radial solution (1 - |x|^2)/4: value 0.25 at the center
    dom = build_discretization(disk(), 1.0 / 32.0)
    p = Problem(domain=disk(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"))
    res = solve_stationary(p, dom)
    k = int(np.argmin(np.hypot(*dom.interior_points.T)))
    assert res.v.values[k] == pytest.approx(0.25, abs=2e-3)


def test_lane_emden_positive_fixed_point(square32):
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="power_q", q=0.5))
    res = solve_stationary(p, square32)
    assert np.all(res.v.values > 0)
    assert res.residual < 1e-8
    # -Lap v = sqrt(v) scales quadratically in the data: sup ~ 4e-3
    assert res.sup_norm == pytest.approx(3.76e-3, rel=0.05)


def test_time_weight_requires_truncation(square32):
    p = Problem(domain=unit_square(),
                weight=Weight(kind="separable_power_time", c=1.0, gamma=0.5),
                source=SourceTerm(kind="one"), truncate=False)
    with pytest.raises(ConcavelabError):
        solve_stationary(p, square32)


def test_time_weight_truncated_solves(square32):
    p = Problem(domain=unit_square(),
                weight=Weight(kind="separable_power_time", c=1.0, gamma=0.5),
                source=SourceTerm(kind="one"), horizon=2.0, truncate=True)
    res = solve_stationary(p, square32)
    # effective weight t^0.5 at t=T=2: sqrt(2) times the torsion function
    k = int(np.argmin(np.sum((square32.interior_points - 0.5) ** 2, axis=1)))
    assert res.v.values[k] == pytest.approx(
        np.sqrt(2.0) * SQUARE_TORSION_CENTER, abs=1e-3)


def test_stationary_dominates_trajectory(square32):
    from concavelab import make_time_grid, solve_trajectory
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=1.0),
                source=SourceTerm(kind="one"), horizon=2.0)
    res = solve_stationary(p, square32)
    g = make_time_grid(p, square32.h, count=8)
    traj = solve_trajectory(p, square32, g)
    tau = 10.0 * square32.h ** 2
    assert np.all(traj.fields[-1] <= res.v.values + tau)


def test_logistic_source(square32):
    # -Lap v = c v - v^2 with c above the first eigenvalue (about 19.7):
    # a positive solution below the carrying capacity c
    c = 40.0
    p = Problem(domain=unit_square(), weight=Weight(kind="constant", c=c),
                source=SourceTerm(kind="logistic"))
    res = solve_stationary(p, square32)
    v = res.v.values
    assert np.all(v > 0) and res.sup_norm < c
    A = neg_laplacian_matrix(square32)
    assert np.max(np.abs(A @ v - (c * v - v * v))) < 1e-8
    assert res.residual < 1e-8


def test_power_sum_source_truncated_time_weight(square32):
    # b = a(x, T) v^p + v^q with a = c t^gamma frozen at t = T = 2
    p = Problem(domain=unit_square(),
                weight=Weight(kind="separable_power_time", c=1.5,
                              gamma=0.5),
                source=SourceTerm(kind="power_sum", p=0.5, q=0.6),
                horizon=2.0, truncate=True)
    res = solve_stationary(p, square32)
    v = res.v.values
    assert np.all(v > 0)
    a = 1.5 * np.sqrt(2.0)
    A = neg_laplacian_matrix(square32)
    assert np.max(np.abs(A @ v - (a * v ** 0.5 + v ** 0.6))) < 1e-8
    assert res.residual < 1e-8
