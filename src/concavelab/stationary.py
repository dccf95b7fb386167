"""Stationary solver: -Lap v = b(x, v, infinity) with Dirichlet data.

Supplies the t = infinity slice of a trajectory and the sup norm
used by the quantitative defect bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import DiscretizedDomain
from .errors import NoConvergence, NonuniqueWarning, Unbounded
from .operators import Field, neg_laplacian_matrix, poisson_solve
from .problems import Problem

#: Picard iterations before solve_stationary gives up
_PICARD_MAX_ITER = 10000


@dataclass
class StationaryResult:
    v: Field
    residual: float
    iterations: int
    sup_norm: float


def _source_at_infinity(problem: Problem, dom, s):
    """b(x, s, infinity) on the nonnegative part of s; at t = inf the
    weight is its profile times 1, or times time_factor(horizon) when
    truncated."""
    return problem.source_values(dom, np.maximum(s, 0.0), math.inf)


def _strict_decrease_certificate(problem: Problem, dom) -> bool:
    """Sampled check that s -> b(x,s)/s is strictly decreasing at the
    node of the largest weight."""
    a = np.max(problem.weight_values(dom, math.inf))
    s = np.geomspace(1e-6, 10.0, 200)
    return bool(np.all(np.diff(problem.source.compose(a, s) / s) < 0))


def solve_stationary(problem: Problem,
                     dom: DiscretizedDomain) -> StationaryResult:
    """Single linear solve for state-independent sources; otherwise a
    damped Picard iteration (damping 0.5) from the scaled torsion
    solution, until the successive sup-norm change is <= 1e-10."""
    if problem.weight.gamma > 0 and not problem.truncate:
        raise Unbounded("weight grows in time: a stationary slice needs "
                        "the time-truncation flag")
    state_free = problem.source.kind == "one" or (
        problem.source.kind == "power_q" and problem.source.q == 0.0)
    if state_free:  # b does not depend on the state: one solve
        v, it = poisson_solve(dom, _source_at_infinity(
            problem, dom, np.zeros(dom.n_interior))), 1
    else:
        if not _strict_decrease_certificate(problem, dom):
            warnings.warn("strict-decrease certificate failed: the "
                          "stationary solution may be nonunique",
                          NonuniqueWarning)
        # torsion solution of the weight's positive part as the starting
        # point; iterate w = A^{-1} b(w) with damping 0.5
        a_inf = np.maximum(problem.weight_values(dom, math.inf), 0.0)
        v = np.maximum(poisson_solve(dom, np.maximum(a_inf, 1e-8)), 1e-8)
        for it in range(1, _PICARD_MAX_ITER + 1):
            v_next = 0.5 * v + 0.5 * poisson_solve(
                dom, _source_at_infinity(problem, dom, v))
            change = float(np.max(np.abs(v_next - v)))
            v = v_next
            if change <= 1e-10:
                break
        else:
            raise NoConvergence(
                f"stationary Picard iteration did not converge in "
                f"{_PICARD_MAX_ITER} iterations (last change {change:.3e})")
    res = neg_laplacian_matrix(dom) @ v - _source_at_infinity(problem, dom, v)
    return StationaryResult(v=Field(dom, v, math.inf),
                            residual=float(np.max(np.abs(res))),
                            iterations=it, sup_norm=float(np.max(np.abs(v))))
