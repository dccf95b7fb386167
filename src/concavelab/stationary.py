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
    """Sampled check that s -> b(x,s)/s is strictly decreasing."""
    ref = np.argmax(problem.weight_values(dom, math.inf))
    s = np.geomspace(1e-6, 10.0, 200)
    vals = np.array([_source_at_infinity(problem, dom, np.full(dom.n_interior, si))[ref] / si
                     for si in s])
    return bool(np.all(np.diff(vals) < 0))


def solve_stationary(problem: Problem, dom: DiscretizedDomain,
                     max_iter: int = 10000) -> StationaryResult:
    """Single linear solve for state-independent sources; otherwise a
    damped Picard iteration (damping 0.5) from the scaled torsion
    solution, until the successive sup-norm change is <= 1e-10."""
    if problem.weight.gamma > 0 and not problem.truncate:
        raise Unbounded("weight grows in time: a stationary slice needs "
                        "the time-truncation flag")
    A = neg_laplacian_matrix(dom)
    state_free = problem.source.kind == "one" or (
        problem.source.kind == "power_q" and problem.source.q == 0.0)
    if state_free:
        rhs = _source_at_infinity(problem, dom, np.zeros(dom.n_interior))
        v = poisson_solve(dom, rhs)
        res = float(np.max(np.abs(A @ v - rhs)))
        return StationaryResult(v=Field(dom, v, math.inf), residual=res,
                                iterations=1,
                                sup_norm=float(np.max(np.abs(v))))

    if not _strict_decrease_certificate(problem, dom):
        warnings.warn("strict-decrease certificate failed: the stationary "
                      "solution may be nonunique", NonuniqueWarning)

    # torsion solution of the weight's positive part as the starting point;
    # iterate w = A^{-1} b(w) with damping 0.5
    a_inf = np.maximum(problem.weight_values(dom, math.inf), 0.0)
    base = poisson_solve(dom, np.maximum(a_inf, np.max(a_inf) * 0.0 + 1e-8))
    v = np.maximum(base, 1e-8)
    # one undamped scaling pass keeps the start above the small branch
    for it in range(1, max_iter + 1):
        rhs = _source_at_infinity(problem, dom, v)
        v_new = poisson_solve(dom, rhs)
        v_next = 0.5 * v + 0.5 * v_new
        change = float(np.max(np.abs(v_next - v)))
        v = v_next
        if change <= 1e-10:
            break
    else:
        raise NoConvergence(
            f"stationary Picard iteration did not converge in {max_iter} "
            f"iterations (last change {change:.3e})")
    rhs = _source_at_infinity(problem, dom, v)
    res = float(np.max(np.abs(A @ v - rhs)))
    return StationaryResult(v=Field(dom, v, math.inf), residual=res,
                            iterations=it,
                            sup_norm=float(np.max(np.abs(v))))
