"""Closed-form exponents and defect-bound right-hand sides.

Every quantity here is pure arithmetic on measured inputs: concavity
exponents for the power/time-rescaled transforms, log-concavity defect
bounds, quantitative defect bounds driven by the weight's oscillation or
concavity defect, and explicit lower barriers near the parabolic
boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import RangeViolation, ValidityViolation


@dataclass
class BoundParams:
    """Measured inputs for the bound evaluations.

    m, M bound the weight; sup_neg_defect is the relevant sup of a
    negative-part concavity defect of the weight (of a^theta for the
    theta modes)."""
    q: float = 0.0
    gamma: float = 0.0
    theta: float = 1.0
    m: float = 1.0
    M: float = 1.0
    sup_norm_u_inf: float = 1.0
    osc_a: float = 0.0
    osc_a2: float = 0.0
    sup_neg_defect: float = 0.0
    inf_a_rho: float | None = None
    sup_a_rho: float | None = None
    inf_C_a: float = 0.0          # worst weight concavity value on the margin
    xi: np.ndarray | None = None  # averaged argmin gradient
    xi_mismatch: float = 0.0
    lam_argmin: float | None = None
    v1: float | None = None
    v3: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must be in [0,1), got {self.q}")
        if not (self.theta >= 1.0 or math.isinf(self.theta)):
            raise ValueError(f"theta must be >= 1 or inf, got {self.theta}")
        if self.m > self.M:
            raise ValueError(f"m <= M required, got m={self.m} M={self.M}")


@dataclass
class BoundReport:
    bound_id: str
    rhs: float
    constants: dict = dc_field(default_factory=dict)
    validity: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        def default(o):
            if isinstance(o, np.ndarray):
                return o.tolist()
            if isinstance(o, (np.floating, np.integer)):
                return float(o)
            raise TypeError(type(o))
        payload = {"bound_id": self.bound_id,
                   "rhs": None if self.rhs is None else float(self.rhs),
                   "constants": self.constants,
                   "validity": self.validity}
        return json.dumps(payload, sort_keys=True, default=default)


# ---------------------------------------------------------------------------
# concavity exponents
# ---------------------------------------------------------------------------

def alpha_exponent(q: float, gamma: float, beta: float = 1.0,
                   theta: float = math.inf,
                   variant: str = "lane_emden") -> float:
    """Concavity exponent for u^alpha(x, t^beta) under the catalog
    parameter gates; theta = inf takes the limit of the formula."""
    if not 0.0 <= q < 1.0:
        raise RangeViolation(f"q in [0,1) violated: q={q}")
    if gamma < 0.0:
        raise RangeViolation(f"gamma >= 0 violated: gamma={gamma}")
    if variant == "lane_emden":
        hi = min(2.0, 1.0 / gamma if gamma > 0 else math.inf)
        if not (1.0 <= beta <= 2.0 and (gamma == 0 or beta < 1.0 / gamma)):
            raise RangeViolation(
                f"beta in [1, 1/gamma) intersect [1,2] violated: "
                f"beta={beta}, 1/gamma={hi}")
        theta_min = 1.0 / (1.0 - beta * gamma)
        if theta < theta_min:
            raise RangeViolation(
                f"theta >= 1/(1 - beta*gamma) violated: theta={theta} "
                f"< {theta_min}")
        if math.isinf(theta):
            return (1.0 - q) / (2.0 + beta * gamma)
        return (1.0 - q) * theta / (2.0 * theta + beta * gamma * theta + 1.0)
    if variant == "constant_weight":
        hi = min(2.0, 1.0 / gamma) if gamma > 0 else 2.0
        if not 1.0 <= beta <= hi:
            raise RangeViolation(
                f"beta in [1, min(1/gamma, 2)] violated: beta={beta}, "
                f"upper={hi}")
        return (1.0 - q) / (2.0 + beta * gamma)
    if variant == "torsion":
        if not gamma < 0.5:
            raise RangeViolation(f"gamma < 1/2 violated: gamma={gamma}")
        theta_min = 1.0 / (1.0 - 2.0 * gamma)
        if theta < theta_min:
            raise RangeViolation(
                f"theta >= 1/(1 - 2 gamma) violated: theta={theta} "
                f"< {theta_min}")
        if math.isinf(theta):
            return 1.0 / (2.0 + 2.0 * gamma)
        return theta / (2.0 * theta + 2.0 * theta * gamma + 1.0)
    raise ValueError(f"unknown variant {variant!r}")


def spacetime_alpha_window(q: float, gamma: float, beta: float) -> float:
    """Upper end of the admissible alpha window for a spacetime audit:
    alpha in (0, 2(1-q)/(2 beta (1+gamma) + (2-beta)(1-q)))."""
    return 2.0 * (1.0 - q) / (2.0 * beta * (1.0 + gamma)
                              + (2.0 - beta) * (1.0 - q))


# ---------------------------------------------------------------------------
# log-concavity defect bounds
# ---------------------------------------------------------------------------

def log_concavity_rhs(T: float, slope_bound: float, sup_neg_defect: float,
                      variant: str = "general",
                      fbar_norm: float = 1.0) -> float:
    """Lower bound for the per-time concavity defect of log u.

    general: -T e^{1 + Lambda T} sup(C*_a)^-; eigen is the Lambda = 0
    specialization -e T sup(C*_a)^-; product_cases additionally carries
    the measured ||f(u)/u||_inf factor (the caller supplies the
    appropriate weight-defect quantity as sup_neg_defect).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if sup_neg_defect < 0:
        raise ValueError("sup_neg_defect is a negative part, must be >= 0")
    if variant == "eigen":
        return -math.e * T * sup_neg_defect
    if variant == "general":
        return -T * math.exp(1.0 + slope_bound * T) * sup_neg_defect
    if variant == "product_cases":
        return -T * math.exp(1.0 + slope_bound * T) * fbar_norm \
            * sup_neg_defect
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# quantitative defect bounds
# ---------------------------------------------------------------------------

def _sigma_constant(params: BoundParams, m_rho: float) -> float | None:
    if params.lam_argmin is None or params.v1 is None or params.v3 is None:
        return None
    denom = params.lam_argmin * params.v3 \
        + (1.0 - params.lam_argmin) * params.v1
    if denom <= 0:
        return None
    return 0.5 * (1.0 - params.q) * m_rho / denom ** 2


def quantitative_rhs(params: BoundParams, mode: str) -> BoundReport:
    """Right-hand side of the quantitative defect bound in one of the
    modes: oscillation, rough, theta, elliptic_theta, prop413."""
    q, m, M = params.q, params.m, params.M
    u_norm = params.sup_norm_u_inf
    consts: dict = {}
    validity: dict = {}
    if mode == "oscillation":
        rhs = -u_norm ** (0.5 * (1.0 - q)) * params.osc_a2 / m ** 2
        consts["exponent"] = 0.5 * (1.0 - q)
    elif mode == "rough":
        r = params.osc_a / m
        rhs = -(2.0 + r) * r * u_norm ** (0.5 * (1.0 - q))
        consts["osc_over_m"] = r
    elif mode in ("theta", "elliptic_theta"):
        theta = params.theta
        if mode == "theta":
            gate = m ** theta >= 0.5 * M ** theta
            validity["m^theta >= M^theta/2"] = bool(gate)
            if not gate:
                raise ValidityViolation(
                    f"m^theta >= M^theta/2 fails: m={m}, M={M}, "
                    f"theta={theta}")
        else:
            cap = math.inf if M <= m else math.log(2.0) / math.log(M / m)
            gate = 1.0 <= theta <= cap
            validity["theta <= log2/log(M/m)"] = bool(gate)
            if not gate:
                raise ValidityViolation(
                    f"1 <= theta <= log2/log(M/m) fails: theta={theta}, "
                    f"cap={cap}")
        expo = (theta - 1.0) * (1.0 - q) / (2.0 * theta + 1.0)
        alpha = theta * (1.0 - q) / (2.0 * theta + 1.0)
        rhs = -(2.0 * theta / (2.0 * theta + 1.0)) / m \
            * u_norm ** expo \
            * params.sup_neg_defect ** (1.0 / theta)
        consts["alpha"] = alpha
        consts["u_norm_exponent"] = expo
    elif mode == "prop413":
        if params.inf_a_rho is None or params.sup_a_rho is None:
            raise ValueError("prop413 needs inf_a_rho and sup_a_rho")
        xi2 = float(np.dot(params.xi, params.xi)) \
            if params.xi is not None else 0.0
        grad_term = 2.0 * (1.0 + q) / (1.0 - q) ** 2 * xi2
        m_rho = grad_term + params.inf_a_rho
        M_rho = grad_term + params.sup_a_rho
        eps = M_rho - m_rho
        if m_rho <= 0:
            raise ValidityViolation(
                f"lower quadratic bound m_rho must be positive, got {m_rho}")
        inner = params.inf_C_a - (M_rho / m_rho) * eps
        rhs = -(u_norm ** (0.5 * (1.0 - q)) / m_rho) * max(0.0, -inner)
        consts.update(m_rho=m_rho, M_rho=M_rho, eps=eps,
                      xi_norm_sq=xi2, xi_mismatch=params.xi_mismatch)
        sigma = _sigma_constant(params, m_rho)
        if sigma is not None:
            consts["sigma"] = sigma
        validity["eps >= 0"] = bool(eps >= -1e-15)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rep = BoundReport(bound_id=mode, rhs=float(rhs), constants=consts,
                      validity=validity)
    if not rep.rhs <= 0.0:
        raise ValidityViolation(f"{mode} bound right-hand side {rep.rhs} > 0")
    return rep


# ---------------------------------------------------------------------------
# boundary lower barriers
# ---------------------------------------------------------------------------

def barrier_constant(k: float, q: float, gamma: float) -> float:
    """C = ((1-q) k / (1+gamma))^{1/(1-q)} of the explicit barrier."""
    return ((1.0 - q) * k / (1.0 + gamma)) ** (1.0 / (1.0 - q))


def boundary_lower_bound(params: BoundParams, t: float, eig):
    """Explicit lower barrier near the parabolic boundary at time t:
    C e^{-lam1 t} t^{(1+gamma)/(1-q)} phi1 at every interior node, with
    C from k = m."""
    if not 0.0 < t:
        raise ValueError("the barrier applies for t > 0")
    q, gamma = params.q, params.gamma
    C = barrier_constant(params.m, q, gamma)
    return C * math.exp(-eig.lam * t) * t ** ((1.0 + gamma) / (1.0 - q)) \
        * eig.phi.values
