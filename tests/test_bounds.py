import json
import math

import numpy as np
import pytest

from concavelab import (BoundParams, BoundReport, alpha_exponent,
                        barrier_constant, boundary_lower_bound,
                        build_discretization, log_concavity_rhs,
                        principal_eigenpair, quantitative_rhs,
                        spacetime_alpha_window, unit_square)
from concavelab.errors import (HypothesisViolated, RangeViolation,
                               ValidityViolation)


# ---------------------------------------------------------------------------
# exponent formulas
# ---------------------------------------------------------------------------

def test_exponent_worked_values():
    assert alpha_exponent(0.0, 0.0, 1.0, math.inf, "lane_emden") \
        == pytest.approx(0.5)
    assert alpha_exponent(0.0, 0.5, 1.0, variant="constant_weight") \
        == pytest.approx(0.4)
    assert alpha_exponent(0.5, 0.0, 1.0, math.inf, "lane_emden") \
        == pytest.approx(0.25)
    assert alpha_exponent(0.0, 0.0, theta=1.0, variant="torsion") \
        == pytest.approx(1.0 / 3.0)


def test_exponent_finite_theta_formula():
    # (1-q) theta / (2 theta + beta gamma theta + 1)
    got = alpha_exponent(0.5, 0.25, 1.0, 2.0, "lane_emden")
    assert got == pytest.approx(0.5 * 2.0 / (4.0 + 0.5 + 1.0))


def test_exponent_monotone_in_theta():
    thetas = [1.5, 2.0, 4.0, 16.0, 256.0]
    vals = [alpha_exponent(0.3, 0.0, 1.0, t, "lane_emden") for t in thetas]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    # theta -> inf limit matches the constant-weight value
    lim = alpha_exponent(0.3, 0.0, 1.0, math.inf, "lane_emden")
    assert lim == pytest.approx(alpha_exponent(0.3, 0.0, 1.0,
                                               variant="constant_weight"))
    assert vals[-1] == pytest.approx(lim, abs=1e-3)


@pytest.mark.parametrize("q", [0.0, 0.3])
@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.4, 0.4999999, 0.5, 0.7])
@pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 5.0, 1e3, math.inf])
def test_torsion_exponent_is_lane_emden_at_beta_2(q, gamma, theta):
    # the torsion form ignores q; its closed form and gates were
    # theta / (2 theta + 2 theta gamma + 1), gamma < 1/2 and
    # theta >= 1/(1 - 2 gamma)
    def outcome(**kw):
        try:
            return repr(alpha_exponent(**kw))
        except RangeViolation:
            return "RangeViolation"

    if gamma >= 0.5 or theta < 1.0 / (1.0 - 2.0 * gamma):
        want = "RangeViolation"
    elif math.isinf(theta):
        want = repr(1.0 / (2.0 + 2.0 * gamma))
    else:
        want = repr(theta / (2.0 * theta + 2.0 * theta * gamma + 1.0))
    assert outcome(q=q, gamma=gamma, theta=theta, variant="torsion") == want
    assert outcome(q=0.0, gamma=gamma, beta=2.0, theta=theta) == want


def test_exponent_gates():
    with pytest.raises(RangeViolation, match="q"):
        alpha_exponent(1.0, 0.0)
    with pytest.raises(RangeViolation, match="beta"):
        alpha_exponent(0.0, 0.6, beta=1.9, variant="lane_emden")
    with pytest.raises(RangeViolation, match="theta"):
        alpha_exponent(0.0, 0.4, beta=2.0, theta=2.0, variant="lane_emden")
    with pytest.raises(RangeViolation, match="gamma"):
        alpha_exponent(0.0, 0.5, variant="torsion")
    with pytest.raises(ValueError):
        alpha_exponent(0.0, 0.0, variant="unknown")


def test_spacetime_alpha_window():
    # 2(1-q) / (2 beta (1+gamma) + (2-beta)(1-q))
    cap = spacetime_alpha_window(0.0, 0.0, 2.0)
    assert cap == pytest.approx(0.5)
    cap = spacetime_alpha_window(0.5, 0.0, 1.0)
    assert cap == pytest.approx(1.0 / (2.0 + 0.5))


# ---------------------------------------------------------------------------
# log-concavity right-hand sides
# ---------------------------------------------------------------------------

def test_log_rhs_eigen():
    assert log_concavity_rhs(1.0, 0.0, 0.1, "eigen") \
        == pytest.approx(-math.e * 0.1)
    assert log_concavity_rhs(1.0, 0.0, 0.0, "eigen") == 0.0


def test_log_rhs_general_matches_eigen_at_zero_slope():
    assert log_concavity_rhs(1.5, 0.0, 0.2, "general") \
        == pytest.approx(log_concavity_rhs(1.5, 0.0, 0.2, "eigen"))
    got = log_concavity_rhs(2.0, 1.0, 0.1, "general")
    assert got == pytest.approx(-2.0 * math.exp(3.0) * 0.1)


def test_log_rhs_product_cases_factor():
    base = log_concavity_rhs(1.0, 0.25, 0.1, "general")
    got = log_concavity_rhs(1.0, 0.25, 0.1, "product_cases", fbar_norm=3.0)
    assert got == pytest.approx(3.0 * base)
    assert log_concavity_rhs(1.0, 0.25, 0.0, "product_cases") == 0.0


def test_log_rhs_validation():
    with pytest.raises(ValueError):
        log_concavity_rhs(0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        log_concavity_rhs(1.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        log_concavity_rhs(1.0, 0.0, 0.1, "exotic")


# ---------------------------------------------------------------------------
# quantitative bounds
# ---------------------------------------------------------------------------

def test_quant_oscillation():
    p = BoundParams(q=0.5, m=2.0, M=2.5, osc_a2=0.9, sup_norm_u_inf=0.81)
    rep = quantitative_rhs(p, "oscillation")
    assert rep.rhs == pytest.approx(-(0.81 ** 0.25) * 0.9 / 4.0)
    assert rep.rhs <= 0


def test_quant_positive_rhs_raises():
    # a negative oscillation drives the right-hand side above 0
    p = BoundParams(osc_a2=-1.0)
    with pytest.raises(ValidityViolation, match="right-hand side"):
        quantitative_rhs(p, "oscillation")


def test_quant_rough():
    p = BoundParams(q=0.0, m=1.0, M=1.1, osc_a=0.1, sup_norm_u_inf=1.0)
    rep = quantitative_rhs(p, "rough")
    assert rep.rhs == pytest.approx(-2.1 * 0.1)


def test_quant_theta_unit():
    # theta = 1 drops the norm factor: -(2/3) / m * sup
    p = BoundParams(q=0.5, theta=1.0, m=1.0, M=1.2, sup_neg_defect=0.3)
    rep = quantitative_rhs(p, "theta")
    assert rep.rhs == pytest.approx(-(2.0 / 3.0) * 0.3)
    assert rep.validity["m^theta >= M^theta/2"]


def test_quant_theta_gate():
    p = BoundParams(theta=2.0, m=1.0, M=3.0, sup_neg_defect=0.1)
    with pytest.raises(ValidityViolation):
        quantitative_rhs(p, "theta")


def test_quant_elliptic_theta_gate():
    # cap = log 2 / log(M/m)
    p = BoundParams(theta=2.0, m=1.0, M=1.2, sup_neg_defect=0.1)
    rep = quantitative_rhs(p, "elliptic_theta")
    assert rep.rhs <= 0
    p = BoundParams(theta=4.0, m=1.0, M=1.2, sup_neg_defect=0.1)
    with pytest.raises(ValidityViolation):
        quantitative_rhs(p, "elliptic_theta")


def test_quant_prop413_concave_weight_is_zero():
    p = BoundParams(q=0.5, m=1.0, M=1.2, inf_a_rho=1.0, sup_a_rho=1.0,
                    inf_C_a=0.0, xi=np.zeros(2))
    rep = quantitative_rhs(p, "prop413")
    assert rep.rhs == 0.0
    assert rep.constants["eps"] == pytest.approx(0.0)


def test_quant_prop413_gradient_term():
    xi = np.array([0.3, -0.4])  # |xi|^2 = 0.25
    p = BoundParams(q=0.5, m=0.8, M=1.2, inf_a_rho=0.8, sup_a_rho=1.2,
                    inf_C_a=-0.05, xi=xi, sup_norm_u_inf=1.0)
    rep = quantitative_rhs(p, "prop413")
    grad = 2.0 * 1.5 / 0.25 * 0.25  # 2(1+q)/(1-q)^2 |xi|^2 = 3
    m_rho, M_rho = grad + 0.8, grad + 1.2
    inner = -0.05 - (M_rho / m_rho) * 0.4
    assert rep.constants["m_rho"] == pytest.approx(m_rho)
    assert rep.rhs == pytest.approx(-(1.0 / m_rho) * (-inner))


def test_quant_unknown_mode():
    with pytest.raises(ValueError):
        quantitative_rhs(BoundParams(), "sharp")


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(q=1.5)
    with pytest.raises(ValueError):
        BoundParams(m=2.0, M=1.0)


def test_bound_report_json_deterministic():
    p = BoundParams(q=0.5, theta=1.0, m=1.0, M=1.2, sup_neg_defect=0.3)
    a = quantitative_rhs(p, "theta").to_json()
    b = quantitative_rhs(p, "theta").to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["rhs"] <= 0


# ---------------------------------------------------------------------------
# boundary barriers
# ---------------------------------------------------------------------------

def test_barrier_constant_worked_value():
    # q=1/2, gamma=0, k=1: ((1-q) k / (1+gamma))^{1/(1-q)} = 0.25
    assert barrier_constant(1.0, 0.5, 0.0) == pytest.approx(0.25)


def test_interior_barrier_values():
    dom = build_discretization(unit_square(), 1.0 / 16.0)
    eig = principal_eigenpair(dom)
    consts = {"k": 1.0, "q": 0.5, "gamma": 0.0}  # HypothesisReport's
    vals = boundary_lower_bound(consts, 0.5, eig)
    amp = 0.25 * math.exp(-eig.lam * 0.5) * 0.5 ** 2
    assert np.allclose(vals, amp * eig.phi.values)
    with pytest.raises(ValueError):
        boundary_lower_bound(consts, 0.0, eig)
    for q in (1.0, 1.5, -0.5, math.nan):  # the barrier needs q in [0, 1)
        with pytest.raises(ValueError, match="q in \\[0,1\\)"):
            boundary_lower_bound({**consts, "q": q}, 0.5, eig)


def test_barrier_requires_certified_hypothesis():
    # f = s has no power lower bound s^q with q < 1, so the barrier seed
    # is refused rather than built from constants that were never set
    from concavelab import Problem, SourceTerm, Weight, check_hypotheses
    from concavelab.parabolic import seed_from_subsolution
    prob = Problem(domain=unit_square(), weight=Weight(kind="constant"),
                   source=SourceTerm(kind="identity"))
    hyp = check_hypotheses(prob)
    assert not hyp.require("lower_power")
    assert "k" not in hyp.constants
    dom = build_discretization(unit_square(), 0.25)
    with pytest.raises(HypothesisViolated, match="power lower bound"):
        seed_from_subsolution(prob, dom, 0.01, principal_eigenpair(dom),
                              hyp)
