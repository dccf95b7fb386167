"""Numerical verification of concavity properties for parabolic
Dirichlet problems on convex planar domains."""

__version__ = "0.1.0"

from .audit import (DefectReport, SamplerConfig, concavity_value,
                    harmonic_concavity_value, min_defect,
                    quasiconcavity_defect)
from .bounds import (BoundParams, BoundReport, alpha_exponent,
                     barrier_constant, boundary_lower_bound,
                     log_concavity_rhs, quantitative_rhs,
                     spacetime_alpha_window)
from .domains import (DiscretizedDomain, DomainSpec, build_discretization,
                      convex_polygon, disk, distance_to_boundary, ellipse,
                      inner_region_mask, rectangle, unit_square)
from .envelope import (EnvelopeResult, concave_approximation,
                       hyers_ulam_constant)
from .errors import (ConcavelabError, HullDegenerate, HypothesisViolated,
                     RangeViolation, ValidityViolation)
from .operators import (EigenPair, Field, field_from_function,
                        poisson_solve, principal_eigenpair)
from .parabolic import (Trajectory, dump_field_binary, dump_field_csv,
                        load_field_csv, solve_trajectory)
from .problems import (HypothesisReport, Problem, SourceTerm, Weight,
                       check_hypotheses, sup_slope_lambda,
                       weight_concavity_defect)
from .scenarios import (CATALOG, Scenario, VerificationReport,
                        get_scenario, run_property_suite, run_scenario,
                        run_suite, scenario_ids)
from .stationary import StationaryResult, solve_stationary

__all__ = [
    "__version__", "BoundParams", "BoundReport", "CATALOG",
    "ConcavelabError", "DefectReport", "DiscretizedDomain", "DomainSpec",
    "EigenPair", "EnvelopeResult", "Field", "HullDegenerate",
    "HypothesisReport", "HypothesisViolated", "Problem", "RangeViolation",
    "SamplerConfig", "Scenario", "SourceTerm", "StationaryResult",
    "Trajectory", "ValidityViolation", "VerificationReport", "Weight",
    "alpha_exponent", "barrier_constant", "boundary_lower_bound",
    "build_discretization", "check_hypotheses", "concave_approximation",
    "concavity_value", "convex_polygon", "disk", "distance_to_boundary",
    "dump_field_binary", "dump_field_csv", "ellipse",
    "field_from_function", "get_scenario", "harmonic_concavity_value",
    "hyers_ulam_constant", "inner_region_mask", "load_field_csv",
    "log_concavity_rhs", "min_defect", "poisson_solve",
    "principal_eigenpair", "quantitative_rhs", "quasiconcavity_defect",
    "rectangle", "run_property_suite", "run_scenario", "run_suite",
    "scenario_ids", "solve_stationary", "solve_trajectory",
    "spacetime_alpha_window", "sup_slope_lambda", "unit_square",
    "weight_concavity_defect",
]
