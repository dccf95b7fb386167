"""Shared exception types for concavelab."""


class ConcavelabError(Exception):
    """Base class for all package errors."""


class NonConvexPolygon(ConcavelabError):
    """Polygon vertex list fails the convexity / orientation test."""


class NoInteriorNodes(ConcavelabError):
    """Grid spacing too coarse: discretization contains no interior node."""


class NegativeState(ConcavelabError):
    """Source evaluated at a state value below the -1e-12 tolerance."""


class Unbounded(ConcavelabError):
    """A requested supremum diverges."""


class MaxIterations(ConcavelabError):
    """A linear solve's relative residual is above its tolerance."""


class NoConvergence(ConcavelabError):
    """Fixed-point / eigen iteration failed to converge."""


class StateBlowup(ConcavelabError):
    """Time integration produced sup-norm above the blowup threshold."""


class HypothesisViolated(ConcavelabError):
    """An operation requiring a certified structural hypothesis was
    invoked on a problem whose hypothesis flag is false/undetermined."""


class OutOfDomain(ConcavelabError):
    """Evaluation point outside the evaluator's domain."""


class EmptySampler(ConcavelabError):
    """Sampler configuration yields no tuples."""


class HullDegenerate(ConcavelabError):
    """Too few affinely independent points for a concave envelope."""


class RangeViolation(ConcavelabError):
    """Exponent parameters violate a closed-form formula's admissible range."""


class ValidityViolation(ConcavelabError):
    """A quantitative bound's validity gate or certificate fails."""


class NonuniqueWarning(UserWarning):
    """Stationary problem may admit multiple solutions (strict-decrease
    certificate failed)."""
