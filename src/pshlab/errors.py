"""Exception types shared across the toolkit."""


class PshlabError(Exception):
    """Base class for all toolkit errors."""


class InsufficientNodesError(PshlabError):
    """Raised when a rule or grid has too few nodes: a quadrature budget too small to
    build a rule, or a grid too coarse to resolve a distance."""


class PoleInStencilError(PshlabError):
    """Raised when a finite-difference stencil touches the pole set of a field."""


class WeightOverflowError(PshlabError):
    """Raised when e^{-weight} is +inf at a node: the weight is -inf there, on its pole set."""


class MetricNotPositiveError(PshlabError):
    """Raised when a Hermitian metric matrix is not positive definite."""


class ContinuityRequiredError(PshlabError):
    """Raised when an operation needs a continuous field but got a usc-only one."""


class SingularGramError(PshlabError):
    """Raised when a Gram system is singular or its solution is not finite."""


class DegenerateWeightError(PshlabError):
    """Raised when a weight or candidate degenerates on a positive-measure node set."""


class SpecError(PshlabError, ValueError):
    """Raised when a spec names nothing: an unknown id, a parameter its id refuses, or
    an object of another dimension."""


class ConsistencyError(PshlabError):
    """Raised when a computed result breaks a relation that holds in exact arithmetic."""
