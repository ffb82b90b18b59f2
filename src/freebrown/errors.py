"""Exception hierarchy.

Two families: ``ValidationError`` for inputs that violate a contract
(CLI maps these to exit code 2) and ``NumericalError`` for computations
that fail to converge or produce unusable output (exit code 3).
"""


class FreeBrownError(Exception):
    """Base class for all package errors."""


class ValidationError(FreeBrownError):
    """Invalid input: bad measure, bad argument, contract violation."""


class NumericalError(FreeBrownError):
    """A numerical routine failed to produce a trustworthy result."""


class InvalidMeasure(ValidationError):
    """Measure file or atom data violating the measure invariants."""


class WrongSupport(ValidationError):
    """Operation applied to a measure on the wrong space (line vs circle)."""


class PoleAtAtom(ValidationError):
    """Evaluation point coincides with a pole of the transform."""


class DegenerateDenominator(NumericalError):
    """1 + psi vanished; the eta-transform is undefined there."""


class NonpositiveTime(ValidationError):
    """Flow time must be strictly positive."""


class OutsideSupport(ValidationError):
    """Additive-law evaluation at a point with v_t(a) = 0."""


class OutsideU(ValidationError):
    """Multiplicative evaluation at an angle with r_t(theta) = 1."""


class InvalidRadius(ValidationError):
    """Radius 0 or 1 passed where the implicit function is singular."""


class ZeroLambda(ValidationError):
    """T is undefined at lambda = 0."""


class QuadratureNonconvergence(NumericalError):
    """Adaptive quadrature hit the depth cap before the tolerance."""


class EigenSolverFailure(NumericalError):
    """Dense eigensolver did not converge or returned non-finite values."""


class MismatchedModel(ValidationError):
    """Spectrum/profile/marginal combination that does not make sense."""
