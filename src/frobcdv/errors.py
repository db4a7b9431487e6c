"""Exception hierarchy shared by all frobcdv modules."""


class FrobCdvError(Exception):
    """Base class for all errors raised by this package; raised at a stack
    of points (numerics.raise_at_first), indices are the positions of
    every failing point."""


class NoConvergence(FrobCdvError):
    """An iterative solver failed to reach its tolerance."""


class Singular(FrobCdvError):
    """Matrix inversion rejected: pivot/determinant below threshold."""


class EvaluationFailure(FrobCdvError):
    """A function could not be evaluated at a point."""


class DegenerateMetric(FrobCdvError):
    """The flat metric g = C_1ij is (numerically) degenerate."""


class NotSemisimple(FrobCdvError):
    """Eigenvalue gap of the Euler multiplication operator below threshold."""


class DefectiveU(FrobCdvError):
    """Euler multiplication operator is not (numerically) diagonalizable."""


class NotNormalForm(FrobCdvError):
    """Operation requires a spec in antidiagonal normal form."""


class ParseError(FrobCdvError):
    """Malformed spec or report file."""


class ValidationError(FrobCdvError):
    """Spec file parsed but is internally inconsistent."""


class UnknownName(FrobCdvError):
    """Requested catalog entry does not exist."""
