"""Exception types shared across the package.

Every error raised by the public API derives from :class:`ChoikitError`,
so callers can catch one base class.  The concrete subclasses matter to
the command line tool, which maps them onto exit codes in ``cli._EXIT_CODES``.
"""


class ChoikitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ChoikitError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(ChoikitError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class ConvergenceFailure(ChoikitError):
    """A numpy factorization failed to converge."""


class NotCompletelyPositive(ChoikitError):
    """A positive-semidefinite block matrix was required but an eigenvalue
    is negative beyond tolerance.  When available, ``witness`` carries the
    offending unit eigenvector."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotTracePreserving(ChoikitError):
    """The operation was required to be trace preserving but is not."""


class NotTotallyEntangled(ChoikitError):
    """The state is not pure with an invertible matrix form, so it lies
    outside the group of totally entangled pure states."""


class SingularMatrix(ChoikitError):
    """A matrix required to be invertible is singular within tolerance."""


class DifferentChannels(ChoikitError):
    """Two operator sets were required to describe the same operation
    but their block matrices differ beyond tolerance."""


class NumericalFailure(ChoikitError):
    """Internal cross-checks disagreed; the computed result is unreliable."""


class ParseError(ChoikitError):
    """An input document is malformed or violates its schema."""


class InvalidValue(ChoikitError, ValueError):
    """A non-finite entry, a non-positive count or a bad tolerance (also a
    ValueError); in the command line tool, a computed value that overflowed."""
