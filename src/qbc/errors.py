"""Exception types raised by validation and simulation code.

The contract runs both ways: every :class:`QbcError` names a violated
input invariant, so the input, not the numerics, is at fault; and every
input the package refuses raises one.  ``QbcError`` is a ``ValueError``,
as a refused caller value is.  The package raises no plain ``ValueError``
of its own, so one that escapes it comes from NumPy (``LinAlgError``
among them): a numerical failure, as a ``FloatingPointError`` is.  (A
``TypeError`` still marks an object of the wrong kind, such as an
unknown curve; an unknown family is a refused input.)  Class names
double as machine-readable diagnostics: the CLI prints
``type(exc).__name__`` and exits 2 for any of them, subclasses defined
elsewhere included.
"""


class QbcError(ValueError):
    """Base class for all errors raised by this package."""


class DimMismatch(QbcError):
    """Operands live on Hilbert spaces of incompatible dimensions."""


class NotHermitian(QbcError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefinite(QbcError):
    """Matrix has an eigenvalue below the negative tolerance floor."""


class NotNormalized(QbcError):
    """State vector norm or density-operator trace is not 1."""


class NotOrthogonal(QbcError):
    """Commitment states must be orthogonal and are not."""


class NotQubit(QbcError):
    """Operation requires a 2-dimensional state."""


class BadRank(QbcError):
    """Requested rank outside 1..dim."""


class ParamOutOfRange(QbcError):
    """Family parameter outside its admissible interval."""


class NotAMeasurement(QbcError):
    """Projector list is not a complete orthogonal measurement."""


class BothCheat(QbcError):
    """Coin-toss analysis covers one-sided cheating only."""
