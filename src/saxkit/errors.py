"""Exception taxonomy shared by all saxkit modules.

Every error raised on a violated precondition subclasses :class:`SaxkitError`,
so callers can catch the whole family with one clause.  Most failures are
value-level problems, hence the ``ValueError`` mixin.
"""


class SaxkitError(Exception):
    """Base class for all saxkit errors."""


class ConstantSeriesError(SaxkitError, ValueError):
    """Series has zero variance; Z-normalization is undefined."""


class TooShortError(SaxkitError, ValueError):
    """Input has fewer elements than the operation requires."""


class IndivisibleLengthError(SaxkitError, ValueError):
    """Series length is not an integer multiple of the segment count."""


class OutOfRangeError(SaxkitError, ValueError):
    """Numeric argument falls outside its admissible range."""


class NonPositiveScaleError(SaxkitError, ValueError):
    """Scale parameter (bandwidth, std) must be strictly positive."""


class AlphabetTooSmallError(SaxkitError, ValueError):
    """Alphabet size below the minimum of 2 symbols."""


class InsufficientDistinctValuesError(SaxkitError, ValueError):
    """Fewer distinct sample values than requested centroids."""


class EmptyCellError(SaxkitError, ValueError):
    """A quantizer cell carries (numerically) zero probability mass."""


class NoConvergenceError(SaxkitError, RuntimeError):
    """Iteration hit its limit; ``partial`` holds the last iterate."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SymbolOutOfRangeError(SaxkitError, ValueError):
    """Symbol index outside [0, kappa)."""


class LengthMismatchError(SaxkitError, ValueError):
    """Operands have different lengths."""


class CodebookMismatchError(SaxkitError, ValueError):
    """Operands were produced with different codebooks."""


class ZeroDistanceError(SaxkitError, ValueError):
    """Denominator distance is zero; the ratio is undefined."""


class AlphabetMismatchError(SaxkitError, ValueError):
    """Distributions are defined over different alphabet sizes."""


class WindowLengthMismatchError(SaxkitError, ValueError):
    """Windows have different lengths."""


class StreamTooShortError(SaxkitError, ValueError):
    """Stream shorter than one detection window."""


class NotNormalizedError(SaxkitError, ValueError):
    """Samples are not Z-normalized (mean 0, variance 1) within tolerance."""


class ParseError(SaxkitError, ValueError):
    """Malformed input file; ``line`` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyFileError(SaxkitError, ValueError):
    """Input file contains no data rows."""


class GridInfeasibleError(SaxkitError, ValueError):
    """Experiment grid cell has no integer segment count dividing the length."""


class InvalidParamsError(SaxkitError, ValueError):
    """Generator or detector parameters are inconsistent."""


class EmptyTrainingError(SaxkitError, ValueError):
    """Training pool is empty for a method that requires one."""


class NoPositivesError(SaxkitError, ValueError):
    """Labels contain no positive windows; ROC is undefined."""


class NoNegativesError(SaxkitError, ValueError):
    """Labels contain no negative windows; ROC is undefined."""
