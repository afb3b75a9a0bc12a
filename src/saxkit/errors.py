"""Exception taxonomy shared by all saxkit modules, and the checks that raise it.

Every error raised on a violated precondition subclasses :class:`SaxkitError`,
so callers can catch the whole family with one clause.  Most failures are
value-level problems, hence the ``ValueError`` mixin.
"""

import json


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


def integral(value, name: str, error: type[SaxkitError] = InvalidParamsError, minimum=None) -> int:
    """``value`` as an int when it is a whole number, such as 30 or 30.0, of
    at least ``minimum`` if one is given; any other value, such as 30.9,
    raises ``error`` instead of truncating."""
    try:
        whole = int(value)
        exact = value == whole
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise error(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and whole < minimum:
        raise error(f"{name} must be >= {minimum}, got {whole}")
    return whole


def parse_json(text: str, where: str):
    """The value of the JSON ``text``; text that is not JSON raises ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc}") from None


def json_fields(value, where: str, required, optional=()) -> dict:
    """``value`` when it is a JSON object with every key of ``required`` and
    no key outside ``required`` and ``optional``; else ``ParseError``."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a JSON object, got {value!r}")
    missing = [key for key in required if key not in value]
    unknown = [key for key in value if key not in required and key not in optional]
    if missing or unknown:
        problem = f"missing keys {missing}" if missing else f"unknown keys {unknown}"
        raise ParseError(f"{where}: {problem}")
    return value


def member(kind, value, name: str):
    """``kind(value)`` for the enum ``kind``; a value that names no member
    raises ``InvalidParamsError`` listing the members."""
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(m.value for m in kind)
        raise InvalidParamsError(f"unknown {name} {value!r}; expected one of {valid}") from None
