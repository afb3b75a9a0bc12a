"""Time-series containers, Z-normalization and piecewise aggregate approximation.

All statistics use the population convention (``ddof=0``).  PAA requires the
series length to be an exact multiple of the segment count; no padding or
fractional segments are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantSeriesError,
    IndivisibleLengthError,
    OutOfRangeError,
    TooShortError,
)

__all__ = [
    "TimeSeries",
    "PaaSeries",
    "NormalizationStats",
    "znormalize",
    "paa",
    "paa_then_znormalize",
    "paa_variance_prediction",
]


def _as_finite_array(values, name, ndim=1):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise OutOfRangeError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise TooShortError(f"{name} must contain at least one value")
    if not np.isfinite(arr).all():
        raise OutOfRangeError(f"{name} must contain only finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _constant_rows(rows: np.ndarray, std) -> np.ndarray:
    """Rows in which no value differs from the first one.  The std of such a
    row is often not exactly 0 in floating point; a row whose spread
    underflows to a zero std counts as constant too."""
    return (rows == rows[..., :1]).all(axis=-1, keepdims=True) | (std == 0.0)


def _row_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of each row as ``(..., 1)`` arrays, computed
    as ``np.mean``/``np.std`` do, so a stack and its single rows agree exactly."""
    n = rows.shape[-1]
    if n < 2:
        raise TooShortError("Z-normalization needs at least 2 values")
    mean = np.add.reduce(rows, axis=-1, keepdims=True) / n
    dev = rows - mean
    std = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / n)
    if _constant_rows(rows, std).any():
        raise ConstantSeriesError("cannot Z-normalize a constant series")
    if not np.isfinite(std).all():  # a non-finite mean makes std non-finite too
        raise OutOfRangeError("normalization stats must be finite")
    return mean, std


def _paa_rows(rows: np.ndarray, segments: int) -> np.ndarray:
    """Segment means of each row (last axis), the rows' length checked first."""
    n, m = rows.shape[-1], int(segments)
    if m < 1 or m > n:
        raise OutOfRangeError(f"segment count {m} outside [1, {n}]")
    if n % m != 0:
        raise IndivisibleLengthError(f"length {n} is not a multiple of {m} segments")
    return np.add.reduce(rows.reshape(*rows.shape[:-1], m, n // m), axis=-1) / (n // m)


@dataclass(frozen=True)
class TimeSeries:
    """A finite, real-valued, equally spaced series.

    Parameters
    ----------
    values : array-like of float
        The observations.  NaN and infinities are rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_finite_array(self.values, "values"))

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class PaaSeries:
    """Piecewise aggregate approximation of a :class:`TimeSeries`.

    ``values`` holds one segment mean per segment; ``source_length`` is the
    length of the series the segments were computed from.
    """

    values: np.ndarray
    source_length: int

    def __post_init__(self):
        object.__setattr__(self, "values", _as_finite_array(self.values, "values"))
        n, m = int(self.source_length), self.values.size
        if n < 1 or n % m != 0:
            raise IndivisibleLengthError(
                f"source length {n} is not a multiple of {m} segments"
            )
        object.__setattr__(self, "source_length", n)

    def __len__(self):
        return self.values.size

    @property
    def segments(self) -> int:
        return self.values.size

    @property
    def segment_size(self) -> int:
        return self.source_length // self.values.size


@dataclass(frozen=True)
class NormalizationStats:
    """Mean and population standard deviation removed by a normalization."""

    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise OutOfRangeError("normalization stats must be finite")
        if self.std <= 0.0:
            raise ConstantSeriesError("standard deviation must be strictly positive")


def znormalize(series: TimeSeries) -> tuple[TimeSeries, NormalizationStats]:
    """Center and scale a series to zero mean and unit population variance.

    Returns
    -------
    (TimeSeries, NormalizationStats)
        The normalized series and the statistics that were removed.

    Raises
    ------
    TooShortError
        If the series has fewer than 2 values.
    ConstantSeriesError
        If the population standard deviation is zero.
    """
    x = series.values
    mean, std = _row_stats(x)
    return TimeSeries((x - mean) / std), NormalizationStats(float(mean[0]), float(std[0]))


def paa(series: TimeSeries, segments: int) -> PaaSeries:
    """Reduce a series to ``segments`` equal-width segment means.

    Raises
    ------
    IndivisibleLengthError
        If ``len(series)`` is not an exact multiple of ``segments``.
    OutOfRangeError
        If ``segments`` is not in [1, len(series)].
    """
    x = series.values
    return PaaSeries(_paa_rows(x, segments), x.size)


def paa_then_znormalize(
    series: TimeSeries, segments: int
) -> tuple[PaaSeries, NormalizationStats]:
    """PAA first, then Z-normalize the segment means.

    Averaging shrinks the variance of a unit-variance series (see
    :func:`paa_variance_prediction`); normalizing after the reduction restores
    unit variance so a Gaussian-quantile codebook stays calibrated.
    """
    reduced = paa(series, segments)
    normalized, stats = znormalize(TimeSeries(reduced.values))
    return PaaSeries(normalized.values, series.values.size), stats


def paa_variance_prediction(segment_size: int, mean_correlation: float) -> float:
    """Predicted variance of a segment mean of a unit-variance series.

    For jointly Gaussian unit-variance samples with average within-segment
    pairwise correlation ``mean_correlation`` (rho), a mean over ``m`` samples
    has variance ``(1 + (m - 1) * rho) / m``.  rho = 1 keeps variance 1;
    rho = 0 (i.i.d.) shrinks it to ``1/m``.

    Raises
    ------
    OutOfRangeError
        If ``segment_size < 1`` or ``mean_correlation`` falls outside the
        admissible interval ``[-1/(m-1), 1]``.
    """
    m = int(segment_size)
    if m < 1:
        raise OutOfRangeError(f"segment size must be >= 1, got {m}")
    rho = float(mean_correlation)
    if m == 1:
        # A single-sample mean is the sample itself regardless of correlation.
        return 1.0
    lo = -1.0 / (m - 1)
    if not (lo <= rho <= 1.0):
        raise OutOfRangeError(
            f"mean correlation {rho} outside admissible range [{lo}, 1]"
        )
    return (1.0 + (m - 1) * rho) / m
