"""Distances over raw, PAA and symbolic representations, plus information loss.

The symbolic lower bound ``mindist`` only sees cutline gaps, the PAA-to-symbol
bound ``mindist_paa`` additionally sees one real-valued side, and both are
scaled by ``sqrt(n/m)`` so the chain

    mindist <= mindist_paa <= euclidean  (in the normalized space)

makes the tightness-of-lower-bound ratio ``tlb`` a dimensionless quality score
in [0, 1].  ``dist_symbolic`` and ``dist_error`` are the centroid-based
distances that pair naturally with an MSE-optimal codebook.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import SymbolicSequence, TrainedEncoder, _as_row, encoder_space
from .density import KernelKind, bandwidth_silverman
from .discretize import quantize
from .errors import (
    CodebookMismatchError,
    LengthMismatchError,
    NotNormalizedError,
    TooShortError,
    ZeroDistanceError,
)
from .series import PaaSeries, TimeSeries

__all__ = [
    "euclidean",
    "mindist",
    "mindist_paa",
    "tlb",
    "dist_symbolic",
    "dist_error",
    "info_loss_to_std_gaussian",
]

# Entropy of a standard normal in nats.
_GAUSS_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)


def _values(x) -> np.ndarray:
    if isinstance(x, (TimeSeries, PaaSeries)):
        return x.values
    return np.asarray(x, dtype=float)


def euclidean(u, v) -> float:
    """Plain Euclidean distance between two equal-length series."""
    a, b = _values(u), _values(v)
    if a.size != b.size:
        raise LengthMismatchError(f"lengths differ: {a.size} vs {b.size}")
    return float(_euclidean(a.ravel(), b.ravel()))


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((a - b) ** 2, axis=-1))


def _check_same_codebook(a: SymbolicSequence, b: SymbolicSequence):
    if a.codebook != b.codebook:
        raise CodebookMismatchError("sequences come from different codebooks")
    if a.segments != b.segments or a.source_length != b.source_length:
        raise LengthMismatchError(
            f"shape differs: {a.segments}@{a.source_length} vs "
            f"{b.segments}@{b.source_length}"
        )


def mindist(a: SymbolicSequence, b: SymbolicSequence) -> float:
    """Symbol-space lower bound on the Euclidean distance.

    Identical or adjacent symbols contribute zero; otherwise the gap between
    the facing cutlines of the two cells.  Scaled by ``sqrt(n/m)``.
    """
    _check_same_codebook(a, b)
    cut = a.codebook.cutlines
    lo = np.minimum(a.symbols, b.symbols)
    hi = np.maximum(a.symbols, b.symbols)
    gap = np.where(hi - lo <= 1, 0.0, cut[np.maximum(hi - 1, 0)] - cut[np.minimum(lo, cut.size - 1)])
    width = a.source_length / a.segments
    return float(np.sqrt(width * np.sum(gap**2)))


def mindist_paa(y: PaaSeries, q: SymbolicSequence) -> float:
    """Lower bound between a PAA series and a symbolic sequence.

    Each segment contributes its distance to the nearest edge of the symbol's
    cell (zero when the PAA value already falls inside the cell).
    """
    if y.segments != q.segments or y.source_length != q.source_length:
        raise LengthMismatchError(
            f"shape differs: {y.segments}@{y.source_length} vs "
            f"{q.segments}@{q.source_length}"
        )
    width = y.source_length / y.segments
    return float(_mindist_paa(y.values, q.symbols, q.codebook.cutlines, width))


def _mindist_paa(values, symbols, cutlines, width: float) -> np.ndarray:
    edges = np.concatenate(([-np.inf], cutlines, [np.inf]))
    lo = edges[symbols]
    hi = edges[symbols + 1]
    below = np.where(lo > values, lo - values, 0.0)
    above = np.where(hi < values, values - hi, 0.0)
    diff = below + above
    return np.sqrt(width * np.sum(diff**2, axis=-1))


def tlb(u, s, encoder: TrainedEncoder) -> float:
    """Tightness of the lower bound for a pair of series under one encoder.

    Ratio of ``mindist_paa`` (first series kept as PAA reals, second encoded)
    to the Euclidean distance of the two series in the encoder's normalized
    space.  Always in [0, 1] up to rounding.

    Raises
    ------
    ZeroDistanceError
        If the two series coincide in the normalized space.
    """
    u_space, s_space = (encoder_space(encoder, _as_row(x)) for x in (u, s))
    return float(_tlb(encoder, u_space, s_space)[0])


def _tlb(encoder: TrainedEncoder, u_space, s_space) -> np.ndarray:
    """:func:`tlb` of each row pair, from the two stacks' :func:`encoder_space`."""
    (full_u, reduced_u, _), (full_s, reduced_s, _) = u_space, s_space
    if full_u.shape != full_s.shape:
        raise LengthMismatchError(f"shapes differ: {full_u.shape} vs {full_s.shape}")
    denom = _euclidean(full_u, full_s)
    if np.any(denom == 0.0):
        raise ZeroDistanceError("series coincide; the ratio is undefined")
    codebook = encoder.codebook
    width = full_u.shape[1] / reduced_u.shape[1]
    return _mindist_paa(reduced_u, quantize(codebook, reduced_s), codebook.cutlines, width) / denom


def dist_symbolic(a: SymbolicSequence, b: SymbolicSequence) -> float:
    """Euclidean distance between the centroid reconstructions, ``sqrt(n/m)`` scaled."""
    _check_same_codebook(a, b)
    cen = a.codebook.centroids
    diff = cen[a.symbols] - cen[b.symbols]
    width = a.source_length / a.segments
    return float(np.sqrt(width * np.sum(diff**2)))


def dist_error(u, c: SymbolicSequence) -> float:
    """Root mean squared error between a series and a symbolic reconstruction."""
    x = _values(u)
    if x.size != c.source_length:
        raise LengthMismatchError(
            f"series length {x.size} != encoded source length {c.source_length}"
        )
    return float(_dist_error(x.ravel(), c.symbols, c.codebook.centroids))


def _dist_error(x: np.ndarray, symbols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    recon = np.repeat(centroids[symbols], x.shape[-1] // symbols.shape[-1], axis=-1)
    return np.sqrt(np.mean((x - recon) ** 2, axis=-1))


def info_loss_to_std_gaussian(samples, bits: bool = False) -> float:
    """Divergence of the sample law from a standard normal, in nats (or bits).

    Estimated as the entropy gap ``ln(sqrt(2*pi*e)) - H``, with ``H`` the
    resubstitution entropy of a Gaussian KDE (Silverman bandwidth) evaluated
    at the samples themselves.  The estimate is non-negative for unit-variance
    laws up to estimator noise, and zero exactly for a standard normal.

    The KDE is evaluated on a fine grid (spacing far below the bandwidth) and
    interpolated at the samples; the approximation error is orders of
    magnitude below the estimator's own bias.

    Raises
    ------
    TooShortError
        If fewer than 1000 samples are supplied.
    NotNormalizedError
        If the sample mean or variance misses 0 / 1 by more than 1%.
    """
    x = np.sort(_values(samples))
    if x.size < 1000:
        raise TooShortError(f"need at least 1000 samples, got {x.size}")
    mean = float(np.mean(x))
    var = float(np.var(x))
    if abs(mean) > 0.01 or abs(var - 1.0) > 0.01:
        raise NotNormalizedError(
            f"samples must be Z-normalized; got mean {mean:.4f}, var {var:.4f}"
        )
    h = bandwidth_silverman(KernelKind.GAUSSIAN, math.sqrt(var), x.size)
    lo = x[0] - 8.0 * h
    hi = x[-1] + 8.0 * h
    grid_n = 16384
    step = (hi - lo) / (grid_n - 1)
    centers = lo + step * np.arange(grid_n)
    counts = np.bincount(
        np.clip(np.round((x - lo) / step).astype(int), 0, grid_n - 1), minlength=grid_n
    )
    half = int(math.ceil(8.0 * h / step))
    taps = np.exp(-0.5 * ((np.arange(-half, half + 1) * step) / h) ** 2)
    taps /= math.sqrt(2.0 * math.pi) * h
    dens = np.convolve(counts, taps, mode="same") / x.size
    at_samples = np.interp(x, centers, dens)
    entropy = -float(np.mean(np.log(np.maximum(at_samples, 1e-300))))
    loss = _GAUSS_ENTROPY - entropy
    return loss / math.log(2.0) if bits else loss
