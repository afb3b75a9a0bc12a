"""Kernel density estimation with Epanechnikov and Gaussian kernels.

Both kernels are parameterized in their unit-variance form: the Epanechnikov
kernel lives on ``[-sqrt(5), sqrt(5)]`` and the Gaussian kernel is the standard
normal pdf.  Bandwidth rules of thumb use fixed constants with the usual
``n**(-1/5)`` decay for density estimation and ``n**(-1/7)`` for gradient
(mode-seeking) work; the scale estimate fed to them is the population standard
deviation of the training samples.

On ``|u| <= sqrt(5)`` the Epanechnikov kernel and its first three moment
antiderivatives are polynomials in ``u`` of degree at most 5, so an
Epanechnikov model serves its density, cdf and cell moments from prefix sums
over its sorted samples.  A Gaussian model sums its kernels directly; mode and
valley search start from a binned Gaussian estimate on a grid of step h/32.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveScaleError, OutOfRangeError, TooShortError

__all__ = [
    "KernelKind",
    "DensityModel",
    "kernel_eval",
    "bandwidth_silverman",
    "bandwidth_gradient",
    "kde_cdf",
    "kde_cell_moments",
]

_SQRT5 = math.sqrt(5.0)
_EPA_C = 3.0 / (4.0 * _SQRT5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Width, in bandwidths, of the blocks the Epanechnikov prefix sums are taken
# in.  It exceeds the kernel's support (2 * sqrt(5)), so the samples whose
# bumps reach one point lie in at most two adjacent blocks.
_EPA_BLOCK = 5.0
# The farthest a sample may lie from the samples' mean, in bandwidths.  Past
# it an offset is not exact to a bandwidth, so neither are its block and the
# offset within it; the prefix sums are finite well before the float range.
_EPA_MAX_OFFSET = 2.0**52

# Rule-of-thumb constants: density estimation (n**-1/5 decay) and density
# gradient estimation (n**-1/7 decay), per kernel.
SILVERMAN_CONSTANT = {"epanechnikov": 2.3449, "gaussian": 1.0492}
GRADIENT_CONSTANT = {"epanechnikov": 1.5232, "gaussian": 0.9686}

# Beyond this many bandwidths a Gaussian kernel contributes less than 1e-19
# of its peak.
_GAUSS_CUTOFF = 9.3
# The binned Gaussian KDE: bins per bandwidth, the taps' reach in
# bandwidths, and the gap, in bandwidths, that starts a new run of samples.
# Bins of h/32 keep a shoulder mode whose valley is 0.066 h away (h/16 lose
# it); the taps' cut at 5 h drops 6e-7 of each kernel's mass.
_GRID_BINS = 32
_GRID_REACH = 5
_GRID_GAP = 10.0


class KernelKind(str, enum.Enum):
    EPANECHNIKOV = "epanechnikov"
    GAUSSIAN = "gaussian"


def kernel_eval(kind: KernelKind, u):
    """Evaluate the standardized kernel at ``u`` (scalar or array)."""
    u = np.asarray(u, dtype=float)
    if KernelKind(kind) is KernelKind.EPANECHNIKOV:
        out = np.maximum(0.0, _EPA_C * (1.0 - u * u / 5.0))
    else:
        out = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return out if out.ndim else float(out)


def _check_bandwidth_args(sigma, n):
    if sigma <= 0.0 or not np.isfinite(sigma):
        raise NonPositiveScaleError(f"scale must be positive, got {sigma}")
    if n < 1:
        raise TooShortError(f"sample count must be >= 1, got {n}")


def bandwidth_silverman(kind: KernelKind, sigma: float, n: int) -> float:
    """Rule-of-thumb bandwidth for density estimation: ``c * sigma * n**(-1/5)``."""
    _check_bandwidth_args(sigma, n)
    return SILVERMAN_CONSTANT[KernelKind(kind).value] * sigma * n ** (-1.0 / 5.0)


def bandwidth_gradient(kind: KernelKind, sigma: float, n: int) -> float:
    """Rule-of-thumb bandwidth for density-gradient work: ``c * sigma * n**(-1/7)``."""
    _check_bandwidth_args(sigma, n)
    return GRADIENT_CONSTANT[KernelKind(kind).value] * sigma * n ** (-1.0 / 7.0)


def _epa_coefficients() -> np.ndarray:
    """``coef[k, p, q]`` with ``sum coef[k, p, q] s**p t**q`` the integral of
    ``y**k K(y - t)`` over ``[t - sqrt(5), s]``, for the Epanechnikov ``K`` and
    ``k = 0, 1, 2``: a polynomial of degree ``k + 3`` while ``|s - t| <= sqrt(5)``.
    """
    coef = np.zeros((3, 6, 6))
    for k in range(3):
        # antiderivative of y^k (1 - (y - t)^2 / 5) as {(power of y, power of t): factor}
        terms = {
            (k + 1, 0): 1.0 / (k + 1),
            (k + 1, 2): -1.0 / (5 * (k + 1)),
            (k + 2, 1): 2.0 / (5 * (k + 2)),
            (k + 3, 0): -1.0 / (5 * (k + 3)),
        }
        for (py, pt), c in terms.items():
            coef[k, py, pt] += c
            for j in range(py + 1):  # minus its value at y = t - sqrt(5)
                coef[k, 0, pt + j] -= c * math.comb(py, j) * (-_SQRT5) ** (py - j)
    return _EPA_C * coef


_EPA_COEF = _epa_coefficients()
_POWERS = np.arange(6)


class _EpaSums(NamedTuple):
    """Sorted samples in bandwidth units about their mean, with prefix sums.

    ``t = (x - mean) / h`` is cut into grid blocks of width ``_EPA_BLOCK``;
    ``local`` holds the prefix sums of ``tau**0 .. tau**5`` with ``tau`` the
    offset from the sample's block centre, and ``whole`` those of a whole
    bump's moments ``1, t, t**2 + 1``.  Both have a leading row of zeros.
    """

    mean: float
    t: np.ndarray
    block: np.ndarray
    local: np.ndarray
    whole: np.ndarray


def _prefix(columns: np.ndarray) -> np.ndarray:
    out = np.zeros((columns.shape[0] + 1, columns.shape[1]))
    np.cumsum(columns, axis=0, out=out[1:])
    return out


def _epa_sums(srt: np.ndarray, h: float) -> _EpaSums:
    with np.errstate(over="ignore"):
        mean = float(np.mean(srt))
        if not math.isfinite(mean):  # the plain sum overflowed; that of the scaled samples cannot
            mean = float(np.sum(srt / srt.size))
        t = (srt - mean) / h  # an overflow here fails the check below
    if not np.abs(t).max() < _EPA_MAX_OFFSET:
        raise OutOfRangeError(
            f"samples lie over 2**52 bandwidths of {h!r} from their mean; "
            "an Epanechnikov model cannot resolve them"
        )
    block = np.floor(t / _EPA_BLOCK)
    tau = t - (block + 0.5) * _EPA_BLOCK
    whole = np.stack([np.ones_like(t), t, t * t + 1.0], axis=1)
    return _EpaSums(mean, t, block, _prefix(tau[:, None] ** _POWERS), _prefix(whole))


def _epa_windows(sums: _EpaSums, s: np.ndarray):
    """The bumps each point ``s`` (bandwidth units) falls inside, by block.

    Returns the count of bumps lying wholly left of ``s`` and, for each of
    the two blocks the straddling bumps can come from, ``(u, w, centre)``:
    ``u = s - centre`` (0 where the block part is empty) and ``w`` the sums
    of ``tau**0 .. tau**5`` over that part.  Infinite points straddle nothing.
    """
    left = np.searchsorted(sums.t, s - _SQRT5, side="right")
    stop = np.searchsorted(sums.t, s + _SQRT5, side="left")
    first = sums.block[np.minimum(left, sums.t.size - 1)]
    split = np.clip(np.searchsorted(sums.block, first + 1.0), left, stop)
    parts = []
    for lo, hi, blk in ((left, split, first), (split, stop, first + 1.0)):
        centre = (blk + 0.5) * _EPA_BLOCK
        u = np.where(hi > lo, s - centre, 0.0)
        parts.append((u, sums.local[hi] - sums.local[lo], centre))
    return left, parts


def _epa_antiderivatives(model: DensityModel, edges: np.ndarray) -> np.ndarray:
    """``(edges, 3)``: over all samples, the sum of the integrals of
    ``y**k K(y - t_i)`` over ``(-inf, s]`` for k = 0, 1, 2, in the centred
    bandwidth units ``s = (edge - mean) / h`` and ``t_i = (x_i - mean) / h``.
    """
    sums = model._epa
    with np.errstate(over="ignore"):  # an edge past the float range here is infinite
        s = (edges - sums.mean) / model.bandwidth
    left, parts = _epa_windows(sums, s)
    out = sums.whole[left]
    for u, w, centre in parts:
        m0, m1, m2 = np.einsum("ep,kpq,eq->ke", u[:, None] ** _POWERS, _EPA_COEF, w)
        # moments about the block centre, shifted back to the sample mean
        out[:, 0] += m0
        out[:, 1] += centre * m0 + m1
        out[:, 2] += centre * (centre * m0 + 2.0 * m1) + m2
    return out


def _epa_pdf(model: DensityModel, points: np.ndarray) -> np.ndarray:
    sums = model._epa
    with np.errstate(over="ignore"):  # a point past the float range here is infinite
        s = (points - sums.mean) / model.bandwidth
    _, parts = _epa_windows(sums, s)
    total = np.zeros(points.size)
    for u, w, _ in parts:
        # sum of 1 - (u - tau)^2 / 5 over the bumps in this block part
        total += (1.0 - u * u / 5.0) * w[:, 0] + 0.4 * u * w[:, 1] - 0.2 * w[:, 2]
    out = np.maximum(0.0, _EPA_C * total / (sums.t.size * model.bandwidth))
    out[np.isnan(s)] = np.nan
    return out


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density estimate: samples, kernel kind and bandwidth.

    An Epanechnikov model sorts its samples once and keeps prefix sums of
    their powers (O(n log n) time, O(n) memory).  Its ``pdf``, ``kde_cdf``
    and ``kde_cell_moments`` then cost O(log n) per point or edge and never
    form a samples-by-points matrix.  The sums are taken about the sample
    mean in bandwidth units, within blocks a few bandwidths wide, so the
    cell moments stay as accurate as the dense formulas whatever the data's
    offset or its spread in bandwidths.  Samples more than 2**52
    bandwidths from their mean raise OutOfRangeError.  A Gaussian model
    sums its kernels directly.
    """

    samples: np.ndarray
    kernel: KernelKind
    bandwidth: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise TooShortError("density model needs a non-empty 1-D sample array")
        if not np.all(np.isfinite(arr)):
            raise OutOfRangeError("density samples must be finite")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise NonPositiveScaleError(f"bandwidth must be positive, got {self.bandwidth}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "kernel", KernelKind(self.kernel))
        object.__setattr__(self, "_sorted", np.sort(arr))
        if self.kernel is KernelKind.EPANECHNIKOV:
            object.__setattr__(self, "_epa", _epa_sums(self._sorted, float(self.bandwidth)))

    @property
    def support_radius(self) -> float:
        """Distance beyond which a single kernel's contribution is negligible."""
        if self.kernel is KernelKind.EPANECHNIKOV:
            return _SQRT5 * self.bandwidth
        return _GAUSS_CUTOFF * self.bandwidth

    def pdf(self, x):
        """Density estimate at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        flat = np.atleast_1d(x).ravel()
        if self.kernel is KernelKind.EPANECHNIKOV:
            out = _epa_pdf(self, flat)
        else:
            out = np.where(np.isnan(flat), np.nan, 0.0)  # 0 at infinite points
            finite = np.isfinite(flat)
            s0, _, _, a = _gauss_sums(self.samples, self.bandwidth, flat[finite])
            scale = _INV_SQRT_2PI / (self.samples.size * self.bandwidth)
            out[finite] = s0 * np.exp(-0.5 * a) * scale
        if scalar:
            return float(out[0])
        return out.reshape(np.atleast_1d(x).shape)


def _gauss_sums(samples: np.ndarray, h: float, points: np.ndarray) -> np.ndarray:
    """``(4, points)``: per finite point ``x``, the sums over the samples of
    ``w``, ``w * u`` and ``w * u**2`` with ``u = (s - x) / h``, and the anchor
    ``a``, the least ``u**2``: ``w = exp(-(u**2 - a) / 2)`` cannot underflow
    at the nearest sample.  The KDE is ``s0 * exp(-a / 2) / (n h sqrt(2 pi))``,
    its slope has the sign of ``s1``, its curvature that of ``s2 - s0``, and
    the mean-shift step is ``h * s1 / s0``.  Past about 1.3e154 bandwidths
    from every sample ``a`` is infinite and every ``w`` is 1: the KDE is 0
    and the step leads to the samples' mean.
    """
    out = np.empty((4, points.size))
    block = max(1, (1 << 22) // samples.size)  # 4M sample-point pairs a block
    for start in range(0, points.size, block):
        rows = slice(start, start + block)
        with np.errstate(over="ignore", invalid="ignore"):
            u = (samples[None, :] - points[rows, None]) / h
            z = u * u
            a = z.min(axis=1)
            w = np.exp(-0.5 * (z - a[:, None]))
            w[np.isinf(a)] = 1.0  # where z - a was inf - inf
            out[:, rows] = w.sum(axis=1), (w * u).sum(axis=1), (w * z).sum(axis=1), a
    return out


def _binned_gauss(srt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid positions and the Gaussian KDE of the sorted samples there, by
    linear binning at ``h / _GRID_BINS`` and a convolution with the kernel cut
    at ``_GRID_REACH`` bandwidths (Silverman 1982; Fan & Marron 1994).

    Runs of samples split at gaps over ``_GRID_GAP`` bandwidths each get a
    grid padded by the taps' reach, so a far outlier costs a few hundred bins,
    not the gap.  The grids lie end to end in one convolution; the padding
    keeps each run's taps off its neighbours.
    """
    step = h / _GRID_BINS
    reach = _GRID_REACH * _GRID_BINS
    cut = np.flatnonzero(np.diff(srt) > _GRID_GAP * h) + 1
    first, end = np.concatenate(([0], cut)), np.concatenate((cut, [srt.size]))
    run = np.repeat(np.arange(first.size), end - first)
    origin = srt[first]  # each run's grid has its first sample at bin ``reach``
    pos = (srt - origin[run]) / step + reach
    i = np.floor(pos).astype(np.int64)
    frac = pos - i
    size = i[end - 1] + reach + 2
    offset = np.concatenate(([0], np.cumsum(size)[:-1]))
    total = int(size.sum())
    at = offset[run] + i
    counts = np.bincount(at, 1.0 - frac, total) + np.bincount(at + 1, frac, total)
    # Linear binning, and linear interpolation between grid points, each add
    # step**2 / 6 to the kernel's variance on average; taps of variance
    # h**2 - step**2 / 3 give the KDE back to second order in the step.
    taps_h = math.sqrt(1.0 - 1.0 / (3.0 * _GRID_BINS**2)) * h
    taps = np.exp(-0.5 * (np.arange(-reach, reach + 1) * step / taps_h) ** 2)
    f = np.convolve(counts, taps, mode="same") * (_INV_SQRT_2PI / (srt.size * taps_h))
    bins = np.arange(total) - np.repeat(offset + reach, size)
    return np.repeat(origin, size) + bins * step, f


# Gaussian kernel antiderivatives, from -inf, of K(t), t*K(t) and t^2*K(t).
def _kernel_cdf(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtr  # imported here: scipy.special is slow to load

    return ndtr(u)


def _kernel_moment1(u: np.ndarray) -> np.ndarray:
    # tends to 0 at both ends (zero mean)
    return -_INV_SQRT_2PI * np.exp(-0.5 * np.minimum(u * u, 1500.0))


def _kernel_moment2(u: np.ndarray) -> np.ndarray:
    # tends to the unit variance at +inf
    phi = _INV_SQRT_2PI * np.exp(-0.5 * np.minimum(u * u, 1500.0))
    # mask u before multiplying so infinite edges cannot produce inf * 0
    finite_u = np.where(np.isinf(u), 0.0, u)
    return _kernel_cdf(u) - finite_u * phi


def kde_cdf(model: DensityModel, a: float, b: float) -> float:
    """Probability mass the estimate assigns to ``[a, b]``.

    Accepts infinite endpoints.  The closed-form kernel antiderivatives keep
    this exact (up to rounding), so the full line integrates to 1.  Endpoints
    out of order, or NaN, raise OutOfRangeError.
    """
    mass, _, _ = kde_cell_moments(model, [a, b])
    return float(mass[0])


def kde_cell_moments(model: DensityModel, boundaries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass, first and second moment of the estimate over each cell.

    ``boundaries`` is a non-decreasing array of cell edges (may start/end with
    ``-inf``/``inf``); cell ``i`` is ``[boundaries[i], boundaries[i+1])``.
    Returns three arrays of length ``len(boundaries) - 1``.

    For an Epanechnikov model a call costs O(kappa log n) on top of the
    model's one-off O(n log n) prefix sums, so kappa of 2**16 and more is
    cheap.  Its moments are formed about the sample mean ``c`` as
    ``c * mass + h * d1`` and ``c**2 * mass + 2 c h d1 + h**2 d2``, so the
    error in moment k stays near ``1e-15 * (|c| + spread + h)**k`` however
    large the offset ``c``.  A Gaussian model builds dense samples-by-edges
    kernel matrices.
    """
    edges = np.asarray(boundaries, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise OutOfRangeError("boundaries must hold at least two edges")
    if not np.all(edges[1:] >= edges[:-1]):
        raise OutOfRangeError("boundaries must be non-decreasing and not NaN")
    h = model.bandwidth
    x = model.samples
    n = x.size
    if model.kernel is KernelKind.EPANECHNIKOV:
        c = model._epa.mean
        mass, d1, d2 = np.diff(_epa_antiderivatives(model, edges), axis=0).T / n
        return mass, c * mass + h * d1, c * (c * mass + 2.0 * h * d1) + h * h * d2
    with np.errstate(over="ignore"):  # an edge past the float range in bandwidths is infinite
        u = (edges[None, :] - x[:, None]) / h
        dF = np.diff(_kernel_cdf(u), axis=1)
        dM1 = np.diff(_kernel_moment1(u), axis=1)
        dM2 = np.diff(_kernel_moment2(u), axis=1)
    mass = dF.sum(axis=0) / n
    first = (x[:, None] * dF + h * dM1).sum(axis=0) / n
    second = (x[:, None] ** 2 * dF + 2.0 * h * x[:, None] * dM1 + h * h * dM2).sum(axis=0) / n
    return mass, first, second
