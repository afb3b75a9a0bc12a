"""Kernel density estimation with Epanechnikov and Gaussian kernels.

Both kernels are parameterized in their unit-variance form: the Epanechnikov
kernel lives on ``[-sqrt(5), sqrt(5)]`` and the Gaussian kernel is the standard
normal pdf.  Bandwidth rules of thumb use fixed constants with the usual
``n**(-1/5)`` decay for density estimation and ``n**(-1/7)`` for gradient
(mode-seeking) work; the scale estimate fed to them is the population standard
deviation of the training samples.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

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

# Rule-of-thumb constants: density estimation (n**-1/5 decay) and density
# gradient estimation (n**-1/7 decay), per kernel.
SILVERMAN_CONSTANT = {"epanechnikov": 2.3449, "gaussian": 1.0492}
GRADIENT_CONSTANT = {"epanechnikov": 1.5232, "gaussian": 0.9686}

# Beyond this many bandwidths a Gaussian kernel contributes less than 1e-19
# of its peak; used only to window pdf evaluation on large sample sets.
_GAUSS_CUTOFF = 9.3


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


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density estimate: samples, kernel kind and bandwidth."""

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
        out = _pdf_windowed(self, flat)
        if scalar:
            return float(out[0])
        return out.reshape(np.atleast_1d(x).shape)


def _pdf_block(model: DensityModel, points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    src = model._sorted[lo:hi]
    if src.size == 0:
        return np.zeros(points.size)
    u = (points[:, None] - src[None, :]) / model.bandwidth
    k = kernel_eval(model.kernel, u)
    return k.sum(axis=1) / (model.samples.size * model.bandwidth)


def _pdf_windowed(model: DensityModel, points: np.ndarray) -> np.ndarray:
    n = model.samples.size
    if n * points.size <= 4_000_000:
        return _pdf_block(model, points, 0, n)
    # Large problems: sort the query points, evaluate in blocks against the
    # window of samples that can actually contribute to each block.
    order = np.argsort(points)
    out = np.empty(points.size)
    radius = model.support_radius
    srt = model._sorted
    block = 512
    for start in range(0, points.size, block):
        idx = order[start : start + block]
        pts = points[idx]
        lo = int(np.searchsorted(srt, pts[0] - radius, side="left"))
        hi = int(np.searchsorted(srt, pts[-1] + radius, side="right"))
        out[idx] = _pdf_block(model, pts, lo, hi)
    return out


def _kernel_cdf(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    if kind is KernelKind.EPANECHNIKOV:
        v = np.clip(u, -_SQRT5, _SQRT5)
        return _EPA_C * (v - v**3 / 15.0 + 2.0 * _SQRT5 / 3.0)
    return ndtr(u)


def _kernel_moment1(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    # Antiderivative of t*K(t) from -inf; tends to 0 at both ends (zero mean).
    if kind is KernelKind.EPANECHNIKOV:
        v = np.clip(u, -_SQRT5, _SQRT5)
        return _EPA_C * (v * v / 2.0 - v**4 / 20.0 - 1.25)
    return -_INV_SQRT_2PI * np.exp(-0.5 * np.minimum(u * u, 1500.0))


def _kernel_moment2(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    # Antiderivative of t^2*K(t) from -inf; tends to the unit variance at +inf.
    if kind is KernelKind.EPANECHNIKOV:
        v = np.clip(u, -_SQRT5, _SQRT5)
        return _EPA_C * (v**3 / 3.0 - v**5 / 25.0 + 2.0 * _SQRT5 / 3.0)
    phi = _INV_SQRT_2PI * np.exp(-0.5 * np.minimum(u * u, 1500.0))
    # mask u before multiplying so infinite edges cannot produce inf * 0
    finite_u = np.where(np.isinf(u), 0.0, u)
    return ndtr(u) - finite_u * phi


def kde_cdf(model: DensityModel, a: float, b: float) -> float:
    """Probability mass the estimate assigns to ``[a, b]``.

    Accepts infinite endpoints.  The closed-form kernel antiderivatives keep
    this exact (up to rounding), so the full line integrates to 1.
    """
    if not a <= b:
        raise OutOfRangeError(f"interval endpoints out of order: [{a}, {b}]")
    h = model.bandwidth
    x = model.samples
    ua = (a - x) / h
    ub = (b - x) / h
    total = np.sum(_kernel_cdf(model.kernel, ub) - _kernel_cdf(model.kernel, ua))
    return float(total / x.size)


def kde_cell_moments(model: DensityModel, boundaries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass, first and second moment of the estimate over each cell.

    ``boundaries`` is a non-decreasing array of cell edges (may start/end with
    ``-inf``/``inf``); cell ``i`` is ``[boundaries[i], boundaries[i+1])``.
    Returns three arrays of length ``len(boundaries) - 1``.
    """
    edges = np.asarray(boundaries, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise OutOfRangeError("boundaries must hold at least two edges")
    if np.any(np.diff(edges[np.isfinite(edges)]) < 0):
        raise OutOfRangeError("boundaries must be non-decreasing")
    h = model.bandwidth
    x = model.samples
    u = (edges[None, :] - x[:, None]) / h
    F = _kernel_cdf(model.kernel, u)
    M1 = _kernel_moment1(model.kernel, u)
    M2 = _kernel_moment2(model.kernel, u)
    dF = np.diff(F, axis=1)
    dM1 = np.diff(M1, axis=1)
    dM2 = np.diff(M2, axis=1)
    n = x.size
    mass = dF.sum(axis=0) / n
    first = (x[:, None] * dF + h * dM1).sum(axis=0) / n
    second = (x[:, None] ** 2 * dF + 2.0 * h * x[:, None] * dM1 + h * h * dM2).sum(axis=0) / n
    return mass, first, second
