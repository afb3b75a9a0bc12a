"""Mean-shift mode seeking on 1-D samples and the codebooks built from modes.

The shift vector uses a Gaussian weight profile, so following it climbs the
Gaussian KDE of the samples.  In 1-D a trajectory started at a sample ends at
the first density maximum uphill of it, so the modes mean-shift reaches from
every sample are the KDE maxima whose basin holds a sample.  A binned KDE
(grid step h/32) finds them and the valleys between them in one pass, and
Newton steps on exact kernel sums polish each one: no trajectory is followed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel, KernelKind, _binned_gauss, _gauss_sums, bandwidth_gradient
from .discretize import Codebook, CodebookMethod
from .errors import (
    InsufficientDistinctValuesError,
    NoConvergenceError,
    NonPositiveScaleError,
    OutOfRangeError,
    TooShortError,
)

__all__ = [
    "ModeSet",
    "mean_shift_vector",
    "mean_shift_modes",
    "modes_to_codebook",
    "mean_shift_codebook",
]

# A cutline search stops at a step under this many bandwidths, or after
# this many steps (bisection reaches adjacent floats well before).
_VALLEY_TOL = 1e-9
_VALLEY_STEPS = 100


@dataclass(frozen=True)
class ModeSet:
    """Strictly increasing density mode locations found by mean-shift."""

    modes: np.ndarray
    bandwidth: float
    sample_count: int

    def __post_init__(self):
        arr = np.asarray(self.modes, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise TooShortError("mode set must hold at least one mode")
        if not np.all(np.isfinite(arr)):
            raise OutOfRangeError("modes must be finite")
        if np.any(np.diff(arr) <= 0.0):
            raise OutOfRangeError("modes must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "modes", arr)

    def __len__(self):
        return self.modes.size


def _check_samples_bandwidth(samples, bandwidth):
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise TooShortError("need a non-empty 1-D sample array")
    if not np.all(np.isfinite(x)):
        raise OutOfRangeError("samples must be finite")
    if not (np.isfinite(bandwidth) and bandwidth > 0.0):
        raise NonPositiveScaleError(f"bandwidth must be positive, got {bandwidth}")
    return x


def mean_shift_vector(samples, bandwidth: float, x: float) -> float:
    """Displacement of ``x`` toward the weighted mean of the samples.

    Weights are ``exp(-((s - x) / h)**2 / 2)``; the displacement points uphill
    on the Gaussian KDE of the samples and vanishes exactly at its stationary
    points.  Where an offset ``(s - x) / h`` overflows: next to a nearer
    sample its weight is 0; if every sample is past about 1.3e154 bandwidths
    all weigh 1 and the shift is ``mean(samples) - x``.  A shift past the
    float range raises OutOfRangeError.
    """
    arr = _check_samples_bandwidth(samples, bandwidth)
    if not np.isfinite(x):
        raise OutOfRangeError(f"query point must be finite, got {x}")
    x = float(x)
    s0, s1, _, a = _gauss_sums(arr, bandwidth, np.array([x]))[:, 0]
    shift = bandwidth * s1 / s0
    if not np.isfinite(shift):  # w * u was 0 * inf, or the u summed past the range
        with np.errstate(over="ignore"):  # a shift past the range is raised below
            if np.isinf(a):
                shift = np.sum(arr / arr.size) - x
            else:
                near = np.isfinite((arr - x) / bandwidth)
                s0, s1, _, _ = _gauss_sums(arr[near], bandwidth, np.array([x]))[:, 0]
                shift = bandwidth * s1 / s0
    if not np.isfinite(shift):
        raise OutOfRangeError(f"the shift from {x!r} lies past the float range")
    return float(shift)


def _merge_endpoints(endpoints: np.ndarray, h: float) -> np.ndarray:
    pts = np.sort(endpoints)
    groups = np.split(pts, np.flatnonzero(np.diff(pts) > 0.5 * h) + 1)
    return np.unique([g.mean() for g in groups])


def _basin_peaks(grid_x: np.ndarray, f: np.ndarray, srt: np.ndarray) -> np.ndarray:
    """Grid indices of the binned density's maxima whose basin holds a sample.

    Consecutive maxima share the basin boundary at the lowest grid point
    between them.
    """
    peaks = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:])) + 1
    bounds = [p + int(np.argmin(f[p:q])) for p, q in zip(peaks[:-1], peaks[1:])]
    held = np.bincount(np.searchsorted(grid_x[bounds], srt), minlength=peaks.size)
    return peaks[held > 0]


def _polish(samples, h, x, lo, hi, tol, max_iter, peak):
    """Safeguarded Newton on the exact log density's slope, from each ``x`` to
    the maximum (``peak``) or minimum bracketed by ``(lo, hi)``.  Each slope's
    sign narrows its bracket.  A step that leaves the bracket or meets the
    wrong curvature becomes a plain mean-shift step (maximum) or a bisection
    (minimum).  Returns the points and which of them took a step under ``tol``.
    """
    sign = 1.0 if peak else -1.0
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    done = np.zeros(x.size, dtype=bool)
    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        p = x[act]
        s0, s1, s2, _ = _gauss_sums(samples, h, p)
        lo[act] = np.where(sign * s1 > 0.0, p, lo[act])  # the extremum lies right of p
        hi[act] = np.where(sign * s1 < 0.0, p, hi[act])
        # Newton on the log density's slope s1 / (h s0), whose own slope has the
        # sign of c: it is linear in a Gaussian tail, so gaps take a few steps
        c = s0 * (s2 - s0) - s1 * s1
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p - h * s0 * s1 / c
        ok = (sign * c < 0.0) & (newton > lo[act]) & (newton < hi[act])
        new = np.where(ok, newton, p + h * s1 / s0 if peak else 0.5 * (lo[act] + hi[act]))
        x[act] = new
        done[act] = np.abs(new - p) < tol
    return x, done


def mean_shift_modes(
    samples, bandwidth: float, tol: float | None = None, max_iter: int = 1000
) -> ModeSet:
    """The modes mean-shift trajectories reach from every sample.

    They are the Gaussian KDE's maxima whose basin holds a sample.  Each such
    maximum of a binned KDE (grid step ``bandwidth / 32``) is polished on the
    exact kernel sums: a Newton step on the log density where its curvature
    is negative and the step stays inside the bracket the slopes seen so far
    leave, else a plain mean-shift step.  A mode is the point reached by the first step shorter
    than ``tol`` (default ``1e-6 * bandwidth``); ``max_iter`` bounds the steps
    each mode may take.  Modes within half a bandwidth merge at their mean.

    Raises
    ------
    NoConvergenceError
        If any mode still moves after ``max_iter`` steps; ``partial`` carries
        the mode set built from the modes that did converge, when any exist.
    """
    x = _check_samples_bandwidth(samples, bandwidth)
    h = float(bandwidth)
    if tol is None:
        tol = 1e-6 * h
    if tol <= 0.0 or max_iter < 1:
        raise OutOfRangeError("tol must be positive and max_iter >= 1")
    srt = np.sort(x)
    grid_x, f = _binned_gauss(srt, h)
    peaks = grid_x[_basin_peaks(grid_x, f, srt)]
    bracket = np.r_[-np.inf, peaks, np.inf]  # each mode lies between its neighbouring peaks
    modes, done = _polish(x, h, peaks, bracket[:-2], bracket[2:], tol, max_iter, peak=True)
    if not done.all():
        partial = ModeSet(_merge_endpoints(modes[done], h), h, x.size) if done.any() else None
        raise NoConvergenceError(
            f"{int(np.sum(~done))} modes still moving after {max_iter} steps", partial=partial
        )
    return ModeSet(_merge_endpoints(modes, h), h, x.size)


def modes_to_codebook(mode_set: ModeSet, density: DensityModel) -> Codebook:
    """Codebook with centroids at the modes and cutlines at density minima.

    ``density`` is the Gaussian KDE the modes came from.  Each cutline is the
    exact minimum of the density between two adjacent modes: the lowest
    point of a binned estimate (grid step ``bandwidth / 32``) between them,
    refined to where the exact slope changes sign from negative to positive.
    A single mode falls back to a 2-symbol codebook split at the mode, with
    centroids one bandwidth either side.

    Raises
    ------
    OutOfRangeError
        If ``density`` does not use the Gaussian kernel.
    """
    if density.kernel is not KernelKind.GAUSSIAN:
        raise OutOfRangeError("mode codebooks cut the Gaussian KDE the modes came from")
    modes = mode_set.modes
    if modes.size == 1:
        m = float(modes[0])
        spread = density.bandwidth
        return Codebook(
            CodebookMethod.MEAN_SHIFT,
            cutlines=np.array([m]),
            centroids=np.array([m - spread, m + spread]),
            modes=modes,
        )
    h = float(density.bandwidth)
    grid_x, f = _binned_gauss(density._sorted, h)
    left, right = modes[:-1], modes[1:]
    # start at the lowest grid point between two modes, as two valleys can
    # lie between them; modes beyond the grid start from their middle
    start = 0.5 * (left + right)
    for i, (j, k) in enumerate(zip(*np.searchsorted(grid_x, [left, right], side="right"))):
        if j < k:
            start[i] = grid_x[j + int(np.argmin(f[j:k]))]
    cutlines, _ = _polish(
        density.samples, h, start, left, right, _VALLEY_TOL * h, _VALLEY_STEPS, peak=False
    )
    return Codebook(CodebookMethod.MEAN_SHIFT, cutlines, modes, modes=modes)


def mean_shift_codebook(samples: np.ndarray) -> tuple[Codebook, DensityModel]:
    """The CSAX codebook of a sample pool, and the Gaussian KDE it was cut from.

    The bandwidth follows the gradient rule on the pool's population std; the
    modes of that KDE become the centroids (see :func:`modes_to_codebook`).

    Raises
    ------
    InsufficientDistinctValuesError
        If the pool holds no value change: it has no spread to set a
        bandwidth from, and a longer window or pretraining is needed.
    """
    samples = np.asarray(samples, dtype=float)
    if not np.any(samples[1:] != samples[:1]):
        raise InsufficientDistinctValuesError(
            f"pool of {samples.size} samples has no value change; a longer window or pretraining is needed"
        )
    h = bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(samples)), samples.size)
    density = DensityModel(samples, KernelKind.GAUSSIAN, h)
    return modes_to_codebook(mean_shift_modes(samples, h), density), density
