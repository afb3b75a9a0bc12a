"""Mean-shift mode seeking on 1-D samples and the codebooks built from modes.

The shift vector uses a Gaussian weight profile, whose shadow kernel is again
Gaussian, so following the shift performs gradient ascent on the Gaussian KDE
of the samples.  Every sample is a trajectory start; converged trajectory
endpoints within half a bandwidth of each other merge into one mode.

Two exact-result shortcuts keep large runs cheap.  First, the 1-D shift map
``x -> x + m(x)`` has non-negative derivative (it moves a weighted mean), so
trajectories preserve order: if two starts converge to the same endpoint, every
start between them does too, and those trajectories need not be run.  Second,
near a mode the iteration converges linearly, so a guarded geometric
extrapolation of the step sequence jumps close to the fixed point; a jump is
kept only when it shrinks the shift magnitude, otherwise plain steps continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, KernelKind, bandwidth_gradient, bandwidth_silverman
from .discretize import Codebook, CodebookMethod
from .errors import (
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
    "DynamicClusterState",
    "dynamic_update_check",
]

_EXHAUSTIVE_LIMIT = 160
_COARSE_PROBES = 65
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _batch_shift(points: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(points.size)
    block = max(1, int(4_000_000 // max(samples.size, 1)))
    for start in range(0, points.size, block):
        p = points[start : start + block]
        z = ((samples[None, :] - p[:, None]) / h) ** 2
        # Shift weights are scale-free, so anchoring each row at its nearest
        # sample avoids underflow for far-out query points.
        z -= z.min(axis=1, keepdims=True)
        w = np.exp(-0.5 * z)
        out[start : start + block] = (w @ samples) / w.sum(axis=1) - p
    return out


def mean_shift_vector(samples, bandwidth: float, x: float) -> float:
    """Displacement of ``x`` toward the weighted mean of the samples.

    Weights are ``exp(-((s - x) / h)**2 / 2)``; the displacement points uphill
    on the Gaussian KDE of the samples and vanishes exactly at its stationary
    points.
    """
    arr = _check_samples_bandwidth(samples, bandwidth)
    if not np.isfinite(x):
        raise OutOfRangeError(f"query point must be finite, got {x}")
    return float(_batch_shift(np.asarray([float(x)]), arr, bandwidth)[0])


def _iterate_trajectories(
    starts: np.ndarray, samples: np.ndarray, h: float, tol: float, max_iter: int
) -> np.ndarray:
    """Follow the shift map from each start until the step drops below tol."""
    pos = starts.astype(float).copy()
    endpoint = np.full(pos.size, np.nan)
    prev_step = np.full(pos.size, np.nan)
    active = np.flatnonzero(np.ones(pos.size, dtype=bool))
    for it in range(max_iter):
        if active.size == 0:
            return endpoint
        shift = _batch_shift(pos[active], samples, h)
        new = pos[active] + shift
        step = np.abs(shift)
        if it % 3 == 2:
            # Geometric extrapolation: if steps decay with a stable ratio r,
            # the remaining travel is about step * r / (1 - r).
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = shift / prev_step[active]
            can = np.isfinite(ratio) & (ratio > 0.0) & (ratio < 0.97) & (step >= tol)
            if can.any():
                jump = np.flatnonzero(can)
                cand = new[jump] + shift[jump] * ratio[jump] / (1.0 - ratio[jump])
                cand_shift = _batch_shift(cand, samples, h)
                good = np.abs(cand_shift) < 0.5 * step[jump]
                new[jump[good]] = cand[good] + cand_shift[good]
                shift[jump[good]] = cand_shift[good]
                step[jump[good]] = np.abs(cand_shift[good])
        conv = step < tol
        endpoint[active[conv]] = new[conv]
        prev_step[active] = shift
        pos[active] = new
        active = active[~conv]
    raise NoConvergenceError(
        f"{active.size} trajectories still moving after {max_iter} iterations",
        partial=endpoint,
    )


def _merge_endpoints(endpoints: np.ndarray, h: float) -> np.ndarray:
    pts = np.sort(endpoints)
    gaps = np.flatnonzero(np.diff(pts) > 0.5 * h)
    groups = np.split(pts, gaps + 1)
    modes = np.array([g.mean() for g in groups])
    return np.unique(modes)


def mean_shift_modes(
    samples, bandwidth: float, tol: float | None = None, max_iter: int = 1000
) -> ModeSet:
    """All modes reached by mean-shift trajectories started at every sample.

    Each trajectory iterates ``x <- x + m(x)`` until the shift magnitude drops
    below ``tol`` (default ``1e-6 * bandwidth``); endpoints within half a
    bandwidth merge into one mode at their mean.  Order preservation of the
    1-D shift map lets runs with many distinct starts skip the trajectories
    bracketed by two starts that already agree on their endpoint.

    Raises
    ------
    NoConvergenceError
        If any trajectory exceeds ``max_iter``; ``partial`` carries the mode
        set built from the trajectories that did converge, when any exist.
    """
    x = _check_samples_bandwidth(samples, bandwidth)
    h = float(bandwidth)
    if tol is None:
        tol = 1e-6 * h
    if tol <= 0.0 or max_iter < 1:
        raise OutOfRangeError("tol must be positive and max_iter >= 1")
    xs = np.unique(x)
    try:
        if xs.size <= _EXHAUSTIVE_LIMIT:
            endpoints = _iterate_trajectories(xs, x, h, tol, max_iter)
        else:
            endpoints = _refined_endpoints(xs, x, h, tol, max_iter)
    except NoConvergenceError as err:
        done = err.partial[np.isfinite(err.partial)] if err.partial is not None else None
        partial = None
        if done is not None and done.size:
            partial = ModeSet(_merge_endpoints(done, h), h, x.size)
        raise NoConvergenceError(str(err), partial=partial) from None
    return ModeSet(_merge_endpoints(endpoints, h), h, x.size)


def _refined_endpoints(xs, samples, h, tol, max_iter):
    # Probe a coarse subset of the sorted distinct starts, then bisect (by
    # index) every adjacent pair whose endpoints disagree.  Agreeing pairs
    # bracket all starts between them onto the same mode.
    same = max(10.0 * tol, 1e-3 * h)
    idx = np.unique(np.linspace(0, xs.size - 1, _COARSE_PROBES).round().astype(int))
    known: dict[int, float] = {}
    frontier = idx
    while frontier.size:
        ends = _iterate_trajectories(xs[frontier], samples, h, tol, max_iter)
        known.update(zip(frontier.tolist(), ends.tolist()))
        order = np.array(sorted(known))
        vals = np.array([known[i] for i in order])
        split = (np.diff(order) > 1) & (np.abs(np.diff(vals)) > same)
        frontier = ((order[:-1] + order[1:]) // 2)[split]
    return np.array([known[i] for i in sorted(known)])


def _golden_min(f, a: float, b: float, xtol: float) -> float:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def modes_to_codebook(mode_set: ModeSet, density: DensityModel) -> Codebook:
    """Codebook with centroids at the modes and cutlines at density minima.

    Each cutline is the minimum of the density estimate between two adjacent
    modes, located on a 1024-point grid and refined by golden-section search
    to an absolute tolerance of 1e-6.  A single mode falls back to a 2-symbol
    codebook split at the mode, with centroids one bandwidth either side.
    """
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
    cutlines = np.empty(modes.size - 1)
    for i in range(modes.size - 1):
        grid = np.linspace(modes[i], modes[i + 1], 1024)
        dens = density.pdf(grid)
        j = int(np.clip(np.argmin(dens[1:-1]) + 1, 1, 1022))
        cutlines[i] = _golden_min(
            lambda v: density.pdf(float(v)), float(grid[j - 1]), float(grid[j + 1]), 1e-6
        )
    return Codebook(CodebookMethod.MEAN_SHIFT, cutlines, modes, modes=modes)


def mean_shift_codebook(samples: np.ndarray) -> tuple[Codebook, DensityModel]:
    """The CSAX codebook of a sample pool, and the Gaussian KDE it was cut from.

    The bandwidth follows the gradient rule on the pool's population std; the
    modes of that KDE become the centroids (see :func:`modes_to_codebook`).
    """
    h = bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(samples)), samples.size)
    density = DensityModel(samples, KernelKind.GAUSSIAN, h)
    return modes_to_codebook(mean_shift_modes(samples, h), density), density


class DynamicClusterState:
    """Running view of a stream for mean-shift re-clustering decisions.

    Tracks every sample seen, the observed range, the population standard
    deviation (Welford update) and the smoothness scale ``sigma_k`` given by
    the Gaussian Silverman rule on the samples so far.
    """

    def __init__(self, codebook: Codebook | None = None):
        self.codebook = codebook
        self._values: list[float] = []
        self._mean = 0.0
        self._m2 = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.sigma_k = 0.0

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def std(self) -> float:
        if not self._values:
            return 0.0
        return math.sqrt(max(self._m2 / len(self._values), 0.0))

    def samples(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise OutOfRangeError(f"stream value must be finite, got {value}")
        self._values.append(value)
        delta = value - self._mean
        self._mean += delta / len(self._values)
        self._m2 += delta * (value - self._mean)
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        sd = self.std
        self.sigma_k = (
            bandwidth_silverman(KernelKind.GAUSSIAN, sd, self.count) if sd > 0.0 else 0.0
        )

    def observe_many(self, values) -> None:
        for v in np.asarray(values, dtype=float).ravel():
            self.observe(v)


def dynamic_update_check(
    state: DynamicClusterState, window_flagged_anomalous: bool, new_sample: float
) -> bool:
    """Decide whether the clustering should be re-estimated.

    True when the latest window was flagged anomalous, or when ``new_sample``
    falls outside the observed range widened by ``sigma_k`` on each side.
    The range test uses the state as it stood before the sample is absorbed.
    """
    if window_flagged_anomalous:
        return True
    if state.count == 0:
        return False
    return bool(
        new_sample < state.min_value - state.sigma_k
        or new_sample > state.max_value + state.sigma_k
    )
