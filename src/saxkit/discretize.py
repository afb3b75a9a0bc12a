"""Scalar quantizer codebooks: cutlines, centroids and the ways to fit them.

A codebook with alphabet size kappa holds kappa - 1 strictly increasing
cutlines and kappa strictly increasing centroids, interleaved so each centroid
lies inside its half-open cell ``[cut[i-1], cut[i])``.  Fitting routes:

* Gaussian quantiles (equiprobable cells under a standard normal),
* 1-D k-means on raw samples (cutlines at centroid midpoints),
* Lloyd-Max on a kernel density estimate (MSE-optimal for the estimate),
* mean-shift modes (see :mod:`saxkit.meanshift`).
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .density import DensityModel, kde_cell_moments
from .errors import (
    AlphabetTooSmallError,
    EmptyCellError,
    InsufficientDistinctValuesError,
    NoConvergenceError,
    OutOfRangeError,
    SymbolOutOfRangeError,
    TooShortError,
    json_fields,
    member,
    parse_json,
)

__all__ = [
    "CodebookMethod",
    "Codebook",
    "LloydMaxReport",
    "gaussian_equiprobable_codebook",
    "kmeans_pp_init",
    "kmeans_codebook",
    "lloyd_max",
    "quantizer_distortion",
    "quantize",
    "reconstruct",
]

_MAX_KAPPA = 2**16
_EMPTY_MASS = 1e-12
# Distortions are differences of moments of size ~E[x^2]; near the fixed point
# two candidates differ by less than their rounding error, so ties within this
# many ulps of the total second moment count as "no worse".
_TIE_ULPS = 64 * np.finfo(float).eps
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class CodebookMethod(str, enum.Enum):
    GAUSSIAN_EQUIPROBABLE = "GaussianEquiprobable"
    KMEANS = "KMeans"
    LLOYD_MAX = "LloydMax"
    MEAN_SHIFT = "MeanShift"


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Codebook:
    """Quantizer cutlines and centroids plus the method that produced them.

    ``modes`` is populated only for mean-shift codebooks and records the
    density modes the centroids came from.
    """

    method: CodebookMethod
    cutlines: np.ndarray
    centroids: np.ndarray
    modes: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "method", CodebookMethod(self.method))
        cut = _frozen(self.cutlines)
        cen = _frozen(self.centroids)
        kappa = cen.size
        if kappa < 2:
            raise AlphabetTooSmallError(f"alphabet size must be >= 2, got {kappa}")
        if kappa > _MAX_KAPPA:
            raise OutOfRangeError(f"alphabet size {kappa} exceeds {_MAX_KAPPA}")
        if cut.size != kappa - 1:
            raise OutOfRangeError(
                f"expected {kappa - 1} cutlines for {kappa} centroids, got {cut.size}"
            )
        if not (np.all(np.isfinite(cut)) and np.all(np.isfinite(cen))):
            raise OutOfRangeError("cutlines and centroids must be finite")
        if np.any(np.diff(cut) <= 0.0) or np.any(np.diff(cen) <= 0.0):
            raise OutOfRangeError("cutlines and centroids must be strictly increasing")
        if np.any(cen[:-1] >= cut) or np.any(cut >= cen[1:]):
            raise OutOfRangeError("each centroid must lie strictly inside its cell")
        object.__setattr__(self, "cutlines", cut)
        object.__setattr__(self, "centroids", cen)
        if self.modes is not None:
            object.__setattr__(self, "modes", _frozen(self.modes))

    @property
    def kappa(self) -> int:
        return self.centroids.size

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return (
            self.method is other.method
            and np.array_equal(self.cutlines, other.cutlines)
            and np.array_equal(self.centroids, other.centroids)
        )

    def __hash__(self):
        return hash((self.method, self.cutlines.tobytes(), self.centroids.tobytes()))

    def to_json(self) -> str:
        payload = {
            "method": self.method.value,
            "kappa": self.kappa,
            "cutlines": [float(v) for v in self.cutlines],
            "centroids": [float(v) for v in self.centroids],
        }
        if self.method is CodebookMethod.MEAN_SHIFT:
            modes = self.modes if self.modes is not None else self.centroids
            payload["modes"] = [float(v) for v in modes]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        keys = ("method", "kappa", "cutlines", "centroids")
        payload = json_fields(parse_json(text, "codebook"), "codebook", keys, optional=("modes",))
        modes = payload.get("modes")
        cb = cls(
            method=member(CodebookMethod, payload["method"], "codebook method"),
            cutlines=np.asarray(payload["cutlines"], dtype=float),
            centroids=np.asarray(payload["centroids"], dtype=float),
            modes=None if modes is None else np.asarray(modes, dtype=float),
        )
        if cb.kappa != payload["kappa"]:
            raise OutOfRangeError("kappa field disagrees with centroid count")
        return cb

    @property
    def digest(self) -> str:
        """Short content hash; stable across serialization round-trips."""
        return hashlib.sha1(self.to_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class LloydMaxReport:
    """Convergence diagnostics for one Lloyd-Max run.

    ``iterations`` counts every iteration, whether it took the safeguarded
    Newton step or fell back to the plain Lloyd update (re-seeds included).
    ``final_update`` is the largest centroid move of the last accepted step,
    and ``distortion_history`` holds the distortion after each accepted step
    followed by the distortion of the returned codebook.
    """

    iterations: int
    final_update: float
    distortion: float
    distortion_history: tuple[float, ...] = field(repr=False, default=())
    reseeds: int = 0


def gaussian_equiprobable_codebook(kappa: int) -> Codebook:
    """Codebook with equal standard-normal mass in every cell.

    Cutlines are standard-normal quantiles at ``i/kappa``; centroids are the
    conditional means of each cell, ``kappa * (phi(b_i) - phi(b_{i+1}))``.
    """
    from scipy.special import ndtri  # imported here: scipy.special is slow to load

    kappa = int(kappa)
    if kappa < 2:
        raise AlphabetTooSmallError(f"alphabet size must be >= 2, got {kappa}")
    if kappa > _MAX_KAPPA:
        raise OutOfRangeError(f"alphabet size {kappa} exceeds {_MAX_KAPPA}")
    cutlines = ndtri(np.arange(1, kappa) / kappa)
    phi = np.zeros(kappa + 1)
    phi[1:-1] = _INV_SQRT_2PI * np.exp(-0.5 * cutlines**2)
    centroids = kappa * (phi[:-1] - phi[1:])
    return Codebook(CodebookMethod.GAUSSIAN_EQUIPROBABLE, cutlines, centroids)


def kmeans_pp_init(samples, kappa: int, seed: int) -> np.ndarray:
    """Draw ``kappa`` distinct starting centroids by D^2 weighting.

    The first centroid is uniform over the samples; each later one is drawn
    with probability proportional to its squared distance to the nearest
    centroid chosen so far.  Deterministic for a given seed.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise TooShortError("need a non-empty 1-D sample array")
    kappa = int(kappa)
    if kappa < 1:
        raise OutOfRangeError(f"centroid count must be >= 1, got {kappa}")
    if np.unique(x).size < kappa:
        raise InsufficientDistinctValuesError(
            f"{np.unique(x).size} distinct values < {kappa} requested centroids"
        )
    rng = np.random.default_rng(seed)
    chosen = np.empty(kappa)
    chosen[0] = x[rng.integers(x.size)]
    d2 = (x - chosen[0]) ** 2
    for i in range(1, kappa):
        # Zero-distance samples get zero weight, so picks stay distinct.
        idx = rng.choice(x.size, p=d2 / d2.sum())
        chosen[i] = x[idx]
        d2 = np.minimum(d2, (x - chosen[i]) ** 2)
    return chosen


def kmeans_codebook(samples, kappa: int, seed: int, max_iter: int = 500) -> Codebook:
    """1-D k-means codebook: Lloyd's iterations to an assignment fixpoint.

    Samples are sorted once; each assignment step is a searchsorted against
    the centroid midpoints, and cell means come from prefix sums.  Cutlines of
    the returned codebook are the midpoints of adjacent centroids.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    kappa = int(kappa)
    if kappa < 2:
        raise AlphabetTooSmallError(f"alphabet size must be >= 2, got {kappa}")
    centroids = np.sort(kmeans_pp_init(x, kappa, seed))
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    bounds_prev = None
    reseeds = 0
    for _ in range(max_iter):
        mids = 0.5 * (centroids[:-1] + centroids[1:])
        bounds = np.searchsorted(x, mids)
        edges = np.concatenate(([0], bounds, [x.size]))
        counts = np.diff(edges)
        if np.any(counts == 0):
            # Re-seed every empty cell at the sample farthest from its centroid.
            reseeds += 1
            if reseeds > 100:
                raise NoConvergenceError("k-means kept producing empty cells")
            assigned = np.repeat(centroids, counts)
            far = int(np.argmax(np.abs(x - assigned)))
            for cell in np.flatnonzero(counts == 0):
                centroids[cell] = x[far]
            centroids = np.sort(centroids)
            bounds_prev = None
            continue
        sums = prefix[edges[1:]] - prefix[edges[:-1]]
        centroids = sums / counts
        if bounds_prev is not None and np.array_equal(bounds, bounds_prev):
            break
        bounds_prev = bounds
    cutlines = 0.5 * (centroids[:-1] + centroids[1:])
    return Codebook(CodebookMethod.KMEANS, cutlines, centroids)


def _cell_edges(centroids: np.ndarray) -> np.ndarray:
    mids = 0.5 * (centroids[:-1] + centroids[1:])
    return np.concatenate(([-np.inf], mids, [np.inf]))


def _distortion_terms(mass, first, second, centroids):
    return float(np.sum(second - 2.0 * centroids * first + centroids**2 * mass))


def lloyd_max(
    model: DensityModel,
    kappa: int,
    init,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[Codebook, LloydMaxReport]:
    """MSE-optimal quantizer for a density estimate via safeguarded Newton-Lloyd.

    The optimal centroids are a fixed point ``c = T(c)`` of the centroid map
    ``T``: cell edges at centroid midpoints, then each centroid at its cell's
    conditional mean (closed-form kernel moment integrals).  Every iteration
    forms the plain Lloyd update ``T(c)`` and also the Newton step for
    ``T(c) - c = 0``.  In one dimension the Jacobian of ``T`` is tridiagonal
    (it needs the density only at the ``kappa - 1`` cutlines), so the Newton
    step is a single banded solve.  The Newton iterate is accepted only if its
    centroids are strictly increasing, none of its cells has mass below 1e-12
    and its distortion does not exceed that of the Lloyd update (up to a
    rounding allowance of 64 ulps of the second moment); otherwise the Lloyd
    update is taken.  Iteration stops once the accepted move is below
    ``tol``; near the fixed point Newton converges quadratically, where Lloyd
    alone converges only linearly.

    A cell whose mass falls below 1e-12 triggers one re-seed at the midpoint
    of the heaviest cell; a second empty cell raises :class:`EmptyCellError`.
    Distortion is recorded after every iteration and is non-increasing (up
    to rounding).

    Returns
    -------
    (Codebook, LloydMaxReport)

    Raises
    ------
    NoConvergenceError
        If ``max_iter`` passes without reaching ``tol``; ``partial`` carries
        the ``(codebook, report)`` pair for the last iterate.
    """
    kappa = int(kappa)
    if kappa < 2:
        raise AlphabetTooSmallError(f"alphabet size must be >= 2, got {kappa}")
    centroids = np.asarray(init, dtype=float).copy()
    if centroids.size != kappa or np.any(np.diff(centroids) <= 0.0):
        raise OutOfRangeError("init must hold kappa strictly increasing centroids")
    if tol <= 0.0 or max_iter < 1:
        raise OutOfRangeError("tol must be positive and max_iter >= 1")
    history: list[float] = []
    reseeds = 0
    delta = np.inf
    moments = None
    for iteration in range(1, max_iter + 1):
        edges = _cell_edges(centroids)
        if moments is None:
            moments = kde_cell_moments(model, edges)
        mass, first, second = moments
        moments = None
        if np.any(mass < _EMPTY_MASS):
            if reseeds >= 1:
                raise EmptyCellError(
                    f"cell {int(np.argmin(mass))} has mass {mass.min():.3e}"
                )
            reseeds += 1
            centroids = _reseed_empty(model, edges, mass, centroids)
            continue
        updated = first / mass
        distortion = _distortion_terms(mass, first, second, updated)
        candidate = _newton_iterate(model, edges[1:-1], mass, centroids, updated)
        if candidate is not None:
            trial = kde_cell_moments(model, _cell_edges(candidate))
            trial_distortion = _distortion_terms(*trial, candidate)
            tie = _TIE_ULPS * float(np.sum(second))
            if np.all(trial[0] >= _EMPTY_MASS) and trial_distortion <= distortion + tie:
                updated, distortion, moments = candidate, trial_distortion, trial
        delta = float(np.max(np.abs(updated - centroids)))
        centroids = updated
        history.append(distortion)
        if delta < tol:
            break
    codebook = Codebook(
        CodebookMethod.LLOYD_MAX,
        0.5 * (centroids[:-1] + centroids[1:]),
        centroids,
    )
    final = quantizer_distortion(model, codebook)
    history.append(final)
    report = LloydMaxReport(
        iterations=iteration,
        final_update=delta,
        distortion=final,
        distortion_history=tuple(history),
        reseeds=reseeds,
    )
    if delta >= tol:
        raise NoConvergenceError(
            f"no convergence after {max_iter} iterations (last update {delta:.3e})",
            partial=(codebook, report),
        )
    return codebook, report


def _newton_iterate(model, cutlines, mass, centroids, updated):
    """Newton iterate ``c + (I - J)^-1 (T(c) - c)`` for the fixed point of ``T``.

    ``T_i`` depends on its cell's two edges only, with
    ``dT_i/dt_i = f(t_i) (t_i - T_i) / m_i`` at the right edge and
    ``dT_{i+1}/dt_i = f(t_i) (T_{i+1} - t_i) / m_{i+1}`` at the left, and each
    cutline is the mean of its two neighbouring centroids, so ``J`` is
    tridiagonal.  Returns None when the iterate is not finite and strictly
    increasing.
    """
    from scipy.linalg import solve_banded  # imported here: scipy.linalg is slow to load

    f = model.pdf(cutlines)
    right = f * (cutlines - updated[:-1]) / mass[:-1]  # dT_i/dt_i
    left = f * (updated[1:] - cutlines) / mass[1:]  # dT_{i+1}/dt_i
    banded = np.zeros((3, centroids.size))
    banded[0, 1:] = -0.5 * right
    banded[1] = 1.0
    banded[1, :-1] -= 0.5 * right
    banded[1, 1:] -= 0.5 * left
    banded[2, :-1] = -0.5 * left
    try:
        step = solve_banded((1, 1), banded, updated - centroids)
    except np.linalg.LinAlgError:
        return None
    candidate = centroids + step
    if not np.all(np.isfinite(candidate)) or np.any(np.diff(candidate) <= 0.0):
        return None
    return candidate


def _reseed_empty(model, edges, mass, centroids):
    lo = max(float(edges[np.argmax(mass)]), float(model.samples.min()) - model.support_radius)
    hi = min(float(edges[np.argmax(mass) + 1]), float(model.samples.max()) + model.support_radius)
    replacement = 0.5 * (lo + hi)
    out = centroids.copy()
    out[int(np.argmin(mass))] = replacement
    out = np.unique(np.sort(out))
    if out.size != centroids.size:
        raise EmptyCellError("re-seed collapsed two centroids")
    return out


def quantizer_distortion(model: DensityModel, codebook: Codebook) -> float:
    """Expected squared reconstruction error of ``codebook`` under ``model``."""
    edges = np.concatenate(([-np.inf], codebook.cutlines, [np.inf]))
    mass, first, second = kde_cell_moments(model, edges)
    return _distortion_terms(mass, first, second, codebook.centroids)


def quantize(codebook: Codebook, values):
    """Map reals to symbol indices; cell ``i`` is ``[cut[i-1], cut[i])``.

    Values on a cutline belong to the upper cell; the two outer cells are
    unbounded, so the map is total over the reals.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise OutOfRangeError("cannot quantize non-finite values")
    symbols = np.searchsorted(codebook.cutlines, arr, side="right")
    if arr.ndim == 0:
        return int(symbols)
    return symbols.astype(np.int64)


def reconstruct(codebook: Codebook, symbols):
    """Map symbol indices back to their cell centroids."""
    arr = np.asarray(symbols)
    if not np.issubdtype(arr.dtype, np.integer):
        raise SymbolOutOfRangeError("symbols must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= codebook.kappa):
        raise SymbolOutOfRangeError(
            f"symbol outside [0, {codebook.kappa}): {int(arr.min())}..{int(arr.max())}"
        )
    values = codebook.centroids[arr]
    if arr.ndim == 0:
        return float(values)
    return values
