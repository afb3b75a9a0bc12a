"""Streaming goodness-of-fit anomaly detection over symbol streams.

A rolling window of symbols is summarized by its empirical pmf and compared,
via the statistic ``2 * n * KL(window || component)``, against every pmf in a
growing null-hypothesis set.  A window that fits none of the stored components
at the chi-square threshold (``kappa - 1`` degrees of freedom) is flagged
anomalous and its pmf joins the set, so the null hypothesis is composite and
learned on the fly; the first window is always anomalous.

The cSAX variant couples the detector with mean-shift clustering: symbols come
from a codebook that is re-estimated from all samples seen whenever a window
is flagged or a sample lands outside the observed range widened by the
smoothness scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaincc, gammaincinv

from .density import SILVERMAN_CONSTANT
from .discretize import Codebook, quantize
from .errors import (
    AlphabetMismatchError,
    InvalidParamsError,
    OutOfRangeError,
    StreamTooShortError,
    SymbolOutOfRangeError,
    WindowLengthMismatchError,
)
from .meanshift import mean_shift_codebook

__all__ = [
    "EmpiricalPmf",
    "empirical_pmf",
    "kl_divergence",
    "gof_statistic",
    "chi2_quantile",
    "DetectorConfig",
    "NullHypothesisSet",
    "DetectionEvent",
    "gof_step",
    "run_detector",
    "block_means",
    "CsaxResult",
    "run_csax_detector",
    "window_scores",
]


@dataclass(frozen=True)
class EmpiricalPmf:
    """Symbol counts of one window; masses are exact multiples of ``1/n``."""

    counts: np.ndarray
    window: int = field(init=False, repr=False, compare=False)  # the counts' total

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if not np.issubdtype(arr.dtype, np.integer):
            raise OutOfRangeError("counts must be integers")
        arr = arr.astype(np.int64)  # a copy: the caller may reuse its array
        total = int(arr.sum())
        if arr.ndim != 1 or arr.size < 1 or arr.min() < 0 or total < 1:
            raise OutOfRangeError("counts must be non-negative with a positive total")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "window", total)

    @property
    def kappa(self) -> int:
        return self.counts.size

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.window


def empirical_pmf(symbols, kappa: int) -> EmpiricalPmf:
    """Count symbols of one window into a pmf over ``kappa`` cells."""
    sym = np.asarray(symbols)
    if sym.size < 1:
        raise OutOfRangeError("window must hold at least one symbol")
    if sym.min() < 0 or sym.max() >= kappa:
        raise SymbolOutOfRangeError(f"symbols outside [0, {kappa})")
    return EmpiricalPmf(np.bincount(sym.astype(np.int64), minlength=int(kappa)))


def _masses(p) -> np.ndarray:
    if isinstance(p, EmpiricalPmf):
        return p.masses
    return np.asarray(p, dtype=float)


def _log(masses: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(masses)


def _kl_rows(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """``sum p * (ln p - ln q)`` over the cells where ``p > 0``, against each row
    of ``log_q``.  Differencing the logs cell by cell, not subtracting a cross
    term from a self term, makes a row equal to ``ln p`` score exactly 0; a
    row missing part of ``p``'s support scores +inf."""
    on = p > 0.0
    return (p[on] * (np.log(p[on]) - log_q[..., on])).sum(axis=-1)


def kl_divergence(p, q) -> float:
    """``sum p * ln(p/q)`` in nats with ``0 ln 0 = 0``; infinite on support mismatch."""
    pm, qm = _masses(p), _masses(q)
    if pm.size != qm.size:
        raise AlphabetMismatchError(f"alphabet sizes differ: {pm.size} vs {qm.size}")
    return float(_kl_rows(pm, _log(qm)))


def gof_statistic(window: EmpiricalPmf, component: EmpiricalPmf) -> float:
    """Goodness-of-fit statistic ``2 * n * KL``; chi-square under the null."""
    if window.window != component.window:
        raise WindowLengthMismatchError(
            f"window lengths differ: {window.window} vs {component.window}"
        )
    return 2.0 * window.window * kl_divergence(window, component)


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF: twice the inverse regularized lower incomplete gamma."""
    if not 0.0 < p < 1.0:
        raise OutOfRangeError(f"probability must be in (0, 1), got {p}")
    if dof < 1:
        raise OutOfRangeError(f"degrees of freedom must be >= 1, got {dof}")
    return 2.0 * float(gammaincinv(dof / 2.0, p))


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 50
    alpha: float = 0.05
    kappa: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise InvalidParamsError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParamsError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.kappa < 2:
            raise InvalidParamsError(f"kappa must be >= 2, got {self.kappa}")


class NullHypothesisSet:
    """The pmfs of all windows accepted (so far) as their own normal regime."""

    def __init__(self):
        self._components: list[EmpiricalPmf] = []
        self._log_masses: np.ndarray | None = None  # one row per component

    def __len__(self):
        return len(self._components)

    @property
    def components(self) -> tuple[EmpiricalPmf, ...]:
        return tuple(self._components)

    def add(self, pmf: EmpiricalPmf) -> None:
        if self._components and pmf.kappa != self._components[0].kappa:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {pmf.kappa} vs {self._components[0].kappa}"
            )
        row = _log(pmf.masses)[None]
        self._components.append(pmf)
        self._log_masses = row if self._log_masses is None else np.vstack((self._log_masses, row))

    def min_statistic(self, window: EmpiricalPmf) -> float:
        """Smallest statistic against any stored component; +inf when empty."""
        if not self._components:
            return math.inf
        return 2.0 * window.window * float(_kl_rows(window.masses, self._log_masses).min())


@dataclass(frozen=True)
class DetectionEvent:
    """One window decision: flagged iff ``min_statistic >= threshold``."""

    index: int
    anomalous: bool
    min_statistic: float
    threshold: float
    components: int
    rebuild: bool = False
    kappa: int = field(default=0, compare=False)


def gof_step(
    null_set: NullHypothesisSet,
    window: EmpiricalPmf,
    threshold: float,
    index: int = 0,
) -> DetectionEvent:
    """Test one window against the set; store its pmf when it fits nothing."""
    stat = null_set.min_statistic(window)
    tested = len(null_set)
    anomalous = not stat < threshold
    if anomalous:
        null_set.add(window)
    return DetectionEvent(
        index=index,
        anomalous=anomalous,
        min_statistic=stat,
        threshold=threshold,
        components=tested,
        kappa=window.kappa,
    )


def _rolling(sym: np.ndarray, kappa: int, config: DetectorConfig, null_set, start: int):
    """Decide the windows of ``config.window`` symbols ending at ``start``,
    ``start + 1``, ... of ``sym`` against ``null_set``, one event per window.

    Counts roll by one symbol per step.  The caller may stop between windows,
    e.g. to change the codebook, and re-enter with a fresh stream.
    """
    n = config.window
    threshold = chi2_quantile(1.0 - config.alpha, kappa - 1)
    counts = np.bincount(sym[start - n + 1 : start + 1], minlength=kappa)
    for i in range(start, sym.size):
        if i > start:
            counts[sym[i]] += 1
            counts[sym[i - n]] -= 1
        yield gof_step(null_set, EmpiricalPmf(counts), threshold, index=i)


def run_detector(symbols, config: DetectorConfig = DetectorConfig()) -> list[DetectionEvent]:
    """Roll a window over a fixed-alphabet symbol stream, one step at a time."""
    sym = np.asarray(symbols).astype(np.int64)
    n = config.window
    if sym.size < n:
        raise StreamTooShortError(f"stream of {sym.size} symbols < window {n}")
    if sym.min() < 0 or sym.max() >= config.kappa:
        raise SymbolOutOfRangeError(f"symbols outside [0, {config.kappa})")
    return list(_rolling(sym, config.kappa, config, NullHypothesisSet(), n - 1))


def block_means(values, paa_ratio: float) -> tuple[np.ndarray, int]:
    """Means of the complete blocks of ``1/paa_ratio`` values, and that block length.

    The ratio must be ``1/m`` for an integer ``m``; trailing values that do
    not fill a block are dropped.
    """
    if not 0.0 < paa_ratio <= 1.0:
        raise InvalidParamsError(f"PAA ratio must be in (0, 1], got {paa_ratio}")
    block = round(1.0 / paa_ratio)
    if abs(1.0 / paa_ratio - block) > 1e-9:
        raise InvalidParamsError(f"PAA ratio must be 1/m for integer m, got {paa_ratio}")
    x = np.asarray(values, dtype=float).ravel()
    return x[: x.size // block * block].reshape(-1, block).mean(axis=1), block


@dataclass
class CsaxResult:
    """Events, final codebook and rebuild count of one cSAX detector run."""

    events: list[DetectionEvent]
    codebook: Codebook
    rebuilds: int


def _range_hits(seen: np.ndarray) -> np.ndarray:
    """``out[k]`` is True when ``seen[k]`` lies strictly outside the range of
    ``seen[:k]`` widened on each side by the smoothness scale ``sigma_k``, the
    Gaussian Silverman bandwidth of ``seen[:k]``; ``out[0]`` is False.

    The population std of each prefix comes from cumulative sums of
    ``seen - seen[0]``.  Every prefix holds ``seen[0]``, so those sums stay on
    the scale of the prefix's own spread; a centre taken over the whole stream
    would cancel catastrophically in the prefixes before a level shift.  A
    prefix with no value change has ``sigma_k = 0``.
    """
    d = seen[:-1] - seen[:1]
    k = np.arange(1.0, seen.size)  # length of the prefix before seen[1:]
    lo = np.minimum.accumulate(seen[:-1])
    hi = np.maximum.accumulate(seen[:-1])
    mean = np.cumsum(d) / k
    var = np.cumsum(d * d) / k - mean * mean
    sd = np.where(hi > lo, np.sqrt(np.maximum(var, 0.0)), 0.0)
    sigma = SILVERMAN_CONSTANT["gaussian"] * sd * k ** (-1.0 / 5.0)
    out = np.zeros(seen.size, dtype=bool)
    out[1:] = (seen[1:] < lo - sigma) | (seen[1:] > hi + sigma)
    return out


def run_csax_detector(
    values,
    config: DetectorConfig = DetectorConfig(),
    pretraining=(),
    paa_ratio: float = 1.0,
) -> CsaxResult:
    """Detector with a self-adjusting mean-shift codebook on a raw stream.

    Raw values are block-averaged per ``paa_ratio`` (one symbol per ``1/ratio``
    raw samples; trailing partial blocks are dropped), quantized once per
    codebook, and fed through the rolling goodness-of-fit test with the
    alphabet size the codebook has (``config.kappa`` is not used).  After each
    window decision the clustering is re-estimated from all samples seen
    whenever the window was flagged or the newest sample fell outside the
    observed range widened by the smoothness scale; the rolling counts then
    restart under the new codebook, and stored windows keep their raw values
    and are re-expressed under it.  With empty pretraining the first codebook
    comes from the first ``window`` samples and the first window is always
    anomalous.

    Non-empty pretraining both fits the initial codebook and seeds the null
    hypothesis set by rolling the window over the pretraining blocks (no
    events are emitted for those), so a continuation of the same regime starts
    out recognized as normal.

    Event indices refer to block positions; block ``i`` covers raw samples
    ``[i / ratio, (i + 1) / ratio)``.
    """
    x = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise OutOfRangeError("stream values must be finite")
    reduced, _ = block_means(x, paa_ratio)
    n = config.window
    if reduced.size < n:
        raise StreamTooShortError(f"{reduced.size} blocks < window {n}")

    pre = np.asarray(pretraining, dtype=float).ravel()
    pre_reduced = block_means(pre, paa_ratio)[0] if pre.size else pre
    seen = np.concatenate((pre_reduced, reduced))  # every sample, in stream order
    if not np.all(np.isfinite(seen)):
        raise OutOfRangeError("stream values must be finite")
    range_hits = _range_hits(seen)[pre_reduced.size :]  # one per stream block

    null_set = NullHypothesisSet()
    flagged: list[np.ndarray] = []  # raw values of the stored windows
    if pre.size:
        codebook, _ = mean_shift_codebook(pre_reduced)
        if pre_reduced.size >= n:
            sym = quantize(codebook, pre_reduced)
            for event in _rolling(sym, codebook.kappa, config, null_set, n - 1):
                if event.anomalous:
                    flagged.append(pre_reduced[event.index - n + 1 : event.index + 1])
        built_at = pre_reduced.size
    else:  # cold start: the first window's samples give the first codebook
        codebook, _ = mean_shift_codebook(reduced[:n])
        built_at = n

    events: list[DetectionEvent] = []
    rebuilds = 0
    while len(events) < reduced.size - n + 1:
        sym = quantize(codebook, reduced)
        for event in _rolling(sym, codebook.kappa, config, null_set, n - 1 + len(events)):
            i = event.index
            count = pre_reduced.size + i + 1  # samples seen once block i is in
            if event.anomalous:
                flagged.append(reduced[i - n + 1 : i + 1])
            # re-estimation is skipped when no sample arrived since the last
            # build (only possible right at the cold start)
            rebuild = (event.anomalous or range_hits[i]) and count != built_at
            events.append(replace(event, rebuild=True) if rebuild else event)
            if rebuild:
                codebook, _ = mean_shift_codebook(seen[:count])
                built_at = count
                rebuilds += 1
                null_set = NullHypothesisSet()
                for w in flagged:
                    null_set.add(empirical_pmf(quantize(codebook, w), codebook.kappa))
                break
    return CsaxResult(events, codebook, rebuilds)


def window_scores(events) -> np.ndarray:
    """Anomaly score per event: ``-log10`` of the chi-square tail p-value.

    Comparable across events even when the alphabet size (and with it the
    degrees of freedom) changed during the run; infinite statistics map to an
    infinite score.
    """
    stats = np.array([ev.min_statistic for ev in events], dtype=float)
    dof = np.maximum(np.array([ev.kappa for ev in events], dtype=float) - 1.0, 1.0)
    with np.errstate(divide="ignore"):  # a zero tail probability scores +inf
        return -np.log10(gammaincc(dof / 2.0, stats / 2.0))
