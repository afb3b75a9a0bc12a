"""Streaming goodness-of-fit anomaly detection over symbol streams.

A rolling window of symbols is summarized by its empirical pmf and compared,
via the statistic ``2 * n * KL(window || component)``, against every pmf in a
growing null-hypothesis set.  A window that fits none of the stored components
at the chi-square threshold (``kappa - 1`` degrees of freedom) is flagged
anomalous and its pmf joins the set, so the null hypothesis is composite and
learned on the fly; the first window is always anomalous.

The detectors decide windows in chunks rather than one Python step each:
a chunk's rolling counts come from cumulative sums of the symbols entering
and leaving, and its statistics against the stored components are one array
expression.  Each event still equals the one ``gof_step`` gives for that
window alone: the walk through a chunk stops at each flagged window, stores
it, and scores only that new component against the windows after it.

The cSAX variant couples the detector with mean-shift clustering: symbols come
from a codebook that is re-estimated from all samples seen whenever a window
is flagged or a sample lands outside the observed range widened by the
smoothness scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import SILVERMAN_CONSTANT
from .discretize import Codebook, quantize
from .errors import (
    AlphabetMismatchError,
    InvalidParamsError,
    OutOfRangeError,
    StreamTooShortError,
    SymbolOutOfRangeError,
    WindowLengthMismatchError,
    integral,
)
from .meanshift import mean_shift_codebook
from .series import _paa_rows

# Cell terms one chunk of ``_rolling`` may compute: windows x occupied cells
# x (stored components + the chunk's own windows).  It bounds the work a
# chunk can waste when the caller stops early, and keeps each chunk array
# (windows x components float64) within 2 MiB.
_CHUNK_ELEMENTS = 1 << 18

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


def _symbol_array(sym: np.ndarray, kappa: int) -> np.ndarray:
    """``sym`` as int64 once every value is an integer in ``[0, kappa)``;
    integral floats pass, any other value raises."""
    if sym.min() < 0 or sym.max() >= kappa:
        raise SymbolOutOfRangeError(f"symbols outside [0, {kappa})")
    if not np.issubdtype(sym.dtype, np.integer) and np.any(sym != np.floor(sym)):
        raise SymbolOutOfRangeError("symbols must be integers")
    return sym.astype(np.int64)


def empirical_pmf(symbols, kappa: int) -> EmpiricalPmf:
    """Count symbols of one window into a pmf over ``kappa`` cells."""
    sym = np.asarray(symbols)
    if sym.size < 1:
        raise OutOfRangeError("window must hold at least one symbol")
    return EmpiricalPmf(np.bincount(_symbol_array(sym, kappa), minlength=int(kappa)))


def _masses(p) -> np.ndarray:
    if isinstance(p, EmpiricalPmf):
        return p.masses
    return np.asarray(p, dtype=float)


def _log(masses: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(masses)


def _kl_rows(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """``sum p * (ln p - ln q)`` over the cells where ``p > 0``, for each pmf
    (last axis) of ``p`` against each row of the 2-D ``log_q``: the result has
    shape ``p.shape[:-1] + (len(log_q),)``.  Differencing the logs cell by
    cell, not subtracting a cross term from a self term, makes a row equal to
    ``ln p`` score exactly 0; a row missing part of ``p``'s support scores
    +inf.  A cell where ``p`` is 0 adds an exact 0, whatever ``q`` holds, and
    the terms are summed in cell order as one running sum, so those zeros
    leave the result bitwise unchanged: a window scores the same over its
    own support as over any wider set of cells."""
    on = p > 0.0
    log_p = np.log(p, out=np.zeros_like(p), where=on)
    total = np.zeros(p.shape[:-1] + log_q.shape[:1])
    for c in range(p.shape[-1]):  # one add per cell over every pmf and row
        diff = log_p[..., c, None] - log_q[:, c]
        total += np.multiply(p[..., c, None], diff, out=np.zeros_like(total), where=on[..., c, None])
    return total


def kl_divergence(p, q) -> float:
    """``sum p * ln(p/q)`` in nats with ``0 ln 0 = 0``; infinite on support mismatch."""
    pm, qm = _masses(p), _masses(q)
    if pm.size != qm.size:
        raise AlphabetMismatchError(f"alphabet sizes differ: {pm.size} vs {qm.size}")
    return float(_kl_rows(pm, _log(qm)[None])[0])


def gof_statistic(window: EmpiricalPmf, component: EmpiricalPmf) -> float:
    """Goodness-of-fit statistic ``2 * n * KL``; chi-square under the null."""
    if window.window != component.window:
        raise WindowLengthMismatchError(
            f"window lengths differ: {window.window} vs {component.window}"
        )
    return 2.0 * window.window * kl_divergence(window, component)


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF: twice the inverse regularized lower incomplete gamma."""
    from scipy.special import gammaincinv  # imported here: scipy.special is slow to load

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
        object.__setattr__(self, "window", integral(self.window, "window", minimum=1))
        object.__setattr__(self, "kappa", integral(self.kappa, "kappa"))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParamsError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.kappa < 2:
            raise InvalidParamsError(f"kappa must be >= 2, got {self.kappa}")


class NullHypothesisSet:
    """The pmfs of all windows accepted (so far) as their own normal regime."""

    def __init__(self):
        self._components: list[EmpiricalPmf] = []
        # one log-mass row per component; the capacity doubles when full
        self._buffer = np.empty((0, 0))

    def __len__(self):
        return len(self._components)

    @property
    def components(self) -> tuple[EmpiricalPmf, ...]:
        return tuple(self._components)

    @property
    def _log_masses(self) -> np.ndarray:
        return self._buffer[: len(self._components)]

    def add(self, pmf: EmpiricalPmf) -> None:
        m = len(self._components)
        if m and pmf.kappa != self._components[0].kappa:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {pmf.kappa} vs {self._components[0].kappa}"
            )
        if not m:
            self._buffer = np.empty((1, pmf.kappa))
        elif m == len(self._buffer):
            self._buffer = np.concatenate((self._buffer, np.empty_like(self._buffer)))
        self._buffer[m] = _log(pmf.masses)
        self._components.append(pmf)

    def min_statistic(self, window: EmpiricalPmf) -> float:
        """Smallest statistic against any stored component; +inf when empty."""
        if not self._components:
            return math.inf
        on = window.counts > 0
        kl = _kl_rows(window.masses[on], self._log_masses[:, on])
        return 2.0 * window.window * float(kl.min())


@dataclass(frozen=True)
class DetectionEvent:
    """One window decision: flagged iff ``min_statistic >= threshold``."""

    index: int
    anomalous: bool
    min_statistic: float
    threshold: float
    components: int
    rebuild: bool = False
    kappa: int = 0


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


def _chunk_windows(components: int, cells: int) -> int:
    """The most windows ``s``, at least one, with ``s * cells * (components + s)``
    within ``_CHUNK_ELEMENTS``: a chunk scores its windows against the stored
    components and against each of its own windows that may join them."""
    m = components
    return max(1, int((math.sqrt(m * m + 4.0 * _CHUNK_ELEMENTS / cells) - m) / 2.0))


def _rolling(sym: np.ndarray, kappa: int, config: DetectorConfig, null_set, start: int):
    """Decide the windows of ``config.window`` symbols ending at ``start``,
    ``start + 1``, ... of ``sym`` against ``null_set``, one event per window,
    each as ``gof_step`` decides that window alone.

    Windows are taken in chunks sized by ``_chunk_windows``, over only the
    cells its span of symbols occupies; a chunk that a wide span shrinks
    re-indexes its shorter span, so it keeps only the cells that span
    occupies.  A chunk's rolling counts are one ``bincount`` plus a
    cumulative sum of +1/-1 updates, and its statistics
    against the stored components are one ``_kl_rows`` call.  The walk
    through the chunk stops at each flagged window: its pmf joins the set
    just before its event is yielded, then its own column is scored against
    the rest of the chunk and folded into the running minimum.  The caller
    may stop between events, e.g. to change the codebook, and re-enter with a
    fresh stream; the set then holds exactly the flagged windows yielded.
    """
    n = config.window
    threshold = chi2_quantile(1.0 - config.alpha, kappa - 1)
    i = start
    while i < sym.size:
        m = len(null_set)
        s = min(sym.size - i, _chunk_windows(m, min(kappa, n)))
        cells, local = np.unique(sym[i - n + 1 : i + s], return_inverse=True)
        if cells.size > min(kappa, n):  # wider than any one window: shrink the chunk
            s = min(s, _chunk_windows(m, cells.size))
            used, local = np.unique(local[: s + n - 1], return_inverse=True)
            cells = cells[used]  # and keep only the cells its shorter span occupies
        counts = np.zeros((s, cells.size), dtype=np.int64)
        counts[0] = np.bincount(local[:n], minlength=cells.size)
        rows = np.arange(1, s)
        counts[rows, local[n:]] += 1  # the symbol entering window i + row
        counts[rows, local[: s - 1]] -= 1  # and the one leaving it
        counts = np.cumsum(counts, axis=0)
        p = counts / n
        best = _kl_rows(p, null_set._log_masses[:, cells]).min(axis=-1) if m else np.full(s, math.inf)
        k = 0
        while k < s:
            stat = 2.0 * n * best[k:]
            flags = np.flatnonzero(~(stat < threshold))
            stop = k + int(flags[0]) if flags.size else s
            tested = len(null_set)
            for j, value in enumerate(stat[: stop - k].tolist(), start=i + k):
                yield DetectionEvent(j, False, value, threshold, tested, kappa=kappa)
            if stop == s:
                break
            full = np.zeros(kappa, dtype=np.int64)
            full[cells] = counts[stop]
            null_set.add(EmpiricalPmf(full))
            yield DetectionEvent(i + stop, True, float(stat[stop - k]), threshold, tested, kappa=kappa)
            k = stop + 1
            if k < s:
                column = _kl_rows(p[k:], null_set._log_masses[-1:, cells])[:, 0]
                np.minimum(best[k:], column, out=best[k:])
        i += s


def run_detector(symbols, config: DetectorConfig = DetectorConfig()) -> list[DetectionEvent]:
    """Roll a window over a fixed-alphabet symbol stream: one event per window."""
    sym = np.asarray(symbols)
    n = config.window
    if sym.size < n:
        raise StreamTooShortError(f"stream of {sym.size} symbols < window {n}")
    sym = _symbol_array(sym, config.kappa)
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
    return _paa_rows(x[: x.size // block * block].reshape(-1, block), 1)[:, 0], block


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
    restart under the new codebook.  Every sample, pretraining blocks first,
    sits in one array; a stored window is the position of its last sample
    there, and a rebuild re-expresses all stored windows under the new
    codebook with one ``quantize``.

    The first codebook comes from the pretraining blocks, or from the first
    ``window`` samples when there are none.  The window is rolled over the
    pretraining blocks (no events are emitted for those) to seed the null
    hypothesis set, so a continuation of the same regime starts out
    recognized as normal; with no such window, the first stream window is
    always anomalous.

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
    pre_reduced, block = block_means(pre, paa_ratio)
    if pre.size and not pre_reduced.size:
        raise StreamTooShortError(f"pretraining of {pre.size} values fills no block of {block}")
    seen = np.concatenate((pre_reduced, reduced))  # every sample, in stream order
    if not np.all(np.isfinite(seen)):
        raise OutOfRangeError("stream values must be finite")
    range_hits = _range_hits(seen)

    built_at = pre_reduced.size or n  # samples the codebook was built from
    codebook, _ = mean_shift_codebook(seen[:built_at])
    null_set = NullHypothesisSet()
    # each stored window as the position in ``seen`` of its last sample
    pretrained = _rolling(quantize(codebook, pre_reduced), codebook.kappa, config, null_set, n - 1)
    ends = [ev.index for ev in pretrained if ev.anomalous]
    events: list[DetectionEvent] = []
    rebuilds = 0
    while len(events) < reduced.size - n + 1:
        sym = quantize(codebook, reduced)
        for event in _rolling(sym, codebook.kappa, config, null_set, n - 1 + len(events)):
            end = pre_reduced.size + event.index
            if event.anomalous:
                ends.append(end)
            # re-estimation is skipped when no sample arrived since the last
            # build (only possible right at the cold start)
            rebuild = (event.anomalous or range_hits[end]) and end + 1 != built_at
            events.append(replace(event, rebuild=True) if rebuild else event)
            if rebuild:
                built_at = end + 1
                codebook, _ = mean_shift_codebook(seen[:built_at])
                rebuilds += 1
                null_set = NullHypothesisSet()
                stored = sliding_window_view(seen, n)[np.array(ends) - n + 1]
                for row in quantize(codebook, stored):
                    null_set.add(empirical_pmf(row, codebook.kappa))
                break
    return CsaxResult(events, codebook, rebuilds)


def window_scores(events) -> np.ndarray:
    """Anomaly score per event: ``-log10`` of the chi-square tail p-value.

    Comparable across events even when the alphabet size (and with it the
    degrees of freedom) changed during the run; infinite statistics map to an
    infinite score.  An event with ``kappa < 2`` has no degree of freedom and
    raises OutOfRangeError.
    """
    from scipy.special import gammaincc  # imported here: scipy.special is slow to load

    stats = np.array([ev.min_statistic for ev in events], dtype=float)
    kappas = np.array([ev.kappa for ev in events], dtype=np.int64)
    short = np.flatnonzero(kappas < 2)
    if short.size:
        ev = events[short[0]]
        raise OutOfRangeError(f"event {ev.index} has kappa {ev.kappa} < 2: no degree of freedom")
    dof = kappas - 1.0
    with np.errstate(divide="ignore"):  # a zero tail probability scores +inf
        return -np.log10(gammaincc(dof / 2.0, stats / 2.0))
