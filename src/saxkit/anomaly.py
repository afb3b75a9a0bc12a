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

from .density import DensityModel, KernelKind, bandwidth_gradient
from .discretize import Codebook, quantize
from .errors import (
    AlphabetMismatchError,
    InvalidParamsError,
    OutOfRangeError,
    StreamTooShortError,
    SymbolOutOfRangeError,
    WindowLengthMismatchError,
)
from .meanshift import (
    DynamicClusterState,
    dynamic_update_check,
    mean_shift_modes,
    modes_to_codebook,
)

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

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if not np.issubdtype(arr.dtype, np.integer):
            raise OutOfRangeError("counts must be integers")
        arr = arr.astype(np.int64)
        if arr.ndim != 1 or arr.size < 1 or arr.min() < 0 or arr.sum() < 1:
            raise OutOfRangeError("counts must be non-negative with a positive total")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def window(self) -> int:
        return int(self.counts.sum())

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


def kl_divergence(p, q) -> float:
    """``sum p * ln(p/q)`` in nats with ``0 ln 0 = 0``; infinite on support mismatch."""
    pm, qm = _masses(p), _masses(q)
    if pm.size != qm.size:
        raise AlphabetMismatchError(f"alphabet sizes differ: {pm.size} vs {qm.size}")
    on = pm > 0.0
    if np.any(qm[on] == 0.0):
        return math.inf
    return float(np.sum(pm[on] * np.log(pm[on] / qm[on])))


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
        self._log_masses: np.ndarray | None = None

    def __len__(self):
        return len(self._components)

    @property
    def components(self) -> tuple[EmpiricalPmf, ...]:
        return tuple(self._components)

    def add(self, pmf: EmpiricalPmf) -> None:
        self._components.append(pmf)
        self._log_masses = None

    def min_statistic(self, window: EmpiricalPmf) -> float:
        """Smallest statistic against any stored component; +inf when empty."""
        if not self._components:
            return math.inf
        if self._log_masses is None:
            stacked = np.stack([c.masses for c in self._components])
            with np.errstate(divide="ignore"):
                self._log_masses = np.log(stacked)
        p = window.masses
        on = p > 0.0
        self_term = float(np.sum(p[on] * np.log(p[on])))
        cross = self._log_masses[:, on] @ p[on]
        stats = 2.0 * window.window * (self_term - cross)
        return float(np.min(stats))


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


def run_detector(symbols, config: DetectorConfig = DetectorConfig()) -> list[DetectionEvent]:
    """Roll a window over a fixed-alphabet symbol stream, one step at a time."""
    sym = np.asarray(symbols).astype(np.int64)
    n = config.window
    if sym.size < n:
        raise StreamTooShortError(f"stream of {sym.size} symbols < window {n}")
    if sym.min() < 0 or sym.max() >= config.kappa:
        raise SymbolOutOfRangeError(f"symbols outside [0, {config.kappa})")
    threshold = chi2_quantile(1.0 - config.alpha, config.kappa - 1)
    null_set = NullHypothesisSet()
    counts = np.bincount(sym[:n], minlength=config.kappa)
    events = []
    for i in range(n - 1, sym.size):
        if i > n - 1:
            counts[sym[i]] += 1
            counts[sym[i - n]] -= 1
        pmf = EmpiricalPmf(counts.copy())
        events.append(gof_step(null_set, pmf, threshold, index=i))
    return events


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
    """Events plus the final clustering state of one cSAX detector run."""

    events: list[DetectionEvent]
    state: DynamicClusterState
    rebuilds: int

    @property
    def codebook(self) -> Codebook:
        return self.state.codebook


def _csax_codebook(samples: np.ndarray) -> Codebook:
    sd = float(np.std(samples))
    h = bandwidth_gradient(KernelKind.GAUSSIAN, sd, samples.size)
    modes = mean_shift_modes(samples, h)
    return modes_to_codebook(modes, DensityModel(samples, KernelKind.GAUSSIAN, h))


def _null_set(codebook: Codebook, windows) -> NullHypothesisSet:
    """The stored windows' pmfs under one codebook."""
    null_set = NullHypothesisSet()
    for w in windows:
        null_set.add(empirical_pmf(quantize(codebook, w), codebook.kappa))
    return null_set


def run_csax_detector(
    values,
    config: DetectorConfig = DetectorConfig(),
    pretraining=(),
    paa_ratio: float = 1.0,
) -> CsaxResult:
    """Detector with a self-adjusting mean-shift codebook on a raw stream.

    Raw values are block-averaged per ``paa_ratio`` (one symbol per ``1/ratio``
    raw samples; trailing partial blocks are dropped), quantized with the
    current codebook, and fed through the rolling goodness-of-fit test with
    the alphabet size the codebook currently has (``config.kappa`` is not
    used).  After each window decision the clustering is re-estimated from all
    samples seen whenever the window was flagged or the newest sample fell
    outside the observed range widened by the smoothness scale; stored
    windows keep their raw values and are re-expressed under each new
    codebook.  With empty pretraining the first codebook comes from the first
    ``window`` samples and the first window is always anomalous.

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

    state = DynamicClusterState()
    raw_windows: list[np.ndarray] = []
    thresholds: dict[int, float] = {}
    pre = np.asarray(pretraining, dtype=float).ravel()
    if pre.size:
        pre_reduced, _ = block_means(pre, paa_ratio)
        state.observe_many(pre_reduced)
        state.codebook = _csax_codebook(state.samples())
        if pre_reduced.size >= n:
            pre_config = replace(config, kappa=state.codebook.kappa)
            for ev in run_detector(quantize(state.codebook, pre_reduced), pre_config):
                if ev.anomalous:
                    raw_windows.append(pre_reduced[ev.index - n + 1 : ev.index + 1].copy())
    null_set = _null_set(state.codebook, raw_windows)
    built_at = state.count if state.codebook is not None else -1

    events: list[DetectionEvent] = []
    rebuilds = 0
    for i in range(reduced.size):
        sample = float(reduced[i])
        if i < n - 1:
            state.observe(sample)
            continue
        range_hit = state.codebook is not None and dynamic_update_check(state, False, sample)
        state.observe(sample)
        if state.codebook is None:
            state.codebook = _csax_codebook(state.samples())
            built_at = state.count
        codebook = state.codebook
        window_values = reduced[i - n + 1 : i + 1]
        pmf = empirical_pmf(quantize(codebook, window_values), codebook.kappa)
        kappa = codebook.kappa
        if kappa not in thresholds:
            thresholds[kappa] = chi2_quantile(1.0 - config.alpha, kappa - 1)
        event = gof_step(null_set, pmf, thresholds[kappa], index=i)
        if event.anomalous:
            raw_windows.append(window_values.copy())
        # re-estimation is skipped when no sample arrived since the last
        # build (only possible right at the bootstrap step)
        do_rebuild = (event.anomalous or range_hit) and state.count != built_at
        events.append(replace(event, rebuild=do_rebuild))
        if do_rebuild:
            state.codebook = _csax_codebook(state.samples())
            built_at = state.count
            rebuilds += 1
            null_set = _null_set(state.codebook, raw_windows)
    return CsaxResult(events, state, rebuilds)


def window_scores(events) -> np.ndarray:
    """Anomaly score per event: ``-log10`` of the chi-square tail p-value.

    Comparable across events even when the alphabet size (and with it the
    degrees of freedom) changed during the run; infinite statistics map to an
    infinite score.
    """
    out = np.empty(len(events))
    for i, ev in enumerate(events):
        dof = max(ev.kappa - 1, 1)
        if math.isinf(ev.min_statistic):
            out[i] = math.inf
            continue
        p = float(gammaincc(dof / 2.0, ev.min_statistic / 2.0))
        out[i] = math.inf if p == 0.0 else -math.log10(p)
    return out
