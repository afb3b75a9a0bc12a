"""Experiment plumbing: synthetic corpora, CSV I/O, pair-trial grids, ROC.

Everything here is deterministic given a seed.  Pair trials draw from RNG
substreams keyed as ``(seed, cell_id, trial_id)`` so grid cells and trials
could run in any order, or in parallel, with identical results.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anomaly import DetectionEvent, DetectorConfig, block_means, run_detector
from .codec import EncoderSpec, EncodingMethod, NormalizationMode, encoder_space, fit
from .discretize import Codebook, quantize
from .errors import (
    ConstantSeriesError,
    EmptyFileError,
    GridInfeasibleError,
    InvalidParamsError,
    NoNegativesError,
    NoPositivesError,
    OutOfRangeError,
    ParseError,
    TooShortError,
    ZeroDistanceError,
)
from .metrics import _dist_error, _tlb, euclidean
from .series import TimeSeries, _constant_rows, znormalize

__all__ = [
    "LabeledStream",
    "RocCurve",
    "ExperimentGrid",
    "load_series_csv",
    "load_labeled_csv",
    "write_series_csv",
    "write_labeled_csv",
    "write_events_csv",
    "read_events_csv",
    "write_records_csv",
    "read_records_csv",
    "write_roc_csv",
    "generate_synthetic",
    "segments_for_budget",
    "SubsequencePool",
    "build_pool",
    "run_tlb_rmse_experiment",
    "pivot_records",
    "roc_curve",
    "window_labels",
    "roc_from_events",
    "run_fixed_detector",
]

METHOD_ORDER = (
    EncodingMethod.SAX,
    EncodingMethod.ASAX,
    EncodingMethod.PSAX,
    EncodingMethod.CSAX,
)


@dataclass(frozen=True)
class LabeledStream:
    """A raw value stream with a 0/1 anomaly label per sample."""

    values: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        labs = np.asarray(self.labels).ravel().astype(np.int64)
        if vals.size != labs.size:
            raise InvalidParamsError(
                f"{vals.size} values vs {labs.size} labels"
            )
        if labs.size and not np.all((labs == 0) | (labs == 1)):
            raise InvalidParamsError("labels must be 0 or 1")
        vals.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)


@dataclass(frozen=True)
class RocCurve:
    """Operating points sorted by FPR, including (0,0) and (1,1)."""

    points: np.ndarray
    auc: float
    thresholds: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        thr = np.asarray(self.thresholds, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or thr.size != pts.shape[0]:
            raise OutOfRangeError("points must be (k, 2) with one threshold each")
        if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
            raise OutOfRangeError("rates must lie in [0, 1]")
        if not (pts[0] == 0.0).all() or not (pts[-1] == 1.0).all():
            raise OutOfRangeError("curve must span (0,0) to (1,1)")
        if not 0.0 <= self.auc <= 1.0 + 1e-12:
            raise OutOfRangeError(f"AUC out of range: {self.auc}")
        pts.flags.writeable = False
        thr.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "thresholds", thr)

    @property
    def fpr(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def tpr(self) -> np.ndarray:
        return self.points[:, 1]


# ---------------------------------------------------------------------------
# CSV plumbing


@contextmanager
def _open_write(path):
    """Accept a path or anything with a ``write`` method."""
    if hasattr(path, "write"):
        yield path
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _data_lines(path):
    """Yield (1-based line number, stripped text) for non-blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text:
                yield lineno, text


def load_series_csv(path) -> TimeSeries:
    """One value per line; a non-numeric first line is treated as a header."""
    values = []
    first = True
    for lineno, text in _data_lines(path):
        fields = text.split(",")
        if len(fields) != 1:
            raise ParseError(f"{path}:{lineno}: expected one column", line=lineno)
        try:
            values.append(float(fields[0]))
        except ValueError:
            if first:
                first = False
                continue
            raise ParseError(
                f"{path}:{lineno}: not a number: {fields[0]!r}", line=lineno
            ) from None
        first = False
    if not values:
        raise EmptyFileError(f"no data rows in {path}")
    return TimeSeries(np.asarray(values))


def load_labeled_csv(path) -> LabeledStream:
    """Rows of ``value,label`` with label 0 or 1; header auto-detected."""
    values, labels = [], []
    first = True
    for lineno, text in _data_lines(path):
        fields = text.split(",")
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected two columns", line=lineno)
        try:
            value = float(fields[0])
            label = int(fields[1])
        except ValueError:
            if first:
                first = False
                continue
            raise ParseError(f"{path}:{lineno}: bad row: {text!r}", line=lineno) from None
        if label not in (0, 1):
            raise ParseError(
                f"{path}:{lineno}: label must be 0 or 1, got {label}", line=lineno
            )
        values.append(value)
        labels.append(label)
        first = False
    if not values:
        raise EmptyFileError(f"no data rows in {path}")
    return LabeledStream(np.asarray(values), np.asarray(labels), name=Path(path).stem)


def write_series_csv(path, values, header: str = "value") -> None:
    arr = np.asarray(values, dtype=float).ravel()
    with _open_write(path) as fh:
        fh.write(header + "\n")
        for v in arr:
            fh.write(repr(float(v)) + "\n")


def write_labeled_csv(path, stream: LabeledStream) -> None:
    with _open_write(path) as fh:
        fh.write("value,label\n")
        for v, l in zip(stream.values, stream.labels):
            fh.write(f"{repr(float(v))},{int(l)}\n")


EVENT_FIELDS = (
    "index",
    "flag",
    "min_statistic",
    "threshold",
    "components_count",
    "rebuild_flag",
)


def write_events_csv(path, events) -> None:
    with _open_write(path) as fh:
        fh.write(",".join(EVENT_FIELDS) + "\n")
        for ev in events:
            row = (
                ev.index,
                ev.anomalous,
                ev.min_statistic,
                ev.threshold,
                ev.components,
                ev.rebuild,
            )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_events_csv(path) -> list[DetectionEvent]:
    events = []
    for lineno, text in _data_lines(path):
        if lineno == 1:
            if text != ",".join(EVENT_FIELDS):
                raise ParseError(f"{path}: unexpected header {text!r}", line=1)
            continue
        fields = text.split(",")
        if len(fields) != len(EVENT_FIELDS):
            raise ParseError(f"{path}:{lineno}: bad row", line=lineno)
        try:
            events.append(
                DetectionEvent(
                    index=int(fields[0]),
                    anomalous=bool(int(fields[1])),
                    min_statistic=float(fields[2]),
                    threshold=float(fields[3]),
                    components=int(fields[4]),
                    rebuild=bool(int(fields[5])),
                )
            )
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad row: {text!r}", line=lineno) from None
    if not events:
        raise EmptyFileError(f"no events in {path}")
    return events


def write_records_csv(path, records, fieldnames=None) -> None:
    """Write homogeneous dict rows; floats use shortest round-trip form."""
    if fieldnames is None:
        if not records:
            raise EmptyFileError("cannot infer a header from zero records")
        fieldnames = list(records[0].keys())
    with _open_write(path) as fh:
        fh.write(",".join(fieldnames) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(rec[name]) for name in fieldnames) + "\n")


def read_records_csv(path) -> list[dict]:
    header = None
    records = []
    for lineno, text in _data_lines(path):
        fields = text.split(",")
        if header is None:
            header = fields
            continue
        if len(fields) != len(header):
            raise ParseError(f"{path}:{lineno}: bad row", line=lineno)
        records.append({k: _parse_cell(v) for k, v in zip(header, fields)})
    if header is None:
        raise EmptyFileError(f"no header in {path}")
    return records


def write_roc_csv(path, curve: RocCurve) -> None:
    """Plot-ready operating points; the AUC repeats on every row."""
    with _open_write(path) as fh:
        fh.write("threshold,fpr,tpr,auc\n")
        for thr, (fp, tp) in zip(curve.thresholds, curve.points):
            fh.write(f"{repr(float(thr))},{repr(float(fp))},{repr(float(tp))},{repr(curve.auc)}\n")


# ---------------------------------------------------------------------------
# Synthetic corpora


def _gen_ar1(length: int, rng, phi: float) -> np.ndarray:
    from scipy.signal import lfilter  # imported here: scipy.signal is slow to load

    if not abs(phi) < 1.0:
        raise InvalidParamsError(f"AR(1) coefficient must satisfy |phi| < 1, got {phi}")
    shocks = rng.standard_normal(length)
    x0 = shocks[0]
    if length == 1:
        return shocks
    scale = math.sqrt(1.0 - phi * phi)
    rest, _ = lfilter([1.0], [1.0, -phi], scale * shocks[1:], zi=np.array([phi * x0]))
    return np.concatenate(([x0], rest))


def _gen_bimodal(length, rng, mu1, mu2, weight, sigma):
    if not 0.0 < weight < 1.0:
        raise InvalidParamsError(f"mixture weight must be in (0, 1), got {weight}")
    if not sigma > 0.0:
        raise InvalidParamsError(f"component sigma must be positive, got {sigma}")
    if not (np.isfinite(mu1) and np.isfinite(mu2)):
        raise InvalidParamsError("component means must be finite")
    pick_first = rng.random(length) < weight
    centers = np.where(pick_first, mu1, mu2)
    return centers + sigma * rng.standard_normal(length)


def _gen_level_shift(length, rng, rate, segment, shift):
    if not 0.0 < rate < 1.0:
        raise InvalidParamsError(f"anomaly rate must be in (0, 1), got {rate}")
    segment = int(segment)
    if not 1 <= segment <= length:
        raise InvalidParamsError(f"segment length {segment} incompatible with {length}")
    if not np.isfinite(shift):
        raise InvalidParamsError("shift must be finite")
    count = max(1, round(rate * length / segment))
    starts: list[int] = []
    for _ in range(count):
        for _ in range(1000):
            s = int(rng.integers(0, length - segment + 1))
            if all(s + segment <= t or t + segment <= s for t in starts):
                starts.append(s)
                break
        else:
            raise InvalidParamsError(
                f"could not place {count} disjoint segments of {segment} in {length}"
            )
    values = rng.standard_normal(length)
    labels = np.zeros(length, dtype=np.int64)
    for s in sorted(starts):
        values[s : s + segment] += shift
        labels[s : s + segment] = 1
    return values, labels


def generate_synthetic(kind: str, length: int, seed: int = 0, **params):
    """Reproducible synthetic streams; returns a labeled stream for the
    anomaly kind and a plain series otherwise.

    Kinds and their parameters:
      - ``gaussian_iid``
      - ``ar1``: ``phi`` (default 0.9)
      - ``bimodal_mixture``: ``mu1`` (-2), ``mu2`` (2), ``weight`` (0.5,
        mass of the ``mu1`` component), ``sigma`` (0.5)
      - ``level_shift_anomalies``: ``rate`` (0.01, target labeled fraction),
        ``segment`` (50), ``shift`` (3.0); places
        ``max(1, round(rate * length / segment))`` disjoint shifted segments
    """
    if length < 1:
        raise InvalidParamsError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    allowed = {
        "gaussian_iid": (),
        "ar1": ("phi",),
        "bimodal_mixture": ("mu1", "mu2", "weight", "sigma"),
        "level_shift_anomalies": ("rate", "segment", "shift"),
    }
    if kind not in allowed:
        raise InvalidParamsError(f"unknown generator kind: {kind!r}")
    extra = set(params) - set(allowed[kind])
    if extra:
        raise InvalidParamsError(f"{kind} does not take {sorted(extra)}")
    if kind == "gaussian_iid":
        return TimeSeries(rng.standard_normal(length))
    if kind == "ar1":
        return TimeSeries(_gen_ar1(length, rng, float(params.get("phi", 0.9))))
    if kind == "bimodal_mixture":
        return TimeSeries(
            _gen_bimodal(
                length,
                rng,
                float(params.get("mu1", -2.0)),
                float(params.get("mu2", 2.0)),
                float(params.get("weight", 0.5)),
                float(params.get("sigma", 0.5)),
            )
        )
    values, labels = _gen_level_shift(
        length,
        rng,
        float(params.get("rate", 0.01)),
        params.get("segment", 50),
        float(params.get("shift", 3.0)),
    )
    return LabeledStream(values, labels, name=kind)


# ---------------------------------------------------------------------------
# TLB / RMSE pair-trial grid


def segments_for_budget(length: int, byte_budget: int, kappa: int) -> int:
    """Symbols that fit the byte budget: ``bytes * 8 / log2(kappa)``, rounded.

    The result must divide the subsequence length so PAA segments are exact.
    """
    if kappa < 2:
        raise OutOfRangeError(f"alphabet size must be >= 2, got {kappa}")
    if byte_budget < 1 or length < 1:
        raise OutOfRangeError("length and byte budget must be positive")
    segments = round(byte_budget * 8.0 / math.log2(kappa))
    if segments < 1 or segments > length or length % segments != 0:
        raise GridInfeasibleError(
            f"N={length}, bytes={byte_budget}, kappa={kappa}: "
            f"{segments} segments do not divide {length}"
        )
    return segments


@dataclass(frozen=True)
class ExperimentGrid:
    """Cross product of subsequence lengths, byte budgets and alphabet sizes."""

    lengths: tuple
    byte_budgets: tuple
    kappas: tuple = (16, 256)
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))
        object.__setattr__(self, "byte_budgets", tuple(int(b) for b in self.byte_budgets))
        object.__setattr__(self, "kappas", tuple(int(k) for k in self.kappas))
        if not self.lengths or not self.byte_budgets or not self.kappas:
            raise InvalidParamsError("grid axes must be non-empty")
        if self.trials < 0:
            raise InvalidParamsError(f"trials must be >= 0, got {self.trials}")
        for n, b, k in (
            (n, b, k) for n in self.lengths for b in self.byte_budgets for k in self.kappas
        ):
            segments_for_budget(n, b, k)

    def cells(self):
        """Yield ``(cell_id, length, bytes, kappa, segments)`` in a fixed order."""
        cell_id = 0
        for n in self.lengths:
            for b in self.byte_budgets:
                for k in self.kappas:
                    yield cell_id, n, b, k, segments_for_budget(n, b, k)
                    cell_id += 1


@dataclass(frozen=True)
class SubsequencePool:
    """Sliding-window PAA frames of individually Z-normalized subsequences.

    ``frames`` holds the PAA of each Z-normalized window (their per-window
    mean is exactly zero); ``frames_unit`` additionally rescales each row to
    unit PAA variance, the space variance-restoring encoders quantize in.
    Rows whose window, or whose PAA frame, is constant are marked invalid.
    """

    corpus: np.ndarray
    length: int
    segments: int
    frames: np.ndarray
    frames_unit: np.ndarray
    valid: np.ndarray

    @property
    def count(self) -> int:
        return self.frames.shape[0]

    def window(self, i: int) -> TimeSeries:
        """The i-th raw window, Z-normalized on its own."""
        raw = TimeSeries(self.corpus[i : i + self.length])
        return znormalize(raw)[0]


def build_pool(corpus, length: int, segments: int) -> SubsequencePool:
    x = np.asarray(corpus, dtype=float).ravel()
    if x.size < length:
        raise TooShortError(f"corpus of {x.size} has no window of {length}")
    if length % segments != 0:
        raise GridInfeasibleError(f"{segments} segments do not divide {length}")
    width = length // segments
    count = x.size - length + 1

    # prefix sums of raw x and x*x cancel under a large offset, hence centring;
    # constant windows are found by counting value changes, not by variance
    centred = x - np.mean(x)
    csum = np.concatenate(([0.0], np.cumsum(centred)))
    csq = np.concatenate(([0.0], np.cumsum(centred * centred)))
    changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
    starts = np.arange(count)
    means = (csum[starts + length] - csum[starts]) / length
    variances = (csq[starts + length] - csq[starts]) / length - means**2
    stds = np.sqrt(np.maximum(variances, 0.0))
    valid = (stds > 0.0) & (changes[starts + length - 1] > changes[starts])

    edges = starts[:, None] + np.arange(segments + 1)[None, :] * width
    segment_means = (csum[edges[:, 1:]] - csum[edges[:, :-1]]) / width
    safe_std = np.where(valid, stds, 1.0)
    frames = (segment_means - means[:, None]) / safe_std[:, None]
    frames[~valid] = 0.0

    rms = np.sqrt(np.mean(frames**2, axis=1))
    valid &= rms > 0.0
    safe_rms = np.where(rms > 0.0, rms, 1.0)
    frames_unit = frames / safe_rms[:, None]
    frames_unit[~valid] = 0.0

    frames.flags.writeable = False
    frames_unit.flags.writeable = False
    valid.flags.writeable = False
    return SubsequencePool(x, length, segments, frames, frames_unit, valid)


def _training_subset(pool: SubsequencePool, mode: NormalizationMode, rng) -> np.ndarray:
    """Square-root sized sample of the flat PAA value pool, without replacement.

    The flat index stream comes from the caller's RNG, so passing the same
    generator state for different normalization modes picks value-for-value
    aligned subsets.
    """
    source = pool.frames_unit if mode is NormalizationMode.PAA_ZNORM else pool.frames
    flat = source[pool.valid].ravel()
    if flat.size == 0:
        raise TooShortError("no valid subsequences to train on")
    k = math.ceil(math.sqrt(flat.size))
    return flat[rng.choice(flat.size, size=k, replace=False)]


def _draw_pair(pool: SubsequencePool, rng, attempts: int = 1000):
    candidates = np.flatnonzero(pool.valid)
    if candidates.size < 2:
        raise TooShortError("need at least two valid subsequences")
    for _ in range(attempts):
        i, j = candidates[rng.integers(0, candidates.size, size=2)]
        if i == j:
            continue
        u = pool.window(int(i))
        v = pool.window(int(j))
        if euclidean(u, v) == 0.0:
            continue
        return u, v
    raise ZeroDistanceError(f"no usable pair after {attempts} draws")


def run_tlb_rmse_experiment(corpus, grid: ExperimentGrid, methods=METHOD_ORDER) -> list[dict]:
    """Average TLB and reconstruction RMSE per grid cell and method.

    Per cell: every method trains on the same square-root sized subset of
    the cell's PAA sample pool (expressed in its own normalization space),
    then all methods score the same randomly drawn subsequence pairs.  TLB
    averages over pairs; RMSE averages over the first subsequence of each
    pair, mapped back to the common Z-normalized-window space.
    """
    x = corpus.values if isinstance(corpus, TimeSeries) else np.asarray(corpus, dtype=float)
    methods = tuple(EncodingMethod(m) for m in methods)
    if len(set(methods)) != len(methods):
        raise InvalidParamsError("duplicate methods")
    if x.size < max(grid.lengths):
        raise TooShortError(f"corpus of {x.size} shorter than N={max(grid.lengths)}")
    records: list[dict] = []
    if grid.trials == 0:
        return records
    for cell_id, n, budget, kappa, segments in grid.cells():
        pool = build_pool(x, n, segments)
        pairs = [
            _draw_pair(pool, np.random.default_rng([grid.seed, cell_id, trial]))
            for trial in range(grid.trials)
        ]
        first = np.stack([u.values for u, _ in pairs])
        second = np.stack([v.values for _, v in pairs])
        for method in methods:
            spec = EncoderSpec(method, segments=segments, kappa=kappa, seed=grid.seed)
            rng_cell = np.random.default_rng([grid.seed, cell_id])
            enc = fit(spec, [_training_subset(pool, spec.normalization, rng_cell)])
            space = encoder_space(enc, first)
            full, reduced, scale = space
            tlbs = _tlb(enc, space, encoder_space(enc, second))
            errs = _dist_error(full, quantize(enc.codebook, reduced), enc.codebook.centroids) * scale
            # running sums in trial order, so the means equal one-pair scoring's
            tlb_sum, err_sum = np.cumsum(tlbs)[-1], np.cumsum(errs)[-1]
            records.append(
                {
                    "length": n,
                    "bytes": budget,
                    "kappa": kappa,
                    "segments": segments,
                    "method": method.value,
                    "alphabet": enc.codebook.kappa,
                    "trials": grid.trials,
                    "tlb_mean": float(tlb_sum) / grid.trials,
                    "rmse_mean": float(err_sum) / grid.trials,
                }
            )
    return records


def pivot_records(records, metric: str, kappa: int) -> list[dict]:
    """Reshape long-format records to rows by length, columns method x bytes."""
    if metric not in ("tlb_mean", "rmse_mean"):
        raise InvalidParamsError(f"unknown metric {metric!r}")
    chosen = [r for r in records if r["kappa"] == kappa]
    if not chosen:
        raise InvalidParamsError(f"no records at kappa={kappa}")
    lengths = sorted({r["length"] for r in chosen})
    combos = sorted({(r["method"], r["bytes"]) for r in chosen}, key=lambda c: (c[1], c[0]))
    out = []
    for n in lengths:
        row = {"length": n}
        for method, budget in combos:
            cell = [
                r
                for r in chosen
                if r["length"] == n and r["method"] == method and r["bytes"] == budget
            ]
            row[f"{method}_{budget}B"] = cell[0][metric] if cell else float("nan")
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# ROC evaluation


def roc_curve(scores, labels) -> RocCurve:
    """Operating points from continuous scores, swept over every cut point.

    Higher score means "more anomalous"; ties share one operating point and
    the endpoints (0,0) and (1,1) are always present.  AUC by the trapezoid
    rule.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(bool)
    if s.size != y.size:
        raise InvalidParamsError(f"{s.size} scores vs {y.size} labels")
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0:
        raise NoPositivesError("no positive windows")
    if neg == 0:
        raise NoNegativesError("no negative windows")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    tps = np.cumsum(y[order])
    fps = np.cumsum(~y[order])
    last_of_tie = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tpr = np.concatenate(([0.0], tps[last_of_tie] / pos, [1.0]))
    fpr = np.concatenate(([0.0], fps[last_of_tie] / neg, [1.0]))
    thresholds = np.concatenate(([np.inf], sorted_scores[last_of_tie], [-np.inf]))
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(np.column_stack([fpr, tpr]), auc, thresholds)


def window_labels(labels, window: int, indices, block: int = 1) -> np.ndarray:
    """A window is positive when any raw sample it covers is labeled.

    ``indices`` are window-end positions in block space; block ``i`` spans raw
    samples ``[i*block, (i+1)*block)``.
    """
    labs = np.asarray(labels).ravel().astype(bool)
    csum = np.concatenate(([0], np.cumsum(labs)))
    idx = np.asarray(indices, dtype=np.int64).ravel()
    lo = (idx - window + 1) * block
    hi = np.minimum((idx + 1) * block, labs.size)
    outside = (lo < 0) | (lo >= hi)
    if outside.any():
        raise OutOfRangeError(f"window at block {idx[outside][0]} outside the label range")
    return csum[hi] - csum[lo] > 0


def roc_from_events(events, labels, window: int, block: int = 1) -> RocCurve:
    """ROC of a finished detector run against per-sample labels.

    Scores are chi-square tail p-values of each window's statistic (as
    ``-log10``), so sweeping the score threshold is exactly sweeping the
    significance level alpha for the stored-component set each window saw.
    """
    from .anomaly import window_scores

    scores = window_scores(events)
    truth = window_labels(labels, window, [ev.index for ev in events], block=block)
    return roc_curve(scores, truth)


def run_fixed_detector(
    values,
    method: EncodingMethod,
    config: DetectorConfig = DetectorConfig(),
    seed: int = 0,
    paa_ratio: float = 1.0,
):
    """Detector over a fixed codebook fitted once on the whole stream.

    The stream is Z-normalized with full-stream statistics, block-averaged
    per ``paa_ratio``, quantized, and rolled through the goodness-of-fit
    test.  Data-driven codebooks train on a square-root sized sample of the
    reduced stream.  Returns ``(events, codebook)``.
    """
    method = EncodingMethod(method)
    if method is EncodingMethod.CSAX:
        raise InvalidParamsError("the adaptive method has its own runner")
    x = np.asarray(values, dtype=float).ravel()
    sd = float(np.std(x))
    # streams with a non-finite std (empty or non-finite) fail further on
    if math.isfinite(sd) and _constant_rows(x, sd):
        raise ConstantSeriesError("stream is constant; cannot normalize")
    reduced, _ = block_means((x - float(np.mean(x))) / sd, paa_ratio)

    spec = EncoderSpec(method, segments=1, kappa=config.kappa, normalization=NormalizationMode.NONE, seed=seed)
    rng = np.random.default_rng([seed])
    k = math.ceil(math.sqrt(reduced.size))
    train = reduced[rng.choice(reduced.size, size=min(k, reduced.size), replace=False)]
    encoder = fit(spec, [train])
    codebook: Codebook = encoder.codebook
    symbols = quantize(codebook, reduced)
    events = run_detector(symbols, config)
    return events, codebook
