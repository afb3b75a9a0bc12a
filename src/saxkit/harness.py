"""Experiment plumbing: synthetic corpora, CSV I/O, pair-trial grids, ROC.

Everything here is deterministic given a seed.  Pair trials draw from RNG
substreams keyed as ``(seed, cell_id, trial_id)`` so grid cells and trials
could run in any order, or in parallel, with identical results.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, count, product, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .anomaly import DetectionEvent, DetectorConfig, block_means, run_detector, window_scores
from .codec import EncoderSpec, EncodingMethod, NormalizationMode, encoder_space, fit
from .discretize import Codebook, quantize
from .errors import (
    EmptyFileError,
    GridInfeasibleError,
    InvalidParamsError,
    NoNegativesError,
    NoPositivesError,
    OutOfRangeError,
    ParseError,
    TooShortError,
    ZeroDistanceError,
    integral,
    member,
)
from .metrics import _dist_error, _euclidean, _tlb
from .series import TimeSeries, _row_stats

__all__ = [
    "LabeledStream",
    "RocCurve",
    "ExperimentGrid",
    "load_series_csv",
    "load_labeled_csv",
    "load_stream_csv",
    "write_series_csv",
    "write_labeled_csv",
    "event_record",
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

METHOD_ORDER = tuple(EncodingMethod)


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
    """Accept a path, anything with a ``write`` method, or None for stdout."""
    if path is None:
        yield sys.stdout
    elif hasattr(path, "write"):
        yield path
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # flags as 0/1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(path, fields, rows) -> None:
    """A header of ``fields``, then one line per row; floats in shortest round-trip form."""
    with _open_write(path) as fh:
        fh.write(",".join(fields) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _parse_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_lines(path) -> tuple[list, list]:
    """1-based line numbers and stripped text of the file's non-blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    return list(compress(count(1), lines)), list(filter(None, lines))


def _flag(text: str) -> bool:
    """A 0/1 cell: a sample's label or an event's flag."""
    flag = int(text)
    if flag not in (0, 1):
        # a ParseError, unlike a plain ValueError, never makes a line a header
        raise ParseError(f"expected 0 or 1, got {flag}")
    return bool(flag)


def _check_row(text: str, kinds) -> None:
    fields = text.split(",")
    if len(fields) != len(kinds):
        raise ParseError(f"expected {len(kinds)} column(s), got {len(fields)}")
    for kind, cell in zip(kinds, fields):
        kind(cell)


def _numeric_columns(path, lines, kinds, header) -> list:
    """One column of ``lines`` per entry of ``kinds``, parsed by that entry:
    a float array for one column, lists for wider rows.

    With ``header`` None, a first line that does not parse is a header;
    otherwise the first non-blank line must read ``header``.  A row of the
    wrong width, or a field its kind rejects, raises ParseError naming its line.
    """
    numbers, rows = lines
    if header is None and rows:
        try:
            _check_row(rows[0], kinds)
        except ParseError:  # a wrong width or label is an error, not a header
            pass
        except ValueError:
            numbers, rows = numbers[1:], rows[1:]
    elif header is not None and rows:
        if rows[0] != header:
            raise ParseError(f"{path}: unexpected header {rows[0]!r}", line=numbers[0])
        numbers, rows = numbers[1:], rows[1:]
    if not rows:
        raise EmptyFileError(f"no data rows in {path}")
    width = len(kinds)
    try:
        if width == 1:  # no comma anywhere, then one value per row
            if "," in "".join(rows):
                raise ValueError("a row of the wrong width")
            return [np.fromiter(map(kinds[0], rows), float, len(rows))]
        if set(map(str.count, rows, repeat(","))) != {width - 1}:
            raise ValueError("a row of the wrong width")
        flat = ",".join(rows).split(",")
        return [list(map(kind, flat[j::width])) for j, kind in enumerate(kinds)]
    except ValueError:  # name the first bad line
        for lineno, text in zip(numbers, rows):
            try:
                _check_row(text, kinds)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}", line=lineno) from None
        raise


def _load(path, lines, labeled: bool):
    columns = _numeric_columns(path, lines, (float, _flag) if labeled else (float,), None)
    return LabeledStream(*columns, name=Path(path).stem) if labeled else TimeSeries(*columns)


def load_series_csv(path) -> TimeSeries:
    """One value per line; a non-numeric first line is treated as a header."""
    return _load(path, _read_lines(path), False)


def load_labeled_csv(path) -> LabeledStream:
    """Rows of ``value,label`` with label 0 or 1; header auto-detected."""
    return _load(path, _read_lines(path), True)


def load_stream_csv(path):
    """A LabeledStream when the first non-blank line has a comma, else a TimeSeries."""
    lines = _read_lines(path)
    return _load(path, lines, "," in "".join(lines[1][:1]))


def write_series_csv(path, values, header: str = "value") -> None:
    _write_rows(path, (header,), zip(np.asarray(values, dtype=float).ravel().tolist()))


def write_labeled_csv(path, stream: LabeledStream) -> None:
    _write_rows(path, ("value", "label"), zip(stream.values.tolist(), stream.labels.tolist()))


# The event log's columns in ``DetectionEvent``'s field order: the header
# name, the event field and the cell parser of each.  Flags are written 0/1.
EVENT_COLUMNS = (
    ("index", "index", int),
    ("flag", "anomalous", _flag),
    ("min_statistic", "min_statistic", float),
    ("threshold", "threshold", float),
    ("components_count", "components", int),
    ("rebuild_flag", "rebuild", _flag),
    ("kappa", "kappa", int),
)
_EVENT_HEADER, _EVENT_FIELDS, _EVENT_KINDS = zip(*EVENT_COLUMNS)


# The columns of a tlb-rmse record, in order.
RECORD_FIELDS = (
    "length", "bytes", "kappa", "segments", "method", "alphabet", "trials", "tlb_mean", "rmse_mean"
)


def event_record(ev: DetectionEvent) -> dict:
    """One detector event keyed by the event log's header; flags are 0/1."""
    cells = attrgetter(*_EVENT_FIELDS)(ev)
    return {name: int(v) if isinstance(v, bool) else v for name, v in zip(_EVENT_HEADER, cells)}


def write_events_csv(path, events) -> None:
    _write_rows(path, _EVENT_HEADER, map(attrgetter(*_EVENT_FIELDS), events))


def read_events_csv(path) -> list[DetectionEvent]:
    """The events ``write_events_csv`` wrote, field for field."""
    columns = _numeric_columns(path, _read_lines(path), _EVENT_KINDS, ",".join(_EVENT_HEADER))
    return list(map(DetectionEvent, *columns))


def write_records_csv(path, records, fieldnames=None) -> None:
    """Write homogeneous dict rows; floats use shortest round-trip form."""
    if fieldnames is None:
        if not records:
            raise EmptyFileError("cannot infer a header from zero records")
        fieldnames = list(records[0].keys())
    _write_rows(path, fieldnames, ([rec[name] for name in fieldnames] for rec in records))


def read_records_csv(path) -> list[dict]:
    numbers, rows = _read_lines(path)
    if not rows:
        raise EmptyFileError(f"no header in {path}")
    header = rows[0].split(",")
    records = []
    for lineno, text in zip(numbers[1:], rows[1:]):
        fields = text.split(",")
        if len(fields) != len(header):
            raise ParseError(f"{path}:{lineno}: bad row", line=lineno)
        records.append(dict(zip(header, map(_parse_cell, fields))))
    return records


def write_roc_csv(path, curve: RocCurve) -> None:
    """Plot-ready operating points; the AUC repeats on every row."""
    rows = zip(curve.thresholds, curve.fpr, curve.tpr, repeat(curve.auc))
    _write_rows(path, ("threshold", "fpr", "tpr", "auc"), rows)


# ---------------------------------------------------------------------------
# Synthetic corpora


def _gen_ar1(length: int, rng, phi: float) -> np.ndarray:
    if not abs(phi) < 1.0:
        raise InvalidParamsError(f"AR(1) coefficient must satisfy |phi| < 1, got {phi}")
    shocks = rng.standard_normal(length)
    scale = math.sqrt(1.0 - phi * phi)
    steps = accumulate((scale * shocks[1:]).tolist(), lambda y, e: phi * y + e, initial=shocks[0])
    return np.fromiter(steps, dtype=float, count=length)


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


# Each generator kind's parameters and their defaults.  A passed value must be
# a whole number where the default is an int, and is taken as a float
# otherwise.  ``weight`` is the mass of the ``mu1`` component; ``rate`` is the
# target labeled fraction, placed as ``max(1, round(rate * length / segment))``
# disjoint shifted segments.
GENERATOR_PARAMS = {
    "gaussian_iid": {},
    "ar1": {"phi": 0.9},
    "bimodal_mixture": {"mu1": -2.0, "mu2": 2.0, "weight": 0.5, "sigma": 0.5},
    "level_shift_anomalies": {"rate": 0.01, "shift": 3.0, "segment": 50},
}


def generate_synthetic(kind: str, length: int, seed: int = 0, **params):
    """Reproducible synthetic streams; returns a labeled stream for the
    anomaly kind and a plain series otherwise.

    The kinds, their parameters and defaults are ``GENERATOR_PARAMS``.
    """
    length = integral(length, "length", minimum=1)
    rng = np.random.default_rng(integral(seed, "seed", minimum=0))
    if kind not in GENERATOR_PARAMS:
        raise InvalidParamsError(f"unknown generator kind: {kind!r}")
    defaults = GENERATOR_PARAMS[kind]
    extra = set(params) - set(defaults)
    if extra:
        raise InvalidParamsError(f"{kind} does not take {sorted(extra)}")
    args = {}
    for name, default in defaults.items():
        value = params.get(name, default)
        args[name] = integral(value, name) if isinstance(default, int) else float(value)
    if kind == "level_shift_anomalies":
        return LabeledStream(*_gen_level_shift(length, rng, **args), name=kind)
    if kind == "gaussian_iid":
        return TimeSeries(rng.standard_normal(length))
    return TimeSeries((_gen_ar1 if kind == "ar1" else _gen_bimodal)(length, rng, **args))


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
        for axis in ("lengths", "byte_budgets", "kappas"):
            values = tuple(integral(v, axis) for v in getattr(self, axis))
            object.__setattr__(self, axis, values)
        object.__setattr__(self, "trials", integral(self.trials, "trials", minimum=0))
        object.__setattr__(self, "seed", integral(self.seed, "seed", minimum=0))
        if not self.lengths or not self.byte_budgets or not self.kappas:
            raise InvalidParamsError("grid axes must be non-empty")
        list(self.cells())  # raises for the first infeasible cell

    def cells(self):
        """Yield ``(cell_id, length, bytes, kappa, segments)`` in a fixed order."""
        for cell_id, (n, b, k) in enumerate(product(self.lengths, self.byte_budgets, self.kappas)):
            yield cell_id, n, b, k, segments_for_budget(n, b, k)


# Frame elements formed at a time while ``build_pool`` takes each row's RMS.
_POOL_CHUNK_ELEMENTS = 1 << 16


def _plain_frames(blocks, means, stds, nonconstant, length: int, segments: int, rows) -> np.ndarray:
    """The PAA frames of the Z-normalized windows ``rows`` (a slice or index array).

    Segment k of the window at s is the width-block at s + k*width: a strided
    view, made C-ordered by its first arithmetic so that a row sums in the
    same order as a single row does.  Every step is elementwise, so a row's
    values do not depend on which other rows are formed with it.
    """
    width = length // segments
    segment_means = sliding_window_view(blocks, length - width + 1)[:, ::width]
    frames = np.subtract(segment_means[rows], means[rows, None], order="C")
    frames /= stds[rows, None]
    frames[~nonconstant[rows]] = 0.0
    return frames


@dataclass(frozen=True)
class SubsequencePool:
    """Sliding-window PAA frames of individually Z-normalized subsequences.

    ``frames`` holds the PAA of each Z-normalized window (their per-window
    mean is exactly zero); ``frames_unit`` additionally rescales each row to
    unit PAA variance, the space variance-restoring encoders quantize in.
    Rows whose window, or whose PAA frame, is constant are marked invalid.

    The pool holds no ``(count, segments)`` array.  It keeps the width-block
    means of the centred corpus and, per window, its mean, its standard
    deviation and the RMS of its frame (each 1 where the window or frame is
    constant), and whether the window is non-constant.  Frame rows are
    formed from these on demand, one elementwise step at a time, so any
    subset of rows holds the same bits as the full arrays.  ``frames`` and
    ``frames_unit`` are formed in full, as C-ordered arrays, on first read
    and cached.  :meth:`windows` Z-normalizes any stack of raw windows at
    once.
    """

    corpus: np.ndarray
    length: int
    segments: int
    valid: np.ndarray
    _blocks: np.ndarray = field(repr=False)
    _means: np.ndarray = field(repr=False)
    _stds: np.ndarray = field(repr=False)
    _rms: np.ndarray = field(repr=False)
    _nonconstant: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return self.valid.size

    def _rows(self, rows, unit: bool = False) -> np.ndarray:
        """The frames, or with ``unit`` the unit frames, of ``rows`` as a C-ordered array."""
        frames = _plain_frames(
            self._blocks, self._means, self._stds, self._nonconstant, self.length, self.segments, rows
        )
        if unit:
            frames /= self._rms[rows, None]
            frames[~self.valid[rows]] = 0.0
        frames.flags.writeable = False
        return frames

    @cached_property
    def frames(self) -> np.ndarray:
        return self._rows(slice(None))

    @cached_property
    def frames_unit(self) -> np.ndarray:
        return self._rows(slice(None), unit=True)

    def windows(self, starts) -> np.ndarray:
        """The raw windows at ``starts``, each Z-normalized on its own, as rows.

        A row's values do not depend on the other rows of the stack.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size and not 0 <= starts.min() <= starts.max() < self.count:
            raise OutOfRangeError(f"window starts must lie in [0, {self.count})")
        rows = sliding_window_view(self.corpus, self.length)[starts]
        mean, std = _row_stats(rows)
        return (rows - mean) / std

    def window(self, i: int) -> TimeSeries:
        """The i-th raw window, Z-normalized on its own."""
        return TimeSeries(self.windows([i])[0])


def build_pool(corpus, length: int, segments: int) -> SubsequencePool:
    """The pool of every ``length``-sample window of ``corpus`` at ``segments`` PAA segments.

    One pass of prefix sums gives each window's mean and standard deviation
    and the width-block means.  Frame rows are formed only to take each
    row's RMS, ``_POOL_CHUNK_ELEMENTS`` values at a time, and are not kept.
    """
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
    means = (csum[length:] - csum[:-length]) / length
    variances = (csq[length:] - csq[:-length]) / length - means**2
    stds = np.sqrt(np.maximum(variances, 0.0))
    nonconstant = (stds > 0.0) & (changes[length - 1 :] > changes[:count])
    blocks = (csum[width:] - csum[:-width]) / width
    safe_std = np.where(nonconstant, stds, 1.0)

    rms = np.empty(count)
    step = max(1, _POOL_CHUNK_ELEMENTS // segments)
    for start in range(0, count, step):
        rows = slice(start, start + step)
        frames = _plain_frames(blocks, means, safe_std, nonconstant, length, segments, rows)
        rms[rows] = np.sqrt(np.mean(np.square(frames, out=frames), axis=1))
    valid = nonconstant & (rms > 0.0)
    safe_rms = np.where(rms > 0.0, rms, 1.0)

    for arr in (valid, blocks, means, safe_std, safe_rms, nonconstant):
        arr.flags.writeable = False
    return SubsequencePool(x, length, segments, valid, blocks, means, safe_std, safe_rms, nonconstant)


def _training_subset(pool: SubsequencePool, mode: NormalizationMode, rng) -> np.ndarray:
    """Square-root sized sample of the flat PAA value pool, without replacement.

    The flat pool is ``source[pool.valid].ravel()``, with ``source`` the
    pool's ``frames_unit`` or ``frames``; the sample forms only the rows its
    flat indices hit.  The flat index stream comes from the caller's RNG, so
    passing the same generator state for different normalization modes picks
    value-for-value aligned subsets.
    """
    rows = np.flatnonzero(pool.valid)
    size = rows.size * pool.segments
    if size == 0:
        raise TooShortError("no valid subsequences to train on")
    flat = rng.choice(size, size=math.ceil(math.sqrt(size)), replace=False)
    frames = pool._rows(rows[flat // pool.segments], unit=mode is NormalizationMode.PAA_ZNORM)
    return frames[np.arange(flat.size), flat % pool.segments]


_PAIR_DRAWS = 1000  # draws a trial makes before it gives up


def _draw_pairs(pool: SubsequencePool, rngs):
    """One pair of Z-normalized windows per generator, as two ``(trials, N)`` stacks.

    Each round, every pending trial draws two valid window starts from its
    own generator, and the drawn windows are normalized as one stack.  A
    trial stays pending while its starts are equal or its windows coincide.
    Later rounds fill the pending rows of the first round's stack.
    """
    candidates = np.flatnonzero(pool.valid)
    if candidates.size < 2:
        raise TooShortError("need at least two valid subsequences")
    pairs, pending = None, np.arange(len(rngs))
    for _ in range(_PAIR_DRAWS):
        starts = candidates[np.array([rngs[t].integers(0, candidates.size, size=2) for t in pending])]
        drawn = pool.windows(starts.ravel()).reshape(pending.size, 2, pool.length)
        usable = (starts[:, 0] != starts[:, 1]) & (_euclidean(drawn[:, 0], drawn[:, 1]) != 0.0)
        if pairs is None:
            pairs = drawn
        else:
            pairs[pending[usable]] = drawn[usable]
        pending = pending[~usable]
        if not pending.size:
            return pairs[:, 0], pairs[:, 1]
    raise ZeroDistanceError(f"no usable pair after {_PAIR_DRAWS} draws")


def run_tlb_rmse_experiment(corpus, grid: ExperimentGrid, methods=METHOD_ORDER) -> list[dict]:
    """Average TLB and reconstruction RMSE per grid cell and method.

    Per cell: every method trains on the same square-root sized subset of
    the cell's PAA sample pool (expressed in its own normalization space),
    then all methods score the same randomly drawn subsequence pairs.  TLB
    averages over pairs; RMSE averages over the first subsequence of each
    pair, mapped back to the common Z-normalized-window space.

    Each cell builds its pool once, samples one training subset per
    normalization mode, Z-normalizes all pairs as one stack and scores them
    as two stacks.  Trial ``t`` draws its pair from the generator keyed
    ``(seed, cell_id, t)``, redrawing while the two windows are the same or
    coincide, so every record equals scoring one pair at a time with
    ``metrics.tlb`` and ``metrics.dist_error``, summed in trial order.

    Raises
    ------
    TooShortError
        If a cell's pool has fewer than two valid windows.
    ZeroDistanceError
        If a trial finds no non-coinciding pair in ``_PAIR_DRAWS`` (1000) draws.
    """
    x = corpus.values if isinstance(corpus, TimeSeries) else np.asarray(corpus, dtype=float)
    methods = tuple(member(EncodingMethod, m, "method") for m in methods)
    if len(set(methods)) != len(methods):
        raise InvalidParamsError("duplicate methods")
    if x.size < max(grid.lengths):
        raise TooShortError(f"corpus of {x.size} shorter than N={max(grid.lengths)}")
    records: list[dict] = []
    if grid.trials == 0:
        return records
    for cell_id, n, budget, kappa, segments in grid.cells():
        pool = build_pool(x, n, segments)
        rngs = [np.random.default_rng([grid.seed, cell_id, trial]) for trial in range(grid.trials)]
        first, second = _draw_pairs(pool, rngs)
        subsets = {}  # every method draws its subset from the same generator state
        for method in methods:
            spec = EncoderSpec(method, segments=segments, kappa=kappa, seed=grid.seed)
            if spec.normalization not in subsets:
                rng_cell = np.random.default_rng([grid.seed, cell_id])
                subsets[spec.normalization] = _training_subset(pool, spec.normalization, rng_cell)
            enc = fit(spec, [subsets[spec.normalization]])
            space = encoder_space(enc, first)
            full, reduced, scale = space
            tlbs = _tlb(enc, space, encoder_space(enc, second))
            errs = _dist_error(full, quantize(enc.codebook, reduced), enc.codebook.centroids) * scale
            # running sums in trial order, so the means equal one-pair scoring's
            tlb_sum, err_sum = np.cumsum(tlbs)[-1], np.cumsum(errs)[-1]
            row = (n, budget, kappa, segments, method.value, enc.codebook.kappa, grid.trials)
            means = (float(tlb_sum) / grid.trials, float(err_sum) / grid.trials)
            records.append(dict(zip(RECORD_FIELDS, row + means)))
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
    # (length, method, bytes) -> the cell's first record, written last in reverse
    first = {(r["length"], r["method"], r["bytes"]): r for r in reversed(chosen)}
    absent = {metric: float("nan")}
    return [
        {"length": n, **{f"{m}_{b}B": first.get((n, m, b), absent)[metric] for m, b in combos}}
        for n in lengths
    ]


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
    method = member(EncodingMethod, method, "method")
    seed = integral(seed, "seed", minimum=0)
    if method is EncodingMethod.CSAX:
        raise InvalidParamsError("the adaptive method has its own runner")
    x = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise OutOfRangeError("stream values must be finite")
    mean, sd = _row_stats(x)
    reduced, _ = block_means((x - mean) / sd, paa_ratio)

    spec = EncoderSpec(method, segments=1, kappa=config.kappa, normalization=NormalizationMode.NONE, seed=seed)
    rng = np.random.default_rng([seed])
    k = math.ceil(math.sqrt(reduced.size))
    train = reduced[rng.choice(reduced.size, size=min(k, reduced.size), replace=False)]
    encoder = fit(spec, [train])
    codebook: Codebook = encoder.codebook
    symbols = quantize(codebook, reduced)
    events = run_detector(symbols, config)
    return events, codebook
