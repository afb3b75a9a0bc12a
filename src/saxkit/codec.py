"""Symbolic encoders: SAX, aSAX, pSAX and cSAX pipelines.

An encoder couples a normalization mode, a PAA segment count and a codebook:

* ``SAX``   - Gaussian-quantile codebook, no training beyond statistics.
* ``ASAX``  - 1-D k-means codebook fitted to training PAA samples.
* ``PSAX``  - Lloyd-Max codebook on an Epanechnikov KDE of the training
  samples (Silverman bandwidth, k-means++ initialization).
* ``CSAX``  - mean-shift codebook on a Gaussian KDE (gradient bandwidth);
  the alphabet size is discovered, not configured.

Normalization defaults: SAX and ASAX Z-normalize after PAA (restoring the
variance the averaging removed); PSAX and CSAX fit the data as-is.  Encoding
always normalizes per series, with the statistics of that series.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields

import numpy as np

from .density import DensityModel, KernelKind, bandwidth_silverman
from .discretize import (
    Codebook,
    gaussian_equiprobable_codebook,
    kmeans_codebook,
    kmeans_pp_init,
    lloyd_max,
    quantize,
    reconstruct,
)
from .errors import (
    CodebookMismatchError,
    EmptyTrainingError,
    IndivisibleLengthError,
    OutOfRangeError,
    SymbolOutOfRangeError,
    integral,
    json_fields,
    member,
    parse_json,
)
from .meanshift import mean_shift_codebook
from .series import NormalizationStats, PaaSeries, TimeSeries, _as_finite_array, _paa_rows, _row_stats

__all__ = [
    "EncodingMethod",
    "NormalizationMode",
    "EncoderSpec",
    "TrainedEncoder",
    "SymbolicSequence",
    "default_normalization",
    "fit",
    "encode",
    "encoder_space",
    "decode",
    "normalized_series",
    "paa_view",
    "normalization_scale",
    "encoder_to_json",
    "encoder_from_json",
]


class EncodingMethod(str, enum.Enum):
    SAX = "SAX"
    ASAX = "ASAX"
    PSAX = "PSAX"
    CSAX = "CSAX"


class NormalizationMode(str, enum.Enum):
    RAW_ZNORM = "RawZNorm"
    PAA_ZNORM = "PaaZNorm"
    NONE = "None"


def default_normalization(method: EncodingMethod) -> NormalizationMode:
    if EncodingMethod(method) in (EncodingMethod.SAX, EncodingMethod.ASAX):
        return NormalizationMode.PAA_ZNORM
    return NormalizationMode.NONE


@dataclass(frozen=True)
class EncoderSpec:
    """Everything needed to fit an encoder reproducibly."""

    method: EncodingMethod
    segments: int
    kappa: int = 10
    normalization: NormalizationMode | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", member(EncodingMethod, self.method, "method"))
        if self.normalization is None:
            object.__setattr__(self, "normalization", default_normalization(self.method))
        else:
            normalization = member(NormalizationMode, self.normalization, "normalization")
            object.__setattr__(self, "normalization", normalization)
        segments = integral(self.segments, "segment count", OutOfRangeError, minimum=1)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "kappa", integral(self.kappa, "alphabet size", OutOfRangeError))
        object.__setattr__(self, "seed", integral(self.seed, "seed", OutOfRangeError, minimum=0))


@dataclass(frozen=True)
class TrainedEncoder:
    """A spec bound to its fitted codebook (plus training diagnostics)."""

    spec: EncoderSpec
    codebook: Codebook
    training_stats: NormalizationStats | None = None
    density: DensityModel | None = None


@dataclass(frozen=True)
class SymbolicSequence:
    """Symbols of one encoded series plus the codebook that produced them."""

    symbols: np.ndarray
    source_length: int
    codebook: Codebook

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if not np.issubdtype(arr.dtype, np.integer):
            raise SymbolOutOfRangeError("symbols must be integers")
        arr = arr.astype(np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise OutOfRangeError("symbols must be a non-empty 1-D array")
        if arr.min() < 0 or arr.max() >= self.codebook.kappa:
            raise SymbolOutOfRangeError(
                f"symbols outside [0, {self.codebook.kappa})"
            )
        n = integral(self.source_length, "source length", OutOfRangeError)
        if n < arr.size or n % arr.size != 0:
            raise IndivisibleLengthError(
                f"source length {n} is not a multiple of {arr.size} segments"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "source_length", n)

    def __len__(self):
        return self.symbols.size

    @property
    def segments(self) -> int:
        return self.symbols.size

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.source_length,
                "m": self.segments,
                "kappa": self.codebook.kappa,
                "codebook_id": self.codebook.digest,
                "symbols": [int(s) for s in self.symbols],
            }
        )

    @classmethod
    def from_json(cls, text: str, codebook: Codebook) -> "SymbolicSequence":
        keys = ("n", "m", "kappa", "codebook_id", "symbols")
        payload = json_fields(parse_json(text, "symbolic sequence"), "symbolic sequence", keys)
        if payload["codebook_id"] != codebook.digest:
            raise CodebookMismatchError(
                f"sequence was encoded with codebook {payload['codebook_id']}, "
                f"got {codebook.digest}"
            )
        return cls(
            symbols=np.asarray(payload["symbols"], dtype=np.int64),
            source_length=payload["n"],
            codebook=codebook,
        )


def _training_pool(training) -> np.ndarray:
    parts = []
    for item in training:
        if isinstance(item, (TimeSeries, PaaSeries)):
            parts.append(item.values)
        else:
            parts.append(np.asarray(item, dtype=float).ravel())
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def fit(spec: EncoderSpec, training=()) -> TrainedEncoder:
    """Fit the codebook the spec asks for.

    ``training`` is any iterable of series, PAA series or plain arrays whose
    values form the training pool (typically PAA samples collected by the
    caller).  SAX needs no pool; the other methods reject an empty one.
    """
    pool = _training_pool(training)
    stats = None
    if pool.size >= 2 and spec.normalization is not NormalizationMode.NONE:
        sd = float(np.std(pool))
        if sd > 0.0:
            stats = NormalizationStats(float(np.mean(pool)), sd)
    if spec.method is EncodingMethod.SAX:
        return TrainedEncoder(spec, gaussian_equiprobable_codebook(spec.kappa), stats)
    if pool.size == 0:
        raise EmptyTrainingError(f"{spec.method.value} requires a training pool")
    if spec.method is EncodingMethod.ASAX:
        return TrainedEncoder(spec, kmeans_codebook(pool, spec.kappa, spec.seed), stats)
    if spec.method is EncodingMethod.PSAX:
        h = bandwidth_silverman(KernelKind.EPANECHNIKOV, float(np.std(pool)), pool.size)
        density = DensityModel(pool, KernelKind.EPANECHNIKOV, h)
        init = np.sort(kmeans_pp_init(pool, spec.kappa, spec.seed))
        codebook, _ = lloyd_max(density, spec.kappa, init)
    else:  # CSAX: alphabet size is discovered from the modes, spec.kappa is ignored.
        codebook, density = mean_shift_codebook(pool)
    return TrainedEncoder(spec, codebook, stats, density)


def _as_row(series) -> np.ndarray:
    """One series as a one-row stack for :func:`encoder_space`."""
    x = series.values if isinstance(series, TimeSeries) else series
    return np.asarray(x, dtype=float)[None]


def encoder_space(encoder: TrainedEncoder, rows, reduce: bool = True):
    """Map a row stack ``X[k, n]``, each row normalized on its own, to the encoder's space.

    Returns ``(full, reduced, scale)``: the full-length rows, their PAA rows
    (the values the encoder quantizes, so batch encoding is
    ``quantize(encoder.codebook, reduced)``) and the per-row factor mapping
    encoder-space distances back to input units.  Under PAA-then-normalize
    the full rows are the raw rows shifted and scaled by the PAA statistics,
    whose PAA is exactly ``reduced``.  ``reduce=False`` skips the PAA rows
    (``None``) and their length checks where the mode does not need them.
    """
    x = _as_finite_array(rows, "rows", ndim=2)
    mode = encoder.spec.normalization
    full, reduced, scale = x, None, np.ones((x.shape[0], 1))
    if mode is NormalizationMode.RAW_ZNORM:
        mean, scale = _row_stats(x)
        full = (x - mean) / scale
    if reduce or mode is NormalizationMode.PAA_ZNORM:
        reduced = _paa_rows(full, encoder.spec.segments)
    if mode is NormalizationMode.PAA_ZNORM:
        mean, scale = _row_stats(reduced)
        reduced = (reduced - mean) / scale
        full = (x - mean) / scale
    return full, reduced, scale[:, 0]


def paa_view(encoder: TrainedEncoder, series) -> PaaSeries:
    """The PAA values the encoder quantizes, normalization included."""
    full, reduced, _ = encoder_space(encoder, _as_row(series))
    return PaaSeries(reduced[0], full.shape[1])


def normalized_series(encoder: TrainedEncoder, series) -> TimeSeries:
    """The full-length series in the space the encoder's PAA values live in."""
    return TimeSeries(encoder_space(encoder, _as_row(series), reduce=False)[0][0])


def normalization_scale(encoder: TrainedEncoder, series) -> float:
    """Scale factor mapping encoder-space distances back to the input space."""
    return float(encoder_space(encoder, _as_row(series), reduce=False)[2][0])


def encode(encoder: TrainedEncoder, series) -> SymbolicSequence:
    """Normalize per the spec, reduce with PAA, quantize with the codebook."""
    full, reduced, _ = encoder_space(encoder, _as_row(series))
    return SymbolicSequence(quantize(encoder.codebook, reduced[0]), full.shape[1], encoder.codebook)


def decode(encoder: TrainedEncoder, sequence: SymbolicSequence) -> TimeSeries:
    """Expand each symbol to its centroid over the segment width.

    The reconstruction lives in the encoder's normalized space when a
    normalization mode applies.
    """
    if sequence.codebook != encoder.codebook:
        raise CodebookMismatchError("sequence was produced by a different codebook")
    values = reconstruct(encoder.codebook, sequence.symbols)
    width = sequence.source_length // sequence.segments
    return TimeSeries(np.repeat(values, width))


def encoder_to_json(encoder: TrainedEncoder) -> str:
    spec = encoder.spec
    stats = encoder.training_stats
    return json.dumps(
        {
            "spec": {
                "method": spec.method.value,
                "segments": spec.segments,
                "kappa": spec.kappa,
                "normalization": spec.normalization.value,
                "seed": spec.seed,
            },
            "codebook": json.loads(encoder.codebook.to_json()),
            "stats": None if stats is None else {"mean": stats.mean, "std": stats.std},
        }
    )


def encoder_from_json(text: str) -> TrainedEncoder:
    """The encoder that :func:`encoder_to_json` wrote as ``text``.

    Text that is not JSON, or an object that lacks or adds a key, raises
    ``ParseError``; the spec's values pass ``EncoderSpec``'s checks as given.
    """
    payload = json_fields(parse_json(text, "encoder"), "encoder", ("spec", "codebook", "stats"))
    spec_keys = [f.name for f in fields(EncoderSpec)]
    spec = EncoderSpec(**json_fields(payload["spec"], "encoder spec", spec_keys))
    codebook = Codebook.from_json(json.dumps(payload["codebook"]))
    stats = payload["stats"]
    if stats is not None:
        stats = json_fields(stats, "encoder stats", ("mean", "std"))
        stats = NormalizationStats(float(stats["mean"]), float(stats["std"]))
    return TrainedEncoder(spec, codebook, stats)
