import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saxkit.codec import (
    EncoderSpec,
    EncodingMethod,
    NormalizationMode,
    SymbolicSequence,
    decode,
    default_normalization,
    encode,
    encoder_from_json,
    encoder_space,
    encoder_to_json,
    fit,
    normalization_scale,
    normalized_series,
    paa_view,
)
from saxkit.discretize import (
    CodebookMethod,
    gaussian_equiprobable_codebook,
    quantize,
    reconstruct,
)
from saxkit.errors import (
    CodebookMismatchError,
    ConstantSeriesError,
    EmptyTrainingError,
    IndivisibleLengthError,
    InsufficientDistinctValuesError,
    InvalidParamsError,
    OutOfRangeError,
    ParseError,
    SymbolOutOfRangeError,
    TooShortError,
    ZeroDistanceError,
)
from saxkit.metrics import _dist_error, _tlb, dist_error, tlb
from saxkit.series import TimeSeries, paa, znormalize

SAX = EncodingMethod.SAX
ASAX = EncodingMethod.ASAX
PSAX = EncodingMethod.PSAX
CSAX = EncodingMethod.CSAX


@pytest.fixture(scope="module")
def gaussian_pool():
    return np.random.default_rng(0).normal(size=600)


@pytest.fixture(scope="module")
def bimodal_pool():
    rng = np.random.default_rng(1)
    return np.concatenate([rng.normal(-2.0, 0.4, 300), rng.normal(2.0, 0.4, 300)])


class TestSpecDefaults:
    def test_default_normalization_per_method(self):
        assert default_normalization(SAX) is NormalizationMode.PAA_ZNORM
        assert default_normalization(ASAX) is NormalizationMode.PAA_ZNORM
        assert default_normalization(PSAX) is NormalizationMode.NONE
        assert default_normalization(CSAX) is NormalizationMode.NONE

    def test_spec_fills_normalization_when_omitted(self):
        assert EncoderSpec(SAX, 8).normalization is NormalizationMode.PAA_ZNORM
        assert EncoderSpec(PSAX, 8).normalization is NormalizationMode.NONE
        spec = EncoderSpec("SAX", 8, normalization="None")
        assert spec.normalization is NormalizationMode.NONE

    def test_segment_count_validated(self):
        with pytest.raises(OutOfRangeError):
            EncoderSpec(SAX, 0)
        # a count is a whole number: 2.7 is refused, not truncated to 2
        for segments, kappa in ((2.7, 10), (8, 10.5), (np.nan, 10), ("8", 10)):
            with pytest.raises(OutOfRangeError):
                EncoderSpec(SAX, segments, kappa=kappa)
        spec = EncoderSpec(SAX, 8.0, kappa=np.float64(16.0))
        assert (spec.segments, spec.kappa) == (8, 16) and type(spec.segments) is int
        # so is a seed, and it is >= 0
        for seed in (2.7, -1, None):
            with pytest.raises(OutOfRangeError, match="seed must be"):
                EncoderSpec(SAX, 8, seed=seed)
        assert EncoderSpec(SAX, 8, seed=3.0).seed == 3


class TestFit:
    def test_sax_is_the_gaussian_quantile_codebook(self):
        enc = fit(EncoderSpec(SAX, 8, kappa=6))
        assert enc.codebook == gaussian_equiprobable_codebook(6)

    def test_sax_ignores_the_pool_values(self, gaussian_pool):
        with_pool = fit(EncoderSpec(SAX, 8, kappa=6), [gaussian_pool])
        assert with_pool.codebook == fit(EncoderSpec(SAX, 8, kappa=6)).codebook
        assert with_pool.training_stats is not None

    def test_trained_methods_reject_an_empty_pool(self):
        for method in (ASAX, PSAX, CSAX):
            with pytest.raises(EmptyTrainingError):
                fit(EncoderSpec(method, 8, kappa=4))

    def test_asax_fits_kmeans(self, gaussian_pool):
        enc = fit(EncoderSpec(ASAX, 8, kappa=5), [gaussian_pool])
        assert enc.codebook.method is CodebookMethod.KMEANS
        assert enc.codebook.kappa == 5

    def test_psax_fits_lloyd_max_with_a_density(self, gaussian_pool):
        enc = fit(EncoderSpec(PSAX, 8, kappa=5), [gaussian_pool])
        assert enc.codebook.method is CodebookMethod.LLOYD_MAX
        assert enc.codebook.kappa == 5
        assert enc.density is not None
        assert enc.density.kernel.value == "epanechnikov"

    def test_csax_discovers_the_alphabet(self, bimodal_pool):
        enc = fit(EncoderSpec(CSAX, 8, kappa=999), [bimodal_pool])
        assert enc.codebook.method is CodebookMethod.MEAN_SHIFT
        assert enc.codebook.kappa == 2
        assert enc.density.kernel.value == "gaussian"

    def test_csax_rejects_a_pool_with_no_value_change(self):
        with pytest.raises(InsufficientDistinctValuesError, match="longer window or pretraining"):
            fit(EncoderSpec(CSAX, 5), [np.full(10, 2.0)])

    def test_fit_is_deterministic_for_a_seed(self, gaussian_pool):
        a = fit(EncoderSpec(ASAX, 8, kappa=4, seed=3), [gaussian_pool])
        b = fit(EncoderSpec(ASAX, 8, kappa=4, seed=3), [gaussian_pool])
        assert a.codebook.digest == b.codebook.digest
        a = fit(EncoderSpec(PSAX, 8, kappa=4, seed=3), [gaussian_pool])
        b = fit(EncoderSpec(PSAX, 8, kappa=4, seed=3), [gaussian_pool])
        assert a.codebook.digest == b.codebook.digest

    def test_pool_accepts_mixed_inputs(self, gaussian_pool):
        mixed = [gaussian_pool[:100], TimeSeries(gaussian_pool[100:200]), gaussian_pool[200:].tolist()]
        enc = fit(EncoderSpec(ASAX, 8, kappa=4), mixed)
        assert enc.codebook == fit(EncoderSpec(ASAX, 8, kappa=4), [gaussian_pool]).codebook


class TestEncodeDecode:
    def test_round_trip_shape_and_values(self, gaussian_pool):
        rng = np.random.default_rng(2)
        series = rng.normal(size=64)
        enc = fit(EncoderSpec(SAX, 16, kappa=8))
        seq = encode(enc, series)
        assert len(seq) == 16
        assert seq.source_length == 64
        recon = decode(enc, seq)
        expected = np.repeat(reconstruct(enc.codebook, seq.symbols), 4)
        np.testing.assert_array_equal(recon.values, expected)

    def test_symbols_quantize_the_paa_view(self, gaussian_pool):
        rng = np.random.default_rng(3)
        series = rng.normal(size=60)
        enc = fit(EncoderSpec(ASAX, 12, kappa=6), [gaussian_pool])
        seq = encode(enc, series)
        view = paa_view(enc, series)
        np.testing.assert_array_equal(seq.symbols, quantize(enc.codebook, view.values))

    def test_paa_view_is_unit_variance_under_paa_znorm(self):
        rng = np.random.default_rng(4)
        series = rng.normal(3.0, 7.0, 120)
        enc = fit(EncoderSpec(SAX, 24, kappa=8))
        view = paa_view(enc, series)
        assert abs(view.values.mean()) < 1e-9
        np.testing.assert_allclose(np.std(view.values), 1.0, atol=1e-9)

    def test_normalized_series_paa_equals_the_view(self):
        # PAA commutes with affine maps, so the shifted-scaled full series
        # must reduce to exactly the quantized values
        rng = np.random.default_rng(5)
        series = rng.normal(5.0, 2.0, 96)
        for mode in NormalizationMode:
            enc = fit(EncoderSpec(SAX, 12, kappa=8, normalization=mode))
            full = normalized_series(enc, series)
            np.testing.assert_allclose(
                paa(full, 12).values, paa_view(enc, series).values, atol=1e-12
            )

    def test_normalization_scale_restores_input_units(self):
        rng = np.random.default_rng(6)
        series = rng.normal(0.0, 4.0, 80)
        enc = fit(EncoderSpec(SAX, 16, kappa=8))
        scale = normalization_scale(enc, series)
        full = normalized_series(enc, series)
        np.testing.assert_allclose(full.values * scale + series.mean() - full.values.mean() * scale, series, atol=1e-9)
        enc_none = fit(EncoderSpec(SAX, 16, kappa=8, normalization=NormalizationMode.NONE))
        assert normalization_scale(enc_none, series) == 1.0

    def test_raw_znorm_mode(self):
        rng = np.random.default_rng(7)
        series = rng.normal(10.0, 3.0, 50)
        enc = fit(EncoderSpec(SAX, 10, kappa=4, normalization=NormalizationMode.RAW_ZNORM))
        view = paa_view(enc, series)
        expected = paa(znormalize(TimeSeries(series))[0], 10)
        np.testing.assert_allclose(view.values, expected.values, atol=1e-15)

    def test_decode_rejects_foreign_sequences(self, gaussian_pool):
        rng = np.random.default_rng(8)
        series = rng.normal(size=40)
        enc_a = fit(EncoderSpec(SAX, 8, kappa=4))
        enc_b = fit(EncoderSpec(ASAX, 8, kappa=4), [gaussian_pool])
        seq = encode(enc_a, series)
        with pytest.raises(CodebookMismatchError):
            decode(enc_b, seq)

    def test_finer_alphabets_reconstruct_better(self):
        rng = np.random.default_rng(9)
        series = rng.normal(size=480)
        errors = {}
        for kappa in (4, 256):
            enc = fit(EncoderSpec(SAX, 60, kappa=kappa))
            view = paa_view(enc, series)
            recon = reconstruct(enc.codebook, encode(enc, series).symbols)
            errors[kappa] = float(np.sqrt(np.mean((view.values - recon) ** 2)))
        assert errors[256] < errors[4]

    def test_affine_invariance_of_symbols(self):
        base = np.random.default_rng(10).normal(size=64)
        enc = fit(EncoderSpec(SAX, 16, kappa=8))
        reference = encode(enc, base).symbols

        @settings(max_examples=60, deadline=None)
        @given(
            st.floats(min_value=0.1, max_value=10.0),
            st.floats(min_value=-100.0, max_value=100.0),
        )
        def check(scale, offset):
            seq = encode(enc, scale * base + offset)
            np.testing.assert_array_equal(seq.symbols, reference)

        check()


def _old_one_series(mode, x, m):
    """The one-series formulas as they were before the row-stack core:
    ``np.mean``/``np.std`` of one 1-D series and a reshape-mean PAA."""
    if mode is NormalizationMode.RAW_ZNORM:
        full = (x - float(np.mean(x))) / float(np.std(x))
        return full, full.reshape(m, -1).mean(axis=1), float(np.std(x))
    reduced = x.reshape(m, -1).mean(axis=1)
    if mode is NormalizationMode.NONE:
        return x, reduced, 1.0
    mean, std = float(np.mean(reduced)), float(np.std(reduced))
    return (x - mean) / std, (reduced - mean) / std, std


RAW, PAA_Z, NONE = NormalizationMode.RAW_ZNORM, NormalizationMode.PAA_ZNORM, NormalizationMode.NONE

# name: (segments, rows with the offending one last, error class per mode)
BAD_ROWS = {
    "constant": (
        4,
        [np.arange(8.0), np.full(8, 3.0)],
        {RAW: ConstantSeriesError, PAA_Z: ConstantSeriesError, NONE: None},
    ),
    "constant segments": (
        2,
        [np.arange(8.0), np.array([1.0, 3.0] * 4)],
        {RAW: None, PAA_Z: ConstantSeriesError, NONE: None},
    ),
    # equal values whose float std is 1.4e-17, not 0
    "inexactly constant": (
        1,
        [np.arange(3.0), np.full(3, 0.1)],
        {RAW: ConstantSeriesError, PAA_Z: TooShortError, NONE: None},
    ),
    "too short": (4, [np.array([1.0, 2.0])], dict.fromkeys(NormalizationMode, OutOfRangeError)),
    "single value": (1, [np.array([5.0])], {RAW: TooShortError, PAA_Z: TooShortError, NONE: None}),
    "indivisible": (
        3,
        [np.arange(8.0), -np.arange(8.0)],
        dict.fromkeys(NormalizationMode, IndivisibleLengthError),
    ),
    "non-finite": (
        2,
        [np.arange(4.0), np.array([1.0, np.inf, 0.0, 2.0])],
        dict.fromkeys(NormalizationMode, OutOfRangeError),
    ),
}


class TestEncoderSpace:
    """The row-stack core against the one-series functions, row by row."""

    @settings(max_examples=80, deadline=None)
    @given(
        mode=st.sampled_from(list(NormalizationMode)),
        shape=st.tuples(st.integers(1, 5), st.integers(2, 6), st.integers(1, 6)),
        kappa=st.integers(2, 8),
        data=st.data(),
    )
    def test_rows_equal_the_one_series_path_exactly(self, mode, shape, kappa, data):
        k, m, width = shape
        values = arrays(np.float64, (k, m * width), elements=st.floats(-1e3, 1e3))
        ramp = np.arange(m * width, dtype=float)  # keeps the rows from being constant
        first, second = data.draw(values) + ramp, data.draw(values) + ramp
        enc = fit(EncoderSpec(SAX, m, kappa=kappa, normalization=mode))
        with np.errstate(all="ignore"):
            rows = [_old_one_series(mode, x, m) for x in first]
            assume(all(np.isfinite(_old_one_series(mode, x, m)[0]).all() for x in second))
        assume(all(np.isfinite(full).all() for full, _, _ in rows))
        full, reduced, scale = space = encoder_space(enc, first)
        symbols = quantize(enc.codebook, reduced)
        for i, (row_full, row_reduced, row_scale) in enumerate(rows):
            assert np.array_equal(full[i], row_full) and np.array_equal(reduced[i], row_reduced)
            assert scale[i] == row_scale
            assert np.array_equal(full[i], normalized_series(enc, first[i]).values)
            assert np.array_equal(reduced[i], paa_view(enc, first[i]).values)
            assert scale[i] == normalization_scale(enc, first[i])
            assert np.array_equal(symbols[i], encode(enc, first[i]).symbols)
        errs = _dist_error(full, symbols, enc.codebook.centroids) * scale
        assert errs.tolist() == [
            dist_error(normalized_series(enc, x), encode(enc, x)) * normalization_scale(enc, x)
            for x in first
        ]
        try:
            ratios = [tlb(u, v, enc) for u, v in zip(first, second)]
        except ZeroDistanceError:  # a pair coincides in the encoder's space
            with pytest.raises(ZeroDistanceError):
                _tlb(enc, space, encoder_space(enc, second))
        else:
            assert _tlb(enc, space, encoder_space(enc, second)).tolist() == ratios

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize("name", list(BAD_ROWS))
    def test_bad_rows_raise_the_one_series_error(self, mode, name):
        segments, rows, errors = BAD_ROWS[name]
        enc = fit(EncoderSpec(SAX, segments, kappa=4, normalization=mode))
        if errors[mode] is None:
            paa_view(enc, rows[-1])
            encoder_space(enc, np.stack(rows))
            return
        with pytest.raises(errors[mode]):
            paa_view(enc, rows[-1])
        with pytest.raises(errors[mode]):
            encode(enc, rows[-1])
        with pytest.raises(errors[mode]):
            encoder_space(enc, np.stack(rows))

    @pytest.mark.parametrize("mode", [RAW, NONE])
    def test_full_rows_skip_the_paa_checks(self, mode):
        # normalized_series and normalization_scale never reduced the series
        # under these modes, so a length the segments do not divide is fine
        enc = fit(EncoderSpec(SAX, 3, kappa=4, normalization=mode))
        x = np.arange(8.0) ** 2
        full, reduced, scale = encoder_space(enc, x[None], reduce=False)
        assert reduced is None
        assert np.array_equal(normalized_series(enc, x).values, full[0])
        assert normalization_scale(enc, x) == scale[0]
        with pytest.raises(IndivisibleLengthError):
            encoder_space(enc, x[None])

    def test_rows_must_form_a_2d_stack(self):
        enc = fit(EncoderSpec(SAX, 2, kappa=4))
        with pytest.raises(OutOfRangeError):
            encoder_space(enc, np.arange(4.0))
        with pytest.raises(OutOfRangeError):
            encode(enc, np.ones((2, 4)))
        with pytest.raises(TooShortError):
            encoder_space(enc, np.empty((1, 0)))


class TestSymbolicSequence:
    def test_validation(self):
        cb = gaussian_equiprobable_codebook(4)
        with pytest.raises(SymbolOutOfRangeError):
            SymbolicSequence(np.array([0.5]), 4, cb)
        with pytest.raises(SymbolOutOfRangeError):
            SymbolicSequence(np.array([0, 4]), 4, cb)
        with pytest.raises(IndivisibleLengthError):
            SymbolicSequence(np.array([0, 1, 2]), 7, cb)
        with pytest.raises(OutOfRangeError):
            SymbolicSequence(np.array([], dtype=np.int64), 0, cb)
        with pytest.raises(OutOfRangeError, match="source length must be a whole number"):
            SymbolicSequence(np.array([0, 1]), 8.9, cb)
        assert SymbolicSequence(np.array([0, 1]), 8.0, cb).source_length == 8

    def test_json_round_trip(self):
        cb = gaussian_equiprobable_codebook(4)
        seq = SymbolicSequence(np.array([0, 3, 1, 2]), 8, cb)
        back = SymbolicSequence.from_json(seq.to_json(), cb)
        np.testing.assert_array_equal(back.symbols, seq.symbols)
        assert back.source_length == 8

    def test_json_checks_the_codebook_digest(self):
        cb = gaussian_equiprobable_codebook(4)
        seq = SymbolicSequence(np.array([0, 3]), 4, cb)
        with pytest.raises(CodebookMismatchError):
            SymbolicSequence.from_json(seq.to_json(), gaussian_equiprobable_codebook(5))


class TestEncoderJson:
    def test_round_trip_preserves_spec_codebook_and_stats(self, gaussian_pool):
        enc = fit(EncoderSpec(ASAX, 8, kappa=5, seed=2), [gaussian_pool])
        back = encoder_from_json(encoder_to_json(enc))
        assert back.spec == enc.spec
        assert back.codebook == enc.codebook
        assert back.codebook.digest == enc.codebook.digest
        assert back.training_stats == enc.training_stats

    def test_round_trip_without_stats(self):
        enc = fit(EncoderSpec(SAX, 8, kappa=4))
        back = encoder_from_json(encoder_to_json(enc))
        assert back.training_stats is None
        assert back.codebook == enc.codebook

    def test_payload_is_plain_json(self, bimodal_pool):
        enc = fit(EncoderSpec(CSAX, 8), [bimodal_pool])
        payload = json.loads(encoder_to_json(enc))
        assert payload["spec"]["method"] == "CSAX"
        assert len(payload["codebook"]["centroids"]) == enc.codebook.kappa
        back = encoder_from_json(json.dumps(payload))
        assert back.codebook == enc.codebook

    def test_malformed_files_are_refused(self):
        payload = json.loads(encoder_to_json(fit(EncoderSpec(SAX, 8, kappa=10))))
        spec, codebook = payload["spec"], payload["codebook"]
        cases = [
            ("not json", ParseError, "encoder: Expecting value"),
            ({"spec": {"method": "SAX"}}, ParseError, "encoder: missing keys ['codebook', 'stats']"),
            ({**payload, "extra": 1}, ParseError, "encoder: unknown keys ['extra']"),
            ({**payload, "spec": {"method": "SAX"}}, ParseError, "encoder spec: missing keys ['segments',"),
            ({**payload, "codebook": {**codebook, "modes": [0.0], "x": 1}}, ParseError, "unknown keys ['x']"),
            ({**payload, "stats": [0.0, 1.0]}, ParseError, "encoder stats: expected a JSON object"),
            # values pass the spec's and the codebook's checks as given
            ({**payload, "spec": {**spec, "segments": 8.9}}, OutOfRangeError, "segment count must be a whole"),
            ({**payload, "spec": {**spec, "seed": -1}}, OutOfRangeError, "seed must be >= 0"),
            ({**payload, "spec": {**spec, "method": "FOO"}}, InvalidParamsError, "unknown method 'FOO'"),
            ({**payload, "codebook": {**codebook, "kappa": 10.7}}, OutOfRangeError, "kappa field disagrees"),
        ]
        for text, error, message in cases:
            text = text if isinstance(text, str) else json.dumps(text)
            with pytest.raises(error, match=re.escape(message)):
                encoder_from_json(text)
        assert encoder_from_json(json.dumps({**payload, "spec": {**spec, "segments": 8.0}})).spec.segments == 8
