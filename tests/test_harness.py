import io
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saxkit import harness
from saxkit.anomaly import DetectionEvent, DetectorConfig, run_csax_detector, window_scores
from saxkit.codec import (
    EncoderSpec,
    EncodingMethod,
    NormalizationMode,
    encode,
    fit,
    normalization_scale,
    normalized_series,
)
from saxkit.errors import (
    ConstantSeriesError,
    EmptyFileError,
    GridInfeasibleError,
    InvalidParamsError,
    NoNegativesError,
    NoPositivesError,
    OutOfRangeError,
    ParseError,
    SaxkitError,
    TooShortError,
    ZeroDistanceError,
)
from saxkit.harness import (
    METHOD_ORDER,
    ExperimentGrid,
    LabeledStream,
    RocCurve,
    build_pool,
    event_record,
    generate_synthetic,
    load_labeled_csv,
    load_series_csv,
    load_stream_csv,
    pivot_records,
    read_events_csv,
    read_records_csv,
    roc_curve,
    roc_from_events,
    run_fixed_detector,
    run_tlb_rmse_experiment,
    segments_for_budget,
    window_labels,
    write_events_csv,
    write_labeled_csv,
    write_records_csv,
    write_roc_csv,
    write_series_csv,
)
from saxkit.metrics import dist_error, euclidean, tlb
from saxkit.series import TimeSeries, paa, znormalize


def naive_frames(corpus, length, segments):
    """Per-window Z-normalize then PAA, one window at a time."""
    rows = []
    ok = []
    for s in range(corpus.size - length + 1):
        w = corpus[s : s + length]
        sd = np.std(w)
        if sd == 0.0:
            rows.append(np.zeros(segments))
            ok.append(False)
            continue
        z = (w - w.mean()) / sd
        f = z.reshape(segments, length // segments).mean(axis=1)
        rows.append(f)
        ok.append(bool(np.sqrt(np.mean(f**2)) > 0.0))
    return np.asarray(rows), np.asarray(ok)


def whole_array_pool(corpus, length, segments):
    """Frames, unit frames and validity formed for all windows at once."""
    x = np.asarray(corpus, dtype=float)
    width, count = length // segments, x.size - length + 1
    centred = x - np.mean(x)
    csum = np.concatenate(([0.0], np.cumsum(centred)))
    csq = np.concatenate(([0.0], np.cumsum(centred * centred)))
    changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
    means = (csum[length:] - csum[:-length]) / length
    stds = np.sqrt(np.maximum((csq[length:] - csq[:-length]) / length - means**2, 0.0))
    valid = (stds > 0.0) & (changes[length - 1 :] > changes[:count])
    blocks = (csum[width:] - csum[:-width]) / width
    segment_means = np.lib.stride_tricks.sliding_window_view(blocks, length - width + 1)[:, ::width]
    frames = np.subtract(segment_means, means[:, None], order="C")
    frames /= np.where(valid, stds, 1.0)[:, None]
    frames[~valid] = 0.0
    rms = np.sqrt(np.mean(np.square(frames), axis=1))
    valid &= rms > 0.0
    frames_unit = frames / np.where(rms > 0.0, rms, 1.0)[:, None]
    frames_unit[~valid] = 0.0
    return frames, frames_unit, valid


def raised(reader, path, text):
    """The type and ``.line`` of the error ``reader`` raises on a file holding ``text``."""
    path.write_bytes(text.encode())
    with pytest.raises(SaxkitError) as info:
        reader(path)
    return type(info.value), getattr(info.value, "line", None)


def parse_errors(cases: dict) -> dict:
    return {text: (ParseError, line) for text, line in cases.items()}


class TestLoaders:
    def test_headerless_series(self, tmp_path):
        # blank and whitespace-only lines are skipped, whatever the line ends
        p = tmp_path / "s.csv"
        for text in ("1\n2\n3\n", "\n1\n  \n2\n\t\n3", "1\r\n2\r\n \r\n3\r\n"):
            p.write_bytes(text.encode())
            np.testing.assert_array_equal(load_series_csv(p).values, [1.0, 2.0, 3.0])

    def test_series_header_is_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n1.5\n-2.5\n")
        np.testing.assert_array_equal(load_series_csv(p).values, [1.5, -2.5])
        p.write_text(" \n value \n 1_000 \n")
        np.testing.assert_array_equal(load_series_csv(p).values, [1000.0])

    def test_bad_series_line_reports_its_number(self, tmp_path):
        p = tmp_path / "s.csv"
        cases = {
            "value\n1\nabc\n": 3,
            "1\nabc\n": 2,
            "\n1\n\n  \nabc\n2\n": 5,
            "value\nheader\n1\n": 2,
            "1\n2\n1,2\n": 3,
        }
        assert {text: raised(load_series_csv, p, text) for text in cases} == parse_errors(cases)

    def test_series_rejects_extra_columns(self, tmp_path):
        # a first line of the wrong width is an error, not a header
        p = tmp_path / "s.csv"
        cases = {"1,2\n": 1, "a,b\n1\n": 1, "\n\nvalue,label\n1\n": 3}
        assert {text: raised(load_series_csv, p, text) for text in cases} == parse_errors(cases)

    def test_empty_series_file(self, tmp_path):
        p = tmp_path / "s.csv"
        for text in ("value\n", "", "\n \n", " value \n\n"):
            assert raised(load_series_csv, p, text) == (EmptyFileError, None)

    def test_labeled_rows(self, tmp_path):
        p = tmp_path / "l.csv"
        for text in ("value,label\n1,0\n5,1\n", "\t\nvalue,label\n  \n1,0\n\n 5 , 1 \n"):
            p.write_text(text)
            stream = load_labeled_csv(p)
            np.testing.assert_array_equal(stream.values, [1.0, 5.0])
            np.testing.assert_array_equal(stream.labels, [0, 1])
            assert stream.name == "l"

    def test_labeled_rejects_bad_labels(self, tmp_path):
        p = tmp_path / "l.csv"
        cases = {
            "1,2\n": 1,
            "1\n": 1,
            "value\n1,0\n": 1,
            "\nvalue,label,extra\n1,0\n": 2,
            "value,label\n1,0\n1,1.0\n": 3,
            "1,0\n\n1,2\n": 3,
            "1,0\n1,-1\n2,x\n": 2,
            "value,label\n1,0\nx,1\n": 3,
            "value,label\n1,0\n1,0,0\n": 3,
            "value,label\n1,0\n1\n1,0,0\n": 3,
        }
        assert {text: raised(load_labeled_csv, p, text) for text in cases} == parse_errors(cases)

    def test_header_only_labeled_file(self, tmp_path):
        p = tmp_path / "l.csv"
        for text in ("value,label\n", "value,label\n\n  \n", ""):
            assert raised(load_labeled_csv, p, text) == (EmptyFileError, None)

    def test_stream_loader_reads_labels_when_the_first_line_has_two_columns(self, tmp_path):
        p = tmp_path / "s.csv"
        for text in ("value\n1\n2\n", "\n 1 \n", "\nvalue,label\n1,0\n2,1\n", "1,1\n"):
            p.write_text(text)
            loaded = load_stream_csv(p)
            labeled = "," in text
            expected = load_labeled_csv(p) if labeled else load_series_csv(p)
            assert type(loaded) is type(expected)
            np.testing.assert_array_equal(loaded.values, expected.values)
            if labeled:
                np.testing.assert_array_equal(loaded.labels, expected.labels)
        assert raised(load_stream_csv, p, "") == (EmptyFileError, None)
        assert raised(load_stream_csv, p, "\n1,0,1\n") == (ParseError, 2)
        assert raised(load_stream_csv, p, "1\n1,0\n") == (ParseError, 2)

    def test_labeled_stream_validation(self):
        with pytest.raises(InvalidParamsError):
            LabeledStream(np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidParamsError):
            LabeledStream(np.zeros(2), np.array([0, 2]))


EVENT_HEADER = "index,flag,min_statistic,threshold,components_count,rebuild_flag,kappa\n"


class TestWriters:
    def test_series_round_trip_is_exact(self, tmp_path):
        p = tmp_path / "s.csv"
        values = np.random.default_rng(0).normal(size=50)
        write_series_csv(p, values)
        np.testing.assert_array_equal(load_series_csv(p).values, values)

    def test_labeled_round_trip_is_exact(self, tmp_path):
        p = tmp_path / "l.csv"
        rng = np.random.default_rng(1)
        stream = LabeledStream(rng.normal(size=30), rng.integers(0, 2, 30))
        write_labeled_csv(p, stream)
        back = load_labeled_csv(p)
        np.testing.assert_array_equal(back.values, stream.values)
        np.testing.assert_array_equal(back.labels, stream.labels)

    def test_labeled_bytes(self, tmp_path):
        p = tmp_path / "l.csv"
        write_labeled_csv(p, LabeledStream([0.1, -2.0, 1e-300, 12345678.9], [0, 1, 1, 0]))
        assert p.read_bytes() == b"value,label\n0.1,0\n-2.0,1\n1e-300,1\n12345678.9,0\n"

    def test_events_round_trip(self, tmp_path):
        p = tmp_path / "e.csv"
        stream = generate_synthetic("level_shift_anomalies", 5000, seed=13)
        config = DetectorConfig(window=50, kappa=10)
        logs = {
            "hand": [
                DetectionEvent(49, True, math.inf, 16.918978, 0, rebuild=False, kappa=10),
                DetectionEvent(50, False, 3.25, 16.918978, 1, rebuild=True, kappa=10),
            ],
            "psax": run_fixed_detector(stream.values, EncodingMethod.PSAX, config)[0],
            "csax": run_csax_detector(stream.values, config).events,
        }
        for name, events in logs.items():
            write_events_csv(p, events)
            back = read_events_csv(p)
            assert back == events, name
            # kappa is written too, so the scores read back bit for bit
            np.testing.assert_array_equal(window_scores(back), window_scores(events))

    def test_events_bytes(self):
        events = [
            DetectionEvent(49, True, math.inf, 16.918978, 0, rebuild=False, kappa=10),
            DetectionEvent(50, False, 0.1, 3.841458820694124, 1, rebuild=True, kappa=2),
        ]
        out = io.StringIO()
        write_events_csv(out, events)
        assert out.getvalue() == (
            EVENT_HEADER + "49,1,inf,16.918978,0,0,10\n50,0,0.1,3.841458820694124,1,1,2\n"
        )
        assert json.dumps([event_record(ev) for ev in events]) == (
            '[{"index": 49, "flag": 1, "min_statistic": Infinity, "threshold": 16.918978, '
            '"components_count": 0, "rebuild_flag": 0, "kappa": 10}, '
            '{"index": 50, "flag": 0, "min_statistic": 0.1, "threshold": 3.841458820694124, '
            '"components_count": 1, "rebuild_flag": 1, "kappa": 2}]'
        )

    def test_events_header_checked(self, tmp_path):
        p = tmp_path / "e.csv"
        six_columns = "index,flag,min_statistic,threshold,components_count,rebuild_flag\n"
        cases = {
            "wrong,header\n": 1,
            "index,flag,min_statistic,threshold,components,rebuild_flag,kappa\n49,1,inf,1.5,0,0,4\n": 1,
            "\n" + six_columns + "49,1,inf,1.5,0,0\n": 2,  # a log without kappa
            "49,1,inf,1.5,0,0,4\n": 1,
            EVENT_HEADER + "49,1,inf,1.5,0,0,4\n50,1,inf,1.5,1,0\n": 3,
            EVENT_HEADER + "49,1,inf,1.5,0,0,4\n\n50,yes,inf,1.5,0,0,4\n": 4,
            EVENT_HEADER + "49,1,inf,1.5,0.5,0,4\n": 2,
            EVENT_HEADER + "49,1,inf,1.5,0,0,4\n50,2,inf,1.5,1,0,4\n": 3,  # flags are 0/1
            EVENT_HEADER + "49,1,inf,1.5,0,-1,4\n": 2,
            EVENT_HEADER + "49,1,inf,1.5,0,0,4.0\n": 2,
            "\n49,1,inf,1.5,0,0,4\n": 2,  # the header is the first non-blank line
        }
        assert {text: raised(read_events_csv, p, text) for text in cases} == parse_errors(cases)
        p.write_text("\n" + EVENT_HEADER + "49,1,inf,1.5,0,0,4\n")
        assert read_events_csv(p) == [DetectionEvent(49, True, math.inf, 1.5, 0, rebuild=False, kappa=4)]

    def test_events_need_a_row(self, tmp_path):
        p = tmp_path / "e.csv"
        for text in (EVENT_HEADER, EVENT_HEADER + "\n \n", ""):
            assert raised(read_events_csv, p, text) == (EmptyFileError, None)

    def test_records_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        records = [
            {"length": 480, "method": "SAX", "tlb_mean": 0.123456789012345},
            {"length": 960, "method": "PSAX", "tlb_mean": 0.5},
        ]
        write_records_csv(p, records)
        assert read_records_csv(p) == records

    def test_records_reject_a_row_of_the_wrong_width(self, tmp_path):
        p = tmp_path / "r.csv"
        assert raised(read_records_csv, p, "\nlength,method\n480,SAX\n\n960\n") == (ParseError, 5)
        assert raised(read_records_csv, p, "  \n") == (EmptyFileError, None)

    def test_records_need_a_header_source(self):
        with pytest.raises(EmptyFileError):
            write_records_csv(io.StringIO(), [])

    def test_roc_csv_shape(self, tmp_path):
        p = tmp_path / "roc.csv"
        curve = roc_curve([0.9, 0.8, 0.1], [1, 0, 0])
        write_roc_csv(p, curve)
        rows = read_records_csv(p)
        assert [r["fpr"] for r in rows] == list(curve.fpr)
        assert rows[0]["threshold"] == math.inf
        assert all(r["auc"] == curve.auc for r in rows)
        assert p.read_bytes() == (
            b"threshold,fpr,tpr,auc\n"
            b"inf,0.0,0.0,1.0\n"
            b"0.9,0.0,1.0,1.0\n"
            b"0.8,0.5,1.0,1.0\n"
            b"0.1,1.0,1.0,1.0\n"
            b"-inf,1.0,1.0,1.0\n"
        )

    def test_writers_accept_file_objects(self, capsys):
        buf = io.StringIO()
        write_series_csv(buf, [1.0, 2.0])
        assert buf.getvalue() == "value\n1.0\n2.0\n"
        write_series_csv(None, [1.0, 2.0])
        assert capsys.readouterr().out == buf.getvalue()


class TestGenerators:
    def test_gaussian_moments(self):
        x = generate_synthetic("gaussian_iid", 100_000, seed=0)
        assert isinstance(x, TimeSeries)
        assert abs(float(np.mean(x.values))) < 0.02
        assert abs(float(np.var(x.values)) - 1.0) < 0.02

    def test_ar1_lag_one_autocorrelation(self):
        x = generate_synthetic("ar1", 100_000, seed=1, phi=0.9).values
        centered = x - x.mean()
        rho = float(np.dot(centered[1:], centered[:-1]) / np.dot(centered, centered))
        assert abs(rho - 0.9) < 0.02
        assert abs(float(np.var(x)) - 1.0) < 0.05

    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.7, 0.999, 1e-300, -0.999999])
    def test_ar1_is_the_first_order_filter(self, phi):
        from scipy.signal import lfilter

        for seed, length in ((0, 1), (1, 2), (2, 3), (3, 500), (4, 4099)):
            shocks = np.random.default_rng(seed).standard_normal(length)
            scale = math.sqrt(1.0 - phi * phi)
            rest, _ = lfilter([1.0], [1.0, -phi], scale * shocks[1:], zi=[phi * shocks[0]])
            expected = np.concatenate((shocks[:1], rest))
            got = generate_synthetic("ar1", length, seed=seed, phi=phi).values
            np.testing.assert_array_equal(got, expected)

    def test_ar1_rejects_nonstationary_coefficient(self):
        with pytest.raises(InvalidParamsError):
            generate_synthetic("ar1", 100, phi=1.0)

    def test_bimodal_component_fractions(self):
        x = generate_synthetic(
            "bimodal_mixture", 50_000, seed=2, mu1=-3.0, mu2=3.0, weight=0.3, sigma=0.2
        ).values
        assert abs(float(np.mean(x < 0.0)) - 0.3) < 0.02

    def test_level_shift_labels_and_layout(self):
        stream = generate_synthetic("level_shift_anomalies", 10_000, seed=3)
        assert isinstance(stream, LabeledStream)
        labs = stream.labels
        assert labs.sum() == 100
        # every labeled stretch is made of whole shifted segments
        edges = np.flatnonzero(np.diff(np.concatenate(([0], labs, [0]))))
        runs = edges[1::2] - edges[0::2]
        assert all(r % 50 == 0 for r in runs)
        lifted = stream.values[labs == 1].mean() - stream.values[labs == 0].mean()
        assert abs(lifted - 3.0) < 0.5

    def test_seed_determinism(self):
        for kind in ("gaussian_iid", "ar1", "bimodal_mixture"):
            a = generate_synthetic(kind, 500, seed=7)
            b = generate_synthetic(kind, 500, seed=7)
            np.testing.assert_array_equal(a.values, b.values)
        a = generate_synthetic("level_shift_anomalies", 2000, seed=7)
        b = generate_synthetic("level_shift_anomalies", 2000, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_parameter_policing(self):
        with pytest.raises(InvalidParamsError):
            generate_synthetic("no_such_kind", 100)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("gaussian_iid", 100, phi=0.5)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("gaussian_iid", 0)
        # a seed is a whole number >= 0; None is not an unseeded run
        for seed in (-1, 2.7, None):
            with pytest.raises(InvalidParamsError, match="seed must be"):
                generate_synthetic("gaussian_iid", 100, seed=seed)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("bimodal_mixture", 100, weight=1.5)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("level_shift_anomalies", 100, segment=200)

    def test_integral_float_segment_is_the_int_segment(self):
        a = generate_synthetic("level_shift_anomalies", 2000, seed=4, segment=30.0)
        b = generate_synthetic("level_shift_anomalies", 2000, seed=4, segment=30)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        # a fractional count is refused, not truncated
        with pytest.raises(InvalidParamsError, match="segment must be a whole number, got 30.9"):
            generate_synthetic("level_shift_anomalies", 2000, seed=4, segment=30.9)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("gaussian_iid", 100.5)


class TestGrid:
    def test_reference_grids_are_feasible(self):
        for n in (480, 960, 1440, 1920):
            for b in (8, 16, 24, 40):
                assert segments_for_budget(n, b, 256) == b
                assert segments_for_budget(n, b, 16) == 2 * b

    def test_indivisible_combination_rejected(self):
        with pytest.raises(GridInfeasibleError):
            segments_for_budget(100, 8, 256)

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            segments_for_budget(480, 8, 1)
        with pytest.raises(OutOfRangeError):
            segments_for_budget(480, 0, 16)

    def test_grid_enumerates_cells_in_order(self):
        grid = ExperimentGrid(lengths=(480, 960), byte_budgets=(8, 16), kappas=(16, 256))
        cells = list(grid.cells())
        assert [c[0] for c in cells] == list(range(8))
        assert cells[0][1:] == (480, 8, 16, 16)
        assert cells[-1][1:] == (960, 16, 256, 16)

    def test_grid_validates_on_construction(self):
        with pytest.raises(GridInfeasibleError):
            ExperimentGrid(lengths=(100,), byte_budgets=(8,), kappas=(256,))
        with pytest.raises(InvalidParamsError):
            ExperimentGrid(lengths=(), byte_budgets=(8,), kappas=(16,))
        with pytest.raises(InvalidParamsError):
            ExperimentGrid(lengths=(480,), byte_budgets=(8,), kappas=(16,), trials=-1)
        # counts are whole numbers: 480.9 is refused, not truncated to 480
        good = {"lengths": (480,), "byte_budgets": (8,), "kappas": (16,)}
        for bad in (
            {"lengths": (480.9,)},
            {"byte_budgets": (8.5,)},
            {"kappas": (16.2,)},
            {"trials": 2.5},
            {"seed": 2.7},
            {"seed": -1},
        ):
            with pytest.raises(InvalidParamsError):
                ExperimentGrid(**{**good, **bad})
        grid = ExperimentGrid(lengths=(480.0,), byte_budgets=(8.0,), kappas=(16.0,), trials=2.0)
        assert (grid.lengths, grid.byte_budgets, grid.kappas, grid.trials) == ((480,), (8,), (16,), 2)
        # the first bad cell in cells() order is the one reported
        with pytest.raises(GridInfeasibleError, match="N=480, bytes=7, kappa=256: 7 segments"):
            ExperimentGrid(lengths=(480, 100), byte_budgets=(8, 7), kappas=(256, 16))
        with pytest.raises(OutOfRangeError, match="alphabet size must be >= 2, got 1"):
            ExperimentGrid(lengths=(480, 100), byte_budgets=(8,), kappas=(16, 1))


class TestSubsequencePool:
    def test_frames_match_the_naive_loop(self):
        rng = np.random.default_rng(4)
        corpus = rng.normal(size=300)
        pool = build_pool(corpus, 24, 6)
        expected, ok = naive_frames(corpus, 24, 6)
        assert pool.count == 277
        np.testing.assert_array_equal(pool.valid, ok)
        np.testing.assert_allclose(pool.frames[ok], expected[ok], atol=1e-10)

    def test_unit_frames_have_unit_rms(self):
        # exact per row: a frame array in another memory order sums its rows
        # in another order, which (64, 8) shows and (20, 5) does not
        rng = np.random.default_rng(5)
        for (length, segments), size in (((20, 5), 200), ((64, 8), 600)):
            pool = build_pool(rng.normal(size=size), length, segments)
            rows = np.flatnonzero(pool.valid)
            assert rows.size > 0
            for r in rows:
                frame = pool.frames[r]
                np.testing.assert_array_equal(pool.frames_unit[r], frame / np.sqrt(np.mean(frame**2)))
            rms = np.sqrt(np.mean(pool.frames_unit[pool.valid] ** 2, axis=1))
            np.testing.assert_allclose(rms, 1.0, atol=1e-12)

    def test_constant_windows_are_invalid(self):
        corpus = np.concatenate([np.random.default_rng(6).normal(size=50), np.full(30, 2.0)])
        pool = build_pool(corpus, 20, 4)
        assert not pool.valid[60]
        assert pool.valid[0]

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(-1e8, 1e8),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from([(16, 4), (24, 6), (30, 10)]),
    )
    def test_frames_hold_under_large_offsets(self, offset, seed, shape):
        # prefix sums of the raw values lose the window variance to
        # cancellation once the offset dwarfs the noise
        length, segments = shape
        corpus = np.random.default_rng(seed).standard_normal(600) + offset
        pool = build_pool(corpus, length, segments)
        valid, frames = [], []
        for s in range(pool.count):
            try:
                z, _ = znormalize(TimeSeries(corpus[s : s + length]))
            except ConstantSeriesError:
                valid.append(False)
                frames.append(np.zeros(segments))
                continue
            frames.append(paa(z, segments).values)
            valid.append(bool(np.any(frames[-1] != 0.0)))
        np.testing.assert_array_equal(pool.valid, valid)
        np.testing.assert_allclose(pool.frames[pool.valid], np.array(frames)[valid], rtol=0, atol=1e-6)

    def test_window_accessor_matches_frames(self):
        rng = np.random.default_rng(7)
        corpus = rng.normal(size=100)
        pool = build_pool(corpus, 16, 4)
        w = pool.window(10)
        np.testing.assert_allclose(paa(w, 4).values, pool.frames[10], atol=1e-10)
        np.testing.assert_array_equal(w.values, znormalize(TimeSeries(corpus[10:26]))[0].values)
        np.testing.assert_array_equal(pool.windows([84, 10, 84])[1], w.values)
        for start in (-1, 85):
            with pytest.raises(OutOfRangeError):
                pool.window(start)

    @pytest.mark.parametrize("chunk", [None, 64, 4])
    @pytest.mark.parametrize(("length", "segments", "count"), [(64, 8, 37), (480, 32, 4096), (96, 12, 5467)])
    def test_chunked_rows_equal_the_whole_array_formulas(self, monkeypatch, chunk, length, segments, count):
        # counts below one chunk, of whole chunks and of a part chunk; a chunk of
        # 4 elements holds less than one row of 8 or more segments
        if chunk is not None:
            monkeypatch.setattr(harness, "_POOL_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(count)
        corpus = rng.standard_normal(count + length - 1) + 1e6
        corpus[count // 3 : count // 3 + 2 * length] = 3.0  # invalid rows
        pool = build_pool(corpus, length, segments)
        frames, frames_unit, valid = whole_array_pool(corpus, length, segments)
        assert pool.count == count and not valid.all()
        np.testing.assert_array_equal(pool.valid, valid)
        np.testing.assert_array_equal(pool.frames, frames)
        np.testing.assert_array_equal(pool.frames_unit, frames_unit)
        assert pool.frames.flags.c_contiguous and pool.frames_unit.flags.c_contiguous

    def test_frames_are_formed_on_first_read(self):
        corpus = np.random.default_rng(9).standard_normal(3000)
        pool = build_pool(corpus, 64, 16)
        shape = (pool.count, pool.segments)

        def held():
            return [name for name, v in vars(pool).items() if getattr(v, "shape", None) == shape]

        assert held() == []
        frames = pool.frames
        assert held() == ["frames"] and pool.frames is frames
        pool.frames_unit
        assert sorted(held()) == ["frames", "frames_unit"]

    def test_build_keeps_no_frame_array(self):
        corpus = generate_synthetic("bimodal_mixture", 40000, seed=0).values
        build_pool(corpus, 480, 32)  # warm
        tracemalloc.start()
        try:
            pool = build_pool(corpus, 480, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.count * pool.segments * 8 > 10e6  # one frame array
        assert peak < 8e6

    def test_too_short_and_indivisible(self):
        with pytest.raises(TooShortError):
            build_pool(np.zeros(10), 20, 4)
        with pytest.raises(GridInfeasibleError):
            build_pool(np.zeros(100), 20, 3)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic("bimodal_mixture", 2000, seed=8)


class TestTlbRmseExperiment:
    def test_zero_trials_short_circuits(self, corpus):
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=0)
        assert run_tlb_rmse_experiment(corpus, grid) == []

    def test_record_shape_and_ranges(self, corpus):
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=3, seed=1)
        records = run_tlb_rmse_experiment(corpus, grid)
        assert len(records) == 4
        for rec in records:
            assert rec["length"] == 16 and rec["bytes"] == 2 and rec["kappa"] == 16
            assert rec["segments"] == 4 and rec["trials"] == 3
            assert 0.0 <= rec["tlb_mean"] <= 1.0 + 1e-9
            assert rec["rmse_mean"] >= 0.0
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"SAX", "ASAX", "PSAX", "CSAX"}
        assert by_method["SAX"]["alphabet"] == 16
        assert by_method["CSAX"]["alphabet"] >= 2

    def test_deterministic_for_a_seed(self, corpus):
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=3, seed=2)
        methods = (EncodingMethod.SAX, EncodingMethod.ASAX)
        a = run_tlb_rmse_experiment(corpus, grid, methods)
        b = run_tlb_rmse_experiment(corpus, grid, methods)
        assert a == b

    def test_rejects_short_corpus_and_duplicates(self, corpus):
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=1)
        with pytest.raises(TooShortError):
            run_tlb_rmse_experiment(np.zeros(8), grid)
        with pytest.raises(InvalidParamsError):
            run_tlb_rmse_experiment(corpus, grid, ("SAX", "SAX"))


def one_pair_records(corpus, grid, methods=METHOD_ORDER):
    """The grid scored one pair and one series at a time, trial by trial."""
    x = np.asarray(corpus, dtype=float)
    records = []
    for cell_id, n, budget, kappa, segments in grid.cells():
        pool = build_pool(x, n, segments)
        candidates = np.flatnonzero(pool.valid)
        pairs = []
        for trial in range(grid.trials):
            rng = np.random.default_rng([grid.seed, cell_id, trial])
            for _ in range(1000):
                i, j = candidates[rng.integers(0, candidates.size, size=2)]
                if i == j:
                    continue
                u, v = (znormalize(TimeSeries(x[s : s + n]))[0] for s in (i, j))
                if euclidean(u, v) > 0.0:
                    pairs.append((u, v))
                    break
            else:
                raise AssertionError("no usable pair")
        for method in methods:
            spec = EncoderSpec(method, segments=segments, kappa=kappa, seed=grid.seed)
            source = pool.frames_unit if spec.normalization is NormalizationMode.PAA_ZNORM else pool.frames
            flat = source[pool.valid].ravel()
            rng = np.random.default_rng([grid.seed, cell_id])
            enc = fit(spec, [flat[rng.choice(flat.size, size=math.ceil(math.sqrt(flat.size)), replace=False)]])
            tlb_sum = err_sum = 0.0
            for u, v in pairs:
                tlb_sum += tlb(u, v, enc)
                err_sum += dist_error(normalized_series(enc, u), encode(enc, u)) * normalization_scale(enc, u)
            records.append(
                {
                    "length": n,
                    "bytes": budget,
                    "kappa": kappa,
                    "segments": segments,
                    "method": spec.method.value,
                    "alphabet": enc.codebook.kappa,
                    "trials": grid.trials,
                    "tlb_mean": tlb_sum / grid.trials,
                    "rmse_mean": err_sum / grid.trials,
                }
            )
    return records


class TestGridEqualsOnePairScoring:
    def test_random_walk_with_a_constant_stretch(self):
        c = np.cumsum(np.random.default_rng(4).normal(size=3000))
        c[1000:1100] = 4.0
        grid = ExperimentGrid(lengths=(64,), byte_budgets=(8,), kappas=(16,), trials=25, seed=4)
        assert not build_pool(c, 64, 16).valid[1000:1037].any()
        assert run_tlb_rmse_experiment(c, grid) == one_pair_records(c, grid)

    def test_periodic_corpus_rejects_first_draws(self):
        def draws(candidates, period, trial):
            """Pairs trial ``trial`` draws until its windows are not a multiple of ``period`` apart."""
            rng = np.random.default_rng([0, 0, trial])
            for drawn in itertools.count(1):
                i, j = candidates[rng.integers(0, candidates.size, size=2)]
                if (i - j) % period:
                    return drawn

        # windows a period apart coincide; (redrawn trials, trials drawing 3+ times, most draws).
        # Both grids have 4 segments; a 5-periodic pool has too few values for 16 symbols.
        for period, repeats, budget, kappa, expected in ((20, 5, 2, 16, (8, 2, 3)), (5, 8, 1, 4, (22, 3, 4))):
            grid = ExperimentGrid(lengths=(16,), byte_budgets=(budget,), kappas=(kappa,), trials=100, seed=0)
            corpus = np.tile(np.random.default_rng(0).normal(size=period), repeats)
            candidates = np.flatnonzero(build_pool(corpus, 16, 4).valid)
            counts = [draws(candidates, period, t) for t in range(100)]
            assert (sum(c > 1 for c in counts), sum(c > 2 for c in counts), max(counts)) == expected
            assert run_tlb_rmse_experiment(corpus, grid) == one_pair_records(corpus, grid)

    def test_coinciding_pairs_raise(self):
        # every window of a geometric series Z-normalizes to the same values
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=1)
        with pytest.raises(ZeroDistanceError):
            run_tlb_rmse_experiment(2.0 ** np.arange(17), grid)

    def test_one_valid_window_raises(self):
        grid = ExperimentGrid(lengths=(16,), byte_budgets=(2,), kappas=(16,), trials=1)
        with pytest.raises(TooShortError):
            run_tlb_rmse_experiment(np.r_[np.zeros(16), 1.0], grid)


class TestPivot:
    def test_reshapes_long_records(self):
        records = [
            {"length": 480, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.5},
            {"length": 480, "bytes": 8, "kappa": 16, "method": "PSAX", "tlb_mean": 0.6},
            {"length": 960, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.4},
            # a second record of a cell is not read
            {"length": 480, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.9},
        ]
        table = pivot_records(records, "tlb_mean", kappa=16)
        assert table[0] == {"length": 480, "PSAX_8B": 0.6, "SAX_8B": 0.5}
        assert table[1]["length"] == 960
        assert math.isnan(table[1]["PSAX_8B"])

    def test_rejects_unknown_metric_or_kappa(self):
        records = [{"length": 480, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.5}]
        with pytest.raises(InvalidParamsError):
            pivot_records(records, "mean_tlb", kappa=16)
        with pytest.raises(InvalidParamsError):
            pivot_records(records, "tlb_mean", kappa=256)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == 1.0
        np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
        np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])

    def test_inverted_scores_give_zero_area(self):
        assert roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]).auc == 0.0

    def test_random_scores_hover_near_half(self):
        rng = np.random.default_rng(9)
        scores = rng.random(10_000)
        labels = rng.integers(0, 2, 10_000)
        assert abs(roc_curve(scores, labels).auc - 0.5) < 0.05

    def test_tied_scores_share_one_point(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.points.shape == (3, 2)
        assert curve.auc == 0.5

    def test_rates_are_monotone(self):
        rng = np.random.default_rng(10)
        curve = roc_curve(rng.random(200), rng.integers(0, 2, 200))
        assert np.all(np.diff(curve.fpr) >= 0.0)
        assert np.all(np.diff(curve.tpr) >= 0.0)

    def test_degenerate_labels(self):
        with pytest.raises(NoPositivesError):
            roc_curve([0.1, 0.2], [0, 0])
        with pytest.raises(NoNegativesError):
            roc_curve([0.1, 0.2], [1, 1])
        with pytest.raises(InvalidParamsError):
            roc_curve([0.1], [0, 1])

    def test_curve_validation(self):
        with pytest.raises(OutOfRangeError):
            RocCurve(np.array([[0.0, 0.0], [0.5, 2.0], [1.0, 1.0]]), 0.5, np.zeros(3))
        with pytest.raises(OutOfRangeError):
            RocCurve(np.array([[0.1, 0.0], [1.0, 1.0]]), 0.5, np.zeros(2))


class TestWindowLabels:
    def test_any_overlap_marks_the_window(self):
        labels = [0, 0, 1, 0, 0]
        got = window_labels(labels, window=2, indices=[1, 2, 3, 4])
        np.testing.assert_array_equal(got, [False, True, True, False])

    def test_block_spans_count_raw_samples(self):
        labels = np.zeros(10, dtype=int)
        labels[5] = 1
        # block 2: window of 2 blocks ending at block 2 covers raw [2, 6)
        got = window_labels(labels, window=2, indices=[1, 2, 4], block=2)
        np.testing.assert_array_equal(got, [False, True, False])

    def test_window_before_the_stream_start(self):
        with pytest.raises(OutOfRangeError):
            window_labels([0, 1, 0], window=3, indices=[1])


class TestFixedDetector:
    def test_smoke_and_determinism(self):
        stream = generate_synthetic("level_shift_anomalies", 1500, seed=11, segment=30)
        cfg = DetectorConfig(window=30, kappa=6)
        events_a, cb_a = run_fixed_detector(stream.values, EncodingMethod.SAX, cfg)
        events_b, cb_b = run_fixed_detector(stream.values, EncodingMethod.SAX, cfg)
        assert events_a == events_b and cb_a == cb_b
        assert [e.index for e in events_a] == list(range(29, 1500))
        curve = roc_from_events(events_a, stream.labels, window=30)
        assert 0.0 <= curve.auc <= 1.0

    def test_trained_method_runs(self):
        stream = generate_synthetic("level_shift_anomalies", 1200, seed=12, segment=30)
        events, cb = run_fixed_detector(
            stream.values, EncodingMethod.ASAX, DetectorConfig(window=30, kappa=5), seed=3
        )
        assert cb.kappa == 5
        assert len(events) == 1171

    def test_block_reduction_shifts_indices(self):
        stream = generate_synthetic("gaussian_iid", 400, seed=13)
        events, _ = run_fixed_detector(
            stream.values, EncodingMethod.SAX, DetectorConfig(window=50, kappa=4), paa_ratio=0.25
        )
        assert len(events) == 51
        assert events[0].index == 49

    def test_rejections(self):
        with pytest.raises(InvalidParamsError):
            run_fixed_detector(np.zeros(100), EncodingMethod.CSAX)
        with pytest.raises(ConstantSeriesError):
            run_fixed_detector(np.ones(100), EncodingMethod.SAX)
        with pytest.raises(ConstantSeriesError):  # float std 1.8e-15, not 0
            run_fixed_detector(np.full(200, 7.7), EncodingMethod.SAX)
        stream = generate_synthetic("gaussian_iid", 200, seed=14)
        with pytest.raises(InvalidParamsError):
            run_fixed_detector(stream.values, EncodingMethod.SAX, paa_ratio=0.3)
        for seed in (-1, 2.7, None):
            with pytest.raises(InvalidParamsError, match="seed must be"):
                run_fixed_detector(stream.values, EncodingMethod.PSAX, seed=seed)
        for method in (EncodingMethod.SAX, EncodingMethod.ASAX, EncodingMethod.PSAX):
            for bad in ([np.nan], [1.0, np.inf]):
                with pytest.raises(OutOfRangeError, match="finite"):
                    run_fixed_detector(np.array(bad), method)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TooShortError):
                    run_fixed_detector(np.array([]), method)
                with pytest.raises(TooShortError):
                    run_fixed_detector(np.array([3.0]), method)
