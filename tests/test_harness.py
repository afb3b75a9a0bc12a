import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saxkit.anomaly import DetectionEvent, DetectorConfig
from saxkit.codec import EncodingMethod
from saxkit.errors import (
    ConstantSeriesError,
    EmptyFileError,
    GridInfeasibleError,
    InvalidParamsError,
    NoNegativesError,
    NoPositivesError,
    OutOfRangeError,
    ParseError,
    TooShortError,
)
from saxkit.harness import (
    ExperimentGrid,
    LabeledStream,
    RocCurve,
    build_pool,
    generate_synthetic,
    load_labeled_csv,
    load_series_csv,
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


class TestLoaders:
    def test_headerless_series(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n2\n3\n")
        np.testing.assert_array_equal(load_series_csv(p).values, [1.0, 2.0, 3.0])

    def test_series_header_is_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n1.5\n-2.5\n")
        np.testing.assert_array_equal(load_series_csv(p).values, [1.5, -2.5])

    def test_bad_series_line_reports_its_number(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n1\nabc\n")
        with pytest.raises(ParseError) as info:
            load_series_csv(p)
        assert info.value.line == 3

    def test_series_rejects_extra_columns(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1,2\n")
        with pytest.raises(ParseError):
            load_series_csv(p)

    def test_empty_series_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n")
        with pytest.raises(EmptyFileError):
            load_series_csv(p)
        p.write_text("")
        with pytest.raises(EmptyFileError):
            load_series_csv(p)

    def test_labeled_rows(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("value,label\n1,0\n5,1\n")
        stream = load_labeled_csv(p)
        np.testing.assert_array_equal(stream.values, [1.0, 5.0])
        np.testing.assert_array_equal(stream.labels, [0, 1])
        assert stream.name == "l"

    def test_labeled_rejects_bad_labels(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("1,2\n")
        with pytest.raises(ParseError):
            load_labeled_csv(p)
        p.write_text("1\n")
        with pytest.raises(ParseError):
            load_labeled_csv(p)

    def test_labeled_stream_validation(self):
        with pytest.raises(InvalidParamsError):
            LabeledStream(np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidParamsError):
            LabeledStream(np.zeros(2), np.array([0, 2]))


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

    def test_events_round_trip(self, tmp_path):
        p = tmp_path / "e.csv"
        events = [
            DetectionEvent(49, True, math.inf, 16.918978, 0, rebuild=False),
            DetectionEvent(50, False, 3.25, 16.918978, 1, rebuild=True),
        ]
        write_events_csv(p, events)
        assert read_events_csv(p) == events

    def test_events_header_checked(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("wrong,header\n")
        with pytest.raises(ParseError):
            read_events_csv(p)

    def test_records_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        records = [
            {"length": 480, "method": "SAX", "tlb_mean": 0.123456789012345},
            {"length": 960, "method": "PSAX", "tlb_mean": 0.5},
        ]
        write_records_csv(p, records)
        assert read_records_csv(p) == records

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

    def test_writers_accept_file_objects(self):
        buf = io.StringIO()
        write_series_csv(buf, [1.0, 2.0])
        assert buf.getvalue() == "value\n1.0\n2.0\n"


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
        with pytest.raises(InvalidParamsError):
            generate_synthetic("bimodal_mixture", 100, weight=1.5)
        with pytest.raises(InvalidParamsError):
            generate_synthetic("level_shift_anomalies", 100, segment=200)


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
        rng = np.random.default_rng(5)
        pool = build_pool(rng.normal(size=200), 20, 5)
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


class TestPivot:
    def test_reshapes_long_records(self):
        records = [
            {"length": 480, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.5},
            {"length": 480, "bytes": 8, "kappa": 16, "method": "PSAX", "tlb_mean": 0.6},
            {"length": 960, "bytes": 8, "kappa": 16, "method": "SAX", "tlb_mean": 0.4},
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
