import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from saxkit.anomaly import (
    CsaxResult,
    DetectionEvent,
    DetectorConfig,
    EmpiricalPmf,
    NullHypothesisSet,
    block_means,
    chi2_quantile,
    empirical_pmf,
    gof_statistic,
    gof_step,
    kl_divergence,
    run_csax_detector,
    run_detector,
    window_scores,
)
from saxkit.discretize import quantize
from saxkit.errors import (
    AlphabetMismatchError,
    InvalidParamsError,
    OutOfRangeError,
    StreamTooShortError,
    SymbolOutOfRangeError,
    WindowLengthMismatchError,
)
from saxkit.harness import generate_synthetic
from saxkit.meanshift import DynamicClusterState, dynamic_update_check, mean_shift_codebook


def chi2_quantile_oracle(p, dof):
    """Quantile via direct quadrature of the chi-square pdf plus bisection."""

    def pdf(x):
        if x <= 0.0:
            return 0.0
        log_pdf = (
            (dof / 2.0 - 1.0) * math.log(x)
            - x / 2.0
            - (dof / 2.0) * math.log(2.0)
            - math.lgamma(dof / 2.0)
        )
        return math.exp(log_pdf)

    def cdf(x):
        return quad(pdf, 0.0, x, limit=200)[0]

    lo, hi = 0.0, 1000.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def uniform_pmf(window, kappa):
    assert window % kappa == 0
    return EmpiricalPmf(np.full(kappa, window // kappa))


def bimodal_stream(rng, size):
    return np.where(
        rng.random(size) < 0.5, rng.normal(-2.0, 0.4, size), rng.normal(2.0, 0.4, size)
    )


class TestEmpiricalPmf:
    def test_counts_and_derived_fields(self):
        p = empirical_pmf([0, 1, 1, 3], kappa=4)
        np.testing.assert_array_equal(p.counts, [1, 2, 0, 1])
        assert p.window == 4
        assert p.kappa == 4
        np.testing.assert_allclose(p.masses, [0.25, 0.5, 0.0, 0.25])

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            EmpiricalPmf(np.array([0.5, 0.5]))
        with pytest.raises(OutOfRangeError):
            EmpiricalPmf(np.array([1, -1]))
        with pytest.raises(OutOfRangeError):
            EmpiricalPmf(np.array([0, 0]))
        with pytest.raises(OutOfRangeError):
            empirical_pmf([], kappa=4)
        with pytest.raises(SymbolOutOfRangeError):
            empirical_pmf([0, 4], kappa=4)


class TestKlDivergence:
    def test_hand_values(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_times_log_zero_is_zero(self):
        # mass the window lacks does not probe the component there
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_accepts_pmf_objects(self):
        p = empirical_pmf([0, 0, 1, 1], kappa=2)
        assert kl_divergence(p, p) == 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            kl_divergence([1.0], [0.5, 0.5])


class TestGofStatistic:
    def test_single_symbol_burst_value(self):
        # all 50 symbols in one cell against a uniform ten-cell component
        burst = empirical_pmf([3] * 50, kappa=10)
        stat = gof_statistic(burst, uniform_pmf(50, 10))
        np.testing.assert_allclose(stat, 100.0 * math.log(10.0), rtol=1e-12)
        assert stat == pytest.approx(230.2585093, abs=1e-6)

    def test_zero_iff_equal(self):
        p = empirical_pmf([0, 1, 2, 3], kappa=4)
        assert gof_statistic(p, p) == 0.0
        q = empirical_pmf([0, 0, 2, 3], kappa=4)
        assert gof_statistic(p, q) > 0.0

    def test_window_length_mismatch(self):
        with pytest.raises(WindowLengthMismatchError):
            gof_statistic(uniform_pmf(50, 10), uniform_pmf(40, 10))


class TestChi2Quantile:
    def test_matches_quadrature_oracle(self):
        for p, dof in [(0.95, 1), (0.95, 9), (0.99, 9), (0.5, 3), (0.9, 255)]:
            np.testing.assert_allclose(
                chi2_quantile(p, dof), chi2_quantile_oracle(p, dof), atol=1e-7
            )

    def test_frozen_reference_points(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-4)
        assert chi2_quantile(0.95, 9) == pytest.approx(16.918978, abs=1e-4)

    def test_threshold_decreases_as_alpha_grows(self):
        alphas = [0.01, 0.05, 0.1, 0.5]
        thresholds = [chi2_quantile(1.0 - a, 9) for a in alphas]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            chi2_quantile(0.0, 9)
        with pytest.raises(OutOfRangeError):
            chi2_quantile(1.0, 9)
        with pytest.raises(OutOfRangeError):
            chi2_quantile(0.95, 0)


class TestNullHypothesisSet:
    def test_empty_set_gives_infinite_statistic(self):
        s = NullHypothesisSet()
        assert s.min_statistic(uniform_pmf(50, 10)) == math.inf
        assert len(s) == 0

    def test_min_over_components_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        s = NullHypothesisSet()
        components = [empirical_pmf(rng.integers(0, 6, 60), kappa=6) for _ in range(8)]
        for c in components:
            s.add(c)
        for _ in range(20):
            w = empirical_pmf(rng.integers(0, 6, 60), kappa=6)
            expected = min(gof_statistic(w, c) for c in components)
            np.testing.assert_allclose(s.min_statistic(w), expected, rtol=1e-9)

    def test_add_refreshes_the_cached_view(self):
        s = NullHypothesisSet()
        s.add(uniform_pmf(50, 10))
        w = empirical_pmf([0] * 50, kappa=10)
        first = s.min_statistic(w)
        s.add(w)
        assert s.min_statistic(w) == 0.0 < first

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda kappa: st.lists(
                st.lists(st.integers(0, 30), min_size=kappa, max_size=kappa).filter(any),
                min_size=1,
                max_size=6,
            )
        ),
        st.data(),
    )
    def test_statistics_are_never_negative(self, counts, data):
        pmfs = [EmpiricalPmf(np.array(c)) for c in counts]
        s = NullHypothesisSetWith(pmfs)
        for p in pmfs:
            assert kl_divergence(p, p) == 0.0
            assert s.min_statistic(p) == 0.0
        window = EmpiricalPmf(np.array(data.draw(st.permutations(counts[0]))))
        assert s.min_statistic(window) >= 0.0


class TestGofStep:
    def test_flags_when_nothing_fits_and_stores_the_window(self):
        s = NullHypothesisSet()
        threshold = chi2_quantile(0.95, 9)
        first = gof_step(s, uniform_pmf(50, 10), threshold, index=49)
        assert first.anomalous and first.components == 0
        assert first.min_statistic == math.inf
        assert len(s) == 1
        burst = empirical_pmf([0] * 50, kappa=10)
        event = gof_step(s, burst, threshold, index=50)
        assert event.anomalous
        np.testing.assert_allclose(event.min_statistic, 100.0 * math.log(10.0), rtol=1e-12)
        assert event.threshold == pytest.approx(16.918978, abs=1e-4)

    def test_fitting_window_is_not_stored(self):
        s = NullHypothesisSet()
        threshold = chi2_quantile(0.95, 9)
        gof_step(s, uniform_pmf(50, 10), threshold)
        near = empirical_pmf([0, 1, 2, 3, 4, 5, 6, 7, 8, 9] * 5, kappa=10)
        event = gof_step(s, near, threshold)
        assert not event.anomalous
        assert len(s) == 1

    def test_normal_at_a_threshold_stays_normal_at_any_larger_one(self):
        rng = np.random.default_rng(1)
        s = NullHypothesisSet()
        s.add(uniform_pmf(50, 10))
        w = empirical_pmf(rng.integers(0, 10, 50), kappa=10)
        stat = s.min_statistic(w)
        for rho in (stat + 0.1, stat + 1.0, stat + 100.0):
            assert not gof_step(NullHypothesisSetWith([uniform_pmf(50, 10)]), w, rho).anomalous


def NullHypothesisSetWith(components):
    s = NullHypothesisSet()
    for c in components:
        s.add(c)
    return s


class TestRunDetector:
    def test_single_symbol_stream_flags_only_the_first_window(self):
        events = run_detector([0] * 80, DetectorConfig(window=10, kappa=4))
        assert len(events) == 71
        assert events[0].anomalous and events[0].index == 9
        assert not any(e.anomalous for e in events[1:])

    def test_uniform_cycle_then_burst(self):
        # the windows blending into the burst stop fitting the stored cycle
        # pmf; later all-zero windows may fit the mixtures stored on the way
        stream = list(range(10)) * 5 + [0] * 50
        events = run_detector(stream, DetectorConfig(window=50, alpha=0.05, kappa=10))
        assert events[0].anomalous
        burst = [e for e in events[1:] if e.anomalous]
        assert burst
        assert all(e.min_statistic > e.threshold for e in burst)

    def test_component_count_never_exceeds_windows_seen(self):
        rng = np.random.default_rng(2)
        events = run_detector(rng.integers(0, 4, 300), DetectorConfig(window=20, kappa=4))
        for k, e in enumerate(events):
            assert e.components <= k
        assert [e.index for e in events] == list(range(19, 300))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 6, 400)
        a = run_detector(stream, DetectorConfig(window=30, kappa=6))
        b = run_detector(stream, DetectorConfig(window=30, kappa=6))
        assert a == b

    def test_input_validation(self):
        with pytest.raises(StreamTooShortError):
            run_detector([0, 1], DetectorConfig(window=10, kappa=4))
        with pytest.raises(SymbolOutOfRangeError):
            run_detector([0, 5] * 20, DetectorConfig(window=10, kappa=4))
        with pytest.raises(InvalidParamsError):
            DetectorConfig(window=0)
        with pytest.raises(InvalidParamsError):
            DetectorConfig(alpha=1.5)
        with pytest.raises(InvalidParamsError):
            DetectorConfig(kappa=1)


class TestCalibration:
    def test_uniform_null_rejects_near_the_nominal_rate(self):
        # fresh uniform windows against the exact uniform component; the
        # chi-square approximation at window 50 keeps the rate near alpha
        rng = np.random.default_rng(4)
        component = uniform_pmf(50, 10)
        threshold = chi2_quantile(0.95, 9)
        rejections = 0
        trials = 1000
        draws = rng.integers(0, 10, size=(trials, 50))
        for row in draws:
            w = empirical_pmf(row, kappa=10)
            if not gof_statistic(w, component) < threshold:
                rejections += 1
        assert 0.01 <= rejections / trials <= 0.13


class TestCsaxDetector:
    def test_cold_start_bootstraps_from_the_first_window(self):
        rng = np.random.default_rng(0)
        stream = bimodal_stream(rng, 200)
        res = run_csax_detector(stream, DetectorConfig(window=50))
        assert isinstance(res, CsaxResult)
        first = res.events[0]
        assert first.index == 49
        assert first.anomalous and first.min_statistic == math.inf
        # bootstrap itself is not reported as a rebuild: no sample arrived
        # between the build and the first decision
        assert not first.rebuild
        assert len(res.events) == 151
        assert res.codebook.kappa == 2

    def test_stationary_continuation_after_pretraining_stays_quiet(self):
        rng = np.random.default_rng(1)
        stream = bimodal_stream(rng, 700)
        res = run_csax_detector(
            stream[500:],
            DetectorConfig(window=50, alpha=0.01, kappa=99),
            pretraining=stream[:500],
        )
        assert res.codebook.kappa == 2
        assert res.rebuilds == 0
        assert not any(e.anomalous for e in res.events)
        assert not any(e.rebuild for e in res.events)

    def test_range_excursion_rebuilds_even_when_the_statistic_passes(self):
        rng = np.random.default_rng(1)
        stream = bimodal_stream(rng, 700)
        cont = stream[500:].copy()
        cont[120] = 40.0
        res = run_csax_detector(
            cont, DetectorConfig(window=50, alpha=0.01), pretraining=stream[:500]
        )
        event = next(e for e in res.events if e.index == 120)
        assert event.rebuild and not event.anomalous
        assert res.rebuilds >= 1

    def test_block_reduction_drops_the_partial_tail(self):
        rng = np.random.default_rng(2)
        stream = bimodal_stream(rng, 101)
        res = run_csax_detector(stream, DetectorConfig(window=50), paa_ratio=0.5)
        assert res.state.count == 50
        assert len(res.events) == 1
        np.testing.assert_allclose(
            res.state.samples(), stream[:100].reshape(50, 2).mean(axis=1), atol=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        stream = bimodal_stream(rng, 300)
        a = run_csax_detector(stream, DetectorConfig(window=50))
        b = run_csax_detector(stream, DetectorConfig(window=50))
        assert a.events == b.events
        assert a.rebuilds == b.rebuilds

    def test_parameter_validation(self):
        rng = np.random.default_rng(4)
        stream = bimodal_stream(rng, 100)
        with pytest.raises(InvalidParamsError):
            run_csax_detector(stream, DetectorConfig(window=50), paa_ratio=0.3)
        with pytest.raises(InvalidParamsError):
            run_csax_detector(stream, DetectorConfig(window=50), paa_ratio=0.0)
        with pytest.raises(StreamTooShortError):
            run_csax_detector(stream[:40], DetectorConfig(window=50))
        with pytest.raises(OutOfRangeError):
            run_csax_detector(np.array([1.0, np.nan] * 50), DetectorConfig(window=50))


def reference_csax(values, config, pretraining=(), paa_ratio=1.0):
    """The per-window cSAX loop: every window is quantized and counted afresh
    under the codebook current at its step.  Returns ``(events, rebuilds, count)``."""
    reduced, _ = block_means(values, paa_ratio)
    n = config.window

    def null_set_of(codebook, windows):
        null_set = NullHypothesisSet()
        for w in windows:
            null_set.add(empirical_pmf(quantize(codebook, w), codebook.kappa))
        return null_set

    state = DynamicClusterState()
    raw_windows = []
    pre = np.asarray(pretraining, dtype=float).ravel()
    if pre.size:
        pre_reduced, _ = block_means(pre, paa_ratio)
        state.observe_many(pre_reduced)
        state.codebook, _ = mean_shift_codebook(state.samples())
        if pre_reduced.size >= n:
            pre_config = replace(config, kappa=state.codebook.kappa)
            for ev in run_detector(quantize(state.codebook, pre_reduced), pre_config):
                if ev.anomalous:
                    raw_windows.append(pre_reduced[ev.index - n + 1 : ev.index + 1].copy())
    null_set = null_set_of(state.codebook, raw_windows)
    built_at = state.count if state.codebook is not None else -1
    events, rebuilds = [], 0
    for i in range(reduced.size):
        sample = float(reduced[i])
        if i < n - 1:
            state.observe(sample)
            continue
        range_hit = state.codebook is not None and dynamic_update_check(state, False, sample)
        state.observe(sample)
        if state.codebook is None:
            state.codebook, _ = mean_shift_codebook(state.samples())
            built_at = state.count
        codebook = state.codebook
        window_values = reduced[i - n + 1 : i + 1]
        pmf = empirical_pmf(quantize(codebook, window_values), codebook.kappa)
        threshold = chi2_quantile(1.0 - config.alpha, codebook.kappa - 1)
        event = gof_step(null_set, pmf, threshold, index=i)
        if event.anomalous:
            raw_windows.append(window_values.copy())
        do_rebuild = (event.anomalous or range_hit) and state.count != built_at
        events.append(replace(event, rebuild=do_rebuild))
        if do_rebuild:
            state.codebook, _ = mean_shift_codebook(state.samples())
            built_at = state.count
            rebuilds += 1
            null_set = null_set_of(state.codebook, raw_windows)
    return events, rebuilds, state.count


_LEVEL_SHIFTS = generate_synthetic("level_shift_anomalies", 2000, seed=13).values
_BIMODAL = bimodal_stream(np.random.default_rng(1), 700)
_EXCURSION = np.where(np.arange(200) == 120, 40.0, _BIMODAL[500:])

CSAX_CASES = {
    "no pretraining": (_LEVEL_SHIFTS, {}),
    "pretraining": (_LEVEL_SHIFTS[400:], {"pretraining": _LEVEL_SHIFTS[:400]}),
    "paa ratio 0.5": (_LEVEL_SHIFTS, {"paa_ratio": 0.5}),
    "range excursion": (_EXCURSION, {"pretraining": _BIMODAL[:500]}),
}


class TestCsaxAgainstThePerWindowLoop:
    @pytest.mark.parametrize("name", list(CSAX_CASES))
    def test_event_logs_match(self, name):
        values, kwargs = CSAX_CASES[name]
        config = DetectorConfig(window=50, alpha=0.01)
        expected, rebuilds, count = reference_csax(values, config, **kwargs)
        assert rebuilds > 0
        res = run_csax_detector(values, config, **kwargs)
        assert (res.rebuilds, res.state.count, len(res.events)) == (rebuilds, count, len(expected))
        for got, want in zip(res.events, expected):
            assert (got.index, got.anomalous, got.threshold, got.components, got.rebuild, got.kappa) == (
                want.index,
                want.anomalous,
                want.threshold,
                want.components,
                want.rebuild,
                want.kappa,
            )
            if math.isinf(want.min_statistic):
                assert got.min_statistic == want.min_statistic
            else:
                assert abs(got.min_statistic - want.min_statistic) <= 1e-12

    def test_level_shift_scores_have_no_nan(self):
        stream = generate_synthetic("level_shift_anomalies", 10000, seed=11)
        res = run_csax_detector(stream.values, DetectorConfig())
        assert all(ev.min_statistic >= 0.0 for ev in res.events)
        assert not np.isnan(window_scores(res.events)).any()


class TestWindowScores:
    def test_score_at_the_threshold_matches_the_alpha_level(self):
        stat = chi2_quantile(0.95, 9)
        event = DetectionEvent(0, True, stat, stat, 1, kappa=10)
        np.testing.assert_allclose(window_scores([event])[0], -math.log10(0.05), atol=1e-9)

    def test_infinite_statistic_gives_infinite_score(self):
        event = DetectionEvent(0, True, math.inf, 16.9, 0, kappa=10)
        assert window_scores([event])[0] == math.inf

    def test_scores_increase_with_the_statistic(self):
        events = [
            DetectionEvent(i, False, s, 16.9, 1, kappa=10) for i, s in enumerate([1.0, 5.0, 20.0])
        ]
        scores = window_scores(events)
        assert scores[0] < scores[1] < scores[2]

    def test_matches_the_per_event_formula(self):
        stats = [0.0, 1e-3, 0.5, 3.0, 16.9, 80.0, 900.0, 5000.0, math.inf]
        events = [
            DetectionEvent(i, False, stat, 16.9, 1, kappa=kappa)
            for i, (stat, kappa) in enumerate(itertools.product(stats, [1, 2, 10, 300]))
        ]
        expected = []
        for ev in events:
            p = float(gammaincc(max(ev.kappa - 1, 1) / 2.0, ev.min_statistic / 2.0))
            expected.append(math.inf if p == 0.0 else -math.log10(p))
        np.testing.assert_allclose(window_scores(events), expected, rtol=1e-12)
