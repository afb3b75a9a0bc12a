import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from saxkit import anomaly
from saxkit.anomaly import (
    CsaxResult,
    DetectionEvent,
    DetectorConfig,
    EmpiricalPmf,
    NullHypothesisSet,
    _range_hits,
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
    InsufficientDistinctValuesError,
    InvalidParamsError,
    OutOfRangeError,
    StreamTooShortError,
    SymbolOutOfRangeError,
    WindowLengthMismatchError,
)
from saxkit.density import SILVERMAN_CONSTANT
from saxkit.harness import generate_synthetic
from saxkit.meanshift import mean_shift_codebook


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

    def test_later_changes_to_the_source_array_do_not_leak_in(self):
        source = np.array([1, 2, 0, 1])
        p = EmpiricalPmf(source)
        source[:] = [9, 0, 0, 0]
        np.testing.assert_array_equal(p.counts, [1, 2, 0, 1])
        assert p.window == 4
        np.testing.assert_array_equal(p.masses, [0.25, 0.5, 0.0, 0.25])

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
        for non_integral in ([0.5, 1.7], [0.0, np.nan], [1.0, 1.0 + 1e-12]):
            with pytest.raises(SymbolOutOfRangeError):
                empirical_pmf(non_integral, kappa=2)

    def test_integral_floats_count_like_integers(self):
        np.testing.assert_array_equal(empirical_pmf([0.0, 1.0, 1.0], kappa=3).counts, [1, 2, 0])


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
        components = [empirical_pmf(rng.integers(0, 6, 60), kappa=6) for _ in range(11)]
        for c in components:
            s.add(c)
        assert s.components == tuple(components)
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

    def test_add_rejects_another_alphabet_and_leaves_the_set_intact(self):
        s = NullHypothesisSet()
        s.add(empirical_pmf([0, 1, 1], kappa=2))
        window = empirical_pmf([0, 0, 1], kappa=2)
        before = s.min_statistic(window)
        with pytest.raises(AlphabetMismatchError):
            s.add(empirical_pmf([0, 1, 2], kappa=3))
        assert len(s) == 1
        assert s.min_statistic(window) == before

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

    def test_a_statistic_on_the_threshold_flags(self, monkeypatch):
        stream = np.random.default_rng(2).integers(0, 4, 300)
        config = DetectorConfig(window=20, kappa=4)
        events = run_detector(stream, config)
        # the first unflagged window: every window before it stays flagged at a
        # lower threshold, so the set it is tested against is unchanged
        j = next(k for k, e in enumerate(events) if not e.anomalous)
        stat = events[j].min_statistic
        assert 0.0 < stat < math.inf
        monkeypatch.setattr(anomaly, "chi2_quantile", lambda p, dof: stat)
        replay = run_detector(stream, config)
        assert all(e.anomalous for e in replay[: j + 1])
        assert replay[j].min_statistic == stat

        null_set = NullHypothesisSetWith(
            [empirical_pmf(stream[e.index - 19 : e.index + 1], 4) for e in events[:j]]
        )
        window = empirical_pmf(stream[events[j].index - 19 : events[j].index + 1], 4)
        step = gof_step(null_set, window, stat, index=events[j].index)
        assert step.anomalous and step.min_statistic == stat

    def test_integral_floats_decide_like_integers(self):
        stream = np.random.default_rng(3).integers(0, 6, 200)
        config = DetectorConfig(window=30, kappa=6)
        assert run_detector(stream.astype(float), config) == run_detector(stream, config)

    def test_input_validation(self):
        with pytest.raises(StreamTooShortError):
            run_detector([0, 1], DetectorConfig(window=10, kappa=4))
        with pytest.raises(SymbolOutOfRangeError):
            run_detector([0, 5] * 20, DetectorConfig(window=10, kappa=4))
        for non_integral in ([0.0, 1.9, 0.2], [0.0, np.nan, 1.0]):
            with pytest.raises(SymbolOutOfRangeError):
                run_detector(non_integral, DetectorConfig(window=1, kappa=2))
        with pytest.raises(InvalidParamsError):
            DetectorConfig(window=0)
        with pytest.raises(InvalidParamsError):
            DetectorConfig(alpha=1.5)
        with pytest.raises(InvalidParamsError):
            DetectorConfig(kappa=1)
        # window and kappa are whole numbers: 2.5 is refused at construction
        for bad in ({"window": 2.5}, {"kappa": 10.5}, {"window": math.inf}):
            with pytest.raises(InvalidParamsError):
                DetectorConfig(**bad)
        assert DetectorConfig(window=30.0, kappa=6.0) == DetectorConfig(window=30, kappa=6)


def reference_detector(symbols, config):
    """The per-window loop: every window is counted afresh and decided by
    ``gof_step`` against the set as it stands."""
    sym = np.asarray(symbols)
    n = config.window
    threshold = chi2_quantile(1.0 - config.alpha, config.kappa - 1)
    null_set = NullHypothesisSet()
    return [
        gof_step(null_set, empirical_pmf(sym[i - n + 1 : i + 1], config.kappa), threshold, index=i)
        for i in range(n - 1, sym.size)
    ]


def assert_same_events(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.anomalous, g.threshold, g.components, g.rebuild, g.kappa) == (
            w.index,
            w.anomalous,
            w.threshold,
            w.components,
            w.rebuild,
            w.kappa,
        )
        assert g.min_statistic == w.min_statistic


class TestRunDetectorAgainstThePerWindowLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.integers(2, 16),
        window=st.integers(1, 60),
        # near 0 only support mismatches flag; near 1 every window that is no
        # exact copy of a stored one flags
        alpha=st.one_of(st.sampled_from([1e-12, 0.05, 1.0 - 1e-12]), st.floats(1e-9, 1.0 - 1e-9)),
        budget=st.sampled_from([1, 3, 40, anomaly._CHUNK_ELEMENTS]),
        period=st.integers(1, 80),
        extra=st.integers(0, 400),
        noise=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_window_loop(self, kappa, window, alpha, budget, period, extra, noise, seed):
        # a periodic stream repeats its windows exactly, which gives ties with
        # stored components; noise replaces a share of the symbols at random
        rng = np.random.default_rng(seed)
        size = window + extra
        symbols = np.resize(rng.integers(0, kappa, period), size)
        symbols = np.where(rng.random(size) < noise, rng.integers(0, kappa, size), symbols)
        config = DetectorConfig(window=window, alpha=alpha, kappa=kappa)
        with mock.patch.object(anomaly, "_CHUNK_ELEMENTS", budget):
            got = run_detector(symbols, config)
        assert_same_events(got, reference_detector(symbols, config))

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 50, 400])
    def test_chunk_edges_anywhere_around_flags(self, monkeypatch, budget):
        # tiny budgets give chunks of one to a few windows, so their edges fall
        # before, on and after the flagged windows of this stream
        rng = np.random.default_rng(7)
        symbols = np.concatenate([rng.integers(lo, lo + 3, 60) for lo in (0, 2, 0, 4, 1, 5)])
        config = DetectorConfig(window=12, alpha=0.05, kappa=8)
        monkeypatch.setattr(anomaly, "_CHUNK_ELEMENTS", budget)
        got = run_detector(symbols, config)
        assert 10 < sum(e.anomalous for e in got) < len(got) - 10
        assert_same_events(got, reference_detector(symbols, config))

    def test_every_window_flagged_at_kappa_4096(self):
        # distinct symbols: each window holds a symbol no stored window has
        symbols = np.random.default_rng(5).permutation(4096)[:301]
        config = DetectorConfig(window=2, alpha=0.05, kappa=4096)
        got = run_detector(symbols, config)
        assert all(e.anomalous for e in got)
        assert_same_events(got, reference_detector(symbols, config))

    def test_many_flag_stream(self):
        # uniform symbols over a wide alphabet flag most windows, so the null
        # set doubles its capacity many times over the run; with kappa above
        # the window a chunk's span occupies more cells than one window, so
        # the chunk shrinks and re-indexes its shorter span
        for kappa, window in ((300, 50), (1000, 8), (64, 20)):
            symbols = np.random.default_rng(6).integers(0, kappa, 2000)
            config = DetectorConfig(window=window, kappa=kappa)
            got = run_detector(symbols, config)
            assert sum(e.anomalous for e in got) > 1000
            assert_same_events(got, reference_detector(symbols, config))


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
        assert len(res.events) == 1
        assert res.codebook == mean_shift_codebook(stream[:100].reshape(50, 2).mean(axis=1))[0]

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

    def test_pretraining_that_fills_no_block_is_rejected(self):
        stream = bimodal_stream(np.random.default_rng(4), 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pretraining in ([1.0], [1.0, 2.0, 3.0]):
                with pytest.raises(StreamTooShortError):
                    run_csax_detector(
                        stream, DetectorConfig(window=50), pretraining=pretraining, paa_ratio=0.25
                    )

    def test_a_first_codebook_with_no_value_change_is_rejected(self):
        stream = bimodal_stream(np.random.default_rng(4), 400)
        flat_start = np.r_[np.zeros(60), np.random.default_rng(5).normal(size=2000)]
        cases = [
            (flat_start, {}),
            (stream, {"pretraining": [1.0, 1.0, 1.0]}),
            (stream, {"pretraining": [1.0, 2.0, 3.0, 4.0], "paa_ratio": 0.25}),
        ]
        for values, kwargs in cases:
            with pytest.raises(InsufficientDistinctValuesError, match="longer window or pretraining"):
                run_csax_detector(values, DetectorConfig(window=50), **kwargs)

    def test_non_finite_samples_rejected(self):
        rng = np.random.default_rng(4)
        stream = bimodal_stream(rng, 100)
        with pytest.raises(OutOfRangeError):
            run_csax_detector(np.array([1.0, np.nan] * 50), DetectorConfig(window=50))
        with pytest.raises(OutOfRangeError):
            run_csax_detector(stream, DetectorConfig(window=50), pretraining=[0.0, np.inf])


def range_hits_oracle(seen):
    """Two passes over every prefix: the hit flags, the widened edges
    ``lo - sigma`` and ``hi + sigma``, and the scale ``sigma`` of each sample."""
    hits, lo, hi, sigma = [False], [np.nan], [np.nan], [0.0]
    for k in range(1, len(seen)):
        prefix = seen[:k]
        sd = float(np.std(prefix)) if (prefix != prefix[0]).any() else 0.0
        sigma.append(SILVERMAN_CONSTANT["gaussian"] * sd * k ** (-1.0 / 5.0))
        lo.append(prefix.min() - sigma[-1])
        hi.append(prefix.max() + sigma[-1])
        hits.append(bool(seen[k] < lo[-1] or seen[k] > hi[-1]))
    return np.array(hits), np.array(lo), np.array(hi), np.array(sigma)


class TestRangeHits:
    @settings(max_examples=200, deadline=None)
    @given(
        ints=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        lead=st.integers(0, 6),
        offset=st.one_of(st.sampled_from([0.0, 1e8, -1e8]), st.floats(-1e8, 1e8)),
        scale=st.sampled_from([2.0**-20, 0.1, 1.0, 33.0]),
        shift=st.sampled_from([0.0, 1e8]),
    )
    def test_matches_the_two_pass_oracle(self, ints, lead, offset, scale, shift):
        # small integer values give ties and constant runs; the shift moves the
        # second half of the stream far from its start
        seen = offset + scale * np.array([ints[0]] * lead + ints, dtype=float)
        seen[seen.size // 2 :] += shift
        want, lo, hi, sigma = range_hits_oracle(seen)
        got = _range_hits(seen)
        assert got.dtype == bool and got.shape == seen.shape and not got[0]
        # a sample within rounding of a widened edge may fall either side of it
        tol = 1e-9 * sigma + 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        near = (np.abs(seen - lo) <= tol) | (np.abs(seen - hi) <= tol)
        np.testing.assert_array_equal(got[~near], want[~near])

    @settings(max_examples=100, deadline=None)
    @given(
        ints=st.integers(0, 5).flatmap(
            lambda j: st.lists(st.integers(-3, 3), min_size=2**j, max_size=2**j)
        ),
        offset=st.sampled_from([0.0, -7.0, 1e8]),
        scale=st.sampled_from([2.0**-20, 0.25, 1.0, 32.0]),
    )
    def test_a_sample_on_the_widened_edge_is_not_a_hit(self, ints, offset, scale):
        # dyadic values over a power-of-two prefix keep both the prefix sums
        # and the two-pass std exact, so the oracle's edges are the helper's
        prefix = offset + scale * np.array(ints, dtype=float)
        _, lo, hi, _ = range_hits_oracle(np.append(prefix, 0.0))
        for edge, outward in ((lo[-1], -np.inf), (hi[-1], np.inf)):
            assert not _range_hits(np.append(prefix, edge))[-1]
            assert _range_hits(np.append(prefix, np.nextafter(edge, outward)))[-1]

    def test_truth_table(self):
        prefix = np.array([0.0, 1.0, 2.0, 3.0])
        sigma = 1.0492 * np.std(prefix) * 4 ** (-1.0 / 5.0)

        def hit(value):
            return bool(_range_hits(np.append(prefix, value))[-1])

        assert not hit(-0.5 * sigma)
        assert hit(-sigma - 1e-9)
        assert hit(3.0 + sigma + 1e-9)
        # exactly on the widened edge is still inside
        assert not hit(0.0 - sigma)
        assert not hit(3.0 + sigma)
        assert not _range_hits(np.array([5.0]))[0]
        assert _range_hits(np.array([], dtype=float)).shape == (0,)

    def test_smoothness_scale_follows_the_density_rule(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=200)
        sigma = 1.0492 * np.std(values) * 200 ** (-1.0 / 5.0)
        top = values.max()
        assert not _range_hits(np.append(values, top + 0.999 * sigma))[-1]
        assert _range_hits(np.append(values, top + 1.001 * sigma))[-1]

    def test_constant_prefix_has_zero_scale(self):
        assert not _range_hits(np.array([2.0, 2.0, 2.0, 2.0])).any()
        assert _range_hits(np.array([2.0, 2.0, 2.0, 2.0 + 1e-12]))[-1]
        assert _range_hits(np.array([1e8, 1e8, 1e8, np.nextafter(1e8, 0.0)]))[-1]


def reference_csax(values, config, pretraining=(), paa_ratio=1.0):
    """The per-window cSAX loop: every window is quantized and counted afresh
    under the codebook current at its step, and the range test reads a plain
    running state updated one sample at a time.  Returns
    ``(events, rebuilds, final codebook)``."""
    reduced, _ = block_means(values, paa_ratio)
    n = config.window

    def null_set_of(codebook, windows):
        null_set = NullHypothesisSet()
        for w in windows:
            null_set.add(empirical_pmf(quantize(codebook, w), codebook.kappa))
        return null_set

    samples, lo, hi, mean, m2 = [], math.inf, -math.inf, 0.0, 0.0

    def observe(value):
        nonlocal lo, hi, mean, m2
        samples.append(value)
        lo, hi = min(lo, value), max(hi, value)
        delta = value - mean
        mean += delta / len(samples)
        m2 += delta * (value - mean)

    def range_hit(value):
        if not samples:
            return False
        sd = math.sqrt(max(m2 / len(samples), 0.0))
        sigma = SILVERMAN_CONSTANT["gaussian"] * sd * len(samples) ** (-1.0 / 5.0)
        return value < lo - sigma or value > hi + sigma

    codebook = None
    raw_windows = []
    pre = np.asarray(pretraining, dtype=float).ravel()
    if pre.size:
        pre_reduced, _ = block_means(pre, paa_ratio)
        for sample in pre_reduced:
            observe(float(sample))
        codebook, _ = mean_shift_codebook(np.array(samples))
        if pre_reduced.size >= n:
            pre_config = replace(config, kappa=codebook.kappa)
            for ev in run_detector(quantize(codebook, pre_reduced), pre_config):
                if ev.anomalous:
                    raw_windows.append(pre_reduced[ev.index - n + 1 : ev.index + 1].copy())
    null_set = null_set_of(codebook, raw_windows) if codebook is not None else NullHypothesisSet()
    built_at = len(samples) if codebook is not None else -1
    events, rebuilds = [], 0
    for i in range(reduced.size):
        sample = float(reduced[i])
        if i < n - 1:
            observe(sample)
            continue
        hit = codebook is not None and range_hit(sample)
        observe(sample)
        if codebook is None:
            codebook, _ = mean_shift_codebook(np.array(samples))
            built_at = len(samples)
        window_values = reduced[i - n + 1 : i + 1]
        pmf = empirical_pmf(quantize(codebook, window_values), codebook.kappa)
        threshold = chi2_quantile(1.0 - config.alpha, codebook.kappa - 1)
        event = gof_step(null_set, pmf, threshold, index=i)
        if event.anomalous:
            raw_windows.append(window_values.copy())
        do_rebuild = (event.anomalous or hit) and len(samples) != built_at
        events.append(replace(event, rebuild=do_rebuild))
        if do_rebuild:
            codebook, _ = mean_shift_codebook(np.array(samples))
            built_at = len(samples)
            rebuilds += 1
            null_set = null_set_of(codebook, raw_windows)
    return events, rebuilds, codebook


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
        expected, rebuilds, codebook = reference_csax(values, config, **kwargs)
        assert rebuilds > 0
        res = run_csax_detector(values, config, **kwargs)
        assert (res.rebuilds, len(res.events)) == (rebuilds, len(expected))
        assert res.codebook == codebook
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
            for i, (stat, kappa) in enumerate(itertools.product(stats, [2, 10, 300]))
        ]
        expected = []
        for ev in events:
            p = float(gammaincc((ev.kappa - 1) / 2.0, ev.min_statistic / 2.0))
            expected.append(math.inf if p == 0.0 else -math.log10(p))
        np.testing.assert_allclose(window_scores(events), expected, rtol=1e-12)
        # an event with no degree of freedom is named, not scored at one
        for kappa in (1, 0):
            bad = [*events[:3], DetectionEvent(77, False, 3.0, 16.9, 1, kappa=kappa), *events[3:]]
            with pytest.raises(OutOfRangeError, match=f"event 77 has kappa {kappa} < 2"):
                window_scores(bad)
