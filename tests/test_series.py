import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saxkit.errors import (
    ConstantSeriesError,
    IndivisibleLengthError,
    OutOfRangeError,
    TooShortError,
)
from saxkit.series import (
    PaaSeries,
    TimeSeries,
    paa,
    paa_then_znormalize,
    paa_variance_prediction,
    znormalize,
)


def finite_series(min_size=2, max_size=64):
    return st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=min_size,
        max_size=max_size,
    ).map(np.asarray)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(OutOfRangeError):
            TimeSeries([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(OutOfRangeError):
            TimeSeries([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(TooShortError):
            TimeSeries([])

    def test_rejects_2d(self):
        with pytest.raises(OutOfRangeError):
            TimeSeries(np.zeros((2, 2)))

    def test_values_read_only(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_does_not_alias_input(self):
        buf = np.array([1.0, 2.0])
        ts = TimeSeries(buf)
        buf[0] = 9.0
        assert ts.values[0] == 1.0


class TestZnormalize:
    def test_basic_stats(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(rng.normal(3.0, 2.5, 500))
        z, stats = znormalize(ts)
        assert abs(z.values.mean()) < 1e-12
        # population convention: denominator n, not n-1
        assert abs(z.values.std(ddof=0) - 1.0) < 1e-12
        assert stats.mean == pytest.approx(ts.values.mean())
        assert stats.std == pytest.approx(ts.values.std(ddof=0))

    def test_inverse(self):
        ts = TimeSeries([4.0, 8.0, 6.0, 2.0])
        z, stats = znormalize(ts)
        np.testing.assert_allclose(z.values * stats.std + stats.mean, ts.values)

    def test_constant_series(self):
        with pytest.raises(ConstantSeriesError):
            znormalize(TimeSeries([2.0, 2.0, 2.0]))
        with pytest.raises(ConstantSeriesError):  # float std 1.4e-17, not 0
            znormalize(TimeSeries([0.1] * 3))

    def test_too_short(self):
        with pytest.raises(TooShortError):
            znormalize(TimeSeries([1.0]))

    @given(finite_series(), st.floats(0.1, 100.0), st.floats(-1e3, 1e3))
    @settings(max_examples=50)
    def test_affine_invariance(self, values, scale, shift):
        assume(np.std(values) > 1e-3)  # skip ill-conditioned near-constant draws
        z1, _ = znormalize(TimeSeries(values))
        z2, _ = znormalize(TimeSeries(values * scale + shift))
        np.testing.assert_allclose(z1.values, z2.values, atol=1e-6)


class TestPaa:
    def test_matches_naive_segment_means(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(48)
        out = paa(TimeSeries(x), 6)
        manual = [x[i * 8 : (i + 1) * 8].mean() for i in range(6)]
        np.testing.assert_allclose(out.values, manual, rtol=0, atol=1e-15)
        assert out.segments == 6
        assert out.segment_size == 8
        assert out.source_length == 48

    def test_identity_when_segments_equal_length(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(paa(TimeSeries(x), 3).values, x)

    def test_single_segment_is_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert paa(TimeSeries(x), 1).values[0] == pytest.approx(2.5)

    def test_indivisible(self):
        with pytest.raises(IndivisibleLengthError):
            paa(TimeSeries(np.zeros(10)), 3)

    def test_segment_count_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            paa(TimeSeries(np.zeros(4)), 0)
        with pytest.raises(OutOfRangeError):
            paa(TimeSeries(np.zeros(4)), 5)

    def test_preserves_series_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(5.0, 1.0, 60)
        out = paa(TimeSeries(x), 12)
        assert out.values.mean() == pytest.approx(x.mean())

    def test_paa_series_validates_divisibility(self):
        with pytest.raises(IndivisibleLengthError):
            PaaSeries(np.zeros(3), 10)


class TestPaaThenZnormalize:
    def test_restores_unit_variance(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(rng.standard_normal(4000))
        reduced, _ = paa_then_znormalize(ts, 500)
        assert abs(reduced.values.mean()) < 1e-9
        assert abs(reduced.values.std(ddof=0) - 1.0) < 1e-9
        assert reduced.source_length == 4000

    def test_equals_znorm_of_paa(self):
        rng = np.random.default_rng(4)
        ts = TimeSeries(rng.standard_normal(64))
        reduced, stats = paa_then_znormalize(ts, 8)
        plain = paa(ts, 8)
        z, stats2 = znormalize(TimeSeries(plain.values))
        np.testing.assert_allclose(reduced.values, z.values)
        assert stats.mean == stats2.mean and stats.std == stats2.std

    def test_constant_paa_rejected(self):
        # distinct samples whose segment means coincide
        ts = TimeSeries([0.0, 2.0, 1.0, 1.0])
        with pytest.raises(ConstantSeriesError):
            paa_then_znormalize(ts, 2)


class TestPaaVariancePrediction:
    def test_iid_shrinks_by_segment_size(self):
        assert paa_variance_prediction(8, 0.0) == pytest.approx(1.0 / 8.0)

    def test_perfect_correlation_keeps_variance(self):
        assert paa_variance_prediction(17, 1.0) == pytest.approx(1.0)

    def test_single_sample_segment(self):
        assert paa_variance_prediction(1, 0.37) == 1.0

    def test_formula(self):
        # (1 + (m-1) rho) / m by direct arithmetic
        assert paa_variance_prediction(4, 0.5) == pytest.approx((1 + 3 * 0.5) / 4)

    def test_matches_monte_carlo_for_ar1_segments(self):
        # segment means of an exchangeable Gaussian vector with common rho
        rng = np.random.default_rng(5)
        m, rho, trials = 6, 0.3, 40000
        cov = np.full((m, m), rho) + (1 - rho) * np.eye(m)
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((trials, m)) @ chol.T
        observed = draws.mean(axis=1).var()
        assert observed == pytest.approx(paa_variance_prediction(m, rho), rel=0.05)

    @given(st.integers(2, 50), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_monotone_in_correlation(self, m, rho):
        lower = paa_variance_prediction(m, rho * 0.5)
        upper = paa_variance_prediction(m, rho)
        assert lower <= upper + 1e-12

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            paa_variance_prediction(0, 0.0)
        with pytest.raises(OutOfRangeError):
            paa_variance_prediction(4, 1.1)
        with pytest.raises(OutOfRangeError):
            paa_variance_prediction(4, -0.5)
