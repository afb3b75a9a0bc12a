import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saxkit.anomaly import block_means
from saxkit.density import DensityModel, KernelKind, bandwidth_gradient
from saxkit.discretize import CodebookMethod
from saxkit.errors import (
    InsufficientDistinctValuesError,
    NoConvergenceError,
    NonPositiveScaleError,
    OutOfRangeError,
    TooShortError,
)
from saxkit.harness import generate_synthetic
from saxkit.meanshift import (
    ModeSet,
    mean_shift_codebook,
    mean_shift_modes,
    mean_shift_vector,
    modes_to_codebook,
)


def naive_shift(samples, h, x):
    """Direct-sum oracle for the shift vector."""
    num = 0.0
    den = 0.0
    for s in samples:
        w = math.exp(-0.5 * ((s - x) / h) ** 2)
        num += w * s
        den += w
    return num / den - x


def naive_modes(samples, h, tol):
    """Run every trajectory with plain steps and merge endpoints."""
    arr = np.asarray(samples, dtype=float)
    ends = []
    for start in np.unique(arr):
        x = float(start)
        for _ in range(100_000):
            shift = naive_shift(arr, h, x)
            x += shift
            if abs(shift) < tol:
                break
        ends.append(x)
    pts = np.sort(ends)
    groups = np.split(pts, np.flatnonzero(np.diff(pts) > 0.5 * h) + 1)
    return np.array([g.mean() for g in groups])


def naive_curvature_sign(samples, h, x):
    """Sign of the Gaussian KDE's second derivative at ``x``, by direct sums."""
    u = (np.asarray(samples, dtype=float) - x) / h
    return np.sign(np.sum(np.exp(-0.5 * u * u) * (u * u - 1.0)))


def plain_step_endpoint(samples, h, start):
    """Where plain mean-shift steps from ``start`` stop (step under 1e-6 h)."""
    x = float(start)
    for _ in range(10_000):
        step = naive_shift(samples, h, x)
        x += step
        if abs(step) < 1e-6 * h:
            return x
    raise AssertionError("plain steps did not converge")


def level_shift_pool(length):
    """A CSAX rebuild pool: block means (ratio 0.5) of a stream prefix."""
    values = generate_synthetic("level_shift_anomalies", 20000, seed=12).values
    pool = block_means(values[:length], 0.5)[0]
    return pool, bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(pool)), pool.size)


def bimodal_sample(rng, n, centers=(-2.0, 2.0), sd=0.4):
    half = n // 2
    return np.concatenate(
        [rng.normal(centers[0], sd, half), rng.normal(centers[1], sd, n - half)]
    )


class TestShiftVector:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=50)
        for x in (-2.0, -0.3, 0.0, 1.7):
            np.testing.assert_allclose(
                mean_shift_vector(samples, 0.5, x), naive_shift(samples, 0.5, x), atol=1e-12
            )

    def test_zero_at_a_symmetric_center(self):
        samples = [-1.0, 1.0]
        assert abs(mean_shift_vector(samples, 1.0, 0.0)) < 1e-15

    def test_points_toward_the_data(self):
        samples = np.zeros(10) + np.linspace(-0.1, 0.1, 10)
        assert mean_shift_vector(samples, 0.5, -3.0) > 0.0
        assert mean_shift_vector(samples, 0.5, 3.0) < 0.0

    def test_far_query_does_not_underflow(self):
        # scale-free weights: even 100 bandwidths out the shift stays finite
        samples = np.linspace(-1.0, 1.0, 20)
        shift = mean_shift_vector(samples, 0.1, 50.0)
        assert np.isfinite(shift) and shift < 0.0
        # past about 1.3e154 bandwidths u * u overflows; the shift still heads home
        for x, sign in ((1e155, -1.0), (1e200, -1.0), (-1e200, 1.0)):
            shift = mean_shift_vector([0.0, 1.0], 1.0, x)
            assert np.isfinite(shift) and np.sign(shift) == sign
        assert mean_shift_vector([0.0, 1.0], 0.5, 1e308) == 0.5 - 1e308
        # every offset overflows, on both sides: all weigh 1, the shift leads to the mean
        assert mean_shift_vector([-1e308, 1e308], 0.5, 0.0) == 0.0
        # an overflowing offset beside a near sample weighs 0
        assert mean_shift_vector([0.0, 1e308], 0.5, 0.0) == 0.0
        assert mean_shift_vector([-1e308, 1e308, 5.0], 0.5, 0.0) == 5.0
        with pytest.raises(OutOfRangeError):  # the shift itself is past the float range
            mean_shift_vector([1e308, 1e308], 0.5, -1e308)

    def test_stepping_ascends_the_density(self):
        rng = np.random.default_rng(1)
        samples = bimodal_sample(rng, 60)
        h = 0.4

        def density(x):
            return sum(math.exp(-0.5 * ((s - x) / h) ** 2) for s in samples)

        for start in (-3.5, -1.0, 0.4, 3.1):
            x = start
            level = density(x)
            for _ in range(200):
                x += mean_shift_vector(samples, h, x)
                new_level = density(x)
                assert new_level >= level * (1.0 - 1e-12)
                level = new_level

    def test_input_validation(self):
        with pytest.raises(TooShortError):
            mean_shift_vector([], 1.0, 0.0)
        with pytest.raises(NonPositiveScaleError):
            mean_shift_vector([1.0], 0.0, 0.0)
        with pytest.raises(OutOfRangeError):
            mean_shift_vector([1.0, np.nan], 1.0, 0.0)
        with pytest.raises(OutOfRangeError):
            mean_shift_vector([1.0], 1.0, np.inf)


class TestModeSeeking:
    def test_two_bump_recovery(self):
        rng = np.random.default_rng(2)
        samples = bimodal_sample(rng, 120)
        result = mean_shift_modes(samples, 0.4)
        assert len(result) == 2
        np.testing.assert_allclose(result.modes, [-2.0, 2.0], atol=0.25)
        assert result.sample_count == 120
        assert result.bandwidth == 0.4

    def test_single_clump_gives_one_mode(self):
        rng = np.random.default_rng(3)
        result = mean_shift_modes(rng.normal(size=80), 1.0)
        assert len(result) == 1
        assert abs(result.modes[0]) < 0.5

    def test_matches_naive_trajectories_small(self):
        rng = np.random.default_rng(4)
        samples = bimodal_sample(rng, 90)
        got = mean_shift_modes(samples, 0.5)
        expected = naive_modes(samples, 0.5, 1e-6 * 0.5)
        assert len(got) == expected.size
        np.testing.assert_allclose(got.modes, expected, atol=1e-3)

    def test_matches_naive_trajectories_above_probe_threshold(self):
        # >160 distinct starts exercises the probe-and-bisect path
        rng = np.random.default_rng(5)
        samples = np.concatenate(
            [rng.normal(-2.0, 0.4, 130), rng.normal(2.0, 0.4, 130), rng.normal(6.0, 0.3, 140)]
        )
        got = mean_shift_modes(samples, 0.45)
        expected = naive_modes(samples, 0.45, 1e-6 * 0.45)
        assert len(got) == expected.size
        np.testing.assert_allclose(got.modes, expected, atol=1e-3)

    def test_modes_are_stationary_points(self):
        rng = np.random.default_rng(6)
        samples = bimodal_sample(rng, 400)
        result = mean_shift_modes(samples, 0.4)
        for m in result.modes:
            assert abs(mean_shift_vector(samples, 0.4, float(m))) < 1e-5

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        base = bimodal_sample(rng, 24)
        reference = mean_shift_modes(base, 0.5).modes

        @settings(max_examples=25, deadline=None)
        @given(st.floats(min_value=-10.0, max_value=10.0))
        def check(offset):
            shifted = mean_shift_modes(base + offset, 0.5).modes
            np.testing.assert_allclose(shifted, reference + offset, atol=1e-4)

        check()

    def test_no_convergence_raises_with_partial(self):
        rng = np.random.default_rng(8)
        samples = bimodal_sample(rng, 40)
        with pytest.raises(NoConvergenceError) as info:
            mean_shift_modes(samples, 0.4, max_iter=1)
        assert info.value.partial is None or isinstance(info.value.partial, ModeSet)

    def test_parameter_validation(self):
        with pytest.raises(OutOfRangeError):
            mean_shift_modes([1.0, 2.0], 1.0, tol=0.0)
        with pytest.raises(OutOfRangeError):
            mean_shift_modes([1.0, 2.0], 1.0, max_iter=0)
        with pytest.raises(NonPositiveScaleError):
            mean_shift_modes([1.0, 2.0], -1.0)

    def test_mode_set_validation(self):
        with pytest.raises(OutOfRangeError):
            ModeSet(np.array([1.0, 0.5]), 1.0, 10)
        with pytest.raises(OutOfRangeError):
            ModeSet(np.array([np.inf]), 1.0, 10)
        with pytest.raises(TooShortError):
            ModeSet(np.array([]), 1.0, 10)


class TestModesAreTheDensityMaxima:
    def test_a_sample_at_a_density_minimum_is_not_a_mode(self):
        a = np.random.default_rng(0).normal(-3.0, 0.5, 200)
        samples = np.r_[a, -a, 0.0]
        # at h = 1 the lone sample at 0 sits in the valley (positive
        # curvature): its shift is zero, but it is no maximum
        assert naive_curvature_sign(samples, 1.0, 0.0) > 0.0
        result = mean_shift_modes(samples, 1.0)
        assert len(result) == 2
        np.testing.assert_allclose(result.modes, [-2.98, 2.98], atol=0.05)

    def test_every_mode_of_a_rebuild_pool_is_a_maximum(self):
        # an AR(1) prefix whose density has a minimum right on a sample
        pool = np.asarray(generate_synthetic("ar1", 8000, seed=5).values)[:982]
        h = bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(pool)), pool.size)
        modes = mean_shift_modes(pool, h).modes
        assert [naive_curvature_sign(pool, h, m) for m in modes] == [-1.0] * modes.size

    @pytest.mark.parametrize("length", [12238, 18938])
    def test_the_mode_reached_from_the_largest_value_is_found(self, length):
        pool, h = level_shift_pool(length)
        end = plain_step_endpoint(pool, h, pool.max())
        modes = mean_shift_modes(pool, h).modes
        assert np.min(np.abs(modes - end)) < 1e-3

    def test_a_shoulder_mode_next_to_its_valley_is_kept(self):
        # the valley lies 0.066 bandwidths from the mode at 2.6767
        pool, h = level_shift_pool(12226)
        modes = mean_shift_modes(pool, h).modes
        assert len(modes) == 2
        assert abs(modes[1] - 2.6767) < 1e-3

    def test_a_far_outlier_is_its_own_mode_at_little_cost(self):
        samples = np.r_[np.random.default_rng(12).normal(size=500), 1e8]
        start = time.perf_counter()
        modes = mean_shift_modes(samples, 0.3).modes
        assert time.perf_counter() - start < 1.0
        assert modes[-1] == 1e8
        assert np.all(np.abs(modes[:-1]) < 5.0)


class TestModesToCodebook:
    def test_cutline_sits_at_the_density_valley(self):
        rng = np.random.default_rng(9)
        samples = bimodal_sample(rng, 300, centers=(-2.0, 2.0), sd=0.5)
        h = bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(samples)), samples.size)
        modes = mean_shift_modes(samples, h)
        density = DensityModel(samples, KernelKind.GAUSSIAN, h)
        cb = modes_to_codebook(modes, density)
        assert cb.method is CodebookMethod.MEAN_SHIFT
        assert cb.kappa == 2
        np.testing.assert_array_equal(cb.centroids, modes.modes)
        grid = np.linspace(modes.modes[0], modes.modes[1], 200_001)
        valley = grid[np.argmin(density.pdf(grid))]
        np.testing.assert_allclose(cb.cutlines[0], valley, atol=1e-3)

    def test_three_modes_give_three_symbols(self):
        rng = np.random.default_rng(10)
        samples = np.concatenate(
            [rng.normal(-4.0, 0.3, 100), rng.normal(0.0, 0.3, 100), rng.normal(4.0, 0.3, 100)]
        )
        modes = mean_shift_modes(samples, 0.35)
        density = DensityModel(samples, KernelKind.GAUSSIAN, 0.35)
        cb = modes_to_codebook(modes, density)
        assert cb.kappa == 3
        assert cb.cutlines[0] < 0.0 < cb.cutlines[1]

    def test_single_mode_falls_back_to_two_symbols(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(5.0, 1.0, 100)
        modes = mean_shift_modes(samples, 1.2)
        assert len(modes) == 1
        density = DensityModel(samples, KernelKind.GAUSSIAN, 1.2)
        cb = modes_to_codebook(modes, density)
        m = modes.modes[0]
        assert cb.kappa == 2
        np.testing.assert_allclose(cb.cutlines, [m], atol=1e-12)
        np.testing.assert_allclose(cb.centroids, [m - 1.2, m + 1.2], atol=1e-12)
        np.testing.assert_array_equal(cb.modes, modes.modes)


    def test_cutlines_are_exact_density_minima(self):
        rng = np.random.default_rng(12)
        samples = np.concatenate([rng.normal(-2.0, 0.5, 300), rng.normal(1.0, 0.4, 200), [9.0]])
        h = bandwidth_gradient(KernelKind.GAUSSIAN, float(np.std(samples)), samples.size)
        cb = modes_to_codebook(mean_shift_modes(samples, h), DensityModel(samples, KernelKind.GAUSSIAN, h))
        assert cb.kappa == 3
        for cut in cb.cutlines:
            assert abs(naive_shift(samples, h, cut)) < 1e-9 * h
            assert naive_curvature_sign(samples, h, cut) > 0.0

    def test_needs_the_gaussian_kde(self):
        samples = np.array([0.0, 0.1, 3.0, 3.1])
        modes = mean_shift_modes(samples, 0.3)
        with pytest.raises(OutOfRangeError):
            modes_to_codebook(modes, DensityModel(samples, KernelKind.EPANECHNIKOV, 0.3))


class TestMeanShiftCodebook:
    def test_a_pool_with_no_value_change_is_rejected(self):
        for pool in (np.zeros(50), np.full(3, 1.0), np.array([2.5])):
            with pytest.raises(InsufficientDistinctValuesError, match="longer window or pretraining"):
                mean_shift_codebook(pool)
