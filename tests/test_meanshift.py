import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saxkit.density import DensityModel, KernelKind, bandwidth_gradient
from saxkit.discretize import CodebookMethod
from saxkit.errors import (
    NoConvergenceError,
    NonPositiveScaleError,
    OutOfRangeError,
    TooShortError,
)
from saxkit.meanshift import (
    ModeSet,
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

