import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saxkit.density import DensityModel, KernelKind, bandwidth_silverman, kde_cell_moments
from saxkit.discretize import (
    Codebook,
    CodebookMethod,
    gaussian_equiprobable_codebook,
    kmeans_codebook,
    kmeans_pp_init,
    lloyd_max,
    quantize,
    quantizer_distortion,
    reconstruct,
)
from saxkit.errors import (
    AlphabetTooSmallError,
    EmptyCellError,
    InsufficientDistinctValuesError,
    NoConvergenceError,
    OutOfRangeError,
    SymbolOutOfRangeError,
)
from saxkit.harness import generate_synthetic
from saxkit.series import paa


def inverse_normal_cdf(p):
    """Standard-normal quantile by bisection on the erf-based CDF.

    Library-independent oracle: 200 halvings of [-40, 40] pin the answer far
    below any tolerance used here.
    """
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sorted_split_sse(x, edges):
    """Within-cluster squared error of a sorted 1-D partition."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        cell = x[a:b]
        total += float(np.sum((cell - cell.mean()) ** 2))
    return total


def best_two_cluster_sse(x):
    """Brute force over every sorted split; optimal for 1-D two-means."""
    return min(sorted_split_sse(x, [0, cut, x.size]) for cut in range(1, x.size))


# A KDE with one sample at zero and unit bandwidth is exactly the standard
# normal density, which makes optimal-quantizer facts checkable in closed form.
def standard_normal_model():
    return DensityModel(np.array([0.0]), KernelKind.GAUSSIAN, 1.0)


class TestCodebookValidation:
    def test_small_alphabet_rejected(self):
        with pytest.raises(AlphabetTooSmallError):
            Codebook(CodebookMethod.KMEANS, [], [0.0])

    def test_cutline_count_must_match(self):
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [0.0, 1.0], [-1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [np.inf], [-1.0, 1.0])
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [0.0], [-1.0, np.nan])

    def test_must_be_strictly_increasing(self):
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [0.0, 0.0], [-1.0, 0.5, 1.0])
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [0.0], [1.0, 1.0])

    def test_centroid_outside_its_cell_rejected(self):
        # second centroid sits below the first cutline
        with pytest.raises(OutOfRangeError):
            Codebook(CodebookMethod.KMEANS, [0.0, 1.0], [-1.0, -0.5, 2.0])

    def test_arrays_are_read_only(self):
        cb = Codebook(CodebookMethod.KMEANS, [0.0], [-1.0, 1.0])
        with pytest.raises(ValueError):
            cb.cutlines[0] = 5.0
        with pytest.raises(ValueError):
            cb.centroids[0] = 5.0

    def test_equality_ignores_modes(self):
        a = Codebook(CodebookMethod.MEAN_SHIFT, [0.0], [-1.0, 1.0], modes=[-1.0, 1.0])
        b = Codebook(CodebookMethod.MEAN_SHIFT, [0.0], [-1.0, 1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Codebook(CodebookMethod.KMEANS, [0.0], [-1.0, 1.0])

    def test_json_round_trip_is_exact(self):
        cb = gaussian_equiprobable_codebook(7)
        back = Codebook.from_json(cb.to_json())
        assert back == cb
        assert back.digest == cb.digest

    def test_json_keeps_mean_shift_modes(self):
        cb = Codebook(CodebookMethod.MEAN_SHIFT, [0.1], [-2.0, 2.0], modes=[-2.0, 2.0])
        back = Codebook.from_json(cb.to_json())
        np.testing.assert_array_equal(back.modes, cb.modes)

    def test_json_kappa_mismatch_rejected(self):
        payload = json.loads(gaussian_equiprobable_codebook(3).to_json())
        for kappa in (4, 3.5):
            payload["kappa"] = kappa
            with pytest.raises(OutOfRangeError):
                Codebook.from_json(json.dumps(payload))


class TestGaussianEquiprobable:
    def test_quartile_cutlines_match_bisection_oracle(self):
        cb = gaussian_equiprobable_codebook(4)
        expected = [inverse_normal_cdf(p) for p in (0.25, 0.5, 0.75)]
        np.testing.assert_allclose(cb.cutlines, expected, atol=1e-6)
        np.testing.assert_allclose(cb.cutlines, [-0.6744898, 0.0, 0.6744898], atol=1e-6)

    def test_cutlines_match_oracle_for_larger_alphabets(self):
        for kappa in (2, 5, 16):
            cb = gaussian_equiprobable_codebook(kappa)
            expected = [inverse_normal_cdf(i / kappa) for i in range(1, kappa)]
            np.testing.assert_allclose(cb.cutlines, expected, atol=1e-9)

    def test_two_cell_centroids_are_half_normal_means(self):
        cb = gaussian_equiprobable_codebook(2)
        half_normal_mean = math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(
            cb.centroids, [-half_normal_mean, half_normal_mean], atol=1e-12
        )
        np.testing.assert_allclose(cb.centroids, [-0.7978845608, 0.7978845608], atol=1e-9)

    def test_centroids_are_conditional_cell_means(self):
        # quadrature oracle: centroid = E[X | cell] under the standard normal
        cb = gaussian_equiprobable_codebook(6)
        model = standard_normal_model()
        edges = np.concatenate(([-np.inf], cb.cutlines, [np.inf]))
        from saxkit.density import kde_cell_moments

        mass, first, _ = kde_cell_moments(model, edges)
        np.testing.assert_allclose(mass, 1.0 / 6.0, atol=1e-12)
        np.testing.assert_allclose(cb.centroids, first / mass, atol=1e-12)

    def test_symmetry(self):
        cb = gaussian_equiprobable_codebook(9)
        np.testing.assert_allclose(cb.cutlines, -cb.cutlines[::-1], atol=1e-12)
        np.testing.assert_allclose(cb.centroids, -cb.centroids[::-1], atol=1e-12)

    def test_alphabet_bounds(self):
        with pytest.raises(AlphabetTooSmallError):
            gaussian_equiprobable_codebook(1)
        with pytest.raises(OutOfRangeError):
            gaussian_equiprobable_codebook(2**16 + 1)


class TestKmeansInit:
    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        a = kmeans_pp_init(x, 5, seed=42)
        b = kmeans_pp_init(x, 5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_picks_are_distinct_samples(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        picks = kmeans_pp_init(x, 8, seed=0)
        assert np.unique(picks).size == 8
        assert all(p in x for p in picks)

    def test_too_few_distinct_values(self):
        with pytest.raises(InsufficientDistinctValuesError):
            kmeans_pp_init([1.0, 1.0, 2.0], 3, seed=0)

    def test_spread_starts_on_separated_clumps(self):
        # D^2 weighting should land one start in each far-apart clump
        x = np.concatenate([np.zeros(50) + np.arange(50) * 1e-3, 100.0 + np.arange(50) * 1e-3])
        picks = kmeans_pp_init(x, 2, seed=1)
        assert min(picks) < 1.0 and max(picks) > 99.0


class TestKmeansCodebook:
    def test_fixpoint_self_consistency(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=500)
        cb = kmeans_codebook(x, 4, seed=0)
        labels = quantize(cb, x)
        for cell in range(4):
            np.testing.assert_allclose(cb.centroids[cell], x[labels == cell].mean(), atol=1e-9)
        np.testing.assert_allclose(
            cb.cutlines, 0.5 * (cb.centroids[:-1] + cb.centroids[1:]), atol=1e-12
        )

    def test_matches_brute_force_on_separated_bimodal(self):
        rng = np.random.default_rng(11)
        x = np.sort(np.concatenate([rng.normal(-5, 1, 60), rng.normal(5, 1, 60)]))
        cb = kmeans_codebook(x, 2, seed=0)
        labels = quantize(cb, x)
        sse = sum(np.sum((x[labels == c] - cb.centroids[c]) ** 2) for c in range(2))
        np.testing.assert_allclose(sse, best_two_cluster_sse(x), rtol=1e-12)

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=300)
        assert kmeans_codebook(x, 6, seed=5) == kmeans_codebook(x, 6, seed=5)

    def test_small_alphabet_rejected(self):
        with pytest.raises(AlphabetTooSmallError):
            kmeans_codebook([1.0, 2.0, 3.0], 1, seed=0)


class TestLloydMax:
    def test_exact_standard_normal_two_cells(self):
        model = standard_normal_model()
        cb, report = lloyd_max(model, 2, init=[-0.5, 0.5])
        half_normal_mean = math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(
            cb.centroids, [-half_normal_mean, half_normal_mean], atol=1e-9
        )
        np.testing.assert_allclose(cb.cutlines, [0.0], atol=1e-9)
        assert report.final_update < 1e-8
        assert report.reseeds == 0

    def test_distortion_history_non_increasing(self):
        model = standard_normal_model()
        _, report = lloyd_max(model, 4, init=[-2.0, -0.1, 0.2, 3.0])
        history = np.asarray(report.distortion_history)
        assert history.size >= 2
        assert np.all(np.diff(history) <= 1e-12)
        np.testing.assert_allclose(history[-1], report.distortion, rtol=1e-12)

    def test_beats_equiprobable_on_distortion(self):
        # the fitted quantizer is MSE-optimal for the density, so it must not
        # lose to the fixed equal-mass codebook
        model = standard_normal_model()
        cb, _ = lloyd_max(model, 4, init=[-1.5, -0.5, 0.5, 1.5])
        fixed = gaussian_equiprobable_codebook(4)
        assert quantizer_distortion(model, cb) < quantizer_distortion(model, fixed)

    def test_distortion_matches_independent_quadrature(self):
        from test_density import quad_integral

        rng = np.random.default_rng(2)
        model = DensityModel(rng.normal(size=40), KernelKind.EPANECHNIKOV, 0.6)
        cb, _ = lloyd_max(model, 3, init=[-1.0, 0.0, 1.0])
        lo = model.samples.min() - model.support_radius
        hi = model.samples.max() + model.support_radius
        edges = np.concatenate(([lo], cb.cutlines, [hi]))
        expected = sum(
            quad_integral(model, a, b, 2)
            - 2.0 * c * quad_integral(model, a, b, 1)
            + c**2 * quad_integral(model, a, b, 0)
            for a, b, c in zip(edges[:-1], edges[1:], cb.centroids)
        )
        np.testing.assert_allclose(quantizer_distortion(model, cb), expected, atol=1e-8)

    def test_reseeds_a_massless_cell(self):
        model = standard_normal_model()
        cb, report = lloyd_max(model, 3, init=[-1.0, 0.0, 60.0])
        assert report.reseeds == 1
        assert cb.centroids[-1] < 10.0

    def test_second_empty_cell_raises(self):
        model = standard_normal_model()
        with pytest.raises(EmptyCellError):
            lloyd_max(model, 4, init=[-201.0, -200.0, 200.0, 201.0])

    def test_no_convergence_carries_partial_result(self):
        model = standard_normal_model()
        with pytest.raises(NoConvergenceError) as info:
            lloyd_max(model, 4, init=[-2.0, -0.1, 0.2, 3.0], max_iter=2)
        cb, report = info.value.partial
        assert isinstance(cb, Codebook)
        assert report.iterations == 2
        assert report.final_update >= 1e-8

    def test_many_cells_reach_the_fixed_point_in_few_iterations(self):
        # plain Lloyd needs over a thousand sweeps on this pool and still
        # stops ~1e-8 short of the fixed point; the Newton step gets there
        means = paa(generate_synthetic("ar1", 64_000, seed=41, phi=0.8), 4000).values
        h = bandwidth_silverman(KernelKind.EPANECHNIKOV, float(np.std(means)), means.size)
        model = DensityModel(means, KernelKind.EPANECHNIKOV, h)
        init = np.sort(kmeans_pp_init(means, 16, seed=0))
        cb, report = lloyd_max(model, 16, init)
        assert report.iterations <= 20
        edges = np.concatenate(([-np.inf], cb.cutlines, [np.inf]))
        mass, first, _ = kde_cell_moments(model, edges)
        assert np.max(np.abs(first / mass - cb.centroids)) <= 1e-12
        assert np.all(np.diff(report.distortion_history) <= 1e-12)

    def test_init_validation(self):
        model = standard_normal_model()
        with pytest.raises(OutOfRangeError):
            lloyd_max(model, 3, init=[0.0, 0.0, 1.0])
        with pytest.raises(OutOfRangeError):
            lloyd_max(model, 2, init=[0.0, 1.0], max_iter=0)
        with pytest.raises(AlphabetTooSmallError):
            lloyd_max(model, 1, init=[0.0])


class TestQuantizeReconstruct:
    def test_cutline_values_go_to_the_upper_cell(self):
        cb = Codebook(CodebookMethod.KMEANS, [0.0, 1.0], [-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(quantize(cb, [-0.1, 0.0, 0.9, 1.0, 5.0]), [0, 1, 1, 2, 2])

    def test_scalar_in_scalar_out(self):
        cb = gaussian_equiprobable_codebook(4)
        sym = quantize(cb, 0.1)
        assert isinstance(sym, int)
        assert isinstance(reconstruct(cb, sym), float)

    def test_outer_cells_are_unbounded(self):
        cb = gaussian_equiprobable_codebook(4)
        assert quantize(cb, -1e12) == 0
        assert quantize(cb, 1e12) == 3

    def test_round_trip_lands_in_the_same_cell(self):
        cb = gaussian_equiprobable_codebook(8)
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        symbols = quantize(cb, values)
        np.testing.assert_array_equal(quantize(cb, reconstruct(cb, symbols)), symbols)

    def test_non_finite_values_rejected(self):
        cb = gaussian_equiprobable_codebook(4)
        with pytest.raises(OutOfRangeError):
            quantize(cb, [0.0, np.nan])

    def test_bad_symbols_rejected(self):
        cb = gaussian_equiprobable_codebook(4)
        with pytest.raises(SymbolOutOfRangeError):
            reconstruct(cb, [0, 4])
        with pytest.raises(SymbolOutOfRangeError):
            reconstruct(cb, [0.5])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_reconstruction_stays_in_cell(self, value):
        cb = gaussian_equiprobable_codebook(6)
        sym = quantize(cb, value)
        lo = -np.inf if sym == 0 else cb.cutlines[sym - 1]
        hi = np.inf if sym == cb.kappa - 1 else cb.cutlines[sym]
        assert lo <= reconstruct(cb, sym) < hi
