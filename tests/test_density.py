import math

import numpy as np
import pytest
from scipy.integrate import quad

from saxkit.density import (
    GRADIENT_CONSTANT,
    SILVERMAN_CONSTANT,
    DensityModel,
    KernelKind,
    bandwidth_gradient,
    bandwidth_silverman,
    kde_cdf,
    kde_cell_moments,
    kernel_eval,
)
from saxkit.errors import NonPositiveScaleError, OutOfRangeError, TooShortError

EPA = KernelKind.EPANECHNIKOV
GAU = KernelKind.GAUSSIAN


def naive_pdf(samples, kind, h, x):
    """Independent KDE oracle: plain sum of kernel bumps."""
    return sum(kernel_eval(kind, (x - s) / h) for s in samples) / (len(samples) * h)


def quad_integral(model, a, b, moment=0):
    """Adaptive-quadrature oracle for cell moments of a KDE.

    Compact-support kernels kink the integrand at every bump edge, so the
    edges inside (a, b) are handed to quad as split points.
    """
    knots = np.concatenate(
        [model.samples - model.support_radius, model.samples + model.support_radius]
    )
    knots = np.unique(knots[(knots > a) & (knots < b)])
    value, err = quad(
        lambda x: x**moment * model.pdf(x), a, b, points=knots.tolist(), limit=500
    )
    assert err < 1e-9
    return value


class TestBandwidthConstants:
    def test_density_rule_constants(self):
        assert SILVERMAN_CONSTANT["epanechnikov"] == 2.3449
        assert SILVERMAN_CONSTANT["gaussian"] == 1.0492

    def test_gradient_rule_constants(self):
        assert GRADIENT_CONSTANT["epanechnikov"] == 1.5232
        assert GRADIENT_CONSTANT["gaussian"] == 0.9686

    def test_unit_inputs_return_the_constants(self):
        assert bandwidth_silverman(EPA, 1.0, 1) == 2.3449
        assert bandwidth_silverman(GAU, 1.0, 1) == 1.0492
        assert bandwidth_gradient(EPA, 1.0, 1) == 1.5232
        assert bandwidth_gradient(GAU, 1.0, 1) == 0.9686

    def test_decay_exponents(self):
        assert bandwidth_silverman(EPA, 2.0, 32) == pytest.approx(
            2.3449 * 2.0 * 32 ** (-0.2), rel=1e-15
        )
        assert bandwidth_gradient(GAU, 0.5, 128) == pytest.approx(
            0.9686 * 0.5 * 128 ** (-1.0 / 7.0), rel=1e-15
        )

    def test_monotone_in_n(self):
        assert bandwidth_silverman(EPA, 1.0, 100) > bandwidth_silverman(EPA, 1.0, 1000)

    def test_bad_args(self):
        with pytest.raises(NonPositiveScaleError):
            bandwidth_silverman(EPA, 0.0, 10)
        with pytest.raises(NonPositiveScaleError):
            bandwidth_gradient(GAU, -1.0, 10)
        with pytest.raises(TooShortError):
            bandwidth_silverman(GAU, 1.0, 0)


class TestKernels:
    def test_epanechnikov_point_values(self):
        assert kernel_eval(EPA, 0.0) == pytest.approx(3.0 / (4.0 * math.sqrt(5.0)), abs=0)
        assert kernel_eval(EPA, 1.0) == pytest.approx(0.2683281572999748, abs=1e-15)
        assert kernel_eval(EPA, math.sqrt(5.0)) == 0.0
        assert kernel_eval(EPA, 3.0) == 0.0

    def test_gaussian_point_values(self):
        assert kernel_eval(GAU, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0)
        assert kernel_eval(GAU, 1.0) == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_symmetry(self):
        u = np.linspace(0.0, 3.0, 50)
        for kind in (EPA, GAU):
            np.testing.assert_allclose(kernel_eval(kind, u), kernel_eval(kind, -u))

    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_unit_mass_zero_mean_unit_variance(self, kind):
        # quadrature oracle for the standardized kernel moments
        mass, _ = quad(lambda u: kernel_eval(kind, u), -12, 12)
        mean, _ = quad(lambda u: u * kernel_eval(kind, u), -12, 12)
        var, _ = quad(lambda u: u * u * kernel_eval(kind, u), -12, 12)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.0, abs=1e-8)


class TestDensityModel:
    def test_validation(self):
        with pytest.raises(TooShortError):
            DensityModel(np.array([]), GAU, 1.0)
        with pytest.raises(OutOfRangeError):
            DensityModel(np.array([1.0, np.nan]), GAU, 1.0)
        with pytest.raises(NonPositiveScaleError):
            DensityModel(np.array([1.0]), GAU, 0.0)

    def test_support_radius(self):
        m = DensityModel(np.array([0.0]), EPA, 2.0)
        assert m.support_radius == pytest.approx(2.0 * math.sqrt(5.0))
        assert m.pdf(m.support_radius + 1e-9) == 0.0

    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_pdf_matches_naive_sum(self, kind):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(37)
        model = DensityModel(samples, kind, 0.4)
        for x in (-2.5, -0.3, 0.0, 1.7, 4.0):
            assert model.pdf(x) == pytest.approx(naive_pdf(samples, kind, 0.4, x), abs=1e-13)

    def test_pdf_vector_and_scalar_agree(self):
        model = DensityModel(np.array([0.0, 1.0, 3.0]), EPA, 1.0)
        xs = np.array([-1.0, 0.5, 2.0])
        vec = model.pdf(xs)
        np.testing.assert_allclose(vec, [model.pdf(float(x)) for x in xs])

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        model = DensityModel(rng.standard_normal(100), EPA, 0.3)
        xs = np.linspace(-30, 30, 401)
        assert np.all(model.pdf(xs) >= 0.0)

    def test_windowed_path_matches_naive(self):
        # n * points > 4e6 forces the sorted block evaluation
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(6000)
        model = DensityModel(samples, GAU, 0.25)
        xs = rng.uniform(-4, 4, 1000)
        out = model.pdf(xs)
        for i in rng.choice(1000, 8, replace=False):
            assert out[i] == pytest.approx(naive_pdf(samples, GAU, 0.25, xs[i]), abs=1e-12)

    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_total_mass_one(self, kind):
        rng = np.random.default_rng(3)
        model = DensityModel(rng.normal(2.0, 1.5, 40), kind, 0.7)
        lo = model.samples.min() - model.support_radius
        hi = model.samples.max() + model.support_radius
        assert quad_integral(model, lo, hi) == pytest.approx(1.0, abs=1e-6)


class TestKdeCdf:
    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_matches_quadrature(self, kind):
        rng = np.random.default_rng(4)
        model = DensityModel(rng.standard_normal(25), kind, 0.5)
        for a, b in [(-1.0, 1.0), (-3.0, -0.5), (0.2, 4.0)]:
            assert kde_cdf(model, a, b) == pytest.approx(quad_integral(model, a, b), abs=1e-8)

    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_full_line_is_one(self, kind):
        rng = np.random.default_rng(5)
        model = DensityModel(rng.normal(-1.0, 2.0, 30), kind, 0.8)
        assert kde_cdf(model, -np.inf, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        model = DensityModel(np.array([0.0]), GAU, 1.0)
        assert kde_cdf(model, 1.0, 1.0) == 0.0

    def test_endpoint_order_checked(self):
        model = DensityModel(np.array([0.0]), GAU, 1.0)
        with pytest.raises(OutOfRangeError):
            kde_cdf(model, 1.0, -1.0)

    def test_additivity(self):
        model = DensityModel(np.array([0.0, 1.0, 2.0]), EPA, 0.6)
        whole = kde_cdf(model, -2.0, 4.0)
        parts = kde_cdf(model, -2.0, 0.7) + kde_cdf(model, 0.7, 4.0)
        assert whole == pytest.approx(parts, abs=1e-14)


class TestKdeCellMoments:
    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_against_quadrature(self, kind):
        rng = np.random.default_rng(6)
        model = DensityModel(rng.standard_normal(20), kind, 0.45)
        edges = np.array([-np.inf, -1.2, -0.1, 0.8, np.inf])
        mass, first, second = kde_cell_moments(model, edges)
        finite = [-9.0, -1.2, -0.1, 0.8, 9.0]  # wide stand-ins for the infinities
        for i in range(4):
            a, b = finite[i], finite[i + 1]
            assert mass[i] == pytest.approx(quad_integral(model, a, b, 0), abs=1e-8)
            assert first[i] == pytest.approx(quad_integral(model, a, b, 1), abs=1e-8)
            assert second[i] == pytest.approx(quad_integral(model, a, b, 2), abs=1e-7)

    @pytest.mark.parametrize("kind", [EPA, GAU])
    def test_totals(self, kind):
        rng = np.random.default_rng(7)
        samples = rng.normal(1.0, 2.0, 50)
        h = 0.6
        model = DensityModel(samples, kind, h)
        edges = np.array([-np.inf, -2.0, 0.5, 3.0, np.inf])
        mass, first, second = kde_cell_moments(model, edges)
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        # smoothing preserves the mean and adds h^2 (unit-variance kernels)
        assert first.sum() == pytest.approx(samples.mean(), abs=1e-10)
        assert second.sum() == pytest.approx(np.mean(samples**2) + h * h, abs=1e-9)

    def test_mass_agrees_with_cdf(self):
        model = DensityModel(np.array([-1.0, 0.0, 2.0]), GAU, 0.9)
        edges = np.array([-4.0, -0.5, 1.0, 5.0])
        mass, _, _ = kde_cell_moments(model, edges)
        for i in range(3):
            assert mass[i] == pytest.approx(kde_cdf(model, edges[i], edges[i + 1]), abs=1e-14)

    def test_bad_edges(self):
        model = DensityModel(np.array([0.0]), GAU, 1.0)
        with pytest.raises(OutOfRangeError):
            kde_cell_moments(model, [0.0])
        with pytest.raises(OutOfRangeError):
            kde_cell_moments(model, [1.0, 0.0])
