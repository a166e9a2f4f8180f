"""Quadrature exactness, Gaussian expectations, RNG determinism, and sampling measures."""

import math

import numpy as np
import pytest

from rf_lab import hardness
from rf_lab.hardness import PsiFunction, psi_eval, psi_gaussian_norm, psi_properties_check
from rf_lab.numerics import (
    RandomSource,
    gauss_hermite_rule,
    gauss_legendre_rule,
    gaussian_expectation_1d,
    kink_split_rule,
    uniform_cube,
    unit_sphere,
)


def relu(z):
    return np.maximum(z, 0.0)


def integrate(rule, f):
    """Apply a quadrature rule, a (nodes, weights) pair, to a vectorized scalar function."""
    nodes, weights = rule
    return float(weights @ f(nodes))


def legendre_moment(m):
    # int_{-1}^{1} w^m dw
    return 0.0 if m % 2 else 2.0 / (m + 1)


def gaussian_moment(m):
    # E[z^m] for z ~ N(0,1): (m-1)!! for even m
    if m % 2:
        return 0.0
    out = 1.0
    for k in range(m - 1, 0, -2):
        out *= k
    return out


class TestGaussLegendre:
    def test_order_one_is_midpoint(self):
        nodes, weights = gauss_legendre_rule(1)
        assert nodes == pytest.approx([0.0], abs=1e-15)
        assert weights == pytest.approx([2.0], abs=1e-15)

    def test_order_two_standard_nodes(self):
        nodes, weights = gauss_legendre_rule(2)
        assert sorted(nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert weights == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_quadratic_moment_order_five(self):
        rule = gauss_legendre_rule(5)
        assert integrate(rule, lambda w: w**2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 20, 40])
    def test_exactness_up_to_degree_2n_minus_1(self, order):
        rule = gauss_legendre_rule(order)
        assert abs(rule[1].sum() - 2.0) < 1e-12
        for m in range(2 * order):
            got = integrate(rule, lambda w: w**m)
            exact = legendre_moment(m)
            assert abs(got - exact) / max(1.0, abs(exact)) < 1e-12, (order, m)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    def test_high_order_stays_stable(self):
        rule = gauss_legendre_rule(200)
        assert abs(rule[1].sum() - 2.0) < 1e-11
        assert integrate(rule, lambda w: w**8) == pytest.approx(2.0 / 9.0, rel=1e-12)


class TestGaussHermite:
    def test_order_one(self):
        nodes, weights = gauss_hermite_rule(1)
        assert nodes == pytest.approx([0.0])
        assert weights == pytest.approx([1.0])

    def test_low_moments(self):
        assert integrate(gauss_hermite_rule(2), lambda z: z**2) == pytest.approx(1.0, abs=1e-14)
        assert integrate(gauss_hermite_rule(3), lambda z: z**4) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 11, 20, 35])
    def test_exactness_up_to_degree_2n_minus_1(self, order):
        rule = gauss_hermite_rule(order)
        assert abs(rule[1].sum() - 1.0) < 1e-12
        for m in range(2 * order):
            got = integrate(rule, lambda z: z**m)
            exact = gaussian_moment(m)
            # odd moments vanish by a cancellation of large terms; relative
            # error is measured against the absolute-moment scale
            scale = max(1.0, abs(exact), integrate(rule, lambda z: np.abs(z) ** m))
            assert abs(got - exact) / scale < 1e-12, (order, m)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)


def old_simpson_psi_sq(psi, lo, hi):
    """The per-panel Simpson loop psi_properties_check used before kink_split_rule."""
    cuts = [lo] + [float(c) for c in psi.kinks if lo < c < hi] + [hi]
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        f = psi_eval(psi, np.array([left, mid, right])) ** 2
        total += (right - left) / 6.0 * (f[0] + 4.0 * f[1] + f[2])
    return total


def old_gaussian_panels(func, sigma, order, kinks):
    """The panel loop gaussian_expectation_1d's kinked branch used before kink_split_rule."""
    lim = 40.0 * sigma
    cuts = sorted({-lim, lim, *(float(c) for c in kinks if -lim < c < lim)})
    edges = [cuts[0]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        panels = max(1, math.ceil((b - a) / (2.0 * sigma)))
        edges.extend(a + (b - a) * (i + 1) / panels for i in range(panels))
    cuts = np.asarray(edges)
    nodes, weights = gauss_legendre_rule(order)
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    z = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    dens = np.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(np.sum(w * dens * np.asarray(func(z), dtype=float)))


class TestKinkSplitRule:
    @pytest.mark.parametrize(
        "lo, hi, kinks, max_width",
        [(0.0, 1.0, (), math.inf), (-3.0, 5.5, (0.25, -1.0), 0.7), (-40.0, 40.0, np.arange(-39.0, 40.0, 2.0), 2.0)],
    )
    def test_weights_sum_to_length(self, lo, hi, kinks, max_width):
        _, weights = kink_split_rule(gauss_legendre_rule(5), lo, hi, kinks, max_width)
        assert weights.sum() == pytest.approx(hi - lo, rel=1e-14)

    def test_interior_kinks_are_panel_edges(self):
        lo, hi = -2.0, 3.0
        _, weights = kink_split_rule(gauss_legendre_rule(1), lo, hi, [1.5, -0.5, 1.5])
        edges = lo + np.concatenate(([0.0], np.cumsum(weights)))  # order-1 weights are panel widths
        assert edges == pytest.approx([-2.0, -0.5, 1.5, 3.0], abs=1e-15)

    def test_kinks_on_or_outside_the_interval_are_ignored(self):
        base = gauss_legendre_rule(4)
        plain = kink_split_rule(base, -1.0, 2.0, ())
        for kinks in ([-1.0], [2.0], [-7.0, 2.5], [-1.0, 2.0, 9.0]):
            nodes, weights = kink_split_rule(base, -1.0, 2.0, kinks)
            assert np.array_equal(nodes, plain[0]) and np.array_equal(weights, plain[1]), kinks

    @pytest.mark.parametrize("max_width", [0.3, 1.0, 2.5])
    def test_no_panel_wider_than_max_width(self, max_width):
        _, weights = kink_split_rule(gauss_legendre_rule(1), -4.0, 3.0, [0.1, 2.9], max_width)
        assert np.max(weights) <= max_width * (1 + 1e-14)

    @pytest.mark.parametrize("order", [1, 2, 4, 7])
    def test_exact_for_piecewise_polynomial_of_degree_2n_minus_1(self, order):
        m, kink, lo, hi = 2 * order - 1, 0.3, -1.0, 2.0
        nodes, weights = kink_split_rule(gauss_legendre_rule(order), lo, hi, [kink], max_width=1.25)
        got = weights @ (relu(nodes - kink) ** m + 0.5 * nodes**m)
        exact = (hi - kink) ** (m + 1) / (m + 1) + 0.5 * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("d", [3, 8])
    def test_psi_energy_bit_matches_old_simpson_loop(self, d):
        psi = PsiFunction(d)
        report = psi_properties_check(psi, grid_points=100, norm_order=16)
        # the energies psi_properties_check takes: its Simpson rule split at psi's kinks,
        # on the integer-aligned intervals [n, n + 2] it samples
        a = psi.a
        energies = []
        for n in range(-a, a - 1, max(2, (2 * a - 2) // 40)):
            z, w = kink_split_rule(hardness._SIMPSON, float(n), float(n + 2), psi.kinks)
            energies.append(float(w @ psi_eval(psi, z) ** 2))
            assert energies[-1] == old_simpson_psi_sq(psi, float(n), float(n + 2)), n
        assert report.max_interval_deviation == max(abs(v - 2.0 / 3.0) for v in energies) == 0.0

    @pytest.mark.parametrize("d", [3, 8])
    def test_psi_gaussian_norm_bit_matches_old_panel_loop(self, d):
        psi = PsiFunction(d)
        old = old_gaussian_panels(lambda z: psi_eval(psi, z) ** 2, float(d), 16, psi.kinks)
        assert psi_gaussian_norm(psi, 16) == old


def mean_and_std_error(values):
    """Sample mean and its standard error (sample std / sqrt(n))."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


class TestRidgeIntegrals:
    """E_x[phi(<w, x>)^2] for standard Gaussian x is the 1-D E[phi(z)^2], z ~ N(0, ||w||^2)."""

    def test_identity_norm_is_variance(self):
        assert gaussian_expectation_1d(lambda z: z**2, 1.0, 8, ()) == pytest.approx(1.0, abs=1e-14)

    def test_relu_norm_is_half(self):
        assert gaussian_expectation_1d(lambda z: relu(z) ** 2, 1.0, 16, ()) == pytest.approx(0.5, abs=1e-13)

    def test_constant_is_one_for_any_scale(self):
        assert gaussian_expectation_1d(np.ones_like, 7.0, 4, ()) == pytest.approx(1.0)

    def test_kink_split_matches_closed_forms(self):
        v = gaussian_expectation_1d(lambda z: relu(z) ** 2, 1.0, 16, kinks=[0.0])
        assert v == pytest.approx(0.5, abs=1e-13)
        sigma = 2.5
        v = gaussian_expectation_1d(np.abs, sigma, 16, kinks=[0.0])
        assert v == pytest.approx(sigma * math.sqrt(2 / math.pi), rel=1e-12)

    def test_ridge_reduction_matches_monte_carlo(self):
        # quadrature value of E[relu(<w,x>)^2] vs direct d=8 Monte Carlo
        rng = RandomSource(20240401)
        gen = rng.generator(999)
        d = 8
        for trial in range(20):
            w = gen.standard_normal(d)
            w_norm = float(np.linalg.norm(w))
            quad = gaussian_expectation_1d(lambda z: relu(z) ** 2, w_norm, 40, ())
            X = rng.derive(trial).generator().standard_normal((20000, d))
            mean, std_error = mean_and_std_error(relu(X @ w) ** 2)
            assert abs(mean - quad) < 4 * std_error, trial


class TestRandomSourceAndMC:
    def test_equal_sources_bitwise_identical(self):
        a = RandomSource(seed=42).derive(3).generator().standard_normal((500, 4))
        b = RandomSource(42).derive(3).generator().standard_normal((500, 4))
        assert np.array_equal(a, b)
        # a derived source extends the spawn key: derive(1).generator(2) is generator(1, 2)
        c = RandomSource(42).derive(3).derive(1).generator(2).random(50)
        assert np.array_equal(c, RandomSource(42).derive(3).generator(1, 2).random(50))

    def test_distinct_streams_differ(self):
        a = RandomSource(1).generator().standard_normal(100)
        assert not np.array_equal(a, RandomSource(1).derive(1).generator().standard_normal(100))
        assert not np.array_equal(a, RandomSource(1).derive(0).generator().standard_normal(100))

    @pytest.mark.parametrize("seed, path, subkeys", [(0, (), ()), (7, (3,), (1, 2)), (-1, (2, 5), (0,))])
    def test_spawn_key_starts_with_zero(self, seed, path, subkeys):
        """The streams every output is pinned to: entropy seed mod 2^64, spawn key (0, *path, *subkeys)."""
        ss = np.random.SeedSequence(entropy=seed % (1 << 64), spawn_key=(0, *path, *subkeys))
        expected = np.random.default_rng(ss).random(20)
        assert np.array_equal(RandomSource(seed).derive(*path).generator(*subkeys).random(20), expected)

    def test_cube_coordinate_is_centered(self):
        X = uniform_cube(4, 20000, RandomSource(11).generator())
        mean, std_error = mean_and_std_error(X[:, 0])
        assert abs(mean) < 4 * std_error

    def test_sphere_sampler_norm_exact(self):
        pts = unit_sphere(6, 300, RandomSource(3).generator())
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_cube_support(self):
        d = 9
        pts = uniform_cube(d, 1000, RandomSource(5).generator())
        assert np.all(np.abs(pts) <= 1.0 / math.sqrt(d))
