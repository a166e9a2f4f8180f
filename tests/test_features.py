"""Feature samples, blocked prediction, the averaged approximant, and the least-squares fitter."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rf_lab import features
from rf_lab.features import (
    PREDICT_CELLS,
    PREDICT_ROW_GROUP,
    FeatureSample,
    concentration_experiment,
    feature_matrix,
    gaussian_row_blocks,
    least_squares_fit,
    predict,
    predict_block_rows,
    relu,
    row_blocks,
)
from rf_lab.legendre import MultiIndex, build_monomial_table
from rf_lab.numerics import (
    RandomSource,
    uniform_ball,
    uniform_cube,
    unit_sphere,
)
from rf_lab.poly_repr import (
    LegendreExpansion,
    SparsePolynomial,
    construct_g,
    eval_g,
    integral_feature_expectation,
    max_abs_g,
)


def identity(z, out=None):
    return np.positive(z, out=out)


def draw(activation, weight_dist, d, r, rng):
    """A feature sample whose r weights ``weight_dist`` draws from rng's generator."""
    return FeatureSample(activation, weight_dist(d, r, rng.generator()))


class TestSampling:
    def test_cube_support(self):
        d = 9
        sample = draw(relu, uniform_cube, d, 100, RandomSource(1))
        assert np.all(np.abs(sample.weights) <= 1.0 / 3.0)
        assert (sample.r, sample.d) == (100, d)

    def test_sphere_support(self):
        sample = draw(relu, unit_sphere, 5, 50, RandomSource(2))
        norms = np.linalg.norm(sample.weights, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_fixed_seed_reproducible(self):
        a = draw(relu, uniform_cube, 4, 10, RandomSource(3, 1))
        b = draw(relu, uniform_cube, 4, 10, RandomSource(3, 1))
        assert np.array_equal(a.weights, b.weights)

    def test_nested_prefix_property(self):
        small = draw(relu, uniform_cube, 4, 10, RandomSource(3, 1))
        big = draw(relu, uniform_cube, 4, 30, RandomSource(3, 1))
        assert np.array_equal(big.weights[:10], small.weights)

    def test_weights_are_read_only(self):
        sample = draw(relu, uniform_cube, 2, 3, RandomSource(4))
        with pytest.raises(ValueError):
            sample.weights[0, 0] = 1.0


class TestFeatureMatrix:
    def test_identity_ridge_is_linear_form(self):
        sample = draw(identity, uniform_cube, 3, 5, RandomSource(4))
        X = uniform_ball(3, 7, RandomSource(5).generator())
        assert np.allclose(feature_matrix(sample, X), X @ sample.weights.T)

    def test_relu_at_origin_is_zero(self):
        sample = draw(relu, uniform_cube, 3, 1, RandomSource(6))
        assert feature_matrix(sample, np.zeros((1, 3))) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        sample = draw(relu, uniform_cube, 3, 2, RandomSource(9))
        with pytest.raises(ValueError):
            feature_matrix(sample, np.zeros((1, 4)))

    @pytest.mark.parametrize("activation", [relu, np.exp], ids=["relu", "exp"])
    def test_in_place_activation_gives_the_same_bits(self, activation):
        sample = draw(activation, uniform_cube, 3, 37, RandomSource(7))
        X = 2.0 * uniform_ball(3, 101, RandomSource(8).generator())
        expected = activation(X @ sample.weights.T)
        assert np.array_equal(feature_matrix(sample, X), expected)
        buf = np.full((120, 37), np.nan)
        F = feature_matrix(sample, X, out=buf[7:108])
        assert F.shape == (101, 37) and np.shares_memory(F, buf)
        assert np.array_equal(F, expected)
        assert np.isnan(buf[:7]).all() and np.isnan(buf[108:]).all()


@pytest.fixture(scope="module")
def g():
    P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
    return construct_g(P, build_monomial_table(4))


def averaged_weights(g, sample):
    """The averaged approximant's coefficients u_i = g(w_i) / r."""
    return eval_g(g, sample.weights) / sample.r


class TestApproximant:
    def test_constant_g_gives_uniform_weights(self):
        g = LegendreExpansion(2, {MultiIndex((0, 0)): 4.5})
        sample = draw(np.exp, uniform_cube, 2, 8, RandomSource(10))
        assert np.allclose(averaged_weights(g, sample), 4.5 / 8)

    def test_single_feature_weight(self, g):
        sample = draw(np.exp, uniform_cube, 2, 1, RandomSource(11))
        u = averaged_weights(g, sample)
        assert u[0] == pytest.approx(float(eval_g(g, sample.weights[0])))

    def test_weight_bound_exact(self, g):
        rng = RandomSource(13)
        c = max_abs_g(g, 10_000, rng.derive(0))
        for trial in range(5):
            sample = draw(np.exp, uniform_cube, 2, 64, rng.derive(trial))
            u = averaged_weights(g, sample)
            c = max(c, float(np.max(np.abs(eval_g(g, sample.weights)))))
            assert np.all(np.abs(u) <= c / 64 + 0.0)

    def test_resampling_mean_matches_integral(self, g):
        # oracle: quadrature value of the feature expectation at fixed probes
        rng = RandomSource(14)
        probes = uniform_ball(2, 5, rng.generator(999))
        f_vals = integral_feature_expectation(g, np.exp, probes, 8)
        preds = np.zeros((200, 5))
        for t in range(200):
            sample = draw(np.exp, uniform_cube, 2, 64, rng.derive(t))
            preds[t] = predict(sample, averaged_weights(g, sample), probes)
        mean = preds.mean(axis=0)
        se = preds.std(axis=0, ddof=1) / math.sqrt(200)
        assert np.all(np.abs(mean - f_vals) < 4 * se + 1e-12)


def predict_reference(sample, u, X):
    """Unblocked prediction: the whole feature matrix at once."""
    return feature_matrix(sample, X) @ u


def per_block_predict(sample, u, X):
    """predict with a fresh feature matrix and product per ``row_blocks`` block."""
    out = np.empty((len(X),) + u.shape[1:])
    for start, stop in row_blocks(len(X), sample.r):
        out[start:stop] = sample.activation(X[start:stop] @ sample.weights.T) @ u
    return out


# the paper's two families: cube-sampled exp and unit-sphere ReLU features
BLOCK_FAMILIES = {
    "ridge_exp": (np.exp, uniform_cube),
    "ridge_relu": (relu, unit_sphere),
}


class TestBlockedPredict:
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("r, d", [(64, 2), (96, 3), (1000, 2)])
    def test_equals_unblocked_product(self, family, r, d):
        sample = draw(*BLOCK_FAMILIES[family], d, r, RandomSource(50))
        block = predict_block_rows(sample.r)
        assert block % PREDICT_ROW_GROUP == 0 and block * sample.r <= PREDICT_CELLS
        u = RandomSource(51).generator().standard_normal(sample.r)
        for m in (1, block - 1, block, block + 1, 2 * block + 1, 2000):
            X = uniform_ball(d, m, RandomSource(52, m).generator())
            assert np.array_equal(predict(sample, u, X), predict_reference(sample, u, X)), m

    def test_more_features_than_block_cells(self):
        # one row group per block; a one-product reference over more rows would
        # itself depend on how a threaded BLAS splits such wide rows
        sample = draw(np.exp, uniform_cube, 2, PREDICT_CELLS + 3, RandomSource(53))
        assert predict_block_rows(sample.r) == PREDICT_ROW_GROUP
        u = RandomSource(54).generator().standard_normal(sample.r) / sample.r
        for m in (1, 3, 5, 8):
            X = uniform_ball(2, m, RandomSource(55, m).generator())
            assert np.array_equal(predict(sample, u, X), predict_reference(sample, u, X)), m

    def test_column_weights(self):
        # (p, k) weights go through GEMM, whose summation order depends on the
        # block's shape: blocks agree with one product to within the dot-product
        # rounding bound 2 p eps sum_i |f_i u_i|, not bit for bit
        p = 256
        sample = draw(relu, uniform_cube, 4, p, RandomSource(56))
        u = RandomSource(57).generator().standard_normal((p, 3))
        X = uniform_ball(4, 2000, RandomSource(58).generator())
        pred = predict(sample, u, X)
        assert pred.shape == (2000, 3)
        bound = 2 * p * np.finfo(float).eps * (np.abs(feature_matrix(sample, X)) @ np.abs(u))
        assert np.all(np.abs(pred - predict_reference(sample, u, X)) <= bound)
        first = predict(sample, u, X[:1])
        assert first.shape == (1, 3) and np.all(np.abs(first - pred[:1]) <= bound[:1])

    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("r, k", [(64, None), (1000, None), (PREDICT_CELLS // 4 + 1, None), (96, 3)])
    def test_equals_fresh_matrices_per_block(self, family, r, k):
        # n = rows + 1 and 3 rows + 1 end in a lone row, which joins the block
        # before it: a block of rows + 1
        sample = draw(*BLOCK_FAMILIES[family], 2, r, RandomSource(60))
        u = RandomSource(61).generator().standard_normal((r, k) if k else r)
        rows = predict_block_rows(r)
        for m in (1, 2, 3, rows + 1, 3 * rows + 1):
            X = uniform_ball(2, m, RandomSource(62, m).generator())
            assert np.array_equal(predict(sample, u, X), per_block_predict(sample, u, X)), m

    def test_single_point_and_weight_mismatch(self):
        sample = draw(relu, uniform_cube, 2, 3, RandomSource(59))
        u = np.array([0.5, -1.0, 2.0])
        x = np.array([0.25, -0.5])
        assert np.array_equal(predict(sample, u, x), predict_reference(sample, u, x))
        with pytest.raises(ValueError):
            predict(sample, np.ones(4), x)

    def test_concentration_never_builds_a_larger_block(self, monkeypatch):
        sizes = []
        unblocked = features.feature_matrix

        def recording(sample, X, out=None):
            F = unblocked(sample, X, out=out)
            sizes.append(F.size)
            return F

        monkeypatch.setattr(features, "feature_matrix", recording)
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
        concentration_experiment(P, [64, 1024, 4096], trials=2, probes=300, rng=RandomSource(60))
        assert len(sizes) == 2 * (1 + 5 + 19)
        assert max(sizes) <= PREDICT_CELLS


class TestSupError:
    """A concentration cell's sup error, against targets built from its own draw."""

    @staticmethod
    def cell_prediction(g, probes, rng, r):
        # the cell (ri, r, t) = (0, r, 0) draws its weights from rng.derive(1, 0, 0)
        sample = draw(np.exp, uniform_cube, 2, r, rng.derive(1, 0, 0))
        return predict(sample, averaged_weights(g, sample), probes)

    def test_zero_against_self(self, g):
        rng = RandomSource(15)
        probes = uniform_ball(2, 50, RandomSource(16).generator())
        own = self.cell_prediction(g, probes, rng, 3)
        row, _ = features._concentration_cell(g, probes, own, rng, (0, 3, 0))
        assert row[2] == 0.0

    def test_constant_shift(self, g):
        rng = RandomSource(17)
        probes = uniform_ball(2, 50, RandomSource(18).generator())
        shifted = self.cell_prediction(g, probes, rng, 3) + 0.25
        row, _ = features._concentration_cell(g, probes, shifted, rng, (0, 3, 0))
        assert row[2] == pytest.approx(0.25)


class TestLeastSquares:
    def test_realizable_target_recovered(self):
        sample = draw(relu, unit_sphere, 10, 20, RandomSource(21))
        target = lambda X, F: 2.0 * F[:, 0]  # noqa: E731
        u, err, max_u, _ = least_squares_fit(sample, target, 400, RandomSource(22))
        assert err < 1e-6
        expected = np.zeros(20)
        expected[0] = 2.0
        assert np.allclose(u, expected, atol=1e-4)
        assert max_u == pytest.approx(2.0, abs=1e-4)

    def test_orthogonal_target_error_is_target_norm(self):
        # constant target vs odd (linear) features: best fit is u = 0
        sample = draw(identity, unit_sphere, 6, 10, RandomSource(23))
        target = lambda X, F: np.ones(len(X))  # noqa: E731
        _, err, _, _ = least_squares_fit(sample, target, 2000, RandomSource(24))
        assert err == pytest.approx(1.0, abs=0.1)

    def test_relu_features_beat_zero_predictor_on_neuron(self):
        d = 10
        sample = draw(relu, unit_sphere, d, 20, RandomSource(25))
        w_star = np.zeros(d)
        w_star[0] = 1.0
        target = lambda X, F: np.maximum(X @ w_star, 0.0)  # noqa: E731
        _, err, _, _ = least_squares_fit(sample, target, 2000, RandomSource(26))
        assert err < 0.5  # zero predictor has error ||target||^2 = 1/2

    def test_fit_is_a_local_minimum_of_training_objective(self):
        sample = draw(relu, unit_sphere, 5, 12, RandomSource(27))
        target = lambda X, F: np.sin(X[:, 0])  # noqa: E731
        n_train = 300
        u, _, _, _ = least_squares_fit(sample, target, n_train, RandomSource(28))
        X = RandomSource(28).generator(0).standard_normal((n_train, 5))
        F = feature_matrix(sample, X)
        y = target(X, F)
        lam = 1e-10 * float(np.trace(F.T @ F)) / sample.r  # the fit's own ridge term

        def objective(v):
            resid = F @ v - y
            return float(resid @ resid + lam * (v @ v))

        base = objective(u)
        gen = RandomSource(29).generator()
        for _ in range(20):
            direction = gen.standard_normal(12)
            direction /= np.linalg.norm(direction)
            for s in (1e-3, -1e-3):
                assert objective(u + s * direction) >= base

    def test_training_error_monotone_in_nested_r(self):
        fam = (relu, unit_sphere)
        target = lambda X, F: np.tanh(X @ np.arange(1.0, 6.0))  # noqa: E731
        X = RandomSource(31).generator(0).standard_normal((500, 5))
        y = target(X, None)
        prev = np.inf
        for r in (5, 10, 20, 40):
            sample = draw(*fam, 5, r, RandomSource(30, 2))
            u, _, _, _ = least_squares_fit(sample, target, 500, RandomSource(31))
            train_err = float(np.mean((predict(sample, u, X) - y) ** 2))
            assert train_err <= prev + 1e-12
            prev = train_err

    def test_columns_fitted_together_match_fits_alone(self):
        sample = draw(relu, unit_sphere, 4, 30, RandomSource(34))
        w = np.array([1.0, -2.0, 0.5, 0.0])

        def targets(X, F):
            # realizable, smooth, a neuron, and a neuron dead on every draw
            return np.column_stack([F[:, 3], np.sin(X @ w), np.maximum(X[:, 0] - 0.5, 0.0),
                                    np.maximum(X[:, 0] - 100.0, 0.0)])

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u, errs, max_u, norms = least_squares_fit(sample, targets, 800, RandomSource(35))
        assert u.shape == (30, 4)
        assert norms[3] == 0.0 and errs[3] == 0.0 and max_u[3] == 0.0
        for j in range(4):
            alone, err, mu, norm = least_squares_fit(
                sample, lambda X, F: targets(X, F)[:, j], 800, RandomSource(35))
            scale = np.linalg.norm(alone)
            assert np.linalg.norm(u[:, j] - alone) <= 1e-10 * scale
            assert max_u[j] == pytest.approx(mu, rel=1e-10)
            assert norms[j] == pytest.approx(norm, rel=1e-12)
            if norm > 0.0:
                assert abs(errs[j] / norms[j] - err / norm) <= 1e-10


def whole_training_residual(sample, target, n_train, rng, u):
    """The exact normal-equation residual (G + lambda I) u - F^T y at the weights u.

    F, y are the whole n_train x p training matrix and targets, on the fit's
    training draw; the residual is computed in long double as
    F^T (F u - y) + lambda u, with lambda = 1e-10 tr(G) / p, and returned as
    float64 with ``(|F|^T (|F| |u| + |y|) + lambda |u|, lambda)``: the
    magnitudes its rounding bound scales.
    """
    X = rng.generator(0).standard_normal((n_train, sample.d))
    F = feature_matrix(sample, X)
    y = np.asarray(target(X, F), dtype=float)
    F_l, y_l, u_l = (a.astype(np.longdouble) for a in (F, y, u))
    lam = np.longdouble(1e-10) * np.sum(np.square(F_l)) / sample.r
    residual = F_l.T @ (F_l @ u_l - y_l) + lam * u_l
    scale = np.abs(F_l).T @ (np.abs(F_l) @ np.abs(u_l) + np.abs(y_l)) + lam * np.abs(u_l)
    return residual.astype(float), scale.astype(float), float(lam)


def whole_held_out(sample, target, n_train, rng, u):
    """Predictions at the weights u, target values and features on the whole held-out draw."""
    Xh = rng.generator(1).standard_normal((10 * n_train, sample.d))
    F_h = feature_matrix(sample, Xh)
    return F_h @ u, np.asarray(target(Xh, F_h), dtype=float), F_h


def assert_fit_within_rounding(sample, target, n_train, seed):
    """least_squares_fit against the whole matrices, to within rounding bounds.

    Weights: the fit adds G and F^T y in blocks, so each sum of n_train
    products is off the exact one by at most n_train u times the sum of
    magnitudes (u = eps / 2, any order); the ridge inherits tr(G)'s error;
    and LU with partial pivoting solves a system within 3p u |L||U| |u|
    (Higham, Thm 9.4), with |L||U| taken as |G + lambda I|, as for a
    symmetric positive definite matrix.  So each component of the exact
    residual is at most (n_train + 3p) u times |F|^T (|F| |u| + |y|) +
    lambda |u|, plus the long-double reference's own rounding.  The bound
    is smaller than lambda |u| somewhere, so a fit without the ridge fails.

    Reports: each held-out prediction is two products of p terms apart at
    most (delta = 2 p eps |F| |u|), so each squared error by
    2 |residual| delta + delta^2, and the two sums of 10 n_train squares,
    summed in different orders, by (10 n_train + 1) u of the total each,
    plus the subtraction and squaring of each term.  max_abs_u is exact.
    """
    u, errs, max_u, norms = least_squares_fit(sample, target, n_train, RandomSource(seed))
    u_double, u_long = np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2
    residual, scale, lam = whole_training_residual(sample, target, n_train, RandomSource(seed), u)
    bound = ((n_train + 3 * sample.r) * u_double + 2 * (n_train + sample.r) * u_long) * scale
    assert np.all(np.abs(residual) <= bound)
    assert np.any(lam * np.abs(u) > bound)
    assert max_u == np.max(np.abs(u), axis=0).tolist()

    pred, yh, F_h = whole_held_out(sample, target, n_train, RandomSource(seed), u)
    n_test = len(yh)
    delta = 2 * sample.r * np.finfo(float).eps * (np.abs(F_h) @ np.abs(u))
    ref_err = np.mean((pred - yh) ** 2, axis=0)
    ref_norm = np.mean(yh**2, axis=0)
    sums = (2 * n_test + 8) * u_double
    err_bound = np.mean(2 * np.abs(pred - yh) * delta + delta**2, axis=0) + sums * ref_err
    assert np.all(np.abs(np.array(errs) - ref_err) <= err_bound)
    assert np.all(np.abs(np.array(norms) - ref_norm) <= sums * ref_norm)


def sweep_like_targets(d, k):
    """k columns in the shape of the neuron sweep's: a realizable feature, then kinked ridges."""
    w = np.zeros(d)
    w[0] = float(d) ** 3
    biases = np.linspace(-2.0, 2.0, k - 1) * d**3

    def targets(X, F):
        return np.column_stack([F[:, 1]] + [np.maximum(X @ w + b, 0.0) for b in biases])

    return targets


class TestBlockedLeastSquares:
    @pytest.mark.parametrize("r", [50, 200, 1000])
    def test_single_target_within_rounding_of_whole_matrices(self, r):
        # n_train = 333 is one training block at r = 50, two at 200 and 21 at 1000
        sample = draw(relu, unit_sphere, 6, r, RandomSource(36))
        target = lambda X, F: np.sin(X @ np.arange(1.0, 7.0))  # noqa: E731
        assert_fit_within_rounding(sample, target, 333, 37)

    def test_sweep_shape_within_rounding_of_whole_matrices(self):
        # p = 200 features, k = 7 targets, 40,000 held-out rows: the CLI's neuron sweep
        sample = draw(relu, unit_sphere, 4, 200, RandomSource(38))
        assert_fit_within_rounding(sample, sweep_like_targets(4, 7), 4000, 39)

    def test_sweep_shape_at_the_largest_d(self):
        sample = draw(relu, unit_sphere, 20, 200, RandomSource(44))
        assert_fit_within_rounding(sample, sweep_like_targets(20, 7), 1000, 45)

    @pytest.mark.parametrize("r, k", [(256, 3), (1000, 7)])
    def test_columns_within_the_product_rounding(self, r, k):
        # a matrix-matrix product may sum a block in another order than the whole
        # matrix, as in TestBlockedPredict.test_column_weights
        sample = draw(relu, unit_sphere, 5, r, RandomSource(40))
        assert_fit_within_rounding(sample, sweep_like_targets(5, k), 1000, 41)

    def test_memory_follows_the_block_not_the_held_out_set(self):
        d, r = 20, 200
        sample = draw(relu, unit_sphere, d, r, RandomSource(42))
        peaks = []
        for n_train in (4000, 40_000):
            tracemalloc.start()
            try:
                least_squares_fit(sample, sweep_like_targets(d, 7), n_train, RandomSource(43))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a block of 324 x 200 features, the 200 x 200 Gram matrix and one block
        # product; the whole training matrix would be 6.4 MB at n_train = 4,000
        # and 64 MB at 40,000, and whole held-out features ten times that
        assert max(peaks) <= 2 * 2**20
        assert abs(peaks[1] - peaks[0]) <= 2**19


class TestRowBlocks:
    @pytest.mark.parametrize("row_values", [50, PREDICT_CELLS // 4 + 1])  # 1,308 rows; one group of four
    def test_blocks_partition_the_rows(self, row_values):
        block = predict_block_rows(row_values)
        for n_rows in (0, 1, block - 1, block, block + 1, 2 * block + 1, 4 * 5 + 1, 4 * 400 + 1):
            blocks = list(row_blocks(n_rows, row_values))
            assert [i for start, stop in blocks for i in range(start, stop)] == list(range(n_rows)), n_rows
            sizes = [stop - start for start, stop in blocks]
            assert all(size == block for size in sizes[:-1]), n_rows
            if n_rows > 1:  # a lone last row joins the block before it
                assert 2 <= sizes[-1] <= block + 1, n_rows


class TestGaussianRowBlocks:
    @pytest.mark.parametrize("row_values, n_rows", [
        (50, 1), (50, 3), (50, 2 * 1308), (50, 2 * 1308 + 1), (50, 2 * 1308 + 5),
        (PREDICT_CELLS // 4 + 1, 4), (PREDICT_CELLS // 4 + 1, 9),  # one group per block
    ])
    def test_blocks_are_rows_of_one_whole_draw(self, row_values, n_rows):
        assert predict_block_rows(50) == 1308
        whole_gen, gen = np.random.default_rng(9), np.random.default_rng(9)
        whole = whole_gen.standard_normal((n_rows, 3))
        blocks = []
        for start, stop, points in gaussian_row_blocks(gen, n_rows, 3, row_values):
            assert np.array_equal(points, whole[start:stop]), (start, stop)
            blocks.append((start, stop))
        assert blocks == list(row_blocks(n_rows, row_values))
        # every row is drawn once: the streams end level
        assert gen.standard_normal() == whole_gen.standard_normal()


@pytest.fixture(scope="module")
def result():
    P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
    return concentration_experiment(
        P, [64, 256, 1024], trials=5, probes=500, rng=RandomSource(77)
    )


class TestConcentration:

    def test_deterministic(self, result):
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
        again = concentration_experiment(
            P, [64, 256, 1024], trials=5, probes=500, rng=RandomSource(77)
        )
        assert again.rows == result.rows

    def test_envelope_holds_per_trial(self, result):
        for row in result.rows:
            assert row[2] <= result.envelope(row[0], 0.01)

    def test_error_decreases_with_r(self, result):
        means = result.mean_errors()
        assert np.all(np.diff(means) < 0)

    def test_parallel_matches_serial(self, result):
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
        par = concentration_experiment(
            P, [64, 256, 1024], trials=5, probes=500,
            rng=RandomSource(77), jobs=2,
        )
        assert par.rows == result.rows

    def test_rows_and_weight_sup_from_each_cells_draw(self, result):
        # cell (ri, r, t) draws r cube weights from rng.derive(1, ri, t); its
        # coefficients are u = g(w) / r and it reports max |u| and max |g(w)|
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
        g = construct_g(P, build_monomial_table(P.degree))
        rng = RandomSource(77)
        probes = uniform_ball(2, 500, rng.generator(0))
        f_vals = integral_feature_expectation(g, np.exp, probes, P.degree + 6)
        sup_c = max_abs_g(g, 10_000, rng.derive(2))
        assert len(result.rows) == 3 * 5
        for r, t, sup_error, max_abs_u, seed in result.rows:
            W = uniform_cube(2, r, rng.derive(1, result.r_values.index(r), t).generator())
            g_vals = eval_g(g, W)
            u = g_vals / r
            assert max_abs_u == float(np.max(np.abs(u)))
            assert sup_error == float(np.max(np.abs(np.exp(probes @ W.T) @ u - f_vals)))
            assert seed == 77
            sup_c = max(sup_c, float(np.max(np.abs(g_vals))))
        assert result.weight_sup_C == sup_c
