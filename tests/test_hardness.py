"""The psi hard instance, subspace residuals, decay sweeps, and the exp identity."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from rf_lab import features, hardness
from rf_lab.features import PREDICT_CELLS, FeatureSample, predict, predict_block_rows, relu, row_blocks
from rf_lab.hardness import (
    PsiFunction,
    _candidate_biases,
    correlation_decay,
    linear_residual,
    neuron_inapprox_sweep,
    neuron_target,
    psi_eval,
    psi_gaussian_norm,
    psi_properties_check,
    psi_relu_decomposition,
    psi_relu_sum,
    relu_exp_identity_check,
    train_single_neuron,
)
from rf_lab.numerics import RandomSource, gaussian_expectation_1d, unit_sphere


def psi_floor_parity(psi, x):
    """Reference psi: locate the kink below x + a by floor, sign by its parity."""
    x = np.asarray(x, dtype=float)
    a = float(psi.a)
    h = x + a
    m = np.floor(h / 2.0)
    t = h - 2.0 * m  # offset in [0, 2) from the kink below
    sign = 1.0 - 2.0 * (np.asarray(m, dtype=np.int64) % 2)  # +1 for even m
    core = sign * (t - 1.0)
    out = np.where(x < -a, -1.0, np.where(x >= a, 1.0 - (x - a), core))
    return out if out.ndim else float(out)


def psi_mod_form(psi, x):
    """psi by the remainder mod 4, as evaluated before the division-free form."""
    x = np.asarray(x, dtype=float)
    a = float(psi.a)
    out = np.add(x, a, out=np.empty_like(x))
    np.mod(out, 4.0, out=out)
    out -= 2.0
    np.abs(out, out=out)
    np.subtract(1.0, out, out=out)
    np.copyto(out, -1.0, where=x < -a)
    right = x >= a
    if right.any():
        np.copyto(out, 1.0 - (x - a), where=right)
    return out if out.ndim else float(out)


def assert_same_floats(value, ref):
    """Equal values, NaN exactly where the reference has NaN, zeros of the same sign.

    (The floor-parity form returns -0.0 at some zeros, so it is compared by
    value only.)
    """
    value, ref = np.asarray(value), np.asarray(ref)
    assert value.shape == ref.shape
    assert np.array_equal(value, ref, equal_nan=True)
    numbers = ~np.isnan(ref)
    assert np.array_equal(np.signbit(value[numbers]), np.signbit(ref[numbers]))


def observed(checks) -> dict:
    """The observed value of each of psi_properties_check's rows, by property."""
    return {name: value for name, value, *_ in checks}


class TestPsiShape:
    def test_zeros_at_even_integers(self):
        psi = PsiFunction(3)
        assert np.array_equal(psi_eval(psi, np.array([0.0, 2.0, -2.0])), [0.0, 0.0, 0.0])

    def test_unit_peaks_at_odd_integers(self):
        psi = PsiFunction(3)
        assert np.array_equal(np.abs(psi_eval(psi, np.array([1.0, -1.0]))), [1.0, 1.0])

    def test_periodicity_on_window(self):
        psi = PsiFunction(3)
        a = psi.a
        x = np.linspace(-a, a - 4, 10_000)
        assert np.max(np.abs(psi_eval(psi, x + 4.0) - psi_eval(psi, x))) < 1e-12

    def test_oddness_on_window(self):
        psi = PsiFunction(3)
        x = np.linspace(-psi.a, psi.a, 10_000)
        assert np.max(np.abs(psi_eval(psi, x) + psi_eval(psi, -x))) < 1e-12

    def test_outside_window_follows_definition(self):
        psi = PsiFunction(2)
        a = psi.a
        # all ReLU terms off on the left; the affine tail on the right
        assert np.array_equal(psi_eval(psi, np.array([-a - 5.0, a + 3.0])), [-1.0, 1.0 - 3.0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_decomposition_matches_closed_form(self, d):
        psi = PsiFunction(d)
        coefficients = psi_relu_decomposition(psi)
        # c_0 = 1, then c_n = 2 (-1)^n: the definition's terms one by one
        expected = [1.0] + [2.0 * (-1.0) ** n for n in range(1, psi.a + 1)]
        assert np.array_equal(coefficients, expected) and coefficients.dtype == np.float64
        x = np.linspace(-psi.a, psi.a, 10_000)
        assert np.max(np.abs(psi_relu_sum(psi, coefficients, x) - psi_eval(psi, x))) < 1e-12

    def test_relu_sum_by_hand(self):
        # d = 1: a = 7, kinks -7, -5, ..., 7; at x = -4.5 the terms at -7 and -5 are active
        psi = PsiFunction(1)
        x = np.array([-8.0, -4.5, 0.25])
        assert np.array_equal(psi_relu_sum(psi, psi_relu_decomposition(psi), x), [-1.0, 0.5, -0.25])

    @pytest.mark.parametrize("d", [1, 2, 6, 12, 20])
    def test_matches_floor_parity_form_exactly(self, d):
        psi = PsiFunction(d)
        a = psi.a
        grid = np.arange(2 * (-a - 3), 2 * (a + 3) + 1) / 2.0  # integers and half-integers
        edges = np.array([-a, a], dtype=float)
        # one ulp either side of every kink, the window edges -a and a among them
        near_kinks = np.concatenate([np.nextafter(psi.kinks, -np.inf), np.nextafter(psi.kinks, np.inf)])
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        gauss = d * np.random.default_rng(d).standard_normal(1_000_000)
        singles = np.array([0.5, a, -a - 2.5, np.nextafter(float(a), 0.0), np.nextafter(-float(a), 0.0), 1.5])
        with np.errstate(invalid="ignore"):  # the references warn on inf and nan
            for x in (grid, edges, near_kinks, specials, gauss, singles):
                value = psi_eval(psi, x)
                assert np.array_equal(value, psi_floor_parity(psi, x), equal_nan=True)
                assert_same_floats(value, psi_mod_form(psi, x))

    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_out_argument_gives_the_same_bits(self, d):
        psi = PsiFunction(d)
        a = float(psi.a)
        x = np.concatenate([
            np.linspace(-a, a, 1001),  # the window, with its edges -a and a
            [np.nextafter(-a, -np.inf), -a - 2.5, -2 * a, -np.inf],  # left tail
            [np.nextafter(a, np.inf), a + 3.0, 2 * a, 1e300, np.inf],  # right tail
            [0.0, -0.0, np.nan],
            d * np.random.default_rng(d).standard_normal(999),
        ]).reshape(-1, 4)  # 503 rows of a (rows, trials) tile
        with np.errstate(invalid="ignore"):  # the window form of +-inf is nan before its tail patch
            expected = psi_eval(psi, x)
            assert_same_floats(expected, psi_mod_form(psi, x))
            fresh = np.empty_like(x)
            assert psi_eval(psi, x, out=fresh) is fresh
            assert_same_floats(fresh, expected)
            tile = np.full((len(x) + 3, 4), 7.0)  # a leading slice of a larger buffer
            psi_eval(psi, x, out=tile[: len(x)])
            assert_same_floats(tile[: len(x)], expected)
            assert np.all(tile[len(x):] == 7.0)
            in_place = x.copy()
            assert psi_eval(psi, in_place, out=in_place) is in_place
            assert_same_floats(in_place, expected)

    def test_properties_report(self):
        checks = psi_properties_check(PsiFunction(3), 10_000, 16)
        assert [(name, requirement) for name, _, requirement, _ in checks] == [
            ("oddness_residual", "< 1e-12"), ("periodicity_residual", "< 1e-12"),
            ("interval_integral_max_dev_from_2/3", "< 1e-10"), ("max_abs_value", "<= 1"),
            ("relu_decomposition_residual", "< 1e-12"), ("gaussian_norm_at_w=d", ">= 1/6"),
        ]
        assert all(type(value) is float and ok is True for _, value, _, ok in checks)
        # every sampled interval's energy is within 1e-12 of 2/3
        assert observed(checks)["interval_integral_max_dev_from_2/3"] <= 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_blocked_decomposition_residual(self, d, monkeypatch):
        # exact terms leave a residual of 0.0; skewed ones make it vary over the grid
        psi = PsiFunction(d)
        exact = psi_relu_decomposition(psi)
        skewed = exact * (1.0 + 1e-9 * np.arange(len(exact)))
        monkeypatch.setattr(hardness, "psi_relu_decomposition", lambda _: skewed)
        x = np.linspace(-psi.a, psi.a, 10_000)
        whole = np.abs(psi_relu_sum(psi, skewed, x) - psi_eval(psi, x))
        assert len(np.unique(whole)) > 1000
        assert observed(psi_properties_check(psi, 10_000, 16))["relu_decomposition_residual"] == float(np.max(whole))

    @pytest.mark.parametrize("d", [4, 5, 10])
    def test_decomposition_residual_needs_no_extended_precision(self, d, monkeypatch):
        # where long double is float64 (Windows, macOS arm64) the oracle must still be exact
        monkeypatch.setattr(np, "longdouble", np.float64)
        assert observed(psi_properties_check(PsiFunction(d), 10_000, 16))["relu_decomposition_residual"] == 0.0

    def test_decomposition_evaluated_in_blocks(self, monkeypatch):
        psi = PsiFunction(8)
        blocks = []

        def recording(psi, coefficients, x):
            blocks.append(np.array(x))
            return psi_relu_sum(psi, coefficients, x)

        monkeypatch.setattr(hardness, "psi_relu_sum", recording)
        psi_properties_check(psi, 10_000, 16)
        # each intermediate holds a block's rows times the a + 1 terms
        assert max(len(x) for x in blocks) * (psi.a + 1) <= PREDICT_CELLS
        assert np.array_equal(np.unique(np.concatenate(blocks)), np.linspace(-psi.a, psi.a, 10_000))

    def test_properties_memory_follows_the_block(self):
        # the whole-grid ReLU sum held 10,000 x 386 long doubles several times over (118 MiB)
        assert psi_check_peak(8) <= 1.5 * 2**20

    def test_properties_memory_at_the_default_d(self):
        # about three long-double temporaries of one block, each up to 512 KiB, and the
        # 10,000-point grids; blocks sized for float64 values read 2.2 MiB
        assert psi_check_peak(3) <= 1.5 * 2**20


def psi_check_peak(d):
    """tracemalloc's peak over one psi_properties_check at psi-check's default grid and order."""
    tracemalloc.start()
    try:
        psi_properties_check(PsiFunction(d), 10_000, 16)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPsiGaussianNorm:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_norm_bounds_at_matched_scale(self, d):
        val = psi_gaussian_norm(PsiFunction(d), 16)
        assert val >= 1.0 / 6.0
        assert 0.25 <= val <= 0.40

    def test_approaches_one_third(self):
        vals = [psi_gaussian_norm(PsiFunction(d), 16) for d in (3, 6, 10)]
        for v in vals:
            assert abs(v - 1.0 / 3.0) < 0.01

    def test_vanishes_at_zero_scale(self):
        # the expectation psi_gaussian_norm takes, at scales 1e-3 and 0 (sigma = 0 reads psi(0) = 0)
        psi = PsiFunction(3)

        def psi_sq(z):
            return psi_eval(psi, z) ** 2

        assert gaussian_expectation_1d(psi_sq, 1e-3, 16, psi.kinks) < 1e-5
        assert gaussian_expectation_1d(psi_sq, 0.0, 16, psi.kinks) == 0.0


class TestLinearResidual:
    def test_no_features_full_residual(self):
        assert np.all(linear_residual(5, 0, RandomSource(1), 4) == 1.0)

    def test_full_span_zero_residual(self):
        assert np.max(linear_residual(5, 5, RandomSource(2), 4)) < 1e-10

    def test_r_greater_than_d_rejected(self):
        with pytest.raises(ValueError):
            linear_residual(3, 4, RandomSource(3), 1)

    @pytest.mark.parametrize("d,r", [(50, 10), (100, 50), (100, 90)])
    def test_mean_matches_subspace_fraction(self, d, r):
        res = linear_residual(d, r, RandomSource(100 + d + r), 500)
        assert abs(float(res.mean()) - (1.0 - r / d)) < 0.02


@pytest.fixture
def constant_one_net(monkeypatch):
    """Cells test the constant function 1 in place of their ReLU net: one exp
    feature along the zero direction, with output weight 1."""
    monkeypatch.setattr(
        hardness, "_relu_test_net", lambda f_r, d, gen: (FeatureSample(np.exp, np.zeros((1, d))), np.ones(1))
    )


class TestCorrelationDecay:
    def test_constant_function_sits_at_noise_floor(self, constant_one_net):
        [(d, mean_sq, _)] = correlation_decay(1, [3], trials=32, mc_samples=20_000, rng=RandomSource(5), jobs=1)
        # true correlation ~ 0; the squared-mean estimator floor is
        # Var(psi(<w,x>))/mc ~ (1/3)/mc
        floor = (1.0 / 3.0) / 20_000
        assert d == 3
        assert 0.0 <= mean_sq < 5 * floor

    def test_doubling_samples_halves_the_floor(self, constant_one_net):
        small = correlation_decay(1, [3], trials=128, mc_samples=10_000, rng=RandomSource(6), jobs=1)[0]
        big = correlation_decay(1, [3], trials=128, mc_samples=20_000, rng=RandomSource(6), jobs=1)[0]
        ratio = big[1] / small[1]
        assert 0.3 <= ratio <= 0.7

    def test_follows_a_derived_source(self):
        sweep = partial(correlation_decay, 7, [2, 3], 8, 2_000)
        root = RandomSource(7)
        one = sweep(root.derive(1), jobs=1)
        assert all(a[1] != b[1] for a, b in zip(one, sweep(root.derive(2), jobs=1)))
        assert sweep(root.derive(1), jobs=2) == one

    def test_relu_net_signal_decreases(self):
        rows = correlation_decay(50, [2, 4, 6], trials=24, mc_samples=50_000, rng=RandomSource(9), jobs=1)
        assert [d for d, _, _ in rows] == [2, 4, 6]
        assert rows[0][1] > rows[1][1] > rows[2][1]

    def test_parallel_matches_serial(self):
        kwargs = dict(trials=8, mc_samples=5_000, rng=RandomSource(7))
        a = correlation_decay(10, [2, 3], jobs=1, **kwargs)
        b = correlation_decay(10, [2, 3], jobs=2, **kwargs)
        assert a == b


def unblocked_relu_net(r, d, gen):
    """The correlation cell's test net as one product over all points."""
    W = gen.standard_normal((r, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    u = gen.standard_normal(r) / r
    return lambda X: np.maximum(X @ W.T, 0.0) @ u


class TestRidgeReluNet:
    @pytest.mark.parametrize("r, d", [(50, 2), (50, 12), (7, 5)])
    def test_equals_unblocked_net(self, r, d):
        sample, u = hardness._relu_test_net(r, d, RandomSource(63).generator(d))
        reference = unblocked_relu_net(r, d, RandomSource(63).generator(d))
        block = predict_block_rows(r)
        for m in (1, block - 1, block, block + 1, 100_000):
            X = RandomSource(64).derive(m).generator().standard_normal((m, d))
            assert np.array_equal(predict(sample, u, X), reference(X)), m

    def test_never_builds_more_than_a_block(self, monkeypatch):
        sizes = []
        feature_matrix = features.feature_matrix

        def recording(sample, X, out=None):
            F = feature_matrix(sample, X, out=out)
            sizes.append(F.size)
            return F

        monkeypatch.setattr(features, "feature_matrix", recording)
        sample, u = hardness._relu_test_net(50, 4, RandomSource(65).generator())
        predict(sample, u, RandomSource(66).generator().standard_normal((100_000, 4)))
        assert sum(sizes) == 100_000 * 50 and max(sizes) <= PREDICT_CELLS


def chunked_correlation_cell(cell, chunk) -> tuple:
    """The correlation cell from fresh arrays: each chunk of ``chunk`` points
    (a lone last point joins the chunk before it) is drawn, projected, passed
    through psi by its remainder form and summed anew.  With the cell's block
    size it sums as the cell does; with 100,000 points it is the cell before
    blocking, which agrees to rounding only."""
    d, f_r, trials, mc_samples, seed = cell
    rng = RandomSource(seed)
    psi = PsiFunction(d)
    net, u = hardness._relu_test_net(f_r, d, rng.generator(d, 0))
    ws = rng.generator(d, 1).standard_normal((trials, d))
    ws *= d / np.linalg.norm(ws, axis=1, keepdims=True)
    gen_x = rng.generator(d, 2)
    inner_sums = np.zeros(trials)
    f_sq_sum = 0.0
    cuts = [*range(0, mc_samples, chunk), mc_samples]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        X = gen_x.standard_normal((stop - start, d))
        fx = predict(net, u, X)
        f_sq_sum += float(fx @ fx)
        inner_sums += fx @ psi_mod_form(psi, X @ ws.T)
    sq = (inner_sums / mc_samples) ** 2 / (f_sq_sum / mc_samples)
    # NumPy's std of one draw is nan (with a warning)
    std_err = float(np.std(sq, ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan
    return d, float(np.mean(sq)), std_err


class TestTiledCorrelationCell:
    CASES = [
        (1, 65_537),  # one-column products; a lone last point joins the block before
        (2, 70_001),
        (64, 2_049),  # a lone last point
        (PREDICT_CELLS // 4 + 1, 13),  # one row group per block, then a lone point
        (3, 100_001),  # more points than one unblocked chunk
    ]

    @staticmethod
    def sweep(trials, mc_samples, jobs):
        rng = RandomSource(61)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # std_err of one draw
            rows = correlation_decay(7, [2, 5], trials, mc_samples, rng, jobs=jobs)
        return [(row, (row[0], 7, trials, mc_samples, rng.seed)) for row in rows]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("trials, mc_samples", CASES)
    def test_equals_streamed_oracle(self, trials, mc_samples, jobs):
        for row, cell in self.sweep(trials, mc_samples, jobs):
            ref = chunked_correlation_cell(cell, predict_block_rows(trials))
            assert np.array_equal(row, ref, equal_nan=True), row[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("trials, mc_samples", CASES)
    def test_equals_untiled_cell(self, trials, mc_samples, jobs):
        """Equal to rounding: the blocks sum in another order than whole chunks."""
        for row, cell in self.sweep(trials, mc_samples, jobs):
            ref = chunked_correlation_cell(cell, 100_000)
            assert row[0] == ref[0]
            np.testing.assert_allclose(row[1:], ref[1:], rtol=1e-12, atol=0.0, equal_nan=True)

    def test_psi_eval_never_sees_more_than_a_tile(self, monkeypatch):
        sizes, in_place = [], []
        whole = hardness.psi_eval

        def recording(psi, x, out=None):
            sizes.append(np.size(x))
            in_place.append(out is x)
            return whole(psi, x, out=out)

        monkeypatch.setattr(hardness, "psi_eval", recording)
        correlation_decay(7, [2, 3], trials=64, mc_samples=5_000, rng=RandomSource(62), jobs=1)
        assert len(sizes) == 2 * 5  # 1024-row blocks
        assert sum(sizes) == 2 * 5_000 * 64
        assert max(sizes) <= PREDICT_CELLS
        assert all(in_place)

    def test_default_sweep_memory_follows_the_tile(self):
        tracemalloc.start()
        try:
            # correlation-decay's CLI defaults at --jobs 1
            correlation_decay(50, [2, 4, 6, 8, 10, 12], trials=64, mc_samples=100_000, rng=RandomSource(0), jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-sample psi buffer would be 51 MB
        assert peak <= 4 * 2**20


@pytest.fixture(scope="module")
def rows():
    # the most negative candidate bias puts the neuron's kink at x_1 > 6d, so
    # dead candidates occur at every d and must be skipped before any division
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return neuron_inapprox_sweep(50, [3, 6], 600, RandomSource(8), 1)


class TestNeuronSweep:

    def test_four_rows_per_d(self, rows):
        targets = ["control", "psi", "neuron", "neuron_gd_baseline"]
        assert [(d, target) for d, target, _, _ in rows] == [(d, t) for d in (3, 6) for t in targets]
        assert all(type(err) is float and type(rmu) is float for _, _, err, rmu in rows)

    def test_realizable_control(self, rows):
        for _, target, err, _ in rows:
            if target == "control":
                assert err < 1e-6

    def test_psi_target_is_hard(self, rows):
        for _, target, err, _ in rows:
            if target == "psi":
                assert err > 0.5

    def test_baseline_trains_to_high_accuracy(self, rows):
        for _, target, err, r_max_abs_u in rows:
            if target == "neuron_gd_baseline":
                assert err < 0.01 and r_max_abs_u == 0.0

    def test_parallel_matches_serial(self, rows):
        assert neuron_inapprox_sweep(50, [3, 6], 600, RandomSource(8), jobs=2) == rows

    def test_follows_a_derived_source(self):
        sweep = partial(neuron_inapprox_sweep, 20, [3, 5], 200)
        root = RandomSource(8)
        one = sweep(root.derive(1), jobs=1)
        assert all(a[2] != b[2] for a, b in zip(one, sweep(root.derive(2), jobs=1)))
        assert sweep(root.derive(1), jobs=2) == one

    @pytest.mark.parametrize("d", [1, 6])
    def test_target_block_equals_the_d_dimensional_form(self, d, monkeypatch):
        # X @ (c e_1) is c x_1 bit for bit: every other product is an exact zero
        blocks = []
        fit = hardness.least_squares_fit

        def recording(sample, target, n_train, rng):
            def kept(X, F):
                y = target(X, F)
                blocks.append((X.copy(), F.copy(), y))
                return y
            return fit(sample, kept, n_train, rng)

        monkeypatch.setattr(hardness, "least_squares_fit", recording)
        r = 50
        hardness._sweep_cell(r, 600, RandomSource(8), d)
        X, F, y = blocks[0]  # the first training block
        psi = PsiFunction(d)
        e_1 = np.eye(d)[0]
        neurons = [np.maximum(X @ (float(d) ** 3 * e_1) + b_star, 0.0) for b_star in _candidate_biases(psi)]
        expected = np.column_stack([F[:, r // 2], psi_eval(psi, X @ (d * e_1)), *neurons])
        assert y.shape == (len(X), 7 if d > 1 else 6)
        assert np.array_equal(y, expected)

    def test_held_out_rows_featurized_once_in_blocks(self, monkeypatch):
        calls = {3: [], 6: []}
        feature_matrix = features.feature_matrix

        def recording(sample, X, out=None):
            calls[sample.d].append(np.array(X))
            # each cell draws its ReLU features on the sphere from rng.derive(d, 0)
            expected = unit_sphere(sample.d, 50, RandomSource(8).derive(sample.d, 0).generator())
            assert sample.activation is relu and np.array_equal(sample.weights, expected)
            return feature_matrix(sample, X, out=out)

        monkeypatch.setattr(features, "feature_matrix", recording)
        monkeypatch.setattr(hardness, "train_single_neuron", lambda d, rng: (0.0, 0))
        n_train = 1400  # two training blocks of 1,308 and 92 rows at r = 50
        neuron_inapprox_sweep(50, [3, 6], n_train, RandomSource(8), jobs=1)
        n_train_blocks = len(list(row_blocks(n_train, 50)))
        assert n_train_blocks == 2
        for d, blocks in calls.items():
            # the training draw in blocks, then the held-out draw, in order, each row once
            rng = RandomSource(8).derive(d, 1)
            train = rng.generator(0).standard_normal((n_train, d))
            assert np.array_equal(np.concatenate(blocks[:n_train_blocks]), train)
            held_out = rng.generator(1).standard_normal((10 * n_train, d))
            assert np.array_equal(np.concatenate(blocks[n_train_blocks:]), held_out)
            assert max(len(X) * 50 for X in blocks) <= PREDICT_CELLS

    def test_largest_d_cell_memory(self):
        # neuron-inapprox's defaults at d = 20: the fit holds one block of features
        # and the Gram matrix; most of the peak is train_single_neuron's batch and
        # held-out values
        np.random.default_rng(0).random()  # NumPy imports numpy.random's modules on a first draw
        tracemalloc.start()
        try:
            hardness._sweep_cell(200, 4000, RandomSource(0), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_direct_neuron_training(self):
        err, _ = train_single_neuron(6, RandomSource(10))
        assert err < 1e-6

    def test_neuron_target(self):
        t = np.array([1.0, -0.5, 0.25])
        # d = 2: relu(8 t + b*), for one b* and for an array of them
        assert np.array_equal(neuron_target(2, t, -4.0), [4.0, 0.0, 0.0])
        both = neuron_target(2, t, np.array([-4.0, 4.0]))
        assert both.shape == (3, 2)
        assert np.array_equal(both, [[4.0, 12.0], [0.0, 0.0], [0.0, 6.0]])


def whole_draw_neuron_gd(d, rng, n_eval, steps=400, lr=0.4, batch=4096, tol=1e-10):
    """Reference: train_single_neuron with every batch and the held-out sample
    drawn whole, and its target in d dimensions, [<d^3 e_1, x> + d^2]_+; its
    squared residuals and targets are summed per ``row_blocks(n_eval, d)``
    slice, in block order."""
    w_star = float(d) ** 3 * np.eye(d)[0]
    b_star = float(d * d)
    gen = rng.generator(0)
    w = 0.01 * gen.standard_normal(d)
    b = 1.0
    updates = 0
    while updates < steps:
        X = gen.standard_normal((batch, d))
        y = np.maximum(X @ w_star + b_star, 0.0)
        z = X @ w + b
        active = z >= 0.0
        err = np.where(active, z, 0.0) - y
        if err @ err <= tol * (y @ y):
            break
        grad_common = 2.0 * err * active
        w -= lr * ((grad_common @ X) / batch)
        b -= lr * grad_common.mean()
        updates += 1
    Xh = rng.generator(1).standard_normal((n_eval, d))
    yh = np.maximum(Xh @ w_star + b_star, 0.0)
    mh = np.maximum(Xh @ w + b, 0.0)
    blocks = list(row_blocks(n_eval, d))
    sq_error = sum(float(np.sum((mh[start:stop] - yh[start:stop]) ** 2)) for start, stop in blocks)
    sq_target = sum(float(np.sum(yh[start:stop] ** 2)) for start, stop in blocks)
    return sq_error / sq_target, updates


class TestNeuronBaseline:
    @pytest.mark.parametrize("d", [4, 20])
    @pytest.mark.parametrize("lone_last_row", [False, True])
    def test_streamed_draws_equal_whole_draws(self, d, lone_last_row, monkeypatch):
        n_eval = 3 * predict_block_rows(d) + 1 if lone_last_row else 50_000
        monkeypatch.setattr(hardness, "NEURON_GD_EVAL", n_eval)
        expected = whole_draw_neuron_gd(d, RandomSource(14), n_eval)
        assert train_single_neuron(d, RandomSource(14)) == expected

    def test_memory_follows_the_block(self):
        tracemalloc.start()
        try:
            train_single_neuron(20, RandomSource(13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 50,000 x 20 held-out sample alone would be 8 MB
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("d", [3, 10])
    def test_zero_tolerance_matches_fixed_steps(self, d, monkeypatch):
        monkeypatch.setattr(hardness, "NEURON_GD_STEPS", 40)
        monkeypatch.setattr(hardness, "NEURON_GD_TOL", 0.0)
        expected = whole_draw_neuron_gd(d, RandomSource(12), 50_000, steps=40, tol=0.0)
        assert train_single_neuron(d, RandomSource(12)) == expected
        assert expected[1] == 40

    @pytest.mark.parametrize("d", [4, 10, 20])
    def test_stops_before_the_cap(self, d):
        err, updates = train_single_neuron(d, RandomSource(13))
        assert 0 < updates < 400
        assert err < 1e-8

    @pytest.mark.parametrize("d", [4, 10, 20])
    def test_target_is_not_affine_on_the_data(self, d):
        # a kink outside the Gaussian bulk would make the baseline vacuous
        t = np.random.default_rng(d).standard_normal(10_000)
        active = float(np.mean(neuron_target(d, t, float(d * d)) > 0.0))
        assert 0.05 <= active <= 0.95

    # train_single_neuron's b* = d^2 is the candidate n = a // 2 = 3 d^2, offset a - 2n = 1
    @pytest.mark.parametrize("d", [4, 10])
    def test_is_the_middle_sweep_candidate(self, d):
        psi = PsiFunction(d)
        biases = _candidate_biases(psi)
        assert biases[len(biases) // 2] == (psi.a - 2 * (psi.a // 2)) * d * d == float(d * d)

    def test_is_not_the_middle_candidate_at_d_one(self):
        # a = 7: a // 4 = 1 repeats n = 1, leaving n = 1, 3, 5, 7
        assert np.array_equal(_candidate_biases(PsiFunction(1)), [5.0, 1.0, -3.0, -7.0])


class TestExpIdentity:
    def test_grid_error_small(self):
        assert relu_exp_identity_check(np.linspace(-1, 1, 41), 40).max() < 1e-10

    def test_zero_is_exact_normalization(self):
        # z = 0: only c * e^b survives, and c int_0^1 e^b db = 1 = e^0
        assert relu_exp_identity_check([0.0], 40).max() < 1e-14

    def test_selected_points(self):
        assert relu_exp_identity_check([1.0], 40).max() < 1e-10
        assert relu_exp_identity_check([-0.5], 40).max() < 1e-10

    def test_one_error_per_z_in_order(self):
        zs = np.array([0.3, -1.0, 0.0, 0.7])
        errors = relu_exp_identity_check(zs, order=4)
        assert errors.shape == zs.shape
        assert np.array_equal(errors, [relu_exp_identity_check([z], order=4)[0] for z in zs])

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            relu_exp_identity_check([1.5], 40)

    def test_low_order_degrades(self):
        # order 2 per segment cannot resolve e^b: the check must report it
        assert relu_exp_identity_check(np.linspace(-1, 1, 41), order=2).max() > 1e-8
