"""Weight-function construction and its quadrature verification oracle."""

import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from rf_lab.legendre import (
    build_monomial_table,
    iter_multi_indices,
    legendre_eval,
    multi_norm_sq,
    tensor_grid,
)
from rf_lab.numerics import RandomSource, gauss_legendre_rule, uniform_ball
from rf_lab.poly_repr import (
    EXP_LIPSCHITZ,
    LegendreExpansion,
    SparsePolynomial,
    construct_g,
    eval_g,
    exp_truncated,
    g_magnitude_bound,
    integral_feature_expectation,
    max_abs_g,
    truncated_residual,
)


def forward_coefficients(g, table, k):
    """Monomial coefficients that g produces, by the forward sum; the oracle for construct_g.

    Runs the system of the module docstring forwards through the e-table,
    which construct_g never reads: alpha_J is
    (1/2)^d a_{|J|} (|J|! / J!) d^{-|J|/2} sum_{J'} c_{J'} e_{J,J'} ||p_{J'}||^2.
    """
    d = g.dimension
    out = {}
    for J in iter_multi_indices(d, k):
        a_deg = 1.0 / math.factorial(sum(J))
        multinomial = math.factorial(sum(J)) // math.prod(math.factorial(j) for j in J)
        scale = (0.5**d) * a_deg * multinomial / (math.sqrt(d) ** sum(J))
        acc = 0.0
        for Jp, c in g.coefficients.items():
            e = math.prod(table[m, n] for m, n in zip(J, Jp))
            if c != 0.0 and e != 0.0:
                acc += c * e * multi_norm_sq(Jp)
        out[J] = scale * acc
    return out


def tensor_rule_f(g, sigma, x_points, order):
    """c_d * int_cube sigma(<w, x>) g(w) dw by the order^d tensor Gauss-Legendre
    rule on the cube: the closed form's oracle at sigma = exp, and with sigma
    = exp_k the sum ``truncated_residual`` forms, in its order of operations."""
    nodes, weights = tensor_grid(*gauss_legendre_rule(order), g.dimension)
    scale = 1.0 / math.sqrt(g.dimension)
    nodes *= scale
    return sigma(x_points @ nodes.T) @ (weights * scale**g.dimension * eval_g(g, nodes) * g.normalizer)


def longdouble_f(g, x_points, terms=30):
    """f = sum_J c_J prod_i i_{j_i}(x_i / sqrt(d)) with each i_n's series summed
    term by term in np.longdouble: the closed form's oracle to about 2^-63."""
    L = np.longdouble
    z = x_points.astype(L) / np.sqrt(L(g.dimension))
    out = np.zeros(len(x_points), dtype=L)
    for J, c in g.coefficients.items():
        product = np.full(len(x_points), L(c))
        for axis, n in enumerate(J):
            term = z[:, axis] ** n / L(math.prod(range(1, 2 * n + 2, 2)))
            i_n = term.copy()
            for k in range(1, terms):
                term = term * z[:, axis] ** 2 / L(2 * k * (2 * n + 2 * k + 1))
                i_n += term
            product *= i_n
        out += product
    return out


@pytest.fixture(scope="module")
def table():
    return build_monomial_table(12)


def random_polynomial(gen, d, k):
    """Random sparse polynomial with |alpha_J| <= 1 and degree exactly <= k."""
    coeffs = {}
    n_terms = int(gen.integers(1, 5))
    candidates = list(iter_multi_indices(d, k))
    picks = gen.choice(len(candidates), size=min(n_terms, len(candidates)), replace=False)
    for i in picks:
        coeffs[candidates[i]] = float(gen.uniform(-1.0, 1.0))
    return SparsePolynomial(d, coeffs)


class TestActivations:
    def test_exp_taylor_coeffs(self):
        # exp_k(1) - exp_{k-1}(1) is the Taylor coefficient 1/k!
        one = np.array([1.0])
        assert exp_truncated(0, one) == 1.0
        assert exp_truncated(3, one) - exp_truncated(2, one) == pytest.approx([1.0 / 6.0])

    def test_exp_value(self):
        z = np.linspace(-1, 1, 9)
        assert np.allclose(exp_truncated(2, z), 1.0 + z + z * z / 2.0, rtol=0.0, atol=1e-15)
        assert exp_truncated(20, np.array([1.0])) == pytest.approx([math.e], abs=1e-15)

    def test_lipschitz_on_interval(self):
        z = np.linspace(-1, 1, 401)
        slopes = np.abs(np.diff(np.exp(z)) / np.diff(z))
        assert np.all(slopes <= EXP_LIPSCHITZ + 1e-9)
        assert math.exp(0.0) <= EXP_LIPSCHITZ


class TestConstructG:
    def test_zero_polynomial(self):
        P = SparsePolynomial(2, {(0, 0): 0.0})
        g = construct_g(P)
        assert all(c == 0.0 for c in g.coefficients.values())

    def test_constant_base_case_d1(self):
        # single coefficient solves to alpha_0 / a_0 (hand-solved 1x1 system)
        P = SparsePolynomial(1, {(0,): 2.25})
        g = construct_g(P)
        assert g.coefficients[(0,)] == pytest.approx(2.25)
        res = truncated_residual(P, g, np.array([[0.3], [-0.8]]), P.degree + 4)[0]
        assert np.max(np.abs(res)) < 1e-10

    def test_linear_monomial_d2(self):
        P = SparsePolynomial(2, {(1, 0): 1.0})
        g = construct_g(P)
        xs = uniform_ball(2, 20, RandomSource(5).generator())
        res = truncated_residual(P, g, xs, P.degree + 4)[0]
        assert np.max(np.abs(res)) < 1e-10

    def test_linearity_in_coefficients(self):
        gen = RandomSource(17).generator()
        # the system is linear in alpha only at a fixed system size k = deg(P):
        # x_1^3 with coefficients of one sign keeps P1, P2 and their sum at degree 3
        cubic = (3, 0, 0)
        P1 = SparsePolynomial(3, {**random_polynomial(gen, 3, 3).coefficients, cubic: 0.75})
        P2 = SparsePolynomial(3, {**random_polynomial(gen, 3, 3).coefficients, cubic: 0.5})
        summed = dict(P1.coefficients)
        for J, a in P2.coefficients.items():
            summed[J] = summed.get(J, 0.0) + a
        P12 = SparsePolynomial(3, summed)
        assert P1.degree == P2.degree == P12.degree == 3
        g1 = construct_g(P1)
        g2 = construct_g(P2)
        g12 = construct_g(P12)
        keys = set(g1.coefficients) | set(g2.coefficients) | set(g12.coefficients)
        for J in keys:
            lhs = g12.coefficients.get(J, 0.0)
            rhs = g1.coefficients.get(J, 0.0) + g2.coefficients.get(J, 0.0)
            assert abs(lhs - rhs) < 1e-10, J

    def test_triangular_consistency(self, table):
        gen = RandomSource(23).generator()
        P = random_polynomial(gen, 2, 3)
        g = construct_g(P)
        alpha_hat = forward_coefficients(g, table, P.degree)
        for J, val in alpha_hat.items():
            assert abs(val - P.coefficients.get(J, 0.0)) < 1e-10, J

    @pytest.mark.parametrize("d, k, mixed", [(3, 6, True), (4, 8, True), (1, 15, False), (1, 30, False)])
    def test_forward_system(self, d, k, mixed):
        # the closed form read back through the e-table it never uses: x_1^k, with random lower terms if mixed
        lower = random_polynomial(RandomSource(61).generator(d), d, k).coefficients if mixed else {}
        P = SparsePolynomial(d, {**lower, (k,) + (0,) * (d - 1): 0.5})
        alpha_hat = forward_coefficients(construct_g(P), build_monomial_table(k), k)
        for J, val in alpha_hat.items():
            assert abs(val - P.coefficients.get(J, 0.0)) < 1e-12, J


class TestVerificationOracle:
    def test_truncated_exactness_random_suite(self):
        rng = RandomSource(31)
        worst = 0.0
        for trial in range(20):
            gen = rng.generator(trial)
            d = int(gen.integers(1, 4))
            k = int(gen.integers(1, 4))
            P = random_polynomial(gen, d, k)
            g = construct_g(P)
            xs = uniform_ball(d, 20, rng.generator(trial, 1))
            res = truncated_residual(P, g, xs, P.degree + 4)[0]
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst < 1e-8

    @pytest.mark.parametrize("poly", [
        '{"0": 1}', '{"1": 5e-324}', '{"15": 1}', '{"3,3,3": 1}', '{"6,6": 1e200}', '{"1,1": -1e306}',
    ])
    def test_truncated_residual_within_its_rounding_bound(self, poly):
        P = SparsePolynomial.from_json(poly)
        g = construct_g(P)
        xs = uniform_ball(P.dimension, 50, RandomSource(43).generator())
        order = P.degree + 4
        res, bound = truncated_residual(P, g, xs, order)
        share = np.abs(res) / bound
        assert np.max(share) <= 0.2

    def test_random_suite_within_rounding_bound(self):
        rng = RandomSource(47)
        for trial in range(30):
            gen = rng.generator(trial)
            d = int(gen.integers(1, 4))
            P = random_polynomial(gen, d, int(gen.integers(1, 7)))
            P = SparsePolynomial(d, {J: c * 10.0 ** int(gen.integers(-3, 4)) for J, c in P.coefficients.items()})
            g = construct_g(P)
            xs = uniform_ball(d, 20, rng.generator(trial, 1))
            res, bound = truncated_residual(P, g, xs, P.degree + 4)
            assert np.all(np.abs(res) <= 0.2 * bound), trial

    def test_bound_compliance_random_suite(self):
        rng = RandomSource(37)
        for trial in range(20):
            gen = rng.generator(trial)
            d = int(gen.integers(1, 4))
            k = int(gen.integers(1, 4))
            P = random_polynomial(gen, d, k)
            g = construct_g(P)
            observed = max_abs_g(g, rng.derive(trial))
            assert observed <= g_magnitude_bound(d, P.degree, P.coeff_bound), (trial, observed)
        for d, alpha in [(1, 0.25), (2, 1.5), (3, -3.0)]:  # k = 0: g is alpha everywhere
            P = SparsePolynomial(d, {(0,) * d: alpha})
            observed = max_abs_g(construct_g(P), rng.derive(d))
            assert observed == pytest.approx(abs(alpha))
            assert observed <= g_magnitude_bound(d, P.degree, P.coeff_bound), (d, alpha, observed)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("d, alpha", [(1, 0.5), (3, 1.0), (4, 2.5)])
    def test_beta_is_exact(self, d, k, alpha):
        # beta = max(1, alpha)^k (k!)^k (12 d)^(2 k^2), as exact integers and a dyadic alpha
        expected = Fraction(max(1.0, alpha)) ** k * math.factorial(k) ** k * (12 * d) ** (2 * k * k)
        assert g_magnitude_bound(d, k, alpha) == expected

    def test_full_mode_reports_taylor_tail(self):
        P = SparsePolynomial(3, {(1, 0, 0): 1.0})
        g = construct_g(P)
        xs = uniform_ball(3, 10, RandomSource(41).generator())
        res_t = np.max(np.abs(truncated_residual(P, g, xs, P.degree + 4)[0]))
        res_f = np.max(np.abs(integral_feature_expectation(g, xs) - P.evaluate(xs)))
        # the truncated system is exact; untruncated exp leaves the tail
        assert res_t < 1e-10
        assert res_f > 1e-6
        assert np.isfinite(res_f)

    def test_zero_g_zero_poly(self):
        P = SparsePolynomial(2, {})
        g = LegendreExpansion(2, {})
        res = truncated_residual(P, g, np.zeros((3, 2)), P.degree + 4)[0]
        assert np.all(res == 0.0)

    def test_quad_order_precondition(self):
        P = SparsePolynomial(2, {(1, 1): 1.0})
        g = construct_g(P)
        with pytest.raises(ValueError):
            truncated_residual(P, g, np.zeros((1, 2)), quad_order=2)

    @pytest.mark.parametrize("poly", ['{"0": 1}', '{"2,1": -0.5, "0,1": 2}', '{"3,3,3": 1}'])
    def test_one_pass_residual_is_the_quadrature_residual(self, poly):
        # one pass computes the residual beside its bound; it is the tensor rule's residual bit for bit
        P = SparsePolynomial.from_json(poly)
        g = construct_g(P)
        xs = uniform_ball(P.dimension, 30, RandomSource(53).generator())
        order = P.degree + 4
        res = truncated_residual(P, g, xs, order)[0]
        expected = tensor_rule_f(g, partial(exp_truncated, P.degree), xs, order) - P.evaluate(xs)
        assert res.tobytes() == expected.tobytes()


class TestClosedFormF:
    def test_d1_against_hyperbolic_forms(self):
        # at d = 1, f is i_n(x) itself: i_0(z) = sinh z / z and i_1(z) = (z cosh z - sinh z) / z^2.
        # The i_1 form cancels to z^3 / 3 from terms near z, so it is good to about 4u / z^2
        z = np.concatenate([np.linspace(-1.0, -0.25, 16), np.linspace(0.25, 1.0, 16)])
        i0 = integral_feature_expectation(LegendreExpansion(1, {(0,): 1.0}), z[:, None])
        i1 = integral_feature_expectation(LegendreExpansion(1, {(1,): 1.0}), z[:, None])
        eps = np.finfo(float).eps
        assert np.all(np.abs(i0 - np.sinh(z) / z) <= 2 * eps * i0)
        assert np.all(np.abs(i1 - (z * np.cosh(z) - np.sinh(z)) / z**2) <= 4 * eps * np.abs(i1) / z**2)
        at_zero = np.zeros((1, 1))
        assert integral_feature_expectation(LegendreExpansion(1, {(0,): 1.0, (1,): 1.0}), at_zero) == 1.0

    def test_matches_the_tensor_rule(self):
        # the library's former f: an order k + 6 tensor rule, at d <= 4 and degree <= 4
        rng = RandomSource(59)
        for trial in range(16):
            gen = rng.generator(trial)
            d, k = int(gen.integers(1, 5)), int(gen.integers(1, 5))
            P = random_polynomial(gen, d, k)
            g = construct_g(P)
            xs = uniform_ball(d, 30, rng.generator(trial, 1))
            oracle = tensor_rule_f(g, np.exp, xs, P.degree + 6)
            f = integral_feature_expectation(g, xs)
            assert np.max(np.abs(f - oracle)) <= 1e-13 * np.max(np.abs(oracle)), (trial, P)

    @pytest.mark.parametrize("poly", [
        '{"1,1": 1}', '{"2,0": 1, "0,1": 0.5, "0,0": 0.25}', '{"1,1,1": 1}', '{"3,3,3": 1}',
        '{"2,1,0,1": -0.7, "0,0,3,0": 2}',
    ])
    def test_within_4_ulp_of_a_long_double_series(self, poly):
        # 4 ulp of max |f|: 4 eps max |f|, eps = 2^-52 the ulp of 1
        P = SparsePolynomial.from_json(poly)
        g = construct_g(P)
        xs = uniform_ball(P.dimension, 30, RandomSource(67).generator())
        reference = longdouble_f(g, xs)
        err = np.max(np.abs(integral_feature_expectation(g, xs) - reference))
        assert err <= 4 * np.finfo(float).eps * np.max(np.abs(reference))

    def test_empty_and_all_zero_g(self):
        xs = uniform_ball(3, 5, RandomSource(71).generator())
        for coefficients in ({}, {(0, 0, 0): 0.0, (1, 0, 2): 0.0}):
            f = integral_feature_expectation(LegendreExpansion(3, coefficients), xs)
            assert f.shape == (5,) and np.all(f == 0.0)

    def test_degree_170_axis_underflows_to_zero(self):
        # i_170(z) <= 1 / 341!! < 1e-359 for |z| <= 1: its series' coefficients round to 0, with
        # no OverflowError, and a p_0 term beside it keeps its exact value
        xs = uniform_ball(2, 10, RandomSource(73).generator())
        g = LegendreExpansion(2, {(170, 0): 1.0, (0, 0): 0.5})
        f = integral_feature_expectation(g, xs)
        reference = longdouble_f(g, xs)
        assert np.all(np.abs(reference - longdouble_f(LegendreExpansion(2, {(0, 0): 0.5}), xs)) < 1e-300)
        assert np.all(np.abs(f - reference) <= 4 * np.finfo(float).eps * np.abs(reference))
        alone = integral_feature_expectation(LegendreExpansion(1, {(170,): 1.0}), np.array([[1.0], [-1.0]]))
        assert np.all(alone == 0.0)

    def test_point_past_sqrt_d_refused(self):
        # the series' term count holds for |x_i| / sqrt(d) <= 1
        g = LegendreExpansion(2, {(1, 1): 1.0})
        assert np.isfinite(integral_feature_expectation(g, np.array([[math.sqrt(2), -math.sqrt(2)]]))).all()
        with pytest.raises(ValueError, match="past sqrt"):
            integral_feature_expectation(g, np.array([[0.0, 1.5]]))


class TestEvalG:
    def test_constant_expansion(self):
        g = LegendreExpansion(3, {(0, 0, 0): 3.0})
        pts = np.zeros((4, 3))
        assert np.all(eval_g(g, pts) == 3.0)

    def test_outside_cube_rejected(self):
        g = LegendreExpansion(2, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            eval_g(g, np.array([1.0, 0.0]))  # cube half-width is 1/sqrt(2)

    def test_matches_term_sum_at_origin(self):
        P = SparsePolynomial(2, {(1, 0): 1.0})
        g = construct_g(P)
        w0 = np.zeros(2)
        manual = sum(
            c * float(np.prod([legendre_eval(j, np.zeros(1)) for j in J]))
            for J, c in g.coefficients.items()
        )
        assert eval_g(g, w0) == pytest.approx(manual, abs=1e-14)


class TestSerialization:
    def test_round_trip(self):
        P = SparsePolynomial(2, {(1, 1): 1.0, (0, 2): -0.25})
        text = json.dumps({",".join(map(str, J)): a for J, a in P.coefficients.items()})
        back = SparsePolynomial.from_json(text)
        assert back == P

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            SparsePolynomial.from_json('{"1,0": 1.0, "1,0,0": 2.0}')

    def test_negative_entry_refused(self):
        with pytest.raises(ValueError, match=r"invalid literal for int\(\) with base 10: '-1'"):
            SparsePolynomial.from_json('{"-1,2": 1.0}')

    def test_multi_index_of_another_dimension_refused(self):
        with pytest.raises(ValueError, match="does not match dimension 2"):
            SparsePolynomial(2, {(1, 0, 0): 1.0})

    def test_zero_term_is_skipped(self):
        # 0 * (1e200)^2 would be 0 * inf = NaN
        P = SparsePolynomial(2, {(2, 0): 0.0, (0, 1): 3.0})
        assert P.evaluate(np.array([[1e200, 0.5]])).tolist() == [1.5]
