"""Weight-function construction and its quadrature verification oracle."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rf_lab.legendre import (
    MultiIndex,
    build_monomial_table,
    iter_multi_indices,
    multi_expansion_coeff,
    multi_norm_sq,
)
from rf_lab.numerics import RandomSource, uniform_ball
from rf_lab.poly_repr import (
    EXP_LIPSCHITZ,
    LegendreExpansion,
    SparsePolynomial,
    construct_g,
    eval_g,
    exp_taylor_coeff,
    exp_truncated,
    g_magnitude_bound,
    integral_feature_expectation,
    max_abs_g,
    truncated_residual,
)


def forward_coefficients(g, table, k):
    """Monomial coefficients that g produces, by the forward sum; the oracle for construct_g.

    Runs the triangular system of the module docstring forwards: alpha_J is
    (1/2)^d a_{|J|} (|J|! / J!) d^{-|J|/2} sum_{J' <= J} c_{J'} e_{J,J'} ||p_{J'}||^2.
    """
    d = g.dimension
    out = {}
    indices = list(iter_multi_indices(d, k))
    for J in indices:
        a_deg = 1.0 / math.factorial(J.degree)
        multinomial = math.factorial(J.degree) // math.prod(math.factorial(j) for j in J.entries)
        scale = (0.5**d) * a_deg * multinomial / (math.sqrt(d) ** J.degree)
        acc = 0.0
        for Jp in indices:
            if Jp.degree <= J.degree and Jp <= J:
                c = float(g.coefficients.get(Jp, 0.0))
                if c != 0.0:
                    acc += c * multi_expansion_coeff(J, Jp, table) * multi_norm_sq(Jp)
        out[J] = scale * acc
    return out


@pytest.fixture(scope="module")
def table():
    return build_monomial_table(12)


def random_polynomial(gen, d, k):
    """Random sparse polynomial with |alpha_J| <= 1 and degree exactly <= k."""
    coeffs = {}
    n_terms = int(gen.integers(1, 5))
    from rf_lab.legendre import iter_multi_indices

    candidates = list(iter_multi_indices(d, k))
    picks = gen.choice(len(candidates), size=min(n_terms, len(candidates)), replace=False)
    for i in picks:
        coeffs[candidates[i]] = float(gen.uniform(-1.0, 1.0))
    return SparsePolynomial(d, coeffs)


class TestActivations:
    def test_exp_taylor_coeffs(self):
        assert exp_taylor_coeff(0) == 1.0
        assert exp_taylor_coeff(3) == pytest.approx(1.0 / 6.0)

    def test_exp_value(self):
        z = np.linspace(-1, 1, 9)
        assert np.allclose(exp_truncated(2)(z), 1.0 + z + z * z / 2.0, rtol=0.0, atol=1e-15)
        assert float(exp_truncated(20)(1.0)) == pytest.approx(math.e, abs=1e-15)

    def test_lipschitz_on_interval(self):
        z = np.linspace(-1, 1, 401)
        slopes = np.abs(np.diff(np.exp(z)) / np.diff(z))
        assert np.all(slopes <= EXP_LIPSCHITZ + 1e-9)
        assert math.exp(0.0) <= EXP_LIPSCHITZ


class TestConstructG:
    def test_zero_polynomial(self):
        P = SparsePolynomial(2, {MultiIndex((0, 0)): 0.0})
        g = construct_g(P)
        assert all(c == 0.0 for c in g.coefficients.values())

    def test_constant_base_case_d1(self):
        # single coefficient solves to alpha_0 / a_0 (hand-solved 1x1 system)
        P = SparsePolynomial(1, {MultiIndex((0,)): 2.25})
        g = construct_g(P)
        assert g.coefficients[MultiIndex((0,))] == pytest.approx(2.25)
        res = truncated_residual(P, g, np.array([[0.3], [-0.8]]), P.degree + 4)[0]
        assert np.max(np.abs(res)) < 1e-10

    def test_linear_monomial_d2(self):
        P = SparsePolynomial(2, {MultiIndex((1, 0)): 1.0})
        g = construct_g(P)
        xs = uniform_ball(2, 20, RandomSource(5).generator())
        res = truncated_residual(P, g, xs, P.degree + 4)[0]
        assert np.max(np.abs(res)) < 1e-10

    def test_linearity_in_coefficients(self):
        gen = RandomSource(17).generator()
        # the system is linear in alpha only at a fixed system size k = deg(P):
        # x_1^3 with coefficients of one sign keeps P1, P2 and their sum at degree 3
        cubic = MultiIndex((3, 0, 0))
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

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("d, alpha", [(1, 0.5), (3, 1.0), (4, 2.5)])
    def test_beta_is_exact(self, d, k, alpha):
        # beta = max(1, alpha)^k (k!)^k (12 d)^(2 k^2), as exact integers and a dyadic alpha
        expected = Fraction(max(1.0, alpha)) ** k * math.factorial(k) ** k * (12 * d) ** (2 * k * k)
        assert g_magnitude_bound(d, k, alpha) == expected

    def test_full_mode_reports_taylor_tail(self):
        P = SparsePolynomial(3, {MultiIndex((1, 0, 0)): 1.0})
        g = construct_g(P)
        xs = uniform_ball(3, 10, RandomSource(41).generator())
        res_t = np.max(np.abs(truncated_residual(P, g, xs, P.degree + 4)[0]))
        res_f = np.max(np.abs(integral_feature_expectation(g, np.exp, xs, 10) - P.evaluate(xs)))
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
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0})
        g = construct_g(P)
        with pytest.raises(ValueError):
            truncated_residual(P, g, np.zeros((1, 2)), quad_order=2)

    @pytest.mark.parametrize("poly", ['{"0": 1}', '{"2,1": -0.5, "0,1": 2}', '{"3,3,3": 1}'])
    def test_one_pass_residual_is_the_quadrature_residual(self, poly):
        # one pass computes the residual beside its bound; it is the quadrature residual bit for bit
        P = SparsePolynomial.from_json(poly)
        g = construct_g(P)
        xs = uniform_ball(P.dimension, 30, RandomSource(53).generator())
        order = P.degree + 4
        res = truncated_residual(P, g, xs, order)[0]
        expected = integral_feature_expectation(g, exp_truncated(P.degree), xs, order) - P.evaluate(xs)
        assert res.tobytes() == expected.tobytes()


class TestEvalG:
    def test_constant_expansion(self):
        g = LegendreExpansion(3, {MultiIndex((0, 0, 0)): 3.0})
        pts = np.zeros((4, 3))
        assert np.all(eval_g(g, pts) == 3.0)

    def test_outside_cube_rejected(self):
        g = LegendreExpansion(2, {MultiIndex((0, 0)): 1.0})
        with pytest.raises(ValueError):
            eval_g(g, np.array([1.0, 0.0]))  # cube half-width is 1/sqrt(2)

    def test_matches_term_sum_at_origin(self):
        P = SparsePolynomial(2, {MultiIndex((1, 0)): 1.0})
        g = construct_g(P)
        w0 = np.zeros(2)
        manual = sum(
            c * float(np.prod([_leg(j, 0.0) for j in J.entries]))
            for J, c in g.coefficients.items()
        )
        assert eval_g(g, w0) == pytest.approx(manual, abs=1e-14)


def _leg(n, x):
    from rf_lab.legendre import legendre_eval

    return legendre_eval(n, x)


class TestSerialization:
    def test_round_trip(self):
        P = SparsePolynomial(2, {MultiIndex((1, 1)): 1.0, MultiIndex((0, 2)): -0.25})
        text = json.dumps({str(J): a for J, a in P.coefficients.items()})
        back = SparsePolynomial.from_json(text)
        assert back == P

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            SparsePolynomial.from_json('{"1,0": 1.0, "1,0,0": 2.0}')
