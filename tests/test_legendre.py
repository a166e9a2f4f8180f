"""Legendre basis: orthogonality, expansion table, tensor products."""

import math

import numpy as np
import pytest

from rf_lab.legendre import (
    build_monomial_table,
    iter_multi_indices,
    legendre_coefficient,
    legendre_eval,
    legendre_norm_sq,
    multi_legendre_eval,
    multi_norm_sq,
    tensor_grid,
)
from rf_lab.numerics import RandomSource, gauss_legendre_rule


def multi_expansion_coeff(J, Jp, table):
    """Coefficient of p_{J'} in the Legendre expansion of w^J: prod_i e(j_i, j'_i)."""
    return math.prod(table[m, n] for m, n in zip(J, Jp))


def entrywise_le(Jp, J):
    return all(a <= b for a, b in zip(Jp, J))


class TestOneVariable:
    def test_normalization_p0(self):
        assert np.array_equal(legendre_eval(0, np.array([0.3, -0.8])), [1.0, 1.0])

    def test_p1_is_identity(self):
        assert np.array_equal(legendre_eval(1, np.array([0.7, -0.2])), [0.7, -0.2])

    def test_p2_value(self):
        assert legendre_eval(2, np.array([0.5])) == pytest.approx([-0.125])

    def test_norm_sq_values(self):
        assert legendre_norm_sq(0) == pytest.approx(2.0)
        assert legendre_norm_sq(1) == pytest.approx(2.0 / 3.0)
        assert legendre_norm_sq(5) == pytest.approx(2.0 / 11.0)

    def test_orthogonality_by_quadrature(self):
        nodes, weights = gauss_legendre_rule(20)
        for m in range(13):
            pm = legendre_eval(m, nodes)
            for n in range(13):
                pn = legendre_eval(n, nodes)
                inner = float(weights @ (pm * pn))
                if m == n:
                    assert abs(inner - legendre_norm_sq(n)) < 1e-12, (m, n)
                else:
                    assert abs(inner) < 1e-12, (m, n)


class TestMonomialTable:
    def test_vanishing_pattern(self):
        table = build_monomial_table(12)
        for m in range(13):
            for n in range(13):
                if m < n or (m + n) % 2 == 1:
                    assert table[m, n] == 0.0, (m, n)
                    assert table[m, n] * legendre_norm_sq(n) == 0.0

    def test_raw_integral_values(self):
        table = build_monomial_table(4)
        assert table[0, 0] * legendre_norm_sq(0) == pytest.approx(2.0)
        assert table[3, 1] * legendre_norm_sq(1) == pytest.approx(2.0 / 5.0)

    def test_raw_integral_2_2_against_quadrature(self):
        # independent oracle: int w^2 p_2(w) dw by order-10 Gauss-Legendre
        nodes, weights = gauss_legendre_rule(10)
        oracle = float(weights @ (nodes**2 * legendre_eval(2, nodes)))
        assert oracle == pytest.approx(4.0 / 15.0, abs=1e-14)
        table = build_monomial_table(4)
        assert table[2, 2] * legendre_norm_sq(2) == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("points,tol", [(100, 1e-12), (200, 1e-10)])
    def test_reconstruction_on_grid(self, points, tol):
        table = build_monomial_table(12)
        w = np.linspace(-1.0, 1.0, points)
        for m in range(13):
            acc = np.zeros_like(w)
            for n in range(m + 1):
                e = table[m, n]
                if e:
                    acc += e * legendre_eval(n, w)
            assert np.max(np.abs(acc - w**m)) < tol, m

    def test_table_bound_checked(self):
        table = build_monomial_table(3)
        assert table.shape == (4, 4) and not table.flags.writeable
        with pytest.raises(IndexError):
            table[4, 0]


class TestMonomialCoefficients:
    @pytest.mark.parametrize("n", range(31))
    def test_monomial_sum_is_the_recurrence(self, n):
        # independent oracle: legendre_eval's three-term recurrence
        w = np.linspace(-1.0, 1.0, 101)
        terms = np.array([legendre_coefficient(n, m) * w**m for m in range(n + 1)])
        err = np.abs(terms.sum(axis=0) - legendre_eval(n, w))
        # both sides round to within n + 1 ulps of the terms' magnitudes (measured: 0.13 (n + 1))
        assert np.all(err <= (n + 1) * 2.0**-52 * (np.abs(terms).sum(axis=0) + 1.0)), n

    def test_inverse_of_the_expansion_table(self):
        # sum_n e(m, n) a(n, m') = delta_{m m'}: a is e's inverse
        table = build_monomial_table(12)
        a = np.array([[legendre_coefficient(n, m) for m in range(13)] for n in range(13)])
        assert np.max(np.abs(table @ a - np.eye(13))) < 1e-12
        assert np.max(np.abs(a @ table - np.eye(13))) < 1e-12


class TestTensorProducts:
    def test_all_zero_index_is_one(self):
        assert multi_legendre_eval((0, 0, 0), np.array([0.2, -0.9, 0.5])) == 1.0

    def test_product_of_linears(self):
        got = multi_legendre_eval((1, 1), np.array([0.5, -0.2]))
        assert got == pytest.approx(-0.1)

    def test_mixed_degrees(self):
        got = multi_legendre_eval((2, 0), np.array([0.5, 0.9]))
        assert got == pytest.approx(-0.125)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multi_legendre_eval((1, 2), np.array([0.1, 0.2, 0.3]))

    def test_multi_norm_values(self):
        assert multi_norm_sq((0,) * 5) == pytest.approx(32.0)
        assert multi_norm_sq((1, 1, 0)) == pytest.approx(8.0 / 9.0)
        assert multi_norm_sq((1, 1, 0, 0)) == pytest.approx(16.0 / 9.0)

    def test_tensor_orthogonality_random_pairs(self):
        pts, wts = tensor_grid(*gauss_legendre_rule(12), 3)
        gen = RandomSource(99).generator()
        for _ in range(20):
            J = tuple(int(j) for j in gen.integers(0, 5, size=3))
            Jp = tuple(int(j) for j in gen.integers(0, 5, size=3))
            inner = float(wts @ (multi_legendre_eval(J, pts) * multi_legendre_eval(Jp, pts)))
            expected = multi_norm_sq(J) if J == Jp else 0.0
            assert abs(inner - expected) < 1e-10, (J, Jp)


class TestExpansionCoefficients:
    def test_base_case(self):
        table = build_monomial_table(2)
        assert multi_expansion_coeff((0, 0), (0, 0), table) == 1.0

    def test_parity_zero(self):
        table = build_monomial_table(2)
        assert multi_expansion_coeff((2, 0), (1, 0), table) == 0.0

    def test_w_squared_constant_part(self):
        table = build_monomial_table(2)
        got = multi_expansion_coeff((2, 0), (0, 0), table)
        # oracle: <w^2, p_0> / ||p_0||^2 by quadrature
        nodes, weights = gauss_legendre_rule(10)
        oracle = float(weights @ nodes**2) / legendre_norm_sq(0)
        assert got == pytest.approx(oracle, abs=1e-14)
        assert got == pytest.approx(1.0 / 3.0)

    def test_triangularity(self):
        table = build_monomial_table(6)
        gen = RandomSource(123).generator()
        for _ in range(50):
            J = tuple(int(j) for j in gen.integers(0, 4, size=3))
            Jp = tuple(int(j) for j in gen.integers(0, 4, size=3))
            if not entrywise_le(Jp, J):
                assert multi_expansion_coeff(J, Jp, table) == 0.0


class TestIteration:
    def test_order_ascending_degree_then_lex(self):
        idx = list(iter_multi_indices(2, 2))
        expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert idx == expected

    def test_all_predecessors_come_first(self):
        idx = list(iter_multi_indices(3, 3))
        pos = {J: i for i, J in enumerate(idx)}
        for J in idx:
            for Jp in idx:
                if Jp != J and entrywise_le(Jp, J):
                    assert pos[Jp] < pos[J]
