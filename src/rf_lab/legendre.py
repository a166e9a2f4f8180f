"""Legendre polynomials in one and several variables.

Everything here is built on the classical (unnormalized) family p_n on
[-1, 1], with p_0 = 1, p_1(w) = w and the flat-measure inner product
<p_m, p_n> = delta_{mn} * 2/(2n+1).  Multivariate polynomials use tensor
products p_J(w) = p_{j_1}(w_1) ... p_{j_d}(w_d), a multi-index J being a tuple
of d exponents.

``build_monomial_table`` returns e(m, n) = table[m, n] of the expansion

    w^m = sum_n e(m, n) * p_n(w),

by the recurrence that follows from w p_n = ((n+1) p_{n+1} + n p_{n-1}) / (2n+1):

    e(m+1, n) = n/(2n-1) * e(m, n-1) + (n+1)/(2n+3) * e(m, n+1).

e(m, n) vanishes whenever n > m or m + n is odd; an index past the
table's degree raises NumPy's IndexError.  legendre-check and the tests
read e; ``construct_g`` reads its inverse, the a(n, m) of
p_n(w) = sum_m a(n, m) w^m that ``legendre_coefficient`` returns.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def iter_multi_indices(d: int, max_degree: int):
    """All tuples J of d exponents with |J| <= max_degree, by degree then lexicographic.

    The order of ``construct_g``'s coefficients, so of ``eval_g``'s sum.
    """

    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first, *rest)

    for degree in range(max_degree + 1):
        yield from comps(degree, d)


def legendre_eval(n: int, w):
    """p_n(w) by the three-term recurrence, at an array of points w."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    p_prev = np.ones_like(w)
    if n == 0:
        return p_prev
    p = w.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * w * p - (k - 1) * p_prev) / k
    return p


def legendre_coefficient(n: int, m: int) -> float:
    """a(n, m), the coefficient of w^m in p_n: (-1)^j C(n, j) C(2n-2j, n) / 2^n
    at m = n - 2j and 0 otherwise, rounded once from exact integers."""
    j, odd = divmod(n - m, 2)
    if j < 0 or odd:
        return 0.0
    return (-1) ** j * math.comb(n, j) * math.comb(2 * n - 2 * j, n) / 2**n


def legendre_norm_sq(n: int) -> float:
    """int_{-1}^{1} p_n(w)^2 dw = 2/(2n+1)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return 2.0 / (2 * n + 1)


def build_monomial_table(m_max: int) -> np.ndarray:
    """The read-only (m_max + 1, m_max + 1) array of e(m, n), indexed ``[m, n]``,
    for all 0 <= n <= m <= m_max by the exact recurrence."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    e = np.zeros((m_max + 1, m_max + 1))
    e[0, 0] = 1.0
    for m in range(m_max):
        for n in range(m + 2):
            lower = (n / (2 * n - 1)) * e[m, n - 1] if n >= 1 else 0.0
            upper = ((n + 1) / (2 * n + 3)) * e[m, n + 1] if n + 1 <= m_max else 0.0
            e[m + 1, n] = lower + upper
    e.setflags(write=False)
    return e


def multi_legendre_eval(J: tuple, w):
    """Tensor-product values p_J(w) at points w of shape (..., d)."""
    if w.shape[-1] != len(J):
        raise ValueError(f"point dimension {w.shape[-1]} != multi-index dimension {len(J)}")
    out = np.ones(w.shape[:-1])
    for axis, j in enumerate(J):
        if j:
            out = out * legendre_eval(j, w[..., axis])
    return out


def multi_norm_sq(J: tuple) -> float:
    """||p_J||^2 = prod_i 2/(2 j_i + 1) on [-1, 1]^d."""
    out = 1.0
    for j in J:
        out *= legendre_norm_sq(j)
    return out


def tensor_grid(rule_nodes: np.ndarray, rule_weights: np.ndarray, d: int):
    """Tensorize a 1-D rule over d axes: points (order^d, d), weights (order^d,)."""
    pts = np.array(list(product(rule_nodes, repeat=d)))
    wts = np.array([np.prod(ws) for ws in product(rule_weights, repeat=d)])
    return pts, wts
