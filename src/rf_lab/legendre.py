"""Legendre polynomials in one and several variables.

Everything here is built on the classical (unnormalized) family p_n on
[-1, 1], with p_0 = 1, p_1(w) = w and the flat-measure inner product
<p_m, p_n> = delta_{mn} * 2/(2n+1).  Multivariate polynomials use tensor
products p_J(w) = p_{j_1}(w_1) ... p_{j_d}(w_d) indexed by multi-indices.

The one non-textbook piece is the array ``build_monomial_table`` returns:
the exact coefficients e(m, n) = table[m, n] of the expansion

    w^m = sum_n e(m, n) * p_n(w),

generated by the recurrence that follows from
w * p_n = ((n+1) p_{n+1} + n p_{n-1}) / (2n+1):

    e(m+1, n) = n/(2n-1) * e(m, n-1) + (n+1)/(2n+3) * e(m, n+1).

e(m, n) vanishes whenever n > m or m + n is odd; an index past the
table's degree raises NumPy's IndexError.  The raw projection
integral I(m, n) = int_{-1}^{1} w^m p_n(w) dw is recovered as
e(m, n) * 2/(2n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple J = (j_1, ..., j_d) of a monomial x^J."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(j) for j in self.entries)
        if any(j < 0 for j in entries):
            raise ValueError(f"multi-index entries must be nonnegative: {self.entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __le__(self, other: "MultiIndex") -> bool:
        """Entrywise partial order: J' <= J iff every entry is <=."""
        if self.dim != other.dim:
            raise ValueError("multi-index dimensions differ")
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __str__(self) -> str:
        return ",".join(str(j) for j in self.entries)

    @classmethod
    def from_string(cls, text: str) -> "MultiIndex":
        return cls(tuple(int(part) for part in text.split(",")))


def iter_multi_indices(d: int, max_degree: int):
    """All J with dim d and |J| <= max_degree, ascending degree then lexicographic.

    Every J' < J is yielded before J, which the triangular solves rely on.
    """

    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first, *rest)

    for degree in range(max_degree + 1):
        for entries in sorted(comps(degree, d)):
            yield MultiIndex(entries)


def legendre_eval(n: int, w):
    """p_n(w) by the three-term recurrence; w may be a scalar or array."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    w = np.asarray(w, dtype=float)
    p_prev = np.ones_like(w)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = w.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * w * p - (k - 1) * p_prev) / k
    return p if p.ndim else float(p)


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


def multi_legendre_eval(J: MultiIndex, w):
    """Tensor-product value p_J(w); w has shape (d,) or (m, d)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != J.dim:
        raise ValueError(f"point dimension {w.shape[-1]} != multi-index dimension {J.dim}")
    out = np.ones(w.shape[:-1])
    for axis, j in enumerate(J.entries):
        if j:
            out = out * legendre_eval(j, w[..., axis])
    return out if out.ndim else float(out)


def multi_norm_sq(J: MultiIndex) -> float:
    """||p_J||^2 = prod_i 2/(2 j_i + 1) on [-1, 1]^d."""
    out = 1.0
    for j in J.entries:
        out *= legendre_norm_sq(j)
    return out


def multi_expansion_coeff(J: MultiIndex, J_prime: MultiIndex, table: np.ndarray) -> float:
    """Coefficient of p_{J'} in the Legendre expansion of w^J.

    Separates over coordinates: prod_i e(j_i, j'_i).  Zero whenever J' is
    not entrywise <= J or any coordinate pair has odd sum.
    """
    if J.dim != J_prime.dim:
        raise ValueError("multi-index dimensions differ")
    out = 1.0
    for m, n in zip(J.entries, J_prime.entries):
        out *= table[m, n]
        if out == 0.0:
            return 0.0
    return out


def tensor_grid(rule_nodes: np.ndarray, rule_weights: np.ndarray, d: int):
    """Tensorize a 1-D rule over d axes: points (order^d, d), weights (order^d,)."""
    pts = np.array(list(product(rule_nodes, repeat=d)))
    wts = np.array([np.prod(ws) for ws in product(rule_weights, repeat=d)])
    return pts, wts
