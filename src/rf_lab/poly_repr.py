"""Representing polynomials as cube-expectations of exp features.

Given the lab's activation sigma = exp and a sparse polynomial P on R^d with
deg(P) <= k, this module constructs a weight function

    g(w) = sum_{|J| <= k} c_J * p_J(sqrt(d) * w)

on the cube [-1/sqrt(d), 1/sqrt(d)]^d such that

    c_d * int_cube sigma_k(<w, x>) g(w) dw = P(x),        c_d = (sqrt(d)/2)^d,

holds exactly for the degree-k Taylor truncation sigma_k of exp.  The
x^J coefficient of the left side is c_d int_cube w^J g(w) dw / J!, so
projecting w^J onto the tensor Legendre basis gives, with alpha_J the
coefficients of P,

    sum_{J'} e_{J,J'} c_{J'} ||p_{J'}||^2 = b_J = 2^d d^{|J|/2} J! alpha_J.

e_{J,J'} = prod_i e(j_i, j'_i) has the inverse prod_i a(j'_i, j_i), a(n, m)
the coefficient of w^m in p_n, so

    c_{J'} = ||p_{J'}||^{-2} sum_{J in supp P} b_J prod_i a(j'_i, j_i).

The construction is verified, never trusted: ``truncated_residual``
recomputes the cube integral of the truncated activation by tensor
Gauss-Legendre quadrature and returns the per-point residuals with a bound
on their rounding, both from one pass over the nodes.  The integrand is a
polynomial, so the residuals are at rounding level.  With the full
activation, ``integral_feature_expectation(g, x) - P``, in closed form, measures
the Taylor tail of order > k, which is reported rather than asserted away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .legendre import (
    iter_multi_indices,
    legendre_coefficient,
    multi_legendre_eval,
    multi_norm_sq,
    tensor_grid,
)
from .numerics import RandomSource, gauss_legendre_rule, uniform_cube


@dataclass(frozen=True)
class SparsePolynomial:
    """P(x) = sum_J alpha_J x^J with a sparse map from exponent tuples J to alpha_J."""

    dimension: int
    coefficients: Mapping[tuple, float]

    def __post_init__(self):
        for J in self.coefficients:
            if len(J) != self.dimension:
                raise ValueError(f"multi-index {','.join(map(str, J))} does not match dimension {self.dimension}")

    @property
    def degree(self) -> int:
        degs = [sum(J) for J, a in self.coefficients.items() if a != 0.0]
        return max(degs) if degs else 0

    @property
    def coeff_bound(self) -> float:
        vals = [abs(a) for a in self.coefficients.values()]
        return max(vals) if vals else 0.0

    def evaluate(self, x) -> np.ndarray:
        """P at points x of shape (m, d)."""
        out = np.zeros(len(x))
        for J, a in self.coefficients.items():
            if a == 0.0:
                continue
            term = np.full(len(x), a)
            for axis, j in enumerate(J):
                if j:
                    term = term * x[:, axis] ** j
            out += term
        return out

    @classmethod
    def from_json(cls, text: str) -> "SparsePolynomial":
        """Parse a JSON object {"j_1,...,j_d": coefficient}; malformed input raises ValueError."""
        pairs = json.loads(text, object_pairs_hook=tuple)  # an object as its pairs, repeated keys kept
        if not isinstance(pairs, tuple) or not pairs:
            raise ValueError("polynomial JSON must be an object with at least one multi-index key")
        coeffs = {}
        for key, val in pairs:
            try:  # a JSON number only: not a bool, a string or null
                value = float(val) if type(val) in (int, float) else math.nan
            except OverflowError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"coefficient of {key!r} must be a finite number, got {val!r}")
            parts = key.split(",")
            for part in parts:  # int() alone also takes signs, spaces and "_"
                if not (part.isascii() and part.isdigit()):
                    raise ValueError(f"invalid literal for int() with base 10: {part!r}")
            J = tuple(map(int, parts))
            if J in coeffs:
                raise ValueError(f"monomial {','.join(map(str, J))} is named twice, the second time as {key!r}")
            coeffs[J] = value
        dims = {len(J) for J in coeffs}
        if len(dims) != 1:
            raise ValueError("all multi-index keys must have the same length")
        return cls(dims.pop(), coeffs)


EXP_LIPSCHITZ = math.e  # Lipschitz constant of exp on [-1, 1], and exp(0) <= it
MAX_DEGREE = 170  # the largest k whose k!, so every J! of construct_g, is a double


def exp_truncated(k: int, z) -> np.ndarray:
    """Degree-k Taylor truncation exp_k(z) = sum_{i<=k} z^i / i!, by Horner."""
    out = np.zeros_like(z)
    for i in reversed(range(k + 1)):
        out = out * z + 1.0 / math.factorial(i)
    return out


@dataclass(frozen=True)
class LegendreExpansion:
    """g(w) = sum_{|J| <= k} c_J p_J(sqrt(d) w) on the cube [-1/sqrt(d), 1/sqrt(d)]^d."""

    dimension: int
    coefficients: Mapping[tuple, float]

    @property
    def normalizer(self) -> float:
        """Cube normalization constant c_d = (sqrt(d)/2)^d (1/volume of the cube)."""
        return (math.sqrt(self.dimension) / 2.0) ** self.dimension


def construct_g(P: SparsePolynomial) -> LegendreExpansion:
    """The c_J of g by the closed form above; every 1/i! is nonzero, so every P
    is representable.  Terms of weight a = 0 are skipped, so a b_J past the
    float range, inf, reaches only the c_{J'} it feeds."""
    d = P.dimension
    b = [
        (J, 2.0**d * math.sqrt(d) ** sum(J) * math.prod(map(math.factorial, J)) * alpha)
        for J, alpha in P.coefficients.items() if alpha != 0.0
    ]
    coeffs: dict[tuple, float] = {}
    for Jp in iter_multi_indices(d, P.degree):
        acc = 0.0
        for J, b_J in b:
            weight = math.prod(legendre_coefficient(n, m) for n, m in zip(Jp, J))
            if weight:
                acc += b_J * weight
        coeffs[Jp] = acc / multi_norm_sq(Jp)
    return LegendreExpansion(d, coeffs)


def eval_g(g: LegendreExpansion, w) -> np.ndarray:
    """Evaluate g at cube points w of shape (..., d)."""
    half = 1.0 / math.sqrt(g.dimension)
    if np.any(np.abs(w) > half + 1e-12):
        raise ValueError(f"point outside the cube [-{half:.6g}, {half:.6g}]^{g.dimension}")
    scaled = w * math.sqrt(g.dimension)
    out = np.zeros(scaled.shape[:-1])
    for J, c in g.coefficients.items():
        if c != 0.0:
            out += c * multi_legendre_eval(J, scaled)
    return out


MAX_ABS_G_POINTS = 10_000  # uniform cube samples ``max_abs_g`` takes the max over


def max_abs_g(g: LegendreExpansion, rng: RandomSource) -> float:
    """Max of |g| over ``MAX_ABS_G_POINTS`` uniform samples of the cube."""
    pts = uniform_cube(g.dimension, MAX_ABS_G_POINTS, rng.generator())
    return float(np.max(np.abs(eval_g(g, pts))))


def g_magnitude_bound(d: int, k: int, alpha: float) -> Fraction:
    """The a-priori bound beta = max(1, alpha)^max(k, 1) (A/a)^k (12 d)^{2 k^2} on max |g|
    for a degree-k polynomial on R^d with coefficients at most alpha in
    magnitude, where a = 1/k! and A = 1 bracket exp's Taylor coefficients
    a_1, ..., a_k, so A/a = k!.  At k = 0, g is P's constant, so |g| <= alpha.

    Exact: beta overflows a double already at moderate d and k.
    """
    return Fraction(max(1.0, alpha)) ** max(k, 1) * Fraction(math.factorial(k)) ** k * Fraction(12 * d) ** (2 * k * k)


# Terms of i_n's series: the least K whose first dropped term at n = 0, |z| = 1 is <= 2^-54;
# each dropped term is under 1/400 of the one before, less for n > 0, so they sum to <= 2^-53 of i_n.
_BESSEL_TERMS = next(K for K in range(64) if 0.5**K / math.factorial(K) / math.prod(range(1, 2 * K + 2, 2)) <= 2.0**-54)


def integral_feature_expectation(g: LegendreExpansion, x_points) -> np.ndarray:
    """f(x) = c_d * int_cube exp(<w, x>) g(w) dw at points x of shape (m, d), in closed form.
    With t = sqrt(d) w, c_d dw = 2^-d dt and the integrand factors over the axes, so
    f(x) = sum_J c_J prod_i i_{j_i}(x_i / sqrt(d)), i_n(z) = (1/2) int_{-1}^1 p_n(t) e^{zt} dt
    = z^n sum_k (z^2/2)^k / (k! (2n+2k+1)!!), summed by Horner in x_i^2 / d with d^(-|J|/2)
    taken out.  Its coefficients are rounded once, to 0 past the double range.  Needs |z| <= 1."""
    d = g.dimension
    if np.any(np.abs(x_points) > math.sqrt(d)):
        raise ValueError(f"point with a coordinate past sqrt(d) = {math.sqrt(d):.6g}")
    terms = [(J, c) for J, c in g.coefficients.items() if c != 0.0]
    s, table = x_points * x_points / d, []
    for n in range(max((max(J) for J, _ in terms), default=-1) + 1):
        h = np.zeros_like(s)
        for k in reversed(range(_BESSEL_TERMS)):
            h = h * s + 1 / (2**k * math.factorial(k) * math.prod(range(1, 2 * n + 2 * k + 2, 2)))
        table.append(x_points**n * h)
    return sum((c * d ** (-0.5 * sum(J)) * np.prod([table[j][:, i] for i, j in enumerate(J)], axis=0)
                for J, c in terms), np.zeros(len(x_points)))


def truncated_residual(P: SparsePolynomial, g: LegendreExpansion, x_points, quad_order: int):
    """Residuals c_d * int sigma_k(<w, x>) g(w) dw - P(x) at each probe point,
    with sigma_k the degree-k Taylor truncation of exp, and a per-point bound on
    their rounding, as ``(residual, bound)`` from one quadrature pass.

    Bound.  The order >= k + 2 rule integrates sigma_k(<w, x>) g(w), of degree
    <= 2k in each w_i, exactly, so the residual fl(sum_j t_j) - fl(P(x)) over
    the N nodes, t_j = sigma_k(<w_j, x>) c_d omega_j g(w_j), is all rounding.
    Let u = 2^-53, gamma_n = n u / (1 - n u), tiny = 2^-1074, T = sum_j |t_j|.
    Assume (a) the N-term inner product errs by at most gamma_N T in any
    order, with or without FMA (Higham, eq. 3.5), plus tiny/2 per product
    below the normal range; (b) each term is within gamma_m |t_j|,
    m = 12d + 18k + 10: |<w, x>| <= 1, so the projection errs by gamma_d and
    Horner's 2k steps by e gamma_2k; sigma_k's slope is <= e and sigma_k >= 1/3
    on [-1, 1] for k >= 2, so sigma_k errs by 3e (gamma_d + gamma_2k) <=
    gamma_{9d + 18k} relatively; c_d omega_j g(w_j) is d + 2 products of d + 2
    factors, 3d + 10 with 4 for g(w_j), if the d rule weights, scale^d and c_d
    are correct to 2u.  Measured against long double, the weights err by up
    to 3.1, 7.9, 7.5, 15, 17, 74 and 184 u at orders 4, 6, 8, 10, 16, 20 and
    40 (the nodes by 0.63 u), so (b) needs m raised by d (e_w - 2) for e_w u
    weights at every order >= 4: as written the derivation does not close,
    and the bound keeps m as stated; (c) g(w_j), with construct_g's
    coefficients, and sigma_1 = 1 + z near z = -1 are as accurate, and P(x)
    is within (gamma_N + gamma_m) T.  (c) is the empirical part: over 80
    random polynomials of degree <= 8 in d <= 3 and monomials up to degree 30
    the residual stayed below 7 u T, against 2 (N + m) u T >= 48 u T.  So, to
    first order and with (b) as assumed, |residual| <= 2 gamma_{N+m} T +
    (N + m) tiny.  An inf or NaN term makes the bound and the residual inf or
    NaN alike.
    """
    k = P.degree
    if quad_order < k + 2:
        raise ValueError(f"quad_order must be >= degree + 2 = {k + 2}")
    scale = 1.0 / math.sqrt(g.dimension)
    nodes, weights = tensor_grid(*gauss_legendre_rule(quad_order), g.dimension)
    nodes *= scale
    sig_vals = exp_truncated(k, x_points @ nodes.T)
    weighted = weights * scale**g.dimension * eval_g(g, nodes) * g.normalizer
    n = weighted.size + 12 * P.dimension + 18 * k + 10
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    bound = 2.0 * gamma * (np.abs(sig_vals) @ np.abs(weighted)) + n * 2.0**-1074
    return sig_vals @ weighted - P.evaluate(x_points), bound
