"""Representing polynomials as cube-expectations of exp features.

Given the lab's activation sigma = exp and a sparse polynomial P on R^d with
deg(P) <= k, this module constructs a weight function

    g(w) = sum_{|J| <= k} c_J * p_J(sqrt(d) * w)

on the cube [-1/sqrt(d), 1/sqrt(d)]^d such that

    c_d * int_cube sigma_k(<w, x>) g(w) dw = P(x),        c_d = (sqrt(d)/2)^d,

holds exactly for the degree-k Taylor truncation sigma_k of exp.
Expanding <w, x>^i over monomials and projecting onto the tensor Legendre
basis turns this into a triangular linear system in the c_J, solved in
ascending degree order:

    (1/2)^d * a_{|J|} * (|J|! / J!) * d^{-|J|/2}
        * sum_{J' <= J} c_{J'} * e_{J,J'} * ||p_{J'}||^2  =  alpha_J,

where a_i = 1/i! are the Taylor coefficients of exp, e_{J,J'} the
monomial-to-Legendre expansion coefficients and alpha_J the coefficients of
P.  The multinomial factor |J|!/J! comes from expanding the inner product
power and is required for the quadrature check below to vanish.

The construction is verified, never trusted: ``truncated_residual``
recomputes the cube integral of the truncated activation by tensor
Gauss-Legendre quadrature and returns the per-point residuals with a bound
on their rounding, both from one pass over the nodes.  The integrand is a
polynomial, so the residuals are at rounding level.  With the full
activation, ``integral_feature_expectation(g, np.exp, ...) - P`` measures the
Taylor tail of order > k, which is reported rather than asserted away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .legendre import (
    MultiIndex,
    build_monomial_table,
    iter_multi_indices,
    multi_expansion_coeff,
    multi_legendre_eval,
    multi_norm_sq,
    tensor_grid,
)
from .numerics import RandomSource, gauss_legendre_rule, uniform_cube


@dataclass(frozen=True)
class SparsePolynomial:
    """P(x) = sum_J alpha_J x^J with a sparse coefficient map."""

    dimension: int
    coefficients: Mapping[MultiIndex, float]

    def __post_init__(self):
        for J in self.coefficients:
            if J.dim != self.dimension:
                raise ValueError(f"multi-index {J} does not match dimension {self.dimension}")

    @property
    def degree(self) -> int:
        degs = [J.degree for J, a in self.coefficients.items() if a != 0.0]
        return max(degs) if degs else 0

    @property
    def coeff_bound(self) -> float:
        vals = [abs(a) for a in self.coefficients.values()]
        return max(vals) if vals else 0.0

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = x[None, :] if squeeze else x
        out = np.zeros(pts.shape[0])
        for J, a in self.coefficients.items():
            if a == 0.0:
                continue
            term = np.full(pts.shape[0], a)
            for axis, j in enumerate(J.entries):
                if j:
                    term = term * pts[:, axis] ** j
            out += term
        return float(out[0]) if squeeze else out

    @classmethod
    def from_json(cls, text: str) -> "SparsePolynomial":
        """Parse a JSON object {"j_1,...,j_d": coefficient}; malformed input raises ValueError."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or not raw:
            raise ValueError("polynomial JSON must be an object with at least one multi-index key")
        coeffs = {}
        for key, val in raw.items():
            try:
                value = float(val)
            except (TypeError, ValueError, OverflowError):
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"coefficient of {key!r} must be a finite number, got {val!r}")
            coeffs[MultiIndex.from_string(key)] = value
        dims = {J.dim for J in coeffs}
        if len(dims) != 1:
            raise ValueError("all multi-index keys must have the same length")
        return cls(dims.pop(), coeffs)


EXP_LIPSCHITZ = math.e  # Lipschitz constant of exp on [-1, 1], and exp(0) <= it


def exp_taylor_coeff(i: int) -> float:
    """Taylor coefficient a_i = 1/i! of exp."""
    return 1.0 / math.factorial(i)


def exp_truncated(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """Degree-k Taylor truncation exp_k(z) = sum_{i<=k} z^i / i!."""
    coeffs = [exp_taylor_coeff(i) for i in range(k + 1)]

    def sigma_k(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for a in reversed(coeffs):
            out = out * z + a
        return out

    return sigma_k


@dataclass(frozen=True)
class LegendreExpansion:
    """g(w) = sum_{|J| <= k} c_J p_J(sqrt(d) w) on the cube [-1/sqrt(d), 1/sqrt(d)]^d."""

    dimension: int
    coefficients: Mapping[MultiIndex, float]

    @property
    def normalizer(self) -> float:
        """Cube normalization constant c_d = (sqrt(d)/2)^d (1/volume of the cube)."""
        return (math.sqrt(self.dimension) / 2.0) ** self.dimension


def _multinomial(J: MultiIndex) -> float:
    out = math.factorial(J.degree)
    for j in J.entries:
        out //= math.factorial(j)
    return float(out)


def construct_g(P: SparsePolynomial) -> LegendreExpansion:
    """Solve the triangular system for the c_J of the weight function g.

    The system has one unknown per index J of degree at most k = deg(P), so
    it is linear in P's coefficients among polynomials of one degree.  Every
    Taylor coefficient 1/i! of exp is nonzero, so every P is representable.
    The monomial expansion table is built to degree max(k, 1).
    """
    d = P.dimension
    k = P.degree
    table = build_monomial_table(max(k, 1))
    half_pow = 0.5**d
    coeffs: dict[MultiIndex, float] = {}
    indices = list(iter_multi_indices(d, k))
    for J in indices:
        alpha = float(P.coefficients.get(J, 0.0))
        scale = half_pow * exp_taylor_coeff(J.degree) * _multinomial(J) / (math.sqrt(d) ** J.degree)
        acc = 0.0
        for Jp in indices:
            if Jp == J or Jp.degree > J.degree:
                continue
            if not (Jp <= J):
                continue
            c = coeffs[Jp]
            if c != 0.0:
                acc += c * multi_expansion_coeff(J, Jp, table) * multi_norm_sq(Jp)
        diag = multi_expansion_coeff(J, J, table) * multi_norm_sq(J)
        coeffs[J] = (alpha / scale - acc) / diag
    return LegendreExpansion(d, coeffs)


def eval_g(g: LegendreExpansion, w) -> np.ndarray:
    """Evaluate g at cube points w of shape (d,) or (m, d)."""
    w = np.asarray(w, dtype=float)
    half = 1.0 / math.sqrt(g.dimension)
    if np.any(np.abs(w) > half + 1e-12):
        raise ValueError(f"point outside the cube [-{half:.6g}, {half:.6g}]^{g.dimension}")
    scaled = w * math.sqrt(g.dimension)
    squeeze = scaled.ndim == 1
    pts = scaled[None, :] if squeeze else scaled
    out = np.zeros(pts.shape[0])
    for J, c in g.coefficients.items():
        if c != 0.0:
            out += c * multi_legendre_eval(J, pts)
    return float(out[0]) if squeeze else out


MAX_ABS_G_POINTS = 10_000  # uniform cube samples ``max_abs_g`` takes the max over


def max_abs_g(g: LegendreExpansion, rng: RandomSource) -> float:
    """Max of |g| over ``MAX_ABS_G_POINTS`` uniform samples of the cube."""
    pts = uniform_cube(g.dimension, MAX_ABS_G_POINTS, rng.generator())
    return float(np.max(np.abs(eval_g(g, pts))))


def g_magnitude_bound(d: int, k: int, alpha: float) -> Fraction:
    """The a-priori bound beta = max(1, alpha)^k (A/a)^k (12 d)^{2 k^2} on max |g|
    for a degree-k polynomial on R^d with coefficients at most alpha in
    magnitude, where a = 1/k! and A = 1 bracket exp's Taylor coefficients
    a_1, ..., a_k, so A/a = k!.

    Exact: beta overflows a double already at moderate d and k.
    """
    return Fraction(max(1.0, alpha)) ** k * Fraction(math.factorial(k)) ** k * Fraction(12 * d) ** (2 * k * k)


def cube_quadrature(d: int, order: int):
    """Tensor Gauss-Legendre nodes/weights mapped to the cube [-1/sqrt(d), 1/sqrt(d)]^d.

    Weights are for the flat measure dw on the cube, so they sum to (2/sqrt(d))^d.
    """
    pts, wts = tensor_grid(*gauss_legendre_rule(order), d)
    scale = 1.0 / math.sqrt(d)
    return pts * scale, wts * scale**d


def _quadrature_terms(g: LegendreExpansion, sigma, x_points, order: int):
    """The cube rule's factors: sigma(<w_j, x>), (n_x, n_nodes), and c_d omega_j g(w_j)."""
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    w_pts, w_wts = cube_quadrature(g.dimension, order)
    g_vals = eval_g(g, w_pts)
    weighted = w_wts * g_vals * g.normalizer
    return np.asarray(sigma(x_points @ w_pts.T)), weighted


def integral_feature_expectation(
    g: LegendreExpansion, sigma: Callable[[np.ndarray], np.ndarray], x_points, order: int
) -> np.ndarray:
    """f(x) = c_d * int_cube sigma(<w, x>) g(w) dw at each x, by quadrature."""
    sig_vals, weighted = _quadrature_terms(g, sigma, x_points, order)
    return sig_vals @ weighted


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
    factors correct to 2u (the d rule weights, scale^d, c_d), 3d + 6, leaving
    4 for g(w_j); (c) g(w_j), with construct_g's coefficients, and
    sigma_1 = 1 + z near z = -1 are as accurate, and P(x) is within
    (gamma_N + gamma_m) T.  (c) is the empirical part: over 80 random
    polynomials of degree <= 8 in d <= 3 and monomials up to degree 30 the
    residual stayed below 7 u T, against 2 (N + m) u T >= 48 u T.  So, to
    first order, |residual| <= 2 gamma_{N+m} T + (N + m) tiny.  An inf or
    NaN term makes the bound and the residual inf or NaN alike.
    """
    k = P.degree
    if quad_order < k + 2:
        raise ValueError(f"quad_order must be >= degree + 2 = {k + 2}")
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    sig_vals, weighted = _quadrature_terms(g, exp_truncated(k), x_points, quad_order)
    n = weighted.size + 12 * P.dimension + 18 * k + 10
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    bound = 2.0 * gamma * (np.abs(sig_vals) @ np.abs(weighted)) + n * 2.0**-1074
    return sig_vals @ weighted - P.evaluate(x_points), bound
