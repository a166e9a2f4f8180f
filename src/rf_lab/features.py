"""Random ridge features, the concentration experiment, and least squares.

A feature sample is an activation sigma and an (r, d) weight matrix whose
rows w_i were drawn once; feature i evaluates a point as
f_i(x) = sigma(<w_i, x>), and ``predict(sample, u, X)`` is the network
sum_i u_i f_i(x).  The paper uses three: exp features with cube-sampled
directions (the positive representation result), bias-free ReLU features
with unit-sphere directions (the negative inapproximability results), and
the psi ridges psi(<w, x>) of the correlation-decay sweep.

Only the linear coefficients u on top of the features are ever learned;
the weights are drawn obliviously of the target.  The concentration
experiment returns its sup errors as an (r x trial) array.

A concentration cell evaluates its exp network at the n probes one of two
ways, chosen by its own sizes.  ``predict`` takes n r exps.  Where
|<w, x>| <= 1, as for cube weights and ball probes, exp(<w, x>) is also
sum_{|alpha| <= K} w^alpha x^alpha / alpha! to within e/(K+1)! <= 2^-53,
the explicit Taylor feature map of the exponential kernel (Cotter, Keshet
and Srebro, arXiv:1109.4603), so the network is sum_alpha M_alpha x^alpha
with M_alpha = sum_i u_i w_i^alpha / alpha!: m = C(d + K, d) moments, summed
once over the r features.  A cell takes this moment path iff its GEMMs
cost less than predict's n r exps (``_moments_pay``); ``predict`` stays the
other path and the moment path's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .legendre import iter_multi_indices
from .numerics import RandomSource, uniform_ball, uniform_cube
from .poly_repr import (
    EXP_LIPSCHITZ,
    SparsePolynomial,
    construct_g,
    eval_g,
    integral_feature_expectation,
    max_abs_g,
)


def relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


@dataclass(frozen=True)
class FeatureSample:
    """r ridge features in dimension d: f_i(x) = activation(<w_i, x>), with
    w_i row i of the (r, d) ``weights``.

    The activation is ufunc-like: ``activation(z, out=None)`` applies sigma
    elementwise, writes into ``out`` when it is given and returns it.  ``out``
    may be ``z`` itself, so features are computed in the projection's buffer.
    """

    activation: Callable[..., np.ndarray]
    weights: np.ndarray  # (r, d)

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def r(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]


def feature_matrix(sample: FeatureSample, X, out) -> np.ndarray:
    """Feature values, shape (len(X), r); entry (t, i) = f_i(x_t).

    The activation is applied in place to the projections, which are
    written into ``out`` (an array of that shape, or None for a new one).
    """
    if X.shape[1] != sample.d:
        raise ValueError(f"points have dimension {X.shape[1]}, features expect {sample.d}")
    Z = np.matmul(X, sample.weights.T, out=out)
    return sample.activation(Z, out=Z)


# Feature values predict builds at once (512 KiB of float64), plus one row
# where a lone last row joins a block: small enough for malloc to reuse one
# block and for the cache to hold it.
PREDICT_CELLS = 1 << 16
# BLAS matrix-vector kernels take output rows in groups (four in OpenBLAS).
# Blocks that start on a group boundary sum every row exactly as one product
# over all rows does, so a block holds whole groups: at least one, even for
# nets wider than PREDICT_CELLS / 4 features.
PREDICT_ROW_GROUP = 4


def predict_block_rows(row_values: int) -> int:
    """Rows per predict block: whole row groups, at most PREDICT_CELLS values where a group fits."""
    groups = max(1, PREDICT_CELLS // (PREDICT_ROW_GROUP * row_values))
    return groups * PREDICT_ROW_GROUP


def row_blocks(n_rows: int, row_values: int):
    """Disjoint (start, stop) blocks covering range(n_rows) in order, each of
    ``predict_block_rows(row_values)`` rows but the last.

    A product over each block equals the same rows of one product over all
    rows.  NumPy sends a lone row through a dot product, not GEMV, so a lone
    last row joins the block before it, which then has one row more.
    """
    rows = predict_block_rows(row_values)
    last = n_rows - 1 if n_rows > 1 and n_rows % rows == 1 else n_rows
    for start in range(0, last, rows):
        yield start, n_rows if start + rows >= last else start + rows


def longest_block(blocks) -> int:
    """Rows in the longest of the (start, stop) blocks; 0 for none."""
    return max((stop - start for start, stop in blocks), default=0)


def gaussian_row_blocks(gen: np.random.Generator, n_rows: int, d: int, row_values: int):
    """(start, stop, points) over ``row_blocks(n_rows, row_values)``: points are
    rows start:stop of ``gen.standard_normal((n_rows, d))``.

    Each block is drawn in order into one reused buffer, so the blocks take
    the values of one whole draw without it being held; each block's points
    are overwritten by the next block's.
    """
    blocks = list(row_blocks(n_rows, row_values))
    buf = np.empty((longest_block(blocks), d))
    for start, stop in blocks:
        points = buf[: stop - start]
        gen.standard_normal(out=points)
        yield start, stop, points


def gaussian_feature_blocks(sample: FeatureSample, gen: np.random.Generator, n_rows: int):
    """(points, features) per ``gaussian_row_blocks`` block of n_rows standard
    normal points; the features are written into one reused buffer, so each
    block's are overwritten by the next block's."""
    F = np.empty((longest_block(row_blocks(n_rows, sample.r)), sample.r))
    for start, stop, X in gaussian_row_blocks(gen, n_rows, sample.d, sample.r):
        yield X, feature_matrix(sample, X, out=F[: stop - start])


def predict(sample: FeatureSample, u, X) -> np.ndarray:
    """sum_i u_i f_i(x) at the points X, for u of shape (r,) or (r, k),
    streamed in ``row_blocks`` through one feature buffer."""
    out = np.empty((len(X),) + u.shape[1:])
    blocks = list(row_blocks(len(X), sample.r))
    F = np.empty((longest_block(blocks), sample.r))
    for start, stop in blocks:
        F_block = feature_matrix(sample, X[start:stop], out=F[: stop - start])
        np.matmul(F_block, u, out=out[start:stop])
    return out


def least_squares_fit(
    sample: FeatureSample,
    target,
    n_train: int,
    rng: RandomSource,
):
    """Fit the linear coefficients by regularized normal equations.

    ``target(X, F)`` gives the target values at the points X, whose feature
    matrix is F (a target may read realizable columns from F instead of
    evaluating features again): shape (n,) for one target, or (n, k) for k
    targets fitted at once on the same draws.  Training and held-out points
    are standard Gaussian draws; the returned population error is the
    held-out (10x n_train) estimate of E[(sum_i u_i f_i(x) - target(x))^2].

    Both passes draw their points in ``row_blocks`` (``gaussian_row_blocks``,
    the values of one whole draw) and featurize each block into one reused
    buffer, so neither holds more than one block of points and features, and
    ``target`` is called once per block.  The training pass adds each
    block's F_b^T F_b and F_b^T y_b to the p x p Gram matrix G and the
    right-hand side, in block order; the held-out pass adds each block's
    per-column sums of squared residuals and squared targets to running
    totals, in block order, and divides by the row count at the end.

    The ridge term is lambda = 1e-10 tr(G) / p, added to G's diagonal, so
    the solve stays defined when features repeat or n_train < p; it is 1 when
    tr(G) = 0, where every feature is dead, F^T y = 0 and so u = 0.

    Returns (u, population_error, max_abs_u, target_norm_sq), the last the
    held-out estimate of E[target(x)^2].  For k targets u is (p, k) and the
    other three are length-k lists.
    """
    p = sample.r
    gram = np.zeros((p, p))
    rhs = 0.0
    for X, F in gaussian_feature_blocks(sample, rng.generator(0), n_train):
        y = target(X, F)
        gram += F.T @ F
        rhs = rhs + F.T @ y
    gram.flat[:: p + 1] += 1e-10 * float(np.trace(gram)) / p or 1.0
    u = np.linalg.solve(gram, rhs)
    del gram
    n_test = 10 * n_train
    sq_error = sq_target = 0.0
    for X, F in gaussian_feature_blocks(sample, rng.generator(1), n_test):
        y = target(X, F)
        residual = F @ u
        residual -= y
        sq_error = sq_error + np.sum(np.square(residual, out=residual), axis=0)
        sq_target = sq_target + np.sum(np.square(y), axis=0)
    pop_error = (np.asarray(sq_error) / n_test).tolist()
    target_norm_sq = (np.asarray(sq_target) / n_test).tolist()
    max_u = np.max(np.abs(u), axis=0).tolist()
    return u, pop_error, max_u, target_norm_sq


# ---------------------------------------------------------------------------
# concentration experiment
# ---------------------------------------------------------------------------


# Order K of the moment path's Taylor series: the least K with e/(K+1)! <= 2^-53.
# For |t| <= 1 the tail sum_{k>K} t^k/k! is at most |t|^(K+1) e^|t| / (K+1)! <= e/(K+1)!.
_TAYLOR_ORDER = next(K for K in range(64) if math.e / math.factorial(K + 1) <= 2.0**-53)


def _moments_pay(d: int, r: int, n: int) -> bool:
    """True iff r exp features in dimension d cost less at n points through
    ``_moment_predict`` than through ``predict``'s n r exps.

    The moment path's two GEMMs take m' (K + 1) multiply-adds per weight and
    per point, m' = C(d - 1 + K, d - 1) the heads of ``_taylor_terms``, and
    its blocks' set-up about 2^17 more; one exp feature value costs about
    4 of them (best-of timings of both paths at d <= 3 and n = 200 to 2000).
    """
    gemm = math.comb(d - 1 + _TAYLOR_ORDER, d - 1) * (_TAYLOR_ORDER + 1)
    return gemm * (r + n) + 2**17 < 4 * n * r


@cache
def _taylor_terms(d: int):
    """The terms w^alpha x^alpha / alpha! of exp(<w, x>)'s series, |alpha| <= K,
    with alpha = (beta, a) split into its first d - 1 exponents beta and the
    last one a.

    Returns ``(heads, scale)``: heads[j][h] is the power-table row of
    x_j^(beta_j) for the h-th distinct beta (see ``_power_blocks``), and
    ``scale[h, a]`` is 1/alpha! where |alpha| <= K and 0 past it.
    """
    K = _TAYLOR_ORDER
    alphas = list(iter_multi_indices(d, K))
    row = {beta: h for h, beta in enumerate(dict.fromkeys(alpha[:-1] for alpha in alphas))}
    scale = np.zeros((len(row), K + 1))
    for alpha in alphas:
        scale[row[alpha[:-1]], alpha[-1]] = 1.0 / math.prod(map(math.factorial, alpha))
    return tuple(np.array([(K + 1) * j + beta[j] for beta in row]) for j in range(d - 1)), scale


def _power_blocks(points, heads):
    """(start, stop, H, powers, scratch) over row blocks of the points:
    H[h, t] = x_t^beta_h over the block's points x_t and the ``heads``
    exponents beta_h of the first d - 1 coordinates, powers[a, t] = x_td^a
    for a <= K, and scratch an array of H's shape for the caller.

    All are point-major, so each is built a whole row at a time: x^k is
    x^(k - j) x^j for j = 1, 2, 4, ... (at most K - 1 roundings).  They are
    views of one buffer of at most PREDICT_CELLS values (one block row at
    least), as ``predict``'s feature buffer is, and each block's overwrite
    the last block's.
    """
    n, d = points.shape
    K = _TAYLOR_ORDER
    width = len(heads[0]) if heads else 1
    row_values = d * (K + 1) + 3 * width
    rows = max(1, PREDICT_CELLS // row_values)
    buffer = np.empty(min(rows, n) * row_values)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        b = stop - start
        table_values = d * (K + 1) * b
        table = buffer[:table_values].reshape(d, K + 1, b)
        H, factor, scratch = buffer[table_values : table_values + 3 * width * b].reshape(3, width, b)
        table[:, 0] = 1.0
        table[:, 1] = points[start:stop].T
        j = 1
        while j < K:
            top = min(2 * j, K)
            np.multiply(table[:, 1 : top - j + 1], table[:, j : j + 1], out=table[:, j + 1 : top + 1])
            j = top
        H.fill(1.0)
        # every row index is in range; mode "clip" lets take write straight into out
        for head_rows in heads:
            H *= np.take(table.reshape(-1, b), head_rows, axis=0, out=factor, mode="clip")
        yield start, stop, H, table[d - 1], scratch


def _moment_predict(sample: FeatureSample, u, X) -> np.ndarray:
    """sum_i u_i exp(<w_i, x>) at the points X, for exp features and u of
    shape (r,), through the network's Taylor moments
    M_alpha = sum_i u_i w_i^alpha / alpha!, |alpha| <= K: it is
    sum_alpha M_alpha x^alpha.

    Where every |<w_i, x>| <= 1 (cube weights, ball points) this differs
    from the network by at most e/(K+1)! sum_i |u_i| <= 2^-53 sum_i |u_i|,
    plus rounding.  With alpha = (beta, a) as in ``_taylor_terms``, the
    moments are the (m', K+1) matrix sum_i u_i w_i^beta w_id^a, scaled, and
    each point block's values are the column sums of (M @ powers) * H, so
    both passes are one GEMM per ``_power_blocks`` block.
    """
    heads, scale = _taylor_terms(sample.d)
    # a generator expression, so that no view of the weight pass's buffer outlives it
    blocks = _power_blocks(sample.weights, heads)
    moments = sum(np.multiply(H, u[start:stop], out=H) @ powers.T for start, stop, H, powers, _ in blocks)
    moments *= scale
    out = np.empty(len(X))
    for start, stop, H, powers, terms in _power_blocks(X, heads):
        np.matmul(moments, powers, out=terms)
        terms *= H
        np.sum(terms, axis=0, out=out[start:stop])
    return out


def concentration_envelope(weight_sup_C: float, r, delta: float):
    """(L C / sqrt(r)) * (4 + sqrt(2 ln(1/delta))), L = ``EXP_LIPSCHITZ``, the
    sup error that a draw of r features exceeds with probability at most
    delta; r is an int or an array of them."""
    return EXP_LIPSCHITZ * weight_sup_C / np.sqrt(r) * (4.0 + math.sqrt(2.0 * math.log(1.0 / delta)))


def concentration_experiment(
    P: SparsePolynomial,
    r_values,
    trials: int,
    probes: int,
    rng: RandomSource,
):
    """Sup-error of the averaged-feature approximant against its expectation.

    For each feature count r and trial, samples cube features, forms the
    u_i = g(w_i)/r approximant, and measures max_t |f_hat(x_t) - f(x_t)|
    over a fixed probe set in the unit ball, where f is the closed-form value
    of the feature expectation (exp, not its Taylor truncation).  A cell
    for which ``_moments_pay`` picks the moment path evaluates f_hat
    through the moments (see the module docstring): its sup error then
    differs from ``predict``'s in the last digits, within e/(K+1)! sum_i |u_i|
    plus rounding.
    Deterministic given rng: draw (ri, r, t) takes its weights from
    ``rng.derive(1, ri, t)``.  The draws run in turn in the calling process;
    together they take well under a second at the CLI defaults, less than a
    worker pool costs to start.

    Returns ``(sup_error, max_abs_u, weight_sup_C)``: each draw's sup error
    and largest |u_i| as (len(r_values), trials) arrays, row i for
    r_values[i], and the largest |g| seen on a cube grid or in any draw.
    """
    g = construct_g(P)
    probe_pts = uniform_ball(P.dimension, probes, rng.generator(0))
    f_vals = integral_feature_expectation(g, probe_pts)
    grid_c = max_abs_g(g, rng.derive(2))
    sup_err = np.empty((len(r_values), trials))
    max_u = np.empty_like(sup_err)
    weight_sup_C = grid_c
    for ri, r in enumerate(r_values):
        for t in range(trials):
            sup_err[ri, t], max_u[ri, t], sample_sup = _concentration_cell(g, probe_pts, f_vals, rng, (ri, r, t))
            weight_sup_C = max(weight_sup_C, sample_sup)
    return sup_err, max_u, weight_sup_C


def _concentration_cell(g, probe_pts, f_vals, rng, cell):
    """One (r, trial) draw: its sup error, largest |u_i| and largest |g(w_i)|."""
    ri, r, t = cell
    sample = FeatureSample(np.exp, uniform_cube(g.dimension, r, rng.derive(1, ri, t).generator()))
    g_vals = eval_g(g, sample.weights)
    u = g_vals / r
    network = _moment_predict if _moments_pay(sample.d, r, len(probe_pts)) else predict
    sup_err = float(np.max(np.abs(network(sample, u, probe_pts) - f_vals)))
    return sup_err, float(np.max(np.abs(u))), float(np.max(np.abs(g_vals)))
