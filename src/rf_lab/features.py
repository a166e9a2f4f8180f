"""Random ridge features, the concentration experiment, and least squares.

A feature sample is an activation sigma and an (r, d) weight matrix whose
rows w_i were drawn once; feature i evaluates a point as
f_i(x) = sigma(<w_i, x>), and ``predict(sample, u, X)`` is the network
sum_i u_i f_i(x).  The paper uses two: exp features with cube-sampled
directions (the positive representation result) and bias-free ReLU
features with unit-sphere directions (the negative inapproximability
results).

Only the linear coefficients u on top of the features are ever learned;
the weights are drawn obliviously of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .numerics import RandomSource, uniform_ball, uniform_cube
from .parallel import map_cells
from .poly_repr import (
    EXP_LIPSCHITZ,
    SparsePolynomial,
    construct_g,
    eval_g,
    integral_feature_expectation,
    max_abs_g,
)
from .legendre import build_monomial_table


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


def feature_matrix(sample: FeatureSample, X, out=None) -> np.ndarray:
    """Feature values, shape (len(X), r); entry (t, i) = f_i(x_t).

    The activation is applied in place to the projections, which are
    written into ``out`` (an array of that shape) when it is given.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
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


def predict(sample: FeatureSample, u, X) -> np.ndarray:
    """sum_i u_i f_i(x) at the points X, for u of shape (r,) or (r, k),
    streamed in ``row_blocks`` through one feature buffer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
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
    the solve stays defined when features repeat or n_train < p.

    Returns (u, population_error, max_abs_u, target_norm_sq), the last the
    held-out estimate of E[target(x)^2].  For k targets u is (p, k) and the
    other three are length-k lists.
    """
    p = sample.r
    gram = np.zeros((p, p))
    rhs = 0.0
    for X, F in _gaussian_feature_blocks(sample, rng.generator(0), n_train):
        y = np.asarray(target(X, F), dtype=float)
        gram += F.T @ F
        rhs = rhs + F.T @ y
    gram.flat[:: p + 1] += 1e-10 * float(np.trace(gram)) / p
    u = np.linalg.solve(gram, rhs)
    del gram
    n_test = 10 * n_train
    sq_error = sq_target = 0.0
    for X, F in _gaussian_feature_blocks(sample, rng.generator(1), n_test):
        y = np.asarray(target(X, F), dtype=float)
        residual = F @ u
        residual -= y
        sq_error = sq_error + np.sum(np.square(residual, out=residual), axis=0)
        sq_target = sq_target + np.sum(np.square(y), axis=0)
    pop_error = (np.asarray(sq_error) / n_test).tolist()
    target_norm_sq = (np.asarray(sq_target) / n_test).tolist()
    max_u = np.max(np.abs(u), axis=0).tolist()
    return u, pop_error, max_u, target_norm_sq


def _gaussian_feature_blocks(sample: FeatureSample, gen: np.random.Generator, n_rows: int):
    """(points, features) per ``gaussian_row_blocks`` block of n_rows standard
    normal points; the features are written into one reused buffer."""
    F = np.empty((longest_block(row_blocks(n_rows, sample.r)), sample.r))
    for start, stop, X in gaussian_row_blocks(gen, n_rows, sample.d, sample.r):
        yield X, feature_matrix(sample, X, out=F[: stop - start])


# ---------------------------------------------------------------------------
# concentration experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationResult:
    """Per-trial sup errors plus the explicit high-probability envelope."""

    r_values: tuple
    rows: tuple  # (r, trial, sup_error, max_abs_u, seed)
    weight_sup_C: float

    def mean_errors(self) -> np.ndarray:
        means = []
        for r in self.r_values:
            errs = [row[2] for row in self.rows if row[0] == r]
            means.append(float(np.mean(errs)))
        return np.asarray(means)

    def std_errors(self) -> np.ndarray:
        stds = []
        for r in self.r_values:
            errs = [row[2] for row in self.rows if row[0] == r]
            stds.append(float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0)
        return np.asarray(stds)

    def envelope(self, r: int, delta: float) -> float:
        """(L C / sqrt(r)) * (4 + sqrt(2 ln(1/delta))), L = ``EXP_LIPSCHITZ``."""
        return (
            EXP_LIPSCHITZ
            * self.weight_sup_C
            / math.sqrt(r)
            * (4.0 + math.sqrt(2.0 * math.log(1.0 / delta)))
        )

    def loglog_slope(self) -> float:
        """Least-squares slope of log(mean sup error) against log r."""
        means = self.mean_errors()
        return float(np.polyfit(np.log(np.asarray(self.r_values, float)), np.log(means), 1)[0])


def concentration_experiment(
    P: SparsePolynomial,
    r_values,
    trials: int,
    probes: int,
    rng: RandomSource,
    jobs: int = 1,
) -> ConcentrationResult:
    """Sup-error of the averaged-feature approximant against its expectation.

    For each feature count r and trial, samples cube features, forms the
    u_i = g(w_i)/r approximant, and measures max_t |f_hat(x_t) - f(x_t)|
    over a fixed probe set in the unit ball, where f is the quadrature value
    of the feature expectation (exp, not its Taylor truncation).
    Deterministic given rng; trials may fan out over a worker pool without
    changing results.
    """
    r_values = tuple(int(r) for r in r_values)
    table = build_monomial_table(max(P.degree, 1))
    g = construct_g(P, table)
    probe_pts = uniform_ball(P.dimension, probes, rng.generator(0))
    f_vals = integral_feature_expectation(g, np.exp, probe_pts, P.degree + 6)
    grid_c = max_abs_g(g, 10_000, rng.derive(2))
    cell = partial(_concentration_cell, g, probe_pts, f_vals, rng)
    cells = [(ri, r, t) for ri, r in enumerate(r_values) for t in range(trials)]
    # a cell's work grows with its r, so a pool starts on the largest
    results = map_cells(cell, cells, jobs, cost=lambda c: c[1])
    rows = tuple(row for row, _ in results)
    sup_c = max([grid_c] + [sample_sup for _, sample_sup in results])
    return ConcentrationResult(r_values, rows, sup_c)


def _concentration_cell(g, probe_pts, f_vals, rng, cell):
    """One (r, trial) draw: the CSV row and the largest |g(w_i)| it sampled."""
    ri, r, t = cell
    sample = FeatureSample(np.exp, uniform_cube(g.dimension, r, rng.derive(1, ri, t).generator()))
    g_vals = eval_g(g, sample.weights)
    u = g_vals / r
    sup_err = float(np.max(np.abs(predict(sample, u, probe_pts) - f_vals)))
    return (r, t, sup_err, float(np.max(np.abs(u))), rng.seed), float(np.max(np.abs(g_vals)))
