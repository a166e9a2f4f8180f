"""Two-layer exp network, hinge loss, and the fresh-sample SGD procedure.

The network is N(x) = sum_i u_i exp(<w_i, x>) with no bias inside the
activation; inner rows initialize uniformly on [-1/sqrt(d), 1/sqrt(d)]^d
and the outer layer at zero.  Each SGD step draws a fresh example and takes
a hinge-loss subgradient step on both layers simultaneously (exp' = exp):

    dU_i = -y * 1[1 - y N(x) >= 0] * exp(<w_i, x>)
    dW_i = -y * 1[1 - y N(x) >= 0] * u_i * exp(<w_i, x>) * x

(the indicator takes the nonzero branch at the kink).  Each step is one
call of ``_sgd_numpy.hinge_step``.  ``_sgd_numpy.run_steps`` runs the loop
with it, at a cost that scales with the number of updates rather than of
steps (``kernel_backend()`` names it), and ``finite_difference_check``
reads the gradient off one step at eta = 1.

Per-step diagnostics (loss, ||W_t - W_0||_F, ||U_t||, ||W_t||_F; Frobenius
norms throughout) are kept as the steps that updated (``TrainTrace``): a
step that does not update has loss 0 and moves no norm, so the records
determine every step.  Drift bounds are checked on them after the fact with
``drift_check``.  The training stream is drawn one checkpoint chunk at a
time, so no buffer of the run grows with its step count except the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .features import PREDICT_CELLS, row_blocks
from .numerics import RandomSource, uniform_ball, uniform_cube
from .poly_repr import EXP_LIPSCHITZ, g_magnitude_bound

from . import _sgd_numpy


def kernel_backend(act_name: str | None = None) -> str:
    """Name of the SGD kernel: always 'numpy'."""
    return _sgd_numpy.BACKEND


@dataclass
class TwoLayerNet:
    """Mutable while its run owns it; snapshot with ``copy`` for checkpoints."""

    W: np.ndarray  # (r, d)
    U: np.ndarray  # (r,)

    @property
    def r(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(self.W.copy(), self.U.copy())


def xavier_init(d: int, r: int, rng: RandomSource) -> TwoLayerNet:
    """Rows of W uniform on the cube [-1/sqrt(d), 1/sqrt(d)]^d; U = 0."""
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    return TwoLayerNet(uniform_cube(d, r, rng.generator()), np.zeros(r))


def forward(net: TwoLayerNet, x) -> float | np.ndarray:
    """N(x) = sum_i u_i exp(<w_i, x>); x is one point (d,) or a batch (m, d).

    A batch is evaluated in ``features.row_blocks``, so no more than one
    block of hidden activations exists at a time; the blocks change no sum.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.d:
        raise ValueError(f"input dimension {x.shape[-1]} != network dimension {net.d}")
    if x.ndim == 1:
        return float(net.U @ np.exp(net.W @ x))
    out = np.empty(len(x))
    for start, stop in row_blocks(len(x), net.r):
        out[start:stop] = np.exp(x[start:stop] @ net.W.T) @ net.U
    return out


def hinge_loss(pred, y) -> float:
    """Mean of max(0, 1 - y * pred) over predictions and labels in {-1, +1}
    (scalars or arrays of one shape); the labels are checked where they are drawn."""
    return float(np.mean(np.maximum(0.0, 1.0 - y * pred)))


@dataclass(frozen=True)
class TrainConfig:
    """The three values SGD reads: width r, step size eta and step count T.

    ``guarantee_params`` fills them from the guarantee and returns its beta
    beside them, for the ``params`` report only, as training never reads
    beta; a width above ``DESK_SCALE_MAX_R`` is out of reach at desk scale.
    """

    r: int
    eta: object  # float for practical runs, exact Fraction from guarantee_params
    steps: int


DESK_SCALE_MAX_R = 10**8  # widest network a desk-scale run can train


N_CHECKPOINTS = 100  # ``sgd_train`` validates after every T // N_CHECKPOINTS steps (at least one)


@dataclass
class TrainTrace:
    """Per-step diagnostics of a T-step run, stored as its updating steps.

    Entry t (0 <= t <= T) holds the loss of step t, the running average of
    the losses of steps 0..t, and ||W - W_0||_F, ||U||, ||W||_F after step
    t - 1 (entry 0: at initialization).  Entry T's loss is that of the last
    drawn example at the final parameters.  A step that does not update has
    loss 0 and leaves the norms unchanged, so the trace keeps only

    * ``steps``: the steps that updated, increasing, then T;
    * ``loss``: the loss at each of ``steps``;
    * ``w_drift``, ``u_norm``, ``w_norm``: the norms at initialization,
      then after each updating step (one value per entry of ``steps``).

    Entries between records follow from them: entry t's loss is 0 unless t
    is in ``steps``, its norms are those of the first record at or after t,
    and its running average is the cumulative sum of the recorded losses
    through t over t + 1.
    """

    steps: np.ndarray
    loss: np.ndarray
    w_drift: np.ndarray
    u_norm: np.ndarray
    w_norm: np.ndarray


@dataclass
class SGDResult:
    net: TwoLayerNet  # best validation checkpoint
    best_step: int
    best_val_loss: float
    X_val: np.ndarray  # the held-out validation set the checkpoints were scored on
    y_val: np.ndarray
    val_history: list  # (step, validation hinge loss)
    trace: TrainTrace
    backend: str


class DivergenceError(RuntimeError):
    """SGD reached a non-finite loss, weight norm or validation loss."""


def _checked(chunk, n: int):
    X, y = chunk
    if len(X) != n or len(y) != n:
        raise ValueError(f"sampler returned {len(X)} points and {len(y)} labels for {n} rows")
    if np.any(np.linalg.norm(X, axis=1) > 1.0 + 1e-9):
        raise ValueError("sampler produced points outside the unit ball")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("sampler produced labels outside {-1, +1}")
    return X, y


def sgd_train(
    d: int,
    sampler: Callable[[int, np.random.Generator], tuple],
    config: TrainConfig,
    rng: RandomSource,
    n_val: int,
) -> SGDResult:
    """Run T fresh-sample SGD steps and return the best validation checkpoint.

    ``sampler(n, gen)`` must return (X, y) of n rows, with ||x|| <= 1 and
    y in {-1, +1}.  The training stream is drawn from ``rng.generator(1)``
    one call per checkpoint chunk (``T // N_CHECKPOINTS`` steps), then one
    call for row T, whose loss at the final parameters ends the trace; the
    validation set is one call on ``rng.generator(2)``, made after the first
    chunk.  So identical (rng, config) reproduce identical traces.  Every
    call's row count, points and labels are checked as they arrive.  The
    trace keeps the steps that updated (``TrainTrace``), so memory follows
    the chunk and the number of updates, not T.  The result carries the
    validation set, so a comparator is scored on the checkpoints' points.
    """
    T = int(config.steps)
    eta = float(config.eta)
    net = xavier_init(d, config.r, rng.derive(0))
    W0 = net.W.copy()
    chunk = max(1, T // N_CHECKPOINTS)
    counts = [min(chunk, T - done) for done in range(0, T, chunk)]
    gen = rng.generator(1)
    stream = (_checked(sampler(n, gen), n) for n in [*counts, 1])
    # the first chunk comes before the validation set, so a margin that accepts nothing fails on the stream
    X, y = next(stream)
    X_val, y_val = _checked(sampler(n_val, rng.generator(2)), n_val)

    best_loss = val = hinge_loss(forward(net, X_val), y_val)
    best_step = 0
    best_net = net.copy()
    val_history = [(0, best_loss)]
    initial_norms = (0.0, np.linalg.norm(net.U), np.linalg.norm(net.W))
    records = []  # (step, loss, ||W - W0||, ||U||, ||W||) of the updating steps, one array per chunk
    done = 0
    for count in counts:
        # overflow shows up as the non-finite values checked below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            updates = _sgd_numpy.run_steps(net.W, net.U, W0, X, y, eta, done, count)
            # a chunk without an update leaves the net, hence its validation loss, unchanged
            if updates:
                val = hinge_loss(forward(net, X_val), y_val)
        done += count
        finite = math.isfinite(val)
        if updates:
            records.append(np.array(updates))
            # the chunk's losses and the norms after its last step; a chunk without
            # an update has loss 0 and keeps norms that were already checked
            losses, last_norms = records[-1][:, 1], records[-1][-1, 3:]
            finite = finite and np.all(np.isfinite(losses)) and np.all(np.isfinite(last_norms))
        if not finite:
            raise DivergenceError(
                f"SGD finiteness check failed at step {done}: non-finite loss or weights "
                f"with eta={eta:g}, likely too large for this activation"
            )
        val_history.append((done, val))
        if val < best_loss:
            best_loss = val
            best_step = done
            best_net = net.copy()
        X, y = next(stream)
    # X is row T: the loss of the last drawn example at the final parameters ends the trace
    final = hinge_loss(forward(net, X[0]), y[0])
    updated = np.concatenate([np.empty((0, 5)), *records])
    trace = TrainTrace(
        steps=np.append(updated[:, 0].astype(np.int64), T),
        loss=np.append(updated[:, 1], final),
        w_drift=np.append(initial_norms[0], updated[:, 2]),
        u_norm=np.append(initial_norms[1], updated[:, 3]),
        w_norm=np.append(initial_norms[2], updated[:, 4]),
    )
    return SGDResult(best_net, best_step, best_loss, X_val, y_val, val_history, trace, kernel_backend())


def guarantee_params(
    epsilon: float, delta: float, d: int, k: int, alpha: float
) -> tuple[Fraction, TrainConfig]:
    """Exact guarantee-scale hyperparameters (arbitrary-magnitude arithmetic),
    as ``(beta, TrainConfig(r, eta, T))``.

    beta = ``g_magnitude_bound(d, k, alpha)``, L = ``EXP_LIPSCHITZ``,
    r >= 64 beta^6 L^2 / eps^4 * ln(1/delta), eta = eps / (8 r),
    T = ceil(4 beta^2 / eps^2).  The values overflow doubles
    for all but trivial settings, so everything is carried as Fractions/ints.
    beta only sizes r and T, so it is returned for the report beside the config
    that training reads; a run with r > ``DESK_SCALE_MAX_R`` is out of reach.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("degree k must be >= 1")
    eps = Fraction(epsilon)
    beta = g_magnitude_bound(d, k, alpha)
    L2 = Fraction(EXP_LIPSCHITZ) ** 2
    log_term = Fraction(math.log(1.0 / delta))
    r = math.ceil(64 * beta**6 * L2 / eps**4 * log_term)
    eta = eps / (8 * r)
    steps = math.ceil(4 * beta**2 / eps**2)
    return beta, TrainConfig(r=r, eta=eta, steps=steps)


@dataclass(frozen=True)
class DriftReport:
    """Outcome of checking the norm-cap and drift inequalities on a trace."""

    b_value: float
    norms_ok: bool
    drift_ok: bool
    min_drift_margin: float
    max_norm: float

    @property
    def passed(self) -> bool:
        return self.norms_ok and self.drift_ok


def finite_difference_check(net: TwoLayerNet, x, y) -> float:
    """Error of the SGD kernel's step against central finite differences of
    step h = 1e-5, relative to the gradient's largest component.

    The gradient checked is the one training takes: ``_sgd_numpy.hinge_step``
    at eta = 1 on a copy of the net, read as its displacement (old minus new).
    Meaningful only away from the hinge kink (|1 - y N(x)| not tiny), where
    the loss is differentiable.  (Per-component relative errors are
    meaningless for near-zero components, where the h^-1-amplified rounding
    of the difference quotient dominates.)
    """
    x = np.asarray(x, dtype=float)
    stepped = net.copy()
    _sgd_numpy.hinge_step(stepped.W, stepped.U, x, y, 1.0)
    num = np.zeros(net.r + net.r * net.d)
    ana = np.concatenate([net.U - stepped.U, (net.W - stepped.W).ravel()])
    flat_idx = 0
    h = 1e-5

    def loss_at(W, U):
        z = W @ x
        return max(0.0, 1.0 - y * float(U @ np.exp(z)))

    for i in range(net.r):
        U_p, U_m = net.U.copy(), net.U.copy()
        U_p[i] += h
        U_m[i] -= h
        num[flat_idx] = (loss_at(net.W, U_p) - loss_at(net.W, U_m)) / (2 * h)
        flat_idx += 1
    for i in range(net.r):
        for j in range(net.d):
            W_p, W_m = net.W.copy(), net.W.copy()
            W_p[i, j] += h
            W_m[i, j] -= h
            num[flat_idx] = (loss_at(W_p, net.U) - loss_at(W_m, net.U)) / (2 * h)
            flat_idx += 1
    scale = max(float(np.max(np.abs(num))), float(np.max(np.abs(ana))), 1e-8)
    return float(np.max(np.abs(ana - num)) / scale)


def margin_filtered_sampler(P, margin: float):
    """Sampler factory for polynomial-sign data with a margin filter.

    Draws x uniformly from the unit ball, labels y = sign(P(x)), and rejects
    points with |P(x)| < margin so the comparator polynomial attains near-zero
    hinge loss.  ``P`` should already be scaled so sup_ball |P| = 1.
    ``sampler(n, gen)`` returns the first n kept rows as (X, y).

    Candidates are drawn by ``uniform_ball``, in blocks of
    min(``PREDICT_CELLS`` // d, max(2 (n - got), 64)) rows while got rows
    are kept.  So about two candidates are drawn per row, and kept rows
    after the n-th are dropped.  A margin that accepts none of the first
    10^5 draws of a call, or fewer than n of its first 1000 n + 10^5, raises
    ValueError; at or above sup |P| it would accept none.
    """
    d = P.dimension
    block = max(1, PREDICT_CELLS // d)

    def sampler(n: int, gen: np.random.Generator):
        X = np.empty((n, d))
        y = np.empty(n)
        got = drawn = 0
        while got < n:
            if drawn >= (100_000 if got == 0 else 1000 * n + 100_000):
                raise ValueError(
                    f"margin {margin} accepted {got} of {drawn} draws from the unit ball; need {n}"
                )
            g = uniform_ball(d, min(block, max(2 * (n - got), 64)), gen)
            drawn += len(g)
            p = P.evaluate(g)
            keep = np.flatnonzero(np.abs(p) >= margin)[: n - got]
            X[got : got + len(keep)] = g[keep]
            y[got : got + len(keep)] = np.sign(p[keep])
            got += len(keep)
        return X, y

    return sampler


def drift_check(trace: TrainTrace, config: TrainConfig) -> DriftReport:
    """Verify ||W_t - W_0||_F <= t * eta * L * (B+1) at every step t of the
    trace, and ||W_t||, ||U_t|| <= B + 1 inside the norm-cap window
    t <= B / (2 eps).

    L = ``EXP_LIPSCHITZ``, B = max(2, ||W_0||, ||U_0||) and eps is read off
    the step-size relation eta = eps / (L B^2) that the window is stated for.  Record i's norms hold
    at the entries after the previous record through ``steps[i]``, and the
    margin grows with t, so both checks read each record at the first of its
    entries; the minimum and maximum are those over every step.
    """
    L = EXP_LIPSCHITZ
    eta = float(config.eta)
    B = max(2.0, float(trace.w_norm[0]), float(trace.u_norm[0]))
    cap_eps = eta * L * B * B
    # compared as a float: a tiny eta puts the window's end past every integer
    cap_steps = B / (2.0 * cap_eps) if cap_eps > 0 else math.inf
    first = np.append(0, trace.steps[:-1] + 1)  # the first entry of each record
    # margins = t * eta * L * (B + 1) - w_drift, built in place in the same order
    margins = first.astype(float)
    margins *= eta
    margins *= L
    margins *= B + 1.0
    margins -= trace.w_drift
    min_margin = float(np.min(margins))  # NaN if any margin is
    window = first <= cap_steps  # holds entry 0
    max_norm = float(max(np.max(trace.w_norm[window]), np.max(trace.u_norm[window])))
    norms_ok = max_norm <= B + 1.0 + 1e-9
    return DriftReport(
        b_value=B,
        norms_ok=norms_ok,
        drift_ok=min_margin >= -1e-9,
        min_drift_margin=min_margin,
        max_norm=max_norm,
    )
