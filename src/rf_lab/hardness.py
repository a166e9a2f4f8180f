"""Hard-instance toolkit: the periodic triangle function, subspace residuals,
correlation decay, and single-neuron inapproximability sweeps.

The central object is the piecewise-linear function

    psi(x) = [x + a]_+ + sum_{n=1}^{a} 2 (-1)^n [x + a - 2n]_+ - 1,

with a = 6 d^2 + 1 (odd).  On [-a, a] it is an odd triangle wave of period
4 and unit amplitude: kinks with alternating slopes +-1 sit at the odd
integers, zeros at the even integers.  Outside the window it follows the
definition as written: constant -1 to the left, decreasing affinely to the
right.  Evaluation takes the position within the period in closed form,
with one floor and no division, rather than summing the ~6d^2 ReLU terms.
``psi_properties_check`` certifies this shape, the term-by-term sum
(``psi_relu_sum``) included, as one (property, observed, requirement, met)
row per property, the rows psi-check writes.

Composed with a random direction, x -> psi(<w, x>) with ||w|| = d
oscillates too fast for any fixed low-norm feature family to track, which
is what the correlation-decay and inapproximability sweeps measure.  The
latter's hard targets, psi(<d e_1, x>) and [<d^3 e_1, x> + b*]_+, are
functions of t = x_1 alone.  Both sweeps return their CSV rows as tuples and
run one cell per dimension through ``parallel.map_cells``.  Each draws
its Gaussian points in ``features.row_blocks``, each block straight into
one reused buffer (``features.gaussian_row_blocks``), where a lone last
point joins the block before it.  The correlation sweep's ridges
psi_w(x) = psi(<w, x>) are a ``features.FeatureSample`` with activation
psi, streamed by ``features.gaussian_feature_blocks`` in one reused buffer
(at most ``features.PREDICT_CELLS`` values, plus one row) into running
sums, so a cell holds no array that grows with the sample; its test net
is ``features.predict`` over a ReLU ``features.FeatureSample``.
The inapproximability sweep's least-squares fit draws its training and
held-out points this way; its directly-trained neuron only each point's
(t, s) in the frame (e_1, v) of its weights, the same SGD in law since
N(0, I_d) is rotation-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .features import (
    FeatureSample,
    gaussian_feature_blocks,
    gaussian_row_blocks,
    least_squares_fit,
    predict,
    relu,
    row_blocks,
)
from .numerics import (
    RandomSource,
    gauss_legendre_rule,
    gaussian_expectation_1d,
    kink_split_rule,
    unit_sphere,
)
from .parallel import map_cells


@dataclass(frozen=True)
class PsiFunction:
    """Hard-instance function parameterized by the input dimension d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def a(self) -> int:
        return 6 * self.d * self.d + 1

    @property
    def kinks(self) -> np.ndarray:
        """ReLU kink positions -a + 2n, n = 0..a (the odd integers in [-a, a])."""
        return np.arange(-self.a, self.a + 1, 2, dtype=float)


def psi_eval(psi: PsiFunction, x, out=None):
    """Exact piecewise-linear evaluation of psi at an array of points.

    Inside the window psi is the triangle wave 1 - |4 q - 2| of the
    fractional part q = h/4 - floor(h/4), h = x + a, computed in one buffer
    without a division; the two tails are patched over it.  Every step after
    the rounding of h is exact: since a is an integer >= 7, h is a multiple
    of 2^-51 on the window, so h/4 is never subnormal and scaling by 1/4 and
    by 4 is exact; floor is exact; and for k = floor(h/4) >= 1, h/4 - k is
    exact by Sterbenz's lemma (k <= h/4 < k + 1 <= 2k), while k = 0 leaves
    h/4 as it is.  So 4 q is h - 4k, bit for bit the remainder of h mod 4.

    As in NumPy, ``out`` is an array of x's shape that receives the result
    and is returned; it may be ``x`` itself.  The tail masks and the right
    tail's values are taken from x before anything is written.
    """
    a = float(psi.a)
    left = x < -a
    right = x >= a
    right_values = 1.0 - (x[right] - a) if right.any() else None
    out = np.add(x, a, out=np.empty_like(x) if out is None else out)
    out *= 0.25
    out -= np.floor(out)
    out *= 4.0
    out -= 2.0
    np.abs(out, out=out)
    np.subtract(1.0, out, out=out)
    np.copyto(out, -1.0, where=left)
    if right_values is not None:
        out[right] = right_values
    return out


def psi_relu_decomposition(psi: PsiFunction) -> np.ndarray:
    """psi's ReLU coefficients c_n, n = 0..a, read off the definition: c_0 = 1 and
    c_n = 2 (-1)^n, the term [x + a - 2n]_+ = [x - kink_n]_+ of each."""
    coefficients = np.where(np.arange(psi.a + 1) % 2, -2.0, 2.0)
    coefficients[0] = 1.0
    return coefficients


def psi_relu_sum(psi: PsiFunction, coefficients: np.ndarray, x):
    """sum_n c_n [x - kink_n]_+ - 1 term by term; the oracle for the closed-form evaluator.

    The ~6 d^2 alternating terms have magnitude ~2a, so a plain float64
    sum would carry several 1e-12 of rounding at d >= 5.  Instead x is
    split as round(x) + f with |f| <= 1/2: the shifted integers
    z_n = round(x) - kink_n, the active set z_n + f > 0 (tested as z_n > -f),
    S = sum c_n z_n and C = sum c_n over it are all exact, and the value
    is S + f C - 1.  Integer coefficients are assumed.  Each intermediate
    holds at most len(x) x (a + 1) values.
    """
    whole = np.round(x)
    f = x - whole
    z = whole[..., None] - psi.kinks
    active = z > -f[..., None]
    z *= active
    return z @ coefficients + f * (active @ coefficients) - 1.0


# Simpson on [-1, 1], exact for psi^2 between kinks.  Its nodes are panel ends and
# midpoints, binary-exact at psi's integer kinks, so each energy is exactly 2/3.
_SIMPSON = (np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 3.0)


def psi_properties_check(psi: PsiFunction, grid_points: int, norm_order: int) -> tuple:
    """Certify oddness, 4-periodicity, per-interval energy 2/3, amplitude,
    ReLU-decomposition agreement, and the Gaussian norm at ||w|| = d, as one
    (property, observed value, requirement, met) row each."""
    a = psi.a
    x = np.linspace(-a, a, grid_points)
    vals = psi_eval(psi, x)
    odd = float(np.max(np.abs(vals + psi_eval(psi, -x))))
    xp = np.linspace(-a, a - 4, grid_points)
    per = float(np.max(np.abs(psi_eval(psi, xp + 4.0) - psi_eval(psi, xp))))
    # integer-aligned length-2 intervals; sample up to 40 across the window
    starts = range(-a, a - 1, max(2, (2 * a - 2) // 40))
    rules = (kink_split_rule(_SIMPSON, float(n), float(n + 2), psi.kinks) for n in starts)
    dev = max(abs(float(w @ psi_eval(psi, z) ** 2) - 2.0 / 3.0) for z, w in rules)
    coefficients = psi_relu_decomposition(psi)
    # in blocks: the term-by-term sum holds grid x (a + 1) values
    deco_res = max(
        float(np.max(np.abs(psi_relu_sum(psi, coefficients, x[start:stop]) - vals[start:stop])))
        for start, stop in row_blocks(len(x), len(coefficients))
    )
    amp = float(np.max(np.abs(vals)))
    norm = psi_gaussian_norm(psi, norm_order)
    return (
        ("oddness_residual", odd, "< 1e-12", odd < 1e-12),
        ("periodicity_residual", per, "< 1e-12", per < 1e-12),
        # the largest deviation from the exact per-interval value 2/3
        ("interval_integral_max_dev_from_2/3", dev, "< 1e-10", dev < 1e-10),
        ("max_abs_value", amp, "<= 1", amp <= 1.0 + 1e-12),
        ("relu_decomposition_residual", deco_res, "< 1e-12", deco_res < 1e-12),
        ("gaussian_norm_at_w=d", norm, ">= 1/6", norm >= 1.0 / 6.0),
    )


def psi_gaussian_norm(psi: PsiFunction, order: int) -> float:
    """||psi(<w, x>)||^2 at ||w|| = d, E[psi(z)^2] for z ~ N(0, d^2), by kink-split quadrature."""
    return gaussian_expectation_1d(lambda z: psi_eval(psi, z) ** 2, float(psi.d), order, psi.kinks)


# ---------------------------------------------------------------------------
# linear warm-up: subspace residual of a random feature span
# ---------------------------------------------------------------------------


def linear_residual(d: int, r: int, rng: RandomSource, trials: int) -> np.ndarray:
    """Exact squared distance of a random unit target from span{w_1..w_r}.

    Per trial, draws r spherically-symmetric feature directions and a unit
    w*, orthonormalizes the span, and returns ||w* - proj w*||^2.  This is
    the exact least-squares error of fitting the linear predictor
    <w*, x> with the features <w_i, x> under the Gaussian norm.  Trials run
    serially: one takes well under a millisecond at the CLI defaults, less
    than a process pool costs to start and feed.
    """
    if not (0 <= r <= d):
        raise ValueError("need 0 <= r <= d")
    return np.array([_linear_residual_trial(d, r, rng.generator(t)) for t in range(trials)])


def _linear_residual_trial(d: int, r: int, gen: np.random.Generator) -> float:
    w_star = gen.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    if r == 0:
        return 1.0
    W = gen.standard_normal((d, r))
    Q, _ = np.linalg.qr(W)
    resid = w_star - Q @ (Q.T @ w_star)
    return float(resid @ resid)


# ---------------------------------------------------------------------------
# correlation decay of psi with a fixed function
# ---------------------------------------------------------------------------


def correlation_decay(f_r: int, d_values, trials: int, mc_samples: int, rng: RandomSource, jobs: int):
    """Monte-Carlo estimate of E_w <f, psi_w>^2 / ||f||^2 per dimension, as
    (d, mean_sq, std_err) rows: the mean over the w draws and its standard error.

    The fixed test function f is drawn once per d, in the cell that runs
    that d: an ``f_r``-feature ReLU net with unit-sphere directions and
    N(0, 1/f_r^2) output weights (``_relu_test_net``).  For each of
    ``trials`` draws of w uniform on the radius-d sphere, <f, psi_w> is
    estimated over ``mc_samples`` Gaussian points shared across draws, then
    squared and averaged.  The squared sample mean carries an upward
    noise-floor bias of Var(f psi_w)/mc_samples, so decay trends flatten
    there.

    The ridges psi_w(x) = psi(<w, x>) are one ``features.FeatureSample``,
    drawn, evaluated and summed one block at a time by
    ``features.gaussian_feature_blocks``, over ``gaussian_row_blocks(gen,
    mc_samples, d, trials)`` (1,024 rows at 64 draws), so a cell's memory
    does not grow with ``mc_samples``.  As
    in every such stream, a lone last point joins the block before it.  The
    block size fixes the order of the sums: another size changes the results
    in their last digits.
    """
    cell = partial(_correlation_cell, f_r, trials, mc_samples, rng)
    return map_cells(cell, [int(d) for d in d_values], jobs)


def _relu_test_net(f_r: int, d: int, gen: np.random.Generator):
    """The correlation cell's test net, as ``(sample, u)``: a ReLU
    ``FeatureSample`` of f_r unit-sphere directions and N(0, 1) / f_r output
    weights, which ``predict`` evaluates in row blocks."""
    W = gen.standard_normal((f_r, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    u = gen.standard_normal(f_r) / f_r
    return FeatureSample(relu, W), u


def _correlation_cell(f_r: int, trials: int, mc_samples: int, rng: RandomSource, d: int) -> tuple:
    psi = PsiFunction(d)
    net, u = _relu_test_net(f_r, d, rng.generator(d, 0))
    ws = rng.generator(d, 1).standard_normal((trials, d))
    ws *= d / np.linalg.norm(ws, axis=1, keepdims=True)
    ridges = FeatureSample(lambda z, out: psi_eval(psi, z, out=out), ws)  # psi_w(x) = psi(<w, x>)
    inner_sums = np.zeros(trials)
    f_sq_sum = 0.0
    for x, psi_wx in gaussian_feature_blocks(ridges, rng.generator(d, 2), mc_samples):
        fx = predict(net, u, x)
        f_sq_sum += float(fx @ fx)
        inner_sums += fx @ psi_wx
    inners = inner_sums / mc_samples
    f_norm_sq = f_sq_sum / mc_samples
    sq = inners**2 / f_norm_sq
    return d, float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(trials))


# ---------------------------------------------------------------------------
# single-neuron inapproximability sweep
# ---------------------------------------------------------------------------


def _candidate_biases(psi: PsiFunction) -> np.ndarray:
    """The array of candidate biases b*: negated kinks a - 2n, scaled by d^2,
    at distinct n among 1, a // 4, a // 2, 3a // 4, a.  n = a // 2 gives b* = d^2,
    the middle candidate by index except at d = 1, where a // 4 = 1 repeats n = 1."""
    a = psi.a
    picks = sorted({1, max(1, a // 4), max(1, a // 2), max(1, (3 * a) // 4), a})
    return (a - 2.0 * np.array(picks)) * (psi.d * psi.d)


def neuron_target(d: int, t, b_star):
    """[<d^3 e_1, x> + b*]_+ as relu(d^3 t + b*), t = x_1, for one b* or an array
    of them (one column each); bit for bit the d-dimensional form, since
    X @ (c e_1) is c x_1 exactly: every other product is an exact zero."""
    return relu(np.add.outer(float(d) ** 3 * t, b_star))


NEURON_GD_STEPS = 400  # most updates ``train_single_neuron`` makes
NEURON_GD_TOL = 1e-10  # its stopping rule's relative batch squared error
NEURON_GD_EVAL = 50_000  # its held-out points


def _neuron_frame(w):
    """(w_1, ||w_perp||) and v = w_perp / ||w_perp|| (0 if w_perp = 0)."""
    v = w.copy()
    v[0] = 0.0
    n = np.linalg.norm(v)
    return np.array([w[0], n]), v / n if n > 0.0 else v


def _frame_gradient(g, ts, v, zeta):
    """(g.t) e_1 + (g.s) v + ||g|| P zeta; v_1 = 0, so entry 0 is g.t."""
    gt, gs = ts @ g
    out = np.linalg.norm(g) * (zeta - (v @ zeta) * v) + gs * v
    out[0] = gt
    return out


def train_single_neuron(d: int, rng: RandomSource) -> tuple[float, int]:
    """Fit one ReLU neuron by plain SGD on the squared loss to the candidate
    n = a // 2, ``neuron_target(d, x_1, d^2)``, whose kink at x_1 = -1/d lies
    inside the Gaussian bulk, so the target is not affine on the data.

    Each step moves by 0.4 times the mean gradient over a fresh batch of
    4096 points, until the batch squared error (before the update) is at
    most ``NEURON_GD_TOL`` times the batch's squared target norm, or for
    ``NEURON_GD_STEPS`` updates (~70-110 at d = 4..20).  Returns
    ``(error, updates)``: E[(model - target)^2] / E[target^2] on
    ``NEURON_GD_EVAL`` held-out points, and the update count.

    N(0, I_d) is rotation-invariant: in the frame (e_1, v) of w
    (``_neuron_frame``), x = t e_1 + s v + P x with t, s ~ N(0, 1)
    independent of P x ~ N(0, P), P the projection onto {e_1, v}^perp.
    The loss and g read only (t, s); given them sum_i g_i P x_i is
    N(0, ||g||^2 P), the law of ||g|| P zeta, zeta ~ N(0, I_d)
    (``_frame_gradient``).  So a step draws 2 * 4096 + d normals, not
    4096 d, for the same chain in law.  The held-out (t, s) pairs stream
    through ``gaussian_row_blocks``, summed per block.
    """
    lr, batch = 0.4, 4096
    b_star = float(d * d)
    gen = rng.generator(0)
    w = 0.01 * gen.standard_normal(d)
    b = 1.0  # start active; a dead neuron has zero gradient
    updates = 0
    while updates < NEURON_GD_STEPS:
        coords, v = _neuron_frame(w)
        ts = gen.standard_normal((2, batch))
        y = neuron_target(d, ts[0], b_star)
        z = coords @ ts + b
        active = z >= 0.0
        err = np.where(active, z, 0.0) - y
        if err @ err <= NEURON_GD_TOL * (y @ y):
            break
        g = 2.0 * err * active
        w -= lr * (_frame_gradient(g, ts, v, gen.standard_normal(d)) / batch)
        b -= lr * g.mean()
        updates += 1
    coords, _ = _neuron_frame(w)
    sq_error = sq_target = 0.0
    for _, _, ts_h in gaussian_row_blocks(rng.generator(1), NEURON_GD_EVAL, 2, 2):
        yh = neuron_target(d, ts_h[:, 0], b_star)
        residual = np.maximum(ts_h @ coords + b, 0.0) - yh
        sq_error += float(residual @ residual)
        sq_target += float(yh @ yh)
    return sq_error / sq_target, updates


def neuron_inapprox_sweep(r: int, d_values, n_train: int, rng: RandomSource, jobs: int):
    """Least-squares error of oblivious ReLU features against the hard targets,
    and of a directly-trained neuron, as (d, target, normalized_error,
    r_max_abs_u, updates) rows: control, psi, neuron, neuron_gd_baseline per d.

    Per dimension d: sample r bias-free ReLU features with unit-sphere
    directions first (obliviously), then fit them to
    (a) a realizable control (one of the sampled features), (b) the psi
    target psi(d t), and (c) ``neuron_target(d, t, b*)``, t = x_1, reporting
    the max normalized error over the candidate biases b*.  All
    targets share one training draw and one held-out draw per d and are
    solved together as the columns of one least-squares problem, whose
    training and held-out passes evaluate features and targets one row
    block at a time (``least_squares_fit``), so a cell's memory does not
    grow with n_train; each error is normalized by its target's
    squared norm on that held-out sample, and candidates that are zero on
    the whole sample are skipped.  Last comes ``train_single_neuron``'s
    error, with r_max_abs_u 0 and its update count (0 on the other rows).
    """
    cell = partial(_sweep_cell, r, n_train, rng)
    # a cell's work grows with its d, so a pool starts on the largest
    groups = map_cells(cell, [int(d) for d in d_values], jobs, cost=lambda d: d)
    return [row for group in groups for row in group]


def _sweep_cell(r: int, n_train: int, rng: RandomSource, d: int):
    sample = FeatureSample(relu, unit_sphere(d, r, rng.derive(d, 0).generator()))
    psi = PsiFunction(d)
    biases = _candidate_biases(psi)

    def targets(X, F):
        """Columns: the control feature, psi(d t), one per candidate neuron."""
        t = X[:, 0]
        return np.column_stack([F[:, r // 2], psi_eval(psi, d * t), neuron_target(d, t, biases)])

    _, errors, max_u, norms = least_squares_fit(sample, targets, n_train, rng.derive(d, 1))
    rmu = [r * mu for mu in max_u]
    rows = [
        (d, name, errors[j] / norms[j] if norms[j] > 0.0 else math.inf, rmu[j], 0)
        for j, name in enumerate(("control", "psi"))
    ]
    # a candidate zero on the whole sample is dead there: nothing to fit
    live = [(err / t_norm, mu) for err, t_norm, mu in zip(errors[2:], norms[2:], rmu[2:]) if t_norm != 0.0]
    rows.append((d, "neuron", *max(live, key=lambda e: e[0], default=(-1.0, 0.0)), 0))
    error, updates = train_single_neuron(d, rng.derive(d, 4))
    rows.append((d, "neuron_gd_baseline", error, 0.0, updates))
    return rows


# ---------------------------------------------------------------------------
# the exp-through-ReLU integral identity
# ---------------------------------------------------------------------------


def relu_exp_identity_check(z_values, order: int) -> np.ndarray:
    """Per-z error of the ReLU integral identity against e^z on |z| <= 1.

    For each z, evaluates

        int_0^1 ( [z-b]_+ e^b + [-z-b]_+ e^{-b} + c z e^b + c e^b ) db,
        c = 1/(e - 1),

    by Gauss-Legendre split at the kink b = |z|, and returns |LHS - e^z|.  Only
    one of the two ReLU terms is active for a given sign of z: the first
    integrates to e^z - z - 1 for z >= 0, the mirrored one (which must enter
    with a plus sign, or the z < 0 branch comes out as 2z + 2 - e^z) to
    e^z - z - 1 for z < 0; the linear and constant terms contribute z + 1.
    """
    c = 1.0 / (math.e - 1.0)
    rule = gauss_legendre_rule(order)
    errors = []
    for z in z_values:
        if abs(z) > 1.0:
            raise ValueError(f"identity only holds for |z| <= 1, got {z}")
        b, w = kink_split_rule(rule, 0.0, 1.0, [abs(z)])
        lhs = w @ (
            np.maximum(z - b, 0.0) * np.exp(b)
            + np.maximum(-z - b, 0.0) * np.exp(-b)
            + c * z * np.exp(b)
            + c * np.exp(b)
        )
        errors.append(abs(lhs - math.exp(z)))
    return np.array(errors)
