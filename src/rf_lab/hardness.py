"""Hard-instance toolkit: the periodic triangle function, subspace residuals,
correlation decay, and single-neuron inapproximability sweeps.

The central object is the piecewise-linear function

    psi(x) = [x + a]_+ + sum_{n=1}^{a} 2 (-1)^n [x + a - 2n]_+ - 1,

with a = 6 d^2 + 1 (odd).  On [-a, a] it is an odd triangle wave of period
4 and unit amplitude: kinks with alternating slopes +-1 sit at the odd
integers, zeros at the even integers.  Outside the window it follows the
definition as written: constant -1 to the left, decreasing affinely to the
right.  Evaluation takes the position within the period in closed form,
with one floor and no division, rather than summing the ~6d^2 ReLU terms;
the term-by-term sum is kept as a test oracle (``ReluDecomposition.evaluate``).

Composed with a random direction, x -> psi(<w, x>) with ||w|| = d
oscillates too fast for any fixed low-norm feature family to track, which
is what the correlation-decay and inapproximability sweeps measure.  Both
run one cell per dimension through ``parallel.map_cells``.  Each draws
its Gaussian points in ``features.row_blocks``, each block straight into
one reused buffer (``features.gaussian_row_blocks``), where a lone last
point joins the block before it.  The correlation sweep projects each
block into one reused buffer, passes it through psi in place (at most
``features.PREDICT_CELLS`` psi values, plus one row) and adds it to the
running sums, so a cell holds no array that grows with the sample; its
test net is ``features.predict`` over a ReLU ``features.FeatureSample``.
The inapproximability sweep's least-squares fit draws its training and
held-out points this way, and its directly-trained baseline its held-out
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .features import (
    FeatureSample,
    gaussian_row_blocks,
    least_squares_fit,
    longest_block,
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
    """Exact piecewise-linear evaluation of psi (scalar or array input).

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
    x = np.asarray(x, dtype=float)
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
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ReluNeuron:
    """Target neuron x -> [<w*, x> + b*]_+."""

    w_star: np.ndarray
    b_star: float

    def __post_init__(self):
        self.w_star.setflags(write=False)

    def evaluate(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.maximum(X @ self.w_star + self.b_star, 0.0)


@dataclass(frozen=True)
class ReluDecomposition:
    """psi as an explicit sum of ReLU terms plus a constant."""

    coefficients: np.ndarray  # a_j
    offsets: np.ndarray  # c_j
    constant: float

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    def evaluate(self, x):
        """Term-by-term sum; the oracle for the closed-form evaluator.

        The ~6 d^2 alternating terms have magnitude ~2a, so a plain float64
        sum would carry several 1e-12 of rounding at d >= 5.  Instead x is
        split as round(x) + f with |f| <= 1/2: the shifted integers
        z_j = round(x) + c_j, the active set z_j + f > 0 (tested as z_j > -f),
        S = sum a_j z_j and C = sum a_j over it are all exact, and the value
        is S + f C + constant.  Integer offsets and coefficients are assumed.
        Each intermediate holds at most len(x) x n_terms values.
        """
        x = np.asarray(x, dtype=float)
        whole = np.round(x)
        f = x - whole
        z = whole[..., None] + self.offsets
        active = z > -f[..., None]
        z *= active
        out = z @ self.coefficients + f * (active @ self.coefficients) + self.constant
        return out if out.ndim else float(out)


def psi_relu_decomposition(psi: PsiFunction) -> ReluDecomposition:
    """Read the a+1 ReLU terms (plus constant -1) off the definition."""
    a = psi.a
    coeffs = np.empty(a + 1)
    offsets = np.empty(a + 1)
    coeffs[0] = 1.0
    offsets[0] = float(a)
    for n in range(1, a + 1):
        coeffs[n] = 2.0 * (-1.0) ** n
        offsets[n] = float(a - 2 * n)
    return ReluDecomposition(coeffs, offsets, -1.0)


# Simpson on [-1, 1], exact for psi^2 between kinks.  Its nodes are panel ends and
# midpoints, binary-exact at psi's integer kinks, so each energy is exactly 2/3.
_SIMPSON = (np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 3.0)


@dataclass(frozen=True)
class PsiReport:
    """Grid residuals and exact integrals certifying psi's claimed shape."""

    d: int
    oddness_residual: float
    periodicity_residual: float
    max_interval_deviation: float  # from the exact per-interval value 2/3
    max_abs_value: float
    decomposition_residual: float
    gaussian_norm_at_d: float

    @property
    def checks(self) -> tuple:
        """(property, observed value, requirement, met) for each certified property."""
        return (
            ("oddness_residual", self.oddness_residual, "< 1e-12", self.oddness_residual < 1e-12),
            ("periodicity_residual", self.periodicity_residual, "< 1e-12", self.periodicity_residual < 1e-12),
            ("interval_integral_max_dev_from_2/3", self.max_interval_deviation, "< 1e-10",
             self.max_interval_deviation < 1e-10),
            ("max_abs_value", self.max_abs_value, "<= 1", self.max_abs_value <= 1.0 + 1e-12),
            ("relu_decomposition_residual", self.decomposition_residual, "< 1e-12",
             self.decomposition_residual < 1e-12),
            ("gaussian_norm_at_w=d", self.gaussian_norm_at_d, ">= 1/6", self.gaussian_norm_at_d >= 1.0 / 6.0),
        )

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.checks)


def psi_properties_check(psi: PsiFunction, grid_points: int, norm_order: int) -> PsiReport:
    """Certify oddness, 4-periodicity, per-interval energy 2/3, amplitude,
    ReLU-decomposition agreement, and the Gaussian norm at ||w|| = d."""
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
    deco = psi_relu_decomposition(psi)
    # in blocks: the term-by-term sum holds grid x n_terms values
    deco_res = max(
        float(np.max(np.abs(deco.evaluate(x[start:stop]) - vals[start:stop])))
        for start, stop in row_blocks(len(x), deco.n_terms)
    )
    norm = psi_gaussian_norm(psi, norm_order)
    return PsiReport(
        d=psi.d,
        oddness_residual=odd,
        periodicity_residual=per,
        max_interval_deviation=float(dev),
        max_abs_value=float(np.max(np.abs(vals))),
        decomposition_residual=deco_res,
        gaussian_norm_at_d=norm,
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


@dataclass(frozen=True)
class CorrelationDecayRow:
    d: int
    mean_sq: float  # mean over w draws of <f, psi_w>^2, normalized by ||f||^2
    std_err: float
    n_w: int
    mc_samples: int


def correlation_decay(f_r: int, d_values, trials: int, mc_samples: int, rng: RandomSource, jobs: int):
    """Monte-Carlo estimate of E_w <f, psi_w>^2 / ||f||^2 per dimension.

    The fixed test function f is drawn once per d, in the cell that runs
    that d: an ``f_r``-feature ReLU net with unit-sphere directions and
    N(0, 1/f_r^2) output weights (``_relu_test_net``).  For each of
    ``trials`` draws of w uniform on the radius-d sphere, <f, psi_w> is
    estimated over ``mc_samples`` Gaussian points shared across draws, then
    squared and averaged.  The squared sample mean carries an upward
    noise-floor bias of Var(f psi_w)/mc_samples, so decay trends flatten
    there.

    The points are drawn, evaluated and summed one block at a time, over
    ``features.gaussian_row_blocks(gen, mc_samples, d, trials)`` (1,024 rows
    at 64 draws), so a cell's memory does not grow with ``mc_samples``.  As
    in every such stream, a lone last point joins the block before it.  The
    block size fixes the order of the sums: another size changes the results
    in their last digits.
    """
    cell = partial(_correlation_cell, f_r, trials, mc_samples, rng)
    return map_cells(cell, [int(d) for d in d_values], jobs)


def _relu_test_net(f_r: int, d: int, gen: np.random.Generator):
    """The correlation cell's test net: ``predict`` over a ReLU ``FeatureSample``
    of f_r unit-sphere directions, with N(0, 1) / f_r output weights.  It
    evaluates any batch of points in row blocks rather than as one n x f_r
    feature matrix."""
    W = gen.standard_normal((f_r, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    u = gen.standard_normal(f_r) / f_r
    return partial(predict, FeatureSample(relu, W), u)


def _correlation_cell(f_r: int, trials: int, mc_samples: int, rng: RandomSource, d: int) -> CorrelationDecayRow:
    psi = PsiFunction(d)
    f = _relu_test_net(f_r, d, rng.generator(d, 0))
    gen_w = rng.generator(d, 1)
    ws = gen_w.standard_normal((trials, d))
    ws *= d / np.linalg.norm(ws, axis=1, keepdims=True)
    # psi_w(x) at a block's points, in one buffer: a fresh array per block made
    # the default sweep's cells take about a quarter more CPU time
    Z = np.empty((longest_block(row_blocks(mc_samples, trials)), trials))
    inner_sums = np.zeros(trials)
    f_sq_sum = 0.0
    for start, stop, x in gaussian_row_blocks(rng.generator(d, 2), mc_samples, d, trials):
        fx = f(x)
        f_sq_sum += float(fx @ fx)
        z = np.matmul(x, ws.T, out=Z[: stop - start])
        inner_sums += fx @ psi_eval(psi, z, out=z)
    inners = inner_sums / mc_samples
    f_norm_sq = f_sq_sum / mc_samples
    sq = inners**2 / f_norm_sq
    return CorrelationDecayRow(
        d=d,
        mean_sq=float(np.mean(sq)),
        std_err=float(np.std(sq, ddof=1) / math.sqrt(trials)),
        n_w=trials,
        mc_samples=mc_samples,
    )


# ---------------------------------------------------------------------------
# single-neuron inapproximability sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    d: int
    target: str  # control | psi | neuron | neuron_gd_baseline
    normalized_error: float
    r_max_abs_u: float


def _candidate_biases(psi: PsiFunction) -> list:
    """A small spread of decomposition offsets (scaled by d^2) to try as b*."""
    a = psi.a
    picks = sorted({1, max(1, a // 4), max(1, a // 2), max(1, (3 * a) // 4), a})
    return [float(a - 2 * n) * psi.d * psi.d for n in picks]


def baseline_neuron_target(d: int) -> ReluNeuron:
    """The target of the directly-trained baseline: w* = d^3 e_1, b* = d^2.

    This is the sweep's middle candidate, n = a // 2 = 3 d^2 (offset
    a - 2n = 1, scaled by d^2).  Its kink sits at x_1 = -1/d, inside the
    Gaussian bulk, so the target is not affine on the data.
    """
    w_star = np.zeros(d)
    w_star[0] = float(d) ** 3
    return ReluNeuron(w_star, float(d * d))


NEURON_GD_STEPS = 400  # most updates ``train_single_neuron`` makes
NEURON_GD_TOL = 1e-10  # its stopping rule's relative batch squared error
NEURON_GD_EVAL = 50_000  # its held-out points


def train_single_neuron(target: ReluNeuron, d: int, rng: RandomSource) -> tuple[float, int]:
    """Fit one ReLU neuron to the target by plain SGD on the squared loss.

    Each step draws a fresh batch of 4096 points and moves by 0.4 times the
    batch-mean gradient.  Training stops at the first step whose
    batch squared error is at most ``NEURON_GD_TOL`` times the batch's
    squared target norm (before that step's update), or after
    ``NEURON_GD_STEPS`` updates.  The baseline target stops after ~70-110
    updates for d = 4..20 with held-out errors of ~1e-10.  Returns
    ``(error, updates)``: the normalized error E[(model - target)^2] /
    E[target^2] on ``NEURON_GD_EVAL`` held-out points and the number of
    updates made.

    Each batch is drawn into one reused buffer, and the held-out points in
    ``row_blocks`` of at most ``features.PREDICT_CELLS`` coordinates
    (``gaussian_row_blocks``): both take the values of whole draws, and
    only the (NEURON_GD_EVAL,) model and target values are kept whole.
    """
    lr, batch = 0.4, 4096
    gen = rng.generator(0)
    w = 0.01 * gen.standard_normal(d)
    b = 1.0  # start active; a dead neuron has zero gradient
    updates = 0
    X = np.empty((batch, d))
    while updates < NEURON_GD_STEPS:
        gen.standard_normal(out=X)
        y = target.evaluate(X)
        z = X @ w + b
        active = z >= 0.0
        err = np.where(active, z, 0.0) - y
        if err @ err <= NEURON_GD_TOL * (y @ y):
            break
        grad_common = 2.0 * err * active
        w -= lr * ((grad_common @ X) / batch)
        b -= lr * grad_common.mean()
        updates += 1
    yh = np.empty(NEURON_GD_EVAL)
    mh = np.empty(NEURON_GD_EVAL)
    for start, stop, Xh in gaussian_row_blocks(rng.generator(1), NEURON_GD_EVAL, d, d):
        yh[start:stop] = target.evaluate(Xh)
        mh[start:stop] = np.maximum(Xh @ w + b, 0.0)
    mh -= yh
    return float(np.mean(np.square(mh, out=mh)) / np.mean(np.square(yh, out=yh))), updates


def neuron_inapprox_sweep(
    r: int,
    d_values,
    n_train: int,
    rng: RandomSource,
    include_baseline: bool,
    jobs: int,
):
    """Least-squares error of oblivious ReLU features against the hard targets.

    Per dimension d: sample r bias-free ReLU features with unit-sphere
    directions first (obliviously), then fit them to
    (a) a realizable control (one of the sampled features), (b) the psi
    target psi(<d e_1, x>), and (c) the scaled neuron target, reporting the
    max normalized error over a small set of candidate biases b*.  All
    targets share one training draw and one held-out draw per d and are
    solved together as the columns of one least-squares problem, whose
    training and held-out passes evaluate features and targets one row
    block at a time (``least_squares_fit``), so a cell's memory does not
    grow with n_train; each error is normalized by its target's
    squared norm on that held-out sample, and candidates that are zero on
    the whole sample are skipped.  Optionally adds the directly-trained
    single-neuron baseline on the middle candidate (``baseline_neuron_target``).
    """
    cell = partial(_sweep_cell, r, n_train, include_baseline, rng)
    # a cell's work grows with its d, so a pool starts on the largest
    groups = map_cells(cell, [int(d) for d in d_values], jobs, cost=lambda d: d)
    return [row for group in groups for row in group]


def _sweep_cell(r: int, n_train: int, include_baseline: bool, rng: RandomSource, d: int):
    sample = FeatureSample(relu, unit_sphere(d, r, rng.derive(d, 0).generator()))
    psi = PsiFunction(d)
    control_col = sample.r // 2
    w_dir = np.zeros(d)
    w_dir[0] = float(d)
    w_star = np.zeros(d)
    w_star[0] = float(d) ** 3
    neurons = [ReluNeuron(w_star, b_star) for b_star in _candidate_biases(psi)]

    def targets(X, F):
        """Columns: the control feature, psi(<d e_1, x>), one per candidate neuron."""
        cols = [F[:, control_col], psi_eval(psi, X @ w_dir)] + [n.evaluate(X) for n in neurons]
        return np.column_stack(cols)

    _, errors, max_u, norms = least_squares_fit(sample, targets, n_train, rng.derive(d, 1))
    rmu = [sample.r * mu for mu in max_u]
    rows = [
        SweepRow(d, name, errors[j] / norms[j] if norms[j] > 0.0 else math.inf, rmu[j])
        for j, name in enumerate(("control", "psi"))
    ]

    worst = (-1.0, 0.0)
    for err, t_norm, neuron_rmu in zip(errors[2:], norms[2:], rmu[2:]):
        if t_norm == 0.0:  # neuron dead on the whole sample; nothing to fit
            continue
        if err / t_norm > worst[0]:
            worst = (err / t_norm, neuron_rmu)
    rows.append(SweepRow(d, "neuron", worst[0], worst[1]))

    if include_baseline:
        baseline_err, _ = train_single_neuron(baseline_neuron_target(d), d, rng.derive(d, 4))
        rows.append(SweepRow(d, "neuron_gd_baseline", baseline_err, 0.0))
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
    for z in np.atleast_1d(np.asarray(z_values, dtype=float)):
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
