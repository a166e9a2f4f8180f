"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one line

    ACCEPTANCE <n>: PASS|FAIL - <summary>

(visible with ``pytest -s`` or in captured output).  Heavy experiments run
through the CLI so criterion 10 can compare the emitted CSV bytes across
reruns with equal seeds.

Criterion 8 is asserted exactly as stated.  Its trend clause (psi-target
error at d = 20 exceeding the d = 4 value by >= 0.3) fails by construction
of the measured data: unit-norm ReLU ridge features carry essentially no
energy at the psi frequency already at d = 4, so the normalized error is
flat at ~1.05 for every d in the sweep instead of climbing from a lower
value.  The test is kept faithful rather than loosened; see the summary it
prints and the repository notes.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from rf_lab.cli import run
from rf_lab.hardness import (
    PsiFunction,
    psi_gaussian_norm,
    psi_properties_check,
    relu_exp_identity_check,
)
from rf_lab.legendre import (
    build_monomial_table,
    iter_multi_indices,
    legendre_eval,
    legendre_norm_sq,
)
from rf_lab.numerics import RandomSource, gauss_legendre_rule, uniform_ball
from rf_lab.poly_repr import (
    SparsePolynomial,
    construct_g,
    g_magnitude_bound,
    max_abs_g,
    truncated_residual,
)
from rf_lab.trainer import (
    drift_check,
    finite_difference_check,
    forward,
    margin_filtered_sampler,
    sgd_train,
    xavier_init,
)

SEED_CONCENTRATION = 20240101
SEED_LINEAR = 20240301
SEED_CORRELATION = 20240501
SEED_SWEEP = 20240601


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _read_csv(path: Path):
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def _cli(argv, out_dir: Path) -> Path:
    code = run(argv + ["--out", str(out_dir)])
    assert code in (0, 2), f"CLI crashed with exit {code}: {argv}"
    return out_dir / argv[0]


# --------------------------------------------------------------------------
# criterion 1: Legendre suite (< 1 s)
# --------------------------------------------------------------------------


def test_criterion_01_legendre_suite():
    nodes, weights = gauss_legendre_rule(20)
    worst_orth = 0.0
    for m in range(13):
        pm = legendre_eval(m, nodes)
        for n in range(13):
            inner = float(weights @ (pm * legendre_eval(n, nodes)))
            expected = legendre_norm_sq(n) if m == n else 0.0
            worst_orth = max(worst_orth, abs(inner - expected))
    table = build_monomial_table(12)
    vanish_exact = all(
        table[m, n] * legendre_norm_sq(n) == 0.0
        for m in range(13)
        for n in range(13)
        if m < n or (m + n) % 2 == 1
    )
    grid = np.linspace(-1, 1, 200)
    worst_recon = 0.0
    for m in range(13):
        acc = np.zeros_like(grid)
        for n in range(m + 1):
            e = table[m, n]
            if e:
                acc += e * legendre_eval(n, grid)
        worst_recon = max(worst_recon, float(np.max(np.abs(acc - grid**m))))
    ok = worst_orth < 1e-12 and vanish_exact and worst_recon < 1e-10
    _report(1, ok, f"orthogonality {worst_orth:.2e} (<1e-12), vanishing exact: {vanish_exact}, "
                   f"reconstruction {worst_recon:.2e} (<1e-10)")
    assert worst_orth < 1e-12
    assert vanish_exact
    assert worst_recon < 1e-10


# --------------------------------------------------------------------------
# criterion 2: representation oracle (< 30 s)
# --------------------------------------------------------------------------


def test_criterion_02_representation_oracle():
    rng = RandomSource(20240202)
    worst_residual = 0.0
    bound_ok = True
    for trial in range(20):
        gen = rng.generator(trial)
        d = int(gen.integers(1, 4))
        k = int(gen.integers(1, 4))
        candidates = list(iter_multi_indices(d, k))
        n_terms = min(int(gen.integers(1, 5)), len(candidates))
        picks = gen.choice(len(candidates), size=n_terms, replace=False)
        P = SparsePolynomial(d, {candidates[i]: float(gen.uniform(-1, 1)) for i in picks})
        g = construct_g(P)
        xs = uniform_ball(d, 20, rng.generator(trial, 1))
        res = truncated_residual(P, g, xs, P.degree + 4)[0]
        worst_residual = max(worst_residual, float(np.max(np.abs(res))))
        if max_abs_g(g, rng.derive(trial)) > g_magnitude_bound(d, P.degree, P.coeff_bound):
            bound_ok = False
    ok = worst_residual < 1e-8 and bound_ok
    _report(2, ok, f"max truncated residual {worst_residual:.2e} (<1e-8), "
                   f"|g| within a-priori bound: {bound_ok}")
    assert worst_residual < 1e-8
    assert bound_ok


# --------------------------------------------------------------------------
# criterion 3: concentration rate (< 5 min)
# --------------------------------------------------------------------------

CONC_ARGS = ["concentration", "--seed", str(SEED_CONCENTRATION)]


@pytest.fixture(scope="module")
def conc_dir(tmp_path_factory):
    return _cli(CONC_ARGS, tmp_path_factory.mktemp("conc"))


def test_criterion_03_concentration_rate(conc_dir):
    _, rows = _read_csv(conc_dir / "concentration.csv")
    _, summary = _read_csv(conc_dir / "concentration_summary.csv")
    r_vals = np.array([float(r[0]) for r in summary])
    means = np.array([float(r[1]) for r in summary])
    envelopes = {float(r[0]): float(r[3]) for r in summary}
    slope = float(np.polyfit(np.log(r_vals), np.log(means), 1)[0])
    violations = sum(1 for row in rows if float(row[2]) > envelopes[float(row[0])])
    ok = -0.65 <= slope <= -0.35 and violations == 0
    _report(3, ok, f"log-log slope {slope:.3f} (in [-0.65,-0.35]), "
                   f"envelope violations {violations}/{len(rows)}")
    assert -0.65 <= slope <= -0.35
    assert violations == 0


# --------------------------------------------------------------------------
# criterion 4: SGD learn-poly (< 10 min)
# --------------------------------------------------------------------------


def test_criterion_04_sgd_learn_poly():
    P = SparsePolynomial(3, {(1, 1, 0): 2.0})  # sup over the ball = 1
    sampler = margin_filtered_sampler(P, 0.3)
    rng = RandomSource(20240404)
    result = sgd_train(3, sampler, 1000, 0.01, 200_000, rng, 2000)
    X_val, y_val = sampler(2000, rng.generator(2))
    assert result.X_val.tobytes() == X_val.tobytes() and result.y_val.tobytes() == y_val.tobytes()
    comparator = float(np.mean(np.maximum(0.0, 1.0 - y_val * (3.0 * P.evaluate(X_val)))))
    gap_ok = result.best_val_loss <= comparator + 0.1

    gen = rng.generator(3)
    probe = xavier_init(3, 20, rng.derive(3))
    probe.U = 0.1 * gen.standard_normal(20)
    worst_fd = 0.0
    checked = 0
    while checked < 20:
        x = gen.standard_normal(3)
        x /= max(1.0, float(np.linalg.norm(x)))
        y = float(gen.choice((-1.0, 1.0)))
        if abs(1.0 - y * forward(probe, x)) < 1e-3:
            continue
        worst_fd = max(worst_fd, finite_difference_check(probe, x, y))
        checked += 1
    grad_ok = worst_fd < 1e-6

    report = drift_check(result.trace, 0.01)
    ok = gap_ok and grad_ok and report.drift_ok
    _report(4, ok, f"best val hinge {result.best_val_loss:.4f} vs bound {comparator + 0.1:.4f}, "
                   f"grad FD {worst_fd:.1e} (<1e-6), drift bound holds: {report.drift_ok}")
    assert gap_ok, (result.best_val_loss, comparator)
    assert grad_ok
    assert report.drift_ok


# --------------------------------------------------------------------------
# criterion 5: psi certification (< 10 s)
# --------------------------------------------------------------------------


def test_criterion_05_psi_certification():
    report = {name: value for name, value, *_ in psi_properties_check(PsiFunction(3), 10_000, 16)}
    norms = {d: psi_gaussian_norm(PsiFunction(d), 16) for d in range(3, 11)}
    norms_ok = all(v >= 1 / 6 and 0.25 <= v <= 0.40 for v in norms.values())
    residuals_ok = (
        report["oddness_residual"] < 1e-12
        and report["periodicity_residual"] < 1e-12
        and report["interval_integral_max_dev_from_2/3"] < 1e-10
        and report["relu_decomposition_residual"] < 1e-12
    )
    ok = residuals_ok and norms_ok
    _report(5, ok, f"odd {report['oddness_residual']:.1e}, period {report['periodicity_residual']:.1e} "
                   f"(<1e-12), interval dev {report['interval_integral_max_dev_from_2/3']:.1e} from 2/3 (<1e-10; "
                   f"printed value 4/3 recorded as discrepancy), decomposition "
                   f"{report['relu_decomposition_residual']:.1e} (<1e-12), norms in [0.25,0.40]: {norms_ok}")
    assert residuals_ok
    assert norms_ok


# --------------------------------------------------------------------------
# criterion 6: linear hardness (< 1 min)
# --------------------------------------------------------------------------

LINRES_ARGS = ["linear-residual", "--d", "100", "--r", "50", "--trials", "500",
               "--seed", str(SEED_LINEAR)]


@pytest.fixture(scope="module")
def linres_dir(tmp_path_factory):
    return _cli(LINRES_ARGS, tmp_path_factory.mktemp("linres"))


def test_criterion_06_linear_hardness(linres_dir):
    _, rows = _read_csv(linres_dir / "linear_residual.csv")
    residuals = np.array([float(r[1]) for r in rows])
    mean = float(residuals.mean())
    frac = float(np.mean(residuals >= 0.25))
    ok = abs(mean - 0.5) <= 0.02 and frac >= 0.99
    _report(6, ok, f"mean residual {mean:.4f} (0.5 +- 0.02), fraction >= 1/4: {frac:.3f} (>= 0.99)")
    assert abs(mean - 0.5) <= 0.02
    assert frac >= 0.99


# --------------------------------------------------------------------------
# criterion 7: correlation decay (< 5 min)
# --------------------------------------------------------------------------

CORR_ARGS = ["correlation-decay", "--mc-samples", "400000", "--seed", str(SEED_CORRELATION)]


@pytest.fixture(scope="module")
def corr_dir(tmp_path_factory):
    return _cli(CORR_ARGS, tmp_path_factory.mktemp("corr"))


def test_criterion_07_correlation_decay(corr_dir):
    _, rows = _read_csv(corr_dir / "correlation_decay.csv")
    means = [float(r[1]) for r in rows]
    ses = [float(r[2]) for r in rows]
    # an "error-bar inversion" is an increase exceeding the combined error bars
    inversions = sum(
        1
        for i in range(len(means) - 1)
        if means[i + 1] - means[i] > 2.0 * (ses[i] + ses[i + 1])
    )
    decreasing = means[-1] < means[0]
    ok = inversions <= 1 and decreasing
    trail = " ".join(f"{m:.1e}" for m in means)
    _report(7, ok, f"normalized E_w<f,psi_w>^2 over d=2..12: [{trail}], "
                   f"significant inversions {inversions} (<=1), net decrease: {decreasing}")
    assert inversions <= 1
    assert decreasing


# --------------------------------------------------------------------------
# criterion 8: inapproximability trend (< 10 min)
# --------------------------------------------------------------------------

SWEEP_ARGS = ["neuron-inapprox", "--d-values", "4,8,10,12,15,18,20",
              "--seed", str(SEED_SWEEP)]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return _cli(SWEEP_ARGS, tmp_path_factory.mktemp("sweep"))


def test_criterion_08_inapproximability_trend(sweep_dir):
    _, rows = _read_csv(sweep_dir / "neuron_inapprox.csv")
    psi_err = {int(r[0]): float(r[2]) for r in rows if r[1] == "psi"}
    baseline = {int(r[0]): float(r[2]) for r in rows if r[1] == "neuron_gd_baseline"}
    tail_ok = all(psi_err[d] >= 0.5 for d in psi_err if d >= 15)
    gap = psi_err[20] - psi_err[4]
    gap_ok = gap >= 0.3
    baseline_ok = baseline[10] < 0.01
    ok = tail_ok and gap_ok and baseline_ok
    _report(8, ok, f"psi error >= 0.5 at d >= 15: {tail_ok}; err(20)-err(4) = {gap:+.3f} "
                   f"(>= 0.3 required: {gap_ok}; flat ~1.05 at every d, see module docstring); "
                   f"neuron GD baseline at d=10: {baseline[10]:.2e} (< 0.01)")
    assert tail_ok
    assert baseline_ok
    assert gap_ok, (
        f"psi-target error is flat across d ({psi_err}); unit-norm ReLU ridge features are "
        f"already uncorrelated with the psi frequency at d = 4, so no +0.3 rise from d=4 to "
        f"d=20 exists to measure"
    )


# --------------------------------------------------------------------------
# criterion 9: exp-through-ReLU identity (< 1 s)
# --------------------------------------------------------------------------


def test_criterion_09_exp_identity():
    worst = relu_exp_identity_check(np.linspace(-1.0, 1.0, 41), 40).max()
    ok = worst < 1e-8
    _report(9, ok, f"max |LHS - e^z| over 41-point grid: {worst:.2e} (<1e-8)")
    assert worst < 1e-8


# --------------------------------------------------------------------------
# criterion 10: reproducibility of criteria 3, 6, 7, 8 (byte-identical CSVs)
# --------------------------------------------------------------------------


def test_criterion_10_reproducibility(conc_dir, linres_dir, corr_dir, sweep_dir,
                                      tmp_path_factory):
    redo = tmp_path_factory.mktemp("redo")
    pairs = [
        (CONC_ARGS, conc_dir, ("concentration.csv", "concentration_summary.csv")),
        (LINRES_ARGS, linres_dir, ("linear_residual.csv",)),
        (CORR_ARGS, corr_dir, ("correlation_decay.csv",)),
        (SWEEP_ARGS, sweep_dir, ("neuron_inapprox.csv",)),
    ]
    mismatches = []
    for argv, first_dir, files in pairs:
        second_dir = _cli(argv, redo)
        for name in files:
            if (first_dir / name).read_bytes() != (second_dir / name).read_bytes():
                mismatches.append(f"{argv[0]}/{name}")
    ok = not mismatches
    _report(10, ok, "criteria 3, 6, 7, 8 reruns byte-identical"
            if ok else f"mismatched files: {mismatches}")
    assert not mismatches
