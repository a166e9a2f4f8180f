"""Batch experiment CLI.

Every subcommand runs one reproducible pipeline, writes CSV outputs plus a
manifest (config echo, version, timestamps, stage timings, sha256 per
output file) under ``<out>/<subcommand>/``, and validates its module
invariants before exiting.  Exit codes: 0 success, 1 usage or config
error, 2 validation failure.

Config files are flat JSON objects with the same keys as the command
flags; explicit flags override file values, and unknown keys are rejected.
The default seed comes from the RF_LAB_SEED environment variable when
neither a flag nor the config provides one.  CSV floats are written with 17
significant digits, so reruns with equal seeds produce byte-identical
files.

The ``--jobs`` worker processes are the only parallelism: BLAS runs one
thread per process unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is already set, so outputs do not depend on the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process (the pool is the parallelism); OpenBLAS reads this once, as NumPy loads it.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
# hardness before features: each start compiles the package from source when
# no bytecode is cached, and hardness.py, compiled while cli.py's parse memory
# is still free, then needs ~0.1 MiB less fresh memory (peak RSS)
from .hardness import (
    PsiFunction,
    correlation_decay,
    linear_residual,
    neuron_inapprox_sweep,
    psi_properties_check,
    relu_exp_identity_check,
)
from .features import concentration_envelope, concentration_experiment
from .legendre import build_monomial_table, legendre_eval, legendre_norm_sq
from .numerics import RandomSource, gauss_legendre_rule, uniform_ball
from .parallel import usable_cpus
from .poly_repr import (
    EXP_LIPSCHITZ,
    MAX_DEGREE,
    SparsePolynomial,
    construct_g,
    g_magnitude_bound,
    integral_feature_expectation,
    max_abs_g,
    truncated_residual,
)
from .trainer import (
    DESK_SCALE_MAX_R,
    DivergenceError,
    drift_check,
    finite_difference_check,
    forward,
    hinge_loss,
    kernel_backend,
    margin_filtered_sampler,
    sgd_train,
    guarantee_params,
    xavier_init,
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Effective, fully-typed parameters of one run."""

    name: str
    params: dict
    seed: int
    out_dir: str
    jobs: int


def _parse_int_list(value) -> list:
    """Comma-separated string from the command line, or a JSON list from a config."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(p) for p in str(value).split(",") if p != ""]


_PARSERS = {"int": int, "float": float, "str": str, "int_list": _parse_int_list}


# One %-conversion per kind of value: bools as 1/0, floats with 17 significant
# digits (enough to round-trip), ints and strings as str() writes them.
_CONVERSIONS = (
    ((bool, np.bool_), "%d"),
    ((float, np.floating), "%.17g"),
    ((int, np.integer), "%d"),
    (str, "%s"),
)


def _conversion(column) -> str:
    """The one conversion that fits every value of a column."""
    if isinstance(column, np.ndarray) and column.dtype != object:
        kinds = {column.dtype.type}
    else:
        kinds = set(map(type, column))
    for types, conversion in _CONVERSIONS:
        if all(issubclass(kind, types) for kind in kinds):
            return conversion
    raise TypeError(f"CSV column mixes or holds unsupported types: {sorted(k.__name__ for k in kinds)}")


CSV_CELLS = 1 << 13  # values formatted into text at a time


def write_csv(path: Path, header, columns) -> None:
    """Write a table given as a sequence of columns of equal length, each
    column holding one kind of value.

    Each row is formatted by one template of the columns' conversions, and
    rows are written at most ``CSV_CELLS`` values at a time, so a long
    table's text is never built whole.  Every column is checked before the
    file is made.
    """
    columns = list(columns)
    row = ",".join(map(_conversion, columns))
    n_rows = min(map(len, columns), default=0)
    step = max(1, CSV_CELLS // max(1, len(columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            piece = [c[start : start + step] for c in columns]
            piece = [c.tolist() if isinstance(c, np.ndarray) else c for c in piece]
            out.write("\n".join(map(row.__mod__, zip(*piece))) + "\n")


def load_config(path: str) -> dict:
    """Flat JSON config; a parse failure (with line/column) or a repeated key raises UsageError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc

    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise UsageError(f"config {path} names key {key!r} twice")
            out[key] = value
        return out

    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must contain a JSON object")
    return raw


def _from_config(key: str, kind: str, value):
    """Parse a config-file value; a float or bool where integers belong is refused, not
    truncated, and anything but a JSON string where text belongs is refused, not written out."""
    try:
        if kind == "str" and not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        if kind in ("int", "int_list"):
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, (bool, float)):
                    raise ValueError(f"expected an integer, got {item!r}")
        return _PARSERS[kind](value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _bound_text(kind: str, bounds) -> str:
    """'>= 1' or 'in [0, 1]' for ints and int lists (inclusive); '> 0' or 'in (0, 1)' for floats (exclusive)."""
    low, high = bounds
    closed = kind != "float"
    if high is None:
        return f">= {low}" if closed else f"> {low}"
    return f"in [{low}, {high}]" if closed else f"in ({low}, {high})"


def _check_bounds(key: str, kind: str, bounds, value) -> None:
    """Refuse a value outside its bounds, naming the flag; a list must be
    nonempty and without repeats, and NaN fails every float bound."""
    low, high = bounds[0], math.inf if bounds[1] is None else bounds[1]
    values = value if kind == "int_list" else [value]
    if kind == "float":
        inside = all(low < v < high for v in values)
    else:
        inside = all(low <= v <= high for v in values)
    flag = "--" + key.replace("_", "-")
    if values and inside:
        if len(set(values)) < len(values):  # a repeated sweep value would write its rows twice
            raise UsageError(f"{flag} needs distinct values, got {value}")
        return
    text = _bound_text(kind, bounds)
    if kind == "int_list":
        raise UsageError(f"{flag} needs values {text}, got {value}")
    raise UsageError(f"{flag} must {'lie' if text.startswith('in') else 'be'} {text}, got {value}")


def _resolve_config(name: str, args: argparse.Namespace) -> ExperimentConfig:
    spec = COMMANDS[name]["params"]
    file_values = load_config(args.config) if args.config else {}
    reserved = {"seed", "out", "jobs"}
    unknown = set(file_values) - set(spec) - reserved
    if unknown:
        raise UsageError(f"unknown config key {sorted(unknown)[0]!r} for {name} "
                         f"(known: {sorted(set(spec) | reserved)})")
    params = {}
    for key, (kind, default, _help, bounds) in spec.items():
        flag_val = getattr(args, key.replace("-", "_"))
        if flag_val is not None:
            params[key] = flag_val
        elif key in file_values:
            params[key] = _from_config(key, kind, file_values[key])
        else:
            params[key] = default
        if bounds is not None:
            _check_bounds(key, kind, bounds, params[key])
    if args.seed is not None:
        seed = args.seed
    elif "seed" in file_values:
        seed = _from_config("seed", "int", file_values["seed"])
    else:
        try:
            seed = int(os.environ.get("RF_LAB_SEED", "0"))
        except ValueError as exc:
            raise UsageError(f"RF_LAB_SEED: {exc}") from exc
    out_dir = args.out if args.out is not None else _from_config("out", "str", file_values.get("out", "rf_lab_out"))
    if args.jobs is not None:
        jobs = args.jobs
    elif "jobs" in file_values:
        jobs = _from_config("jobs", "int", file_values["jobs"])
    else:
        jobs = usable_cpus()
    _check_bounds("jobs", "int", (1, None), jobs)
    return ExperimentConfig(name, params, seed, out_dir, jobs)


# ---------------------------------------------------------------------------
# command implementations: each returns (outputs, summary_lines, failures)
# outputs: {filename: (header, columns)} or {filename: ("json", text)}; run() writes
# them with write_csv
# ---------------------------------------------------------------------------


def _exact_text(value) -> str:
    """str() of an exact int or Fraction of any size: CPython's int-to-str digit
    limit (from 3.10.7, 4300 by default) is lifted for this conversion only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _float_or_none(value):
    """An exact int or Fraction as a float, None past the float64 range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _approx_text(value, spec: str) -> str:
    """An exact positive int or Fraction formatted as a float by ``spec``; past
    the float64 range as 10^x, x its decimal exponent to three places."""
    as_float = _float_or_none(value)
    if as_float is not None:
        return format(as_float, spec)
    return f"10^{math.log10(value.numerator) - math.log10(value.denominator):.3f}"


def _polynomial(text: str, max_degree: int | None = None) -> SparsePolynomial:
    """The ``--poly`` value as a polynomial; malformed text, or a degree past
    ``max_degree``, is a usage error naming the flag."""
    try:
        P = SparsePolynomial.from_json(text)
    except ValueError as exc:  # json.JSONDecodeError included
        raise UsageError(f"--poly is not a polynomial ({exc}), got {text}") from exc
    if max_degree is not None and P.degree > max_degree:
        raise UsageError(f"--poly must have degree <= {max_degree}, got degree {P.degree}")
    return P


def _cmd_legendre_check(cfg: ExperimentConfig):
    kmax = cfg.params["max_degree"]
    table = build_monomial_table(kmax)
    nodes, weights = gauss_legendre_rule(max(20, kmax + 8))
    rows = []
    failures = []
    worst_orth = worst_recon = 0.0
    for m in range(kmax + 1):
        pm = legendre_eval(m, nodes)
        for n in range(kmax + 1):
            inner = float(weights @ (pm * legendre_eval(n, nodes)))
            expected = legendre_norm_sq(n) if m == n else 0.0
            err = abs(inner - expected)
            worst_orth = max(worst_orth, err)
            rows.append(("orthogonality", m, n, inner, expected, err))
            if m < n or (m + n) % 2 == 1:
                e = table[m, n]
                rows.append(("vanishing", m, n, e, 0.0, abs(e)))
                if e != 0.0:
                    failures.append(f"e({m},{n}) = {e} should vanish exactly")
    grid = np.linspace(-1.0, 1.0, 200)
    for m in range(kmax + 1):
        recon = np.zeros_like(grid)
        for n in range(m + 1):
            e = table[m, n]
            if e:
                recon += e * legendre_eval(n, grid)
        err = float(np.max(np.abs(recon - grid**m)))
        worst_recon = max(worst_recon, err)
        rows.append(("reconstruction", m, -1, err, 0.0, err))
    if worst_orth >= 1e-12:
        failures.append(f"orthogonality residual {worst_orth:.3e} >= 1e-12")
    if worst_recon >= 1e-10:
        failures.append(f"reconstruction residual {worst_recon:.3e} >= 1e-10")
    summary = [
        f"orthogonality residual: {worst_orth:.3e} (< 1e-12)",
        f"reconstruction residual: {worst_recon:.3e} (< 1e-10)",
    ]
    header = ("check", "m", "n", "observed", "expected", "abs_error")
    return {"legendre_check.csv": (header, list(zip(*rows)))}, summary, failures


def _cmd_represent_poly(cfg: ExperimentConfig):
    P = _polynomial(cfg.params["poly"], MAX_DEGREE)
    g = construct_g(P)
    rng = RandomSource(cfg.seed)
    xs = uniform_ball(P.dimension, cfg.params["probes"], rng.generator(0))
    # per-axis orders: the truncated check is exact from degree + 2 on.  A coefficient
    # near the float64 limit overflows; its inf or NaN fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        res_t, bound = truncated_residual(P, g, xs, P.degree + 4)
        share = np.abs(res_t) / bound
        res_f = integral_feature_expectation(g, np.exp, xs, P.degree + 6) - P.evaluate(xs)
    share[~np.isfinite(res_t)] = np.inf
    worst = int(np.argmax(share))
    g_max = max_abs_g(g, rng.derive(1))
    beta = g_magnitude_bound(P.dimension, P.degree, P.coeff_bound)
    rows = [(i, float(res_t[i]), float(res_f[i])) for i in range(len(xs))]
    failures = []
    if not share[worst] <= 1.0:
        failures.append(f"truncated-mode residual {res_t[worst]:.3e} at probe {worst} is "
                        f"{share[worst]:.3g} times its rounding bound")
    if g_max > beta:
        failures.append(f"max |g| = {g_max:.3e} exceeds the a-priori bound {_approx_text(beta, '.3e')}")
    summary = [
        f"max truncated residual: {np.max(np.abs(res_t)):.3e}; "
        f"largest share of its rounding bound: {share[worst]:.3g} (<= 1)",
        f"max full-activation residual (Taylor tail, reported): {np.max(np.abs(res_f)):.3e}",
        f"max |g| on grid: {g_max:.6g} vs bound {_approx_text(beta, '.6g')}",
    ]
    header = ("point", "truncated_residual", "full_residual")
    return {"represent_poly.csv": (header, list(zip(*rows)))}, summary, failures


def _cmd_concentration(cfg: ExperimentConfig):
    p = cfg.params
    P = _polynomial(p["poly"], MAX_DEGREE)
    r, trials = p["r"], p["trials"]
    sup, max_u, weight_sup_C = concentration_experiment(P, r, trials, p["probes"], RandomSource(cfg.seed))
    # floats made from the list: an int array's cast to float takes a 64 KiB buffer of peak RSS
    r_float = np.array(r, dtype=float)
    envelope = concentration_envelope(weight_sup_C, r_float, p["delta"])
    means = sup.mean(axis=1)
    stds = sup.std(axis=1, ddof=1) if trials > 1 else np.zeros(len(r))
    # a list, not an int64 array: a seed past the int64 range is written as it is
    seeds = [cfg.seed] * sup.size
    rows = (np.repeat(r, trials), np.tile(np.arange(trials), len(r)), sup.ravel(), max_u.ravel(), seeds)
    header = ("r", "trial", "sup_error", "max_abs_u", "seed")
    failures = []
    violations = np.count_nonzero(sup > envelope[:, None])  # np.sum's bool cast would add 128 KiB of peak RSS
    if violations:
        failures.append(f"{violations} trials exceed the concentration envelope")
    summary = [f"weight sup C = {weight_sup_C:.6g}, L = {EXP_LIPSCHITZ:.6g}"]
    if len(r) >= 4:
        slope = float(np.polyfit(np.log(r_float), np.log(means), 1)[0])
        summary.append(f"log-log slope of mean sup error: {slope:.4f} (theory -0.5)")
        if not (-0.65 <= slope <= -0.35):
            failures.append(f"log-log slope {slope:.4f} outside [-0.65, -0.35]")
    return (
        {
            "concentration.csv": (header, rows),
            "concentration_summary.csv": (("r", "mean_sup_error", "std", "envelope"), (r, means, stds, envelope)),
        },
        summary,
        failures,
    )


def _cmd_learn_poly(cfg: ExperimentConfig):
    p = cfg.params
    P = _polynomial(p["poly"])
    sampler = margin_filtered_sampler(P, p["margin"])
    rng = RandomSource(cfg.seed)
    result = sgd_train(P.dimension, sampler, p["r"], p["eta"], p["steps"], rng, n_val=p["n_val"])
    comparator = hinge_loss(p["comparator_scale"] * P.evaluate(result.X_val), result.y_val)

    # gradient spot-check away from the kink, on streams no other draw opens
    probe_net = xavier_init(P.dimension, 20, rng.derive(3))
    gen = rng.generator(4)
    probe_net.U = gen.standard_normal(20) * 0.1
    worst_fd = 0.0
    checked = 0
    while checked < 20:
        x = gen.standard_normal(P.dimension)
        x /= max(1.0, float(np.linalg.norm(x)))
        y = float(gen.choice((-1.0, 1.0)))
        if abs(1.0 - y * forward(probe_net, x)) < 1e-3:
            continue
        worst_fd = max(worst_fd, finite_difference_check(probe_net, x, y))
        checked += 1

    report = drift_check(result.trace, p["eta"])
    trace = result.trace
    trace_columns = (
        trace.steps, trace.loss, np.cumsum(trace.loss) / (trace.steps + 1),
        trace.w_drift, trace.u_norm, trace.w_norm,
    )
    best = result.net
    checkpoint = {
        "d": best.d, "r": best.r, "activation": "exp", "seed": cfg.seed,
        "best_step": result.best_step,
        "W": [float(v) for v in best.W.ravel()],
        "U": [float(v) for v in best.U],
    }
    failures = []
    if worst_fd >= 1e-6:
        failures.append(f"gradient finite-difference relative error {worst_fd:.3e} >= 1e-6")
    if not report.drift_ok:
        failures.append(f"drift bound violated (min margin {report.min_drift_margin:.3e})")
    if not report.norms_ok:
        failures.append(f"norm cap violated within the drift-check window (max {report.max_norm:.3e})")
    if result.best_val_loss > result.val_history[0][1] + 1e-12:
        failures.append("best checkpoint is worse than the initial validation loss")
    gap_ok = result.best_val_loss <= comparator + 0.1
    summary = [
        f"best validation hinge loss: {result.best_val_loss:.6f} at step {result.best_step}",
        f"comparator ({p['comparator_scale']:g} * P) loss: {comparator:.6f}; "
        f"target bound {comparator + 0.1:.6f}; within bound: {gap_ok}",
        f"gradient FD max relative error: {worst_fd:.3e}",
        f"drift check: ok={report.passed} (B={report.b_value:.4g}, min margin {report.min_drift_margin:.3e})",
    ]
    sum_header = (
        "best_step", "best_val_loss", "comparator_loss", "bound", "within_bound",
        "grad_fd_max_rel_err", "drift_ok",
    )
    sum_row = [(
        result.best_step, result.best_val_loss, comparator, comparator + 0.1,
        gap_ok, worst_fd, report.passed,
    )]
    return (
        {
            "learn_poly_trace.csv": (
                ("step", "loss", "run_avg_loss", "w_drift", "u_norm", "w_norm"), trace_columns
            ),
            "learn_poly_summary.csv": (sum_header, list(zip(*sum_row))),
            "learn_poly_validation.csv": (("step", "val_loss"), list(zip(*result.val_history))),
            "learn_poly_checkpoint.json": ("json", json.dumps(checkpoint)),
        },
        summary,
        failures,
    )


def _cmd_params(cfg: ExperimentConfig):
    p = cfg.params
    beta, r, eta, steps = guarantee_params(p["epsilon"], p["delta"], p["d"], p["k"], p["alpha"])
    infeasible = r > DESK_SCALE_MAX_R
    payload = {
        "epsilon": p["epsilon"],
        "delta": p["delta"],
        "d": p["d"],
        "k": p["k"],
        "alpha": p["alpha"],
        "beta": _exact_text(beta),
        "beta_float": _float_or_none(beta),  # null past the float64 range
        "r": _exact_text(r),
        "eta": _exact_text(eta),  # 0 < eta < 1, so always "numerator/denominator"
        "steps": _exact_text(steps),
        "infeasible_at_desk_scale": infeasible,
    }
    summary = [
        f"beta = {payload['beta']} (~{_approx_text(beta, '.6g')})",
        f"r >= {payload['r']}",
        f"eta = {payload['eta']}",
        f"T = {payload['steps']}",
        f"infeasible at desk scale: {infeasible}",
    ]
    return {"params.json": ("json", json.dumps(payload, indent=2))}, summary, []


def _cmd_psi_check(cfg: ExperimentConfig):
    psi = PsiFunction(cfg.params["d"])
    checks = psi_properties_check(psi, cfg.params["grid"], 16)  # Gaussian-norm rule order per segment
    failures = [f"{name} = {val:.6e} fails requirement {req}" for name, val, req, ok in checks if not ok]
    summary = [f"a = {psi.a}; all checks passed: {not failures}"]
    header = ("property", "observed", "requirement", "passed")
    return {"psi_properties.csv": (header, list(zip(*checks)))}, summary, failures


def _cmd_linear_residual(cfg: ExperimentConfig):
    p = cfg.params
    if p["r"] > p["d"]:
        raise UsageError(f"--r must be <= --d ({p['d']}), got {p['r']}")
    res = linear_residual(p["d"], p["r"], RandomSource(cfg.seed), p["trials"])
    rows = [(t, float(v), cfg.seed) for t, v in enumerate(res)]
    mean = float(np.mean(res))
    frac = float(np.mean(res >= 0.25))
    failures = []
    if np.any(res < -1e-9) or np.any(res > 1.0 + 1e-9):
        failures.append("residuals escaped [0, 1]")
    if p["r"] <= p["d"] // 2 and mean < 0.25:
        failures.append(f"mean residual {mean:.4f} < 1/4 despite r <= d/2")
    summary = [
        f"mean residual: {mean:.4f} (population value {1 - p['r'] / p['d']:.4f})",
        f"fraction >= 1/4: {frac:.4f}",
    ]
    return {"linear_residual.csv": (("trial", "residual", "seed"), list(zip(*rows)))}, summary, failures


def _cmd_correlation_decay(cfg: ExperimentConfig):
    p = cfg.params
    sweep = correlation_decay(p["f_r"], p["d_values"], p["trials"], p["mc_samples"], RandomSource(cfg.seed), cfg.jobs)
    rows = [(*row, p["trials"], p["mc_samples"]) for row in sweep]
    failures = []
    if any((not math.isfinite(mean_sq)) or mean_sq < 0 for _, mean_sq, *_ in rows):
        failures.append("normalized squared correlations must be finite and nonnegative")
    summary = [f"d={d}: {mean_sq:.4e} +- {std_err:.1e}" for d, mean_sq, std_err, *_ in rows]
    header = ("d", "mean_sq_normalized", "std_err", "n_w", "mc_samples")
    return {"correlation_decay.csv": (header, list(zip(*rows)))}, summary, failures


def _cmd_neuron_inapprox(cfg: ExperimentConfig):
    p = cfg.params
    if p["n_train"] <= p["r"]:  # the realizable control needs more points than features
        raise UsageError(f"--n-train must be > --r ({p['r']}), got {p['n_train']}")
    rows = neuron_inapprox_sweep(p["r"], p["d_values"], p["n_train"], RandomSource(cfg.seed), cfg.jobs)
    failures = []
    for d, target, err, _, _ in rows:
        if target == "control" and not err < 1e-6:
            failures.append(f"realizable control at d={d} has error {err:.3e} >= 1e-6")
        if target == "neuron_gd_baseline" and not err < 0.01:
            failures.append(f"neuron GD baseline at d={d} has error {err:.3e} >= 0.01")
    summary = [
        f"d={d} {target}: err={err:.4f}" + (f" updates={n}" if target == "neuron_gd_baseline" else "")
        for d, target, err, _, n in rows
    ]
    header = ("d", "target", "normalized_error", "r_max_abs_u", "updates")
    return {"neuron_inapprox.csv": (header, list(zip(*rows)))}, summary, failures


def _cmd_exp_identity(cfg: ExperimentConfig):
    p = cfg.params
    zs = np.linspace(-1.0, 1.0, p["grid"])
    errors = relu_exp_identity_check(zs, 40)  # rule order per segment
    worst = float(errors.max())
    failures = []
    if worst >= 1e-8:
        failures.append(f"identity error {worst:.3e} >= 1e-8")
    summary = [f"max |LHS - e^z| over {p['grid']} points: {worst:.3e}"]
    return {"exp_identity.csv": (("z", "abs_error"), (zs, errors))}, summary, failures


# parameter spec: name -> (kind, default, help, bounds).  bounds is None or
# (low, high or None); ints and the entries of int lists are
# checked inclusively (a list must also be nonempty), floats exclusively.
COMMANDS: dict[str, dict] = {
    "legendre-check": {
        "help": "orthogonality, vanishing pattern, and reconstruction of the Legendre machinery",
        "run": _cmd_legendre_check,
        "params": {"max_degree": ("int", 12, "largest degree checked", (0, None))},
    },
    "represent-poly": {
        "help": "construct the weight function for a polynomial and verify by quadrature",
        "run": _cmd_represent_poly,
        "params": {
            "poly": ("str", '{"1,1": 1.0}', "polynomial as JSON multi-index map", None),
            "probes": ("int", 20, "number of unit-ball probe points", (1, None)),
        },
    },
    "concentration": {
        "help": "sup-error of averaged random features vs their expectation across r",
        "run": _cmd_concentration,
        "params": {
            "poly": ("str", '{"1,1": 1.0}', "polynomial as JSON multi-index map", None),
            "r": ("int_list", [64, 128, 256, 512, 1024, 2048, 4096], "feature counts", (1, None)),
            "trials": ("int", 20, "independent feature draws per r", (1, None)),
            "probes": ("int", 2000, "unit-ball probe points", (1, None)),
            "delta": ("float", 0.01, "failure probability in the envelope", (0, 1)),
        },
    },
    "learn-poly": {
        "help": "SGD on a two-layer net against margin-filtered polynomial-sign data",
        "run": _cmd_learn_poly,
        "params": {
            "poly": ("str", '{"1,1,0": 2.0}', "scaled polynomial (sup over ball = 1); fixes the input dimension", None),
            "margin": ("float", 0.3, "margin filter on |P(x)|", None),
            "r": ("int", 1000, "hidden width", (1, None)),
            "eta": ("float", 0.01, "learning rate", (0, None)),
            "steps": ("int", 200_000, "SGD steps", (1, None)),
            "comparator_scale": ("float", 3.0, "scale of the explicit polynomial predictor", (0, None)),
            "n_val": ("int", 2000, "validation set size", (1, None)),
        },
    },
    "params": {
        "help": "exact guarantee-scale hyperparameters (reported, never used to train)",
        "run": _cmd_params,
        "params": {
            "epsilon": ("float", 0.1, "target excess loss", (0, 1)),
            "delta": ("float", 0.1, "failure probability", (0, 1)),
            "d": ("int", 3, "input dimension", (1, None)),
            "k": ("int", 2, "polynomial degree", (1, None)),
            "alpha": ("float", 1.0, "coefficient bound", (0, None)),
        },
    },
    "psi-check": {
        "help": "certify the periodic hard-instance function",
        "run": _cmd_psi_check,
        "params": {
            "d": ("int", 3, "dimension parameter (a = 6 d^2 + 1)", (1, None)),
            # the oddness and periodicity residuals need two points
            "grid": ("int", 10_000, "grid points for residuals", (2, None)),
        },
    },
    "linear-residual": {
        "help": "squared distance of a random unit target from a random feature span",
        "run": _cmd_linear_residual,
        "params": {
            "d": ("int", 100, "ambient dimension", (1, None)),
            "r": ("int", 50, "number of random directions", (0, None)),
            "trials": ("int", 500, "independent trials", (1, None)),
        },
    },
    "correlation-decay": {
        "help": "decay of the squared correlation between a fixed net and psi ridges",
        "run": _cmd_correlation_decay,
        "params": {
            "d_values": ("int_list", [2, 4, 6, 8, 10, 12], "dimensions", (1, None)),
            # std_err takes the sample deviation over the w draws (ddof=1), so it needs two
            "trials": ("int", 64, "w draws per dimension", (2, None)),
            "mc_samples": ("int", 100_000, "Monte-Carlo x samples", (1, None)),
            "f_r": ("int", 50, "feature count of the fixed test network", (1, None)),
        },
    },
    "neuron-inapprox": {
        "help": "least-squares error of oblivious ReLU features on the hard targets",
        "run": _cmd_neuron_inapprox,
        "params": {
            "d_values": ("int_list", [4, 10, 15, 20], "dimensions", (1, None)),
            "r": ("int", 200, "feature count", (1, None)),
            "n_train": ("int", 4000, "training sample size", (1, None)),
        },
    },
    "exp-identity": {
        "help": "check the exp-through-ReLU integral identity on a z grid",
        "run": _cmd_exp_identity,
        "params": {
            "grid": ("int", 41, "number of z points in [-1, 1]", (1, None)),
        },
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rf-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rf-lab {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, spec in COMMANDS.items():
        sub = subs.add_parser(name, help=spec["help"], description=spec["help"])
        for key, (kind, default, help_text, bounds) in spec["params"].items():
            bound = f", {_bound_text(kind, bounds)}" if bounds else ""
            sub.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key.replace("-", "_"),
                type=_PARSERS[kind],
                default=None,
                help=f"{help_text} (default: {default}{bound})",
            )
        sub.add_argument("--config", default=None, help="JSON config file (flags override)")
        sub.add_argument("--seed", type=int, default=None, help="root seed (default: $RF_LAB_SEED or 0)")
        sub.add_argument("--out", default=None, help="output directory (default: rf_lab_out)")
        sub.add_argument("--jobs", type=int, default=None,
                         help="worker processes, >= 1 (default: the CPUs this process may use)")
    return parser


_HASH_CHUNK = 1 << 20  # bytes read at a time, so hashing never holds a whole output


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        cfg = _resolve_config(args.command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    started = datetime.now(timezone.utc).isoformat()
    clock = time.perf_counter()
    try:
        outputs, summary, failures = COMMANDS[cfg.name]["run"](cfg)
    except (UsageError, ValueError) as exc:  # bad parameter values
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:  # a run that broke an invariant before it had outputs
        print(f"VALIDATION FAILURE: {exc}", file=sys.stderr)
        return 2
    timings = {"run_s": time.perf_counter() - clock}

    clock = time.perf_counter()
    out_dir = Path(cfg.out_dir) / cfg.name
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for filename, payload in outputs.items():
        path = out_dir / filename
        if payload[0] == "json":
            path.write_text(payload[1] + "\n", encoding="utf-8", newline="\n")
        else:
            write_csv(path, *payload)
        checksums[filename] = _sha256(path)
    timings["write_s"] = time.perf_counter() - clock
    config_text = json.dumps(asdict(cfg), sort_keys=True)
    manifest = {
        "command": cfg.name,
        "version": __version__,
        "config": json.loads(config_text),
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": checksums,
        "timings": timings,
        "validation_failures": failures,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "kernel_backend": kernel_backend(),
            "cpu_count": usable_cpus(),
            "jobs": cfg.jobs,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )

    for line in summary:
        print(line)
    if failures:
        for failure in failures:
            print(f"VALIDATION FAILURE: {failure}", file=sys.stderr)
        return 2
    print(f"ok: outputs in {out_dir}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
