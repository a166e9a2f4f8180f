"""CLI contract: exit codes, config handling, manifests, reproducibility."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rf_lab
from rf_lab import cli, hardness
from rf_lab.cli import BLAS_THREAD_VARS, CSV_CELLS, run, write_csv
from rf_lab.legendre import MultiIndex, build_monomial_table
from rf_lab.numerics import RandomSource, gauss_legendre_rule, uniform_ball
from rf_lab.parallel import usable_cpus
from rf_lab.poly_repr import (
    LegendreExpansion,
    SparsePolynomial,
    construct_g,
    g_magnitude_bound,
    truncated_residual,
)
from rf_lab.trainer import DriftReport, guarantee_params, margin_filtered_sampler, sgd_train


def read(path):
    return path.read_bytes()


# (command line, the flag its error must name)
BAD_INPUTS = [
    ("correlation-decay --trials 1", "--trials"),  # std_err needs two w draws
    ("correlation-decay --trials 0", "--trials"),
    ("correlation-decay --mc-samples 0", "--mc-samples"),
    ("correlation-decay --f-r 0", "--f-r"),
    ("correlation-decay --d-values=", "--d-values"),
    ("correlation-decay --d-values 2,0", "--d-values"),
    ("correlation-decay --d-values 2,2", "--d-values"),  # a repeated value would write its row twice
    ("concentration --r 64,64", "--r"),
    ("neuron-inapprox --d-values 4,4", "--d-values"),
    ("linear-residual --trials 0", "--trials"),
    ("linear-residual --d 0 --r 0", "--d"),
    ("linear-residual --d 5 --r 6", "--r"),
    ("neuron-inapprox --n-train 0", "--n-train"),
    ("neuron-inapprox --d-values=", "--d-values"),
    ("neuron-inapprox --r 0", "--r"),
    ("learn-poly --r 0", "--r"),
    ("learn-poly --steps -5", "--steps"),
    ("learn-poly --n-val 0", "--n-val"),
    ("learn-poly --eta -1", "--eta"),
    ("learn-poly --eta 0", "--eta"),
    ("learn-poly --eta nan", "--eta"),
    ("learn-poly --comparator-scale nan", "--comparator-scale"),
    ("learn-poly --comparator-scale 0", "--comparator-scale"),
    ("learn-poly --comparator-scale -1", "--comparator-scale"),
    ("learn-poly --comparator-scale inf", "--comparator-scale"),
    ("represent-poly --probes 0", "--probes"),
    ("exp-identity --grid 0", "--grid"),
    ("psi-check --grid 1", "--grid"),  # oddness and periodicity need two points
    ("psi-check --d 0", "--d"),
    ("params --d 0", "--d"),
    ("params --d -1", "--d"),
    ("params --k 0", "--k"),
    ("params --epsilon 1", "--epsilon"),
    ("legendre-check --max-degree -1", "--max-degree"),
]


class TestExitCodes:
    def test_psi_check_happy_path(self, tmp_path, capsys):
        code = run(["psi-check", "--d", "3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "psi-check" / "psi_properties.csv").exists()
        assert (tmp_path / "psi-check" / "manifest.json").exists()
        assert "all checks passed: True" in capsys.readouterr().out

    def test_psi_check_writes_its_check_rows(self, tmp_path, capsys, monkeypatch):
        rows = (("oddness_residual", 0.0, "< 1e-12", True), ("max_abs_value", 2.0, "<= 1", False))
        monkeypatch.setattr(cli, "psi_properties_check", lambda *args: rows)
        assert run(["psi-check", "--out", str(tmp_path)]) == 2
        assert "all checks passed: False" in capsys.readouterr().out
        assert (tmp_path / "psi-check" / "psi_properties.csv").read_text() == (
            "property,observed,requirement,passed\noddness_residual,0,< 1e-12,1\nmax_abs_value,2,<= 1,0\n"
        )

    def test_skewed_relu_coefficients_exit_two(self, tmp_path, capsys, monkeypatch):
        exact = hardness.psi_relu_decomposition
        monkeypatch.setattr(hardness, "psi_relu_decomposition", lambda psi: exact(psi) * (1.0 + 1e-9))
        assert run(["psi-check", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("VALIDATION FAILURE: relu_decomposition_residual = ")

    def test_validation_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # an order-2 rule cannot resolve e^b: the identity check must fail loudly
        monkeypatch.setattr(cli, "relu_exp_identity_check", lambda zs, order: hardness.relu_exp_identity_check(zs, 2))
        code = run(["exp-identity", "--out", str(tmp_path)])
        assert code == 2
        assert "VALIDATION FAILURE: identity error" in capsys.readouterr().err

    # the values each command works out from its inputs, as a flag and as a config key
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(*case, id=f"{case[0]} {case[1]}") for case in [
            ("learn-poly", "--d", "3"),
            ("represent-poly", "--quad-order", "4"),
            ("psi-check", "--order", "16"),
            ("exp-identity", "--order", "40"),
        ]
    ])
    def test_derived_value_is_neither_a_flag_nor_a_key(self, tmp_path, capsys, command, flag, value):
        key = flag[2:].replace("-", "_")
        assert run([command, flag, value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown config key '{key}' for {command} ")
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("baseline_error", [0.01, float("nan")])
    def test_neuron_baseline_bound_exits_two(self, tmp_path, capsys, monkeypatch, baseline_error):
        def sweep(*args, **kwargs):
            return [(4, "control", 0.0, 1.0, 0), (4, "neuron_gd_baseline", 1e-10, 0.0, 70),
                    (10, "neuron_gd_baseline", baseline_error, 0.0, 90)]

        monkeypatch.setattr(cli, "neuron_inapprox_sweep", sweep)
        assert run(["neuron-inapprox", "--out", str(tmp_path)]) == 2
        manifest = json.loads((tmp_path / "neuron-inapprox" / "manifest.json").read_text())
        assert manifest["validation_failures"] == [
            f"neuron GD baseline at d=10 has error {baseline_error:.3e} >= 0.01"
        ]
        assert "VALIDATION FAILURE: neuron GD baseline at d=10" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["no-such-command"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["psi-check", "--bogus", "1"]) == 1

    def test_missing_command_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_help_shows_each_flags_bounds(self, capsys):
        assert run(["psi-check", "--help"]) == 0
        assert "(default: 3, >= 1)" in " ".join(capsys.readouterr().out.split())

    def test_every_bound_has_a_lower_end(self):
        # the help text and the checks read a bound as (low, high or None)
        bounds = [spec[3] for command in cli.COMMANDS.values() for spec in command["params"].values()]
        assert all(low is not None for low, _ in filter(None, bounds))

    def test_invalid_parameter_value_is_usage_error(self, tmp_path, capsys):
        assert run(["psi-check", "--d", "0", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    # explicit ids, the names these cases were first collected under, so a case
    # added anywhere leaves the others' names as they are
    @pytest.mark.parametrize("flags, named", [
        pytest.param(["--delta", "0"], "--delta", id="flags0---delta"),
        pytest.param(["--delta", "1.5"], "--delta", id="flags1---delta"),
        pytest.param(["--trials", "0"], "--trials", id="flags2---trials"),
        pytest.param(["--probes", "0"], "--probes", id="flags3---probes"),
        pytest.param(["--r", "64,0"], "--r", id="flags4---r"),
    ])
    def test_concentration_bad_input_is_usage_error(self, tmp_path, capsys, flags, named):
        assert run(["concentration", *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ")
        assert "Traceback" not in err
        assert not (tmp_path / "concentration").exists()

    @pytest.mark.parametrize("argv, named", [pytest.param(*case, id=case[0]) for case in BAD_INPUTS])
    def test_sweep_bad_input_is_usage_error(self, tmp_path, capsys, argv, named):
        command, *flags = argv.split()
        assert run([command, *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ")
        assert "Traceback" not in err
        assert not (tmp_path / command).exists()

    # each id is a fixed tag and the message: the names these cases were first collected under
    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=f"{tag}-{message}") for tag, argv, message in [
            ("argv0", ["params", "--alpha", "-5"], "--alpha must be > 0, got -5.0"),
            ("argv1", ["psi-check", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            ("argv5", ["learn-poly", "--comparator-scale", "nan"], "--comparator-scale must be > 0, got nan"),
        ]
    ])
    def test_refusal_names_the_flag_and_value(self, tmp_path, capsys, argv, message):
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / argv[0]).exists()

    # malformed polynomials are usage errors naming --poly; a coefficient whose g
    # overflows a double fails validation
    @pytest.mark.parametrize("poly, code", [
        ('[1]', 1),
        ('{"1,1": null}', 1),
        ('{"1,1": NaN}', 1),
        ('{"1,1": 1e400}', 1),
        ('{"1,1": 1.7e308}', 2),  # g overflows: NaN residuals
        ('{"": 1.0}', 1),  # an empty multi-index
        ('{"a,b": 1.0}', 1),
        ("nope", 1),  # not JSON
        ('{"1,1": true}', 1),  # float() takes bools and numeric strings; JSON numbers only
        ('{"1,1": false}', 1),
        ('{"1,1": "2"}', 1),
    ])
    def test_malformed_polynomial_exits_with_a_message(self, tmp_path, capsys, poly, code):
        assert run(["represent-poly", "--poly", poly, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: --poly " if code == 1 else "VALIDATION FAILURE: truncated-mode residual")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["concentration", "learn-poly"])
    def test_every_command_names_a_malformed_polynomial(self, tmp_path, capsys, command):
        assert run([command, "--poly", '{"": 1.0}', "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --poly is not a polynomial (invalid literal for int() with base 10: ''), got {\"\": 1.0}\n"
        )
        assert not (tmp_path / command).exists()

    def test_learn_poly_refuses_a_bool_coefficient(self, tmp_path, capsys):
        assert run(["learn-poly", "--poly", '{"1,1,0": true}', "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --poly is not a polynomial (coefficient of '1,1,0' must be a finite number, got True), "
            "got {\"1,1,0\": true}\n"
        )
        assert not (tmp_path / "learn-poly").exists()

    # large in absolute terms, but at rounding level against the quadrature's terms:
    # a high degree, or coefficients whose beta exceeds the float64 range
    @pytest.mark.parametrize("poly", ['{"8,0": 1}', '{"10,0,0": 1.0}', '{"1,1": 1e300}', '{"1,1": 1e306}'])
    def test_rounding_level_residual_passes(self, tmp_path, capsys, poly):
        assert run(["represent-poly", "--poly", poly, "--out", str(tmp_path)]) == 0
        assert "largest share of its rounding bound" in capsys.readouterr().out

    def test_perturbed_g_fails_the_residual_check(self, tmp_path, capsys, monkeypatch):
        def perturbed(P):
            # the largest coefficient moved by 1e-6 of itself
            g = construct_g(P)
            J = max(g.coefficients, key=lambda J: abs(g.coefficients[J]))
            return LegendreExpansion(g.dimension, {**g.coefficients, J: g.coefficients[J] * (1 + 1e-6)})

        P = SparsePolynomial.from_json(cli.COMMANDS["represent-poly"]["params"]["poly"][1])
        g = perturbed(P)
        xs = uniform_ball(2, 20, RandomSource(0).generator(0))
        res, bound = truncated_residual(P, g, xs, 6)
        share = np.abs(res) / bound
        assert np.max(share) > 1e3
        monkeypatch.setattr(cli, "construct_g", perturbed)
        assert run(["represent-poly", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("VALIDATION FAILURE: truncated-mode residual")

    def test_check_orders_follow_the_degree(self, tmp_path, capsys, monkeypatch):
        orders = []

        def recording(function):
            def record(*args):
                orders.append((function.__name__, args[-1]))
                return function(*args)
            return record

        for name in ("truncated_residual", "integral_feature_expectation"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        assert run(["represent-poly", "--poly", '{"1,1,1": 1.0}', "--out", str(tmp_path)]) == 0
        assert orders == [("truncated_residual", 7), ("integral_feature_expectation", 9)]

    def test_diverged_training_exits_two(self, tmp_path, capsys):
        assert run(["learn-poly", "--eta", "50", "--steps", "2000", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "VALIDATION FAILURE: SGD finiteness check failed at step 20: non-finite loss or "
            "weights with eta=50, likely too large for this activation"
        ]

    def test_unreachable_margin_is_usage_error(self, tmp_path, capsys):
        # the default polynomial has sup |P| = 1 on the ball, so margin 1.5 rejects every draw
        assert run(["learn-poly", "--margin", "1.5", "--steps", "10", "--out", str(tmp_path)]) == 1
        assert "error: margin 1.5 accepted 0 of" in capsys.readouterr().err
        assert not (tmp_path / "learn-poly").exists()

    def test_learn_poly_dimension_is_the_polynomials(self, tmp_path, capsys):
        assert run([*SMALL_LEARN_POLY, "--poly", '{"1,1": 2.0}', "--out", str(tmp_path)]) == 0
        ckpt = json.loads((tmp_path / "learn-poly" / "learn_poly_checkpoint.json").read_text())
        assert ckpt["d"] == 2 and len(ckpt["W"]) == 20 * 2

    def test_learn_poly_probe_skips_the_kink(self, tmp_path, capsys, monkeypatch):
        # the first four probe points sit on the hinge kink when y = 1: those are skipped
        values, checked = [], []
        real_forward, real_check = cli.forward, cli.finite_difference_check

        def forward(net, x):
            values.append((x.copy(), 1.0 if len(values) < 4 else real_forward(net, x)))
            return values[-1][1]

        def check(net, x, y):
            checked.append((x.copy(), y))
            return real_check(net, x, y)

        monkeypatch.setattr(cli, "forward", forward)
        monkeypatch.setattr(cli, "finite_difference_check", check)
        assert run([*SMALL_LEARN_POLY, "--seed", "0", "--out", str(tmp_path)]) == 0
        assert len(checked) == 20
        skipped = [i for i, (x, _) in enumerate(values) if not any(np.array_equal(x, c) for c, _ in checked)]
        assert skipped and max(skipped) < 4 and len(values) == 20 + len(skipped)
        kept = [v for i, v in enumerate(values) if i not in skipped]
        assert all(np.array_equal(x, c) and abs(1.0 - y * value) >= 1e-3
                   for (x, value), (c, y) in zip(kept, checked))


def _table_with(m, n, delta):
    """build_monomial_table with e(m, n) moved by delta."""
    def build(m_max):
        table = build_monomial_table(m_max).copy()
        table[m, n] += delta
        return table
    return build


def _heavier_rule(order):
    """gauss_legendre_rule with weights 0.1% too large."""
    nodes, weights = gauss_legendre_rule(order)
    return nodes, weights * 1.001


def _concentration_with(errors, weight_sup_C):
    """concentration_experiment's result at the given sup errors, equal over each r's trials."""
    def experiment(P, r_values, trials, *args, **kwargs):
        sup = np.array([[errors(r)] * trials for r in r_values])
        return sup, np.ones_like(sup), weight_sup_C
    return experiment


SMALL_CONCENTRATION = ["concentration", "--r", "64,128,256,512", "--trials", "2"]


def _drift_with(**fields):
    return lambda trace, eta: DriftReport(**{
        "b_value": 2.0, "norms_ok": True, "drift_ok": True, "min_drift_margin": 0.0, "max_norm": 1.0, **fields,
    })


def _worse_best_checkpoint(*args, **kwargs):
    result = sgd_train(*args, **kwargs)
    return dataclasses.replace(result, best_val_loss=result.val_history[0][1] + 1.0)


def _zero_labels(P, margin):
    def sampler(n, gen):
        X, _ = margin_filtered_sampler(P, margin)(n, gen)
        return X, np.zeros(n)
    return sampler


SMALL_LEARN_POLY = ["learn-poly", "--steps", "200", "--r", "20", "--n-val", "50"]

# The refusals no other test reaches: (id, command line, the library call the command
# makes and its stand-in, exit code, the start of the failure or error naming the check).
REFUSALS = [
    ("legendre-vanishing", ["legendre-check"], ("build_monomial_table", _table_with(0, 1, 0.5)), 2,
     "e(0,1) = 0.5 should vanish exactly"),
    ("legendre-orthogonality", ["legendre-check"],
     ("gauss_legendre_rule", _heavier_rule), 2, "orthogonality residual "),
    ("legendre-reconstruction", ["legendre-check"], ("build_monomial_table", _table_with(2, 0, 1e-6)), 2,
     "reconstruction residual "),
    ("concentration-envelope", SMALL_CONCENTRATION,
     ("concentration_experiment", _concentration_with(lambda r: r**-0.5, 0.01)), 2,
     "8 trials exceed the concentration envelope"),
    ("concentration-slope", SMALL_CONCENTRATION,
     ("concentration_experiment", _concentration_with(lambda r: 1.0 / r, 1.0)), 2,
     "log-log slope -1.0000 outside [-0.65, -0.35]"),
    ("learn-poly-drift", SMALL_LEARN_POLY, ("drift_check", _drift_with(drift_ok=False, min_drift_margin=-1.0)), 2,
     "drift bound violated (min margin -1.000e+00)"),
    ("learn-poly-norm-cap", SMALL_LEARN_POLY, ("drift_check", _drift_with(norms_ok=False, max_norm=9.0)), 2,
     "norm cap violated within the drift-check window (max 9.000e+00)"),
    ("learn-poly-best-checkpoint", SMALL_LEARN_POLY, ("sgd_train", _worse_best_checkpoint), 2,
     "best checkpoint is worse than the initial validation loss"),
    ("linear-residual-range", ["linear-residual"], ("linear_residual", lambda *a: np.array([0.5, 1.5])), 2,
     "residuals escaped [0, 1]"),
    ("linear-residual-mean", ["linear-residual"], ("linear_residual", lambda *a: np.array([0.1, 0.1])), 2,
     "mean residual 0.1000 < 1/4 despite r <= d/2"),
    ("correlation-finite", ["correlation-decay"],
     ("correlation_decay", lambda *a: [(2, math.nan, 0.0)]), 2,
     "normalized squared correlations must be finite and nonnegative"),
    ("neuron-control", ["neuron-inapprox"],
     ("neuron_inapprox_sweep", lambda *a: [(4, "control", 1e-3, 1.0, 0)]), 2,
     "realizable control at d=4 has error 1.000e-03 >= 1e-6"),
    ("sampler-labels", SMALL_LEARN_POLY, ("margin_filtered_sampler", _zero_labels), 1,
     "sampler produced labels outside {-1, +1}"),
    ("config-unreadable", ["psi-check", "--config", "{tmp}/missing.json"], None, 1, "cannot read config file "),
    ("config-not-object", ["psi-check", "--config", "{tmp}/list.json"], None, 1, "config {tmp}/list.json must "
     "contain a JSON object"),
]


class TestRefusalPaths:
    @pytest.mark.parametrize("argv, patch, code, named", [pytest.param(*case[1:], id=case[0]) for case in REFUSALS])
    def test_refusal_exits_naming_its_check(self, tmp_path, capsys, monkeypatch, argv, patch, code, named):
        (tmp_path / "list.json").write_text("[1, 2]")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        named = named.replace("{tmp}", str(tmp_path))
        if patch is not None:
            monkeypatch.setattr(cli, *patch)
        assert run([*argv, "--jobs", "1", "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 1:
            assert len(err) == 1 and err[0].startswith(f"error: {named}")
            assert not (tmp_path / "out").exists()
            return
        manifest = json.loads((tmp_path / "out" / argv[0] / "manifest.json").read_text())
        failures = manifest["validation_failures"]
        assert len(failures) == 1 and failures[0].startswith(named)
        assert err == [f"VALIDATION FAILURE: {failures[0]}"]


class TestConfigFiles:
    def test_empty_config_gets_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code = run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())
        assert manifest["config"]["params"]["d"] == 3

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 3}')
        code = run(["psi-check", "--config", str(cfg), "--d", "5", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())
        assert manifest["config"]["params"]["d"] == 5

    def test_file_value_used_when_no_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 2, "seed": 9}')
        code = run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())
        assert manifest["config"]["params"]["d"] == 2
        assert manifest["config"]["seed"] == 9

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": ')
        assert run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_file_value_is_bounds_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 0}')
        assert run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: --d must be >= 1, got 0")
        assert not (tmp_path / "psi-check").exists()

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dd": 3}')
        assert run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "dd" in capsys.readouterr().err

    def test_baseline_is_neither_a_flag_nor_a_key(self, tmp_path, capsys):
        # the directly-trained neuron always runs; there is no knob to turn it off
        assert run(["neuron-inapprox", "--baseline", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --baseline 0\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"baseline": 0}')
        assert run(["neuron-inapprox", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown config key 'baseline' for neuron-inapprox ")
        assert not (tmp_path / "neuron-inapprox").exists()

    def test_seed_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RF_LAB_SEED", "1234")
        code = run(["psi-check", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 1234

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        assert run(["psi-check", "--jobs", jobs, "--out", str(tmp_path)]) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"jobs": {jobs}}}')
        assert run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "psi-check").exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}-{value}") for key, value in [
            ("seed", '"x"'), ("seed", "1.5"), ("seed", "true"), ("seed", "null"),
            ("jobs", "1.7"), ("jobs", '"two"'), ("d", "2.5"),
        ]
    ])
    def test_non_integer_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        assert run(["psi-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "psi-check").exists()

    @pytest.mark.parametrize("command, text, message", [
        pytest.param(*case, id="-".join(case)) for case in [
            ("exp-identity", '{"out": null}', "config key 'out': expected a string, got None"),
            ("exp-identity", '{"out": false}', "config key 'out': expected a string, got False"),
            ("represent-poly", '{"poly": {"1,1": 1.0}}', "config key 'poly': expected a string, got {'1,1': 1.0}"),
        ]
    ])
    def test_non_string_config_value_is_usage_error(self, tmp_path, capsys, monkeypatch, command, text, message):
        # without --out the outputs would go under the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(text)
        assert run([command, "--config", "cfg.json"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_non_integer_in_config_list_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d_values": [2, 4.5]}')
        assert run(["correlation-decay", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config key 'd_values'" in capsys.readouterr().err

    def test_non_integer_seed_variable_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RF_LAB_SEED", "x")
        assert run(["psi-check", "--out", str(tmp_path)]) == 1
        assert "RF_LAB_SEED" in capsys.readouterr().err

    def test_jobs_defaults_to_usable_cpus(self, tmp_path, capsys):
        assert run(["psi-check", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())
        assert manifest["config"]["jobs"] == usable_cpus()


class TestCommandOutputs:
    def test_params_reports_exact_values(self, tmp_path, capsys):
        code = run(["params", "--epsilon", "0.1", "--delta", "0.1", "--d", "3",
                    "--k", "2", "--alpha", "1", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "params" / "params.json").read_text())
        assert payload["beta"] == str(4 * 36**8)
        assert payload["infeasible_at_desk_scale"] is True
        num, den = payload["eta"].split("/")
        assert int(num) > 0 and int(den) > 0
        out = capsys.readouterr().out
        assert "infeasible" in out

    def test_params_writes_integers_past_the_str_digit_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(["params", "--k", "20", "--out", str(tmp_path)]) == 0
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads((tmp_path / "params" / "params.json").read_text())
        _, r, _, _ = guarantee_params(0.1, 0.1, 3, 20, 1.0)
        assert len(payload["r"]) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert payload["r"] == str(r)
        finally:
            sys.set_int_max_str_digits(limit)
        assert f"r >= {payload['r']}\n" in capsys.readouterr().out

    def test_params_json_is_strict_past_the_float_range(self, tmp_path, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert run(["params", "--k", "20", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "params" / "params.json").read_text(), parse_constant=refuse)
        assert payload["beta_float"] is None
        beta = guarantee_params(0.1, 0.1, 3, 20, 1.0)[0]
        exponent = len(str(beta.numerator // beta.denominator)) - 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(")") and "inf" not in line
        assert math.floor(float(line.rpartition("(~10^")[2][:-1])) == exponent

    def test_params_beta_float_within_the_float_range(self, tmp_path, capsys):
        assert run(["params", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "params" / "params.json").read_text())
        assert payload["beta_float"] == float(4 * 36**8)
        assert f"(~{float(4 * 36**8):.6g})" in capsys.readouterr().out

    @pytest.mark.parametrize("poly, code, stream", [('{"10,0,0": 1.0}', 0, "out"), ('{"1,1": 1.7e308}', 2, "err")])
    def test_represent_poly_prints_a_bound_past_the_float_range(self, tmp_path, capsys, poly, code, stream):
        assert run(["represent-poly", "--poly", poly, "--out", str(tmp_path)]) == code
        text = getattr(capsys.readouterr(), stream)
        P = SparsePolynomial.from_json(poly)
        beta = g_magnitude_bound(P.dimension, P.degree, P.coeff_bound)
        exponent = len(str(beta.numerator // beta.denominator)) - 1
        bound = text.split("bound ")[1].split()[0]
        assert bound.startswith("10^") and math.floor(float(bound[3:])) == exponent

    def test_learn_poly_checkpoint_schema(self, tmp_path, capsys):
        code = run(["learn-poly", "--steps", "400", "--r", "30", "--seed", "4",
                    "--out", str(tmp_path)])
        assert code == 0
        ckpt = json.loads((tmp_path / "learn-poly" / "learn_poly_checkpoint.json").read_text())
        assert ckpt["d"] == 3 and ckpt["r"] == 30 and ckpt["activation"] == "exp"
        assert len(ckpt["W"]) == 30 * 3 and len(ckpt["U"]) == 30
        trace = (tmp_path / "learn-poly" / "learn_poly_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,run_avg_loss,w_drift,u_norm,w_norm"
        P = SparsePolynomial(3, {MultiIndex((1, 1, 0)): 2.0})
        result = sgd_train(3, margin_filtered_sampler(P, 0.3), 30, 0.01, 400, RandomSource(4), 2000)
        # header + one row per update record, the last at step 400
        assert len(trace) == 1 + len(result.trace.steps)
        assert [int(line.split(",")[0]) for line in trace[1:]] == result.trace.steps.tolist()

    def test_learn_poly_writes_validation_history(self, tmp_path, capsys):
        assert run(["learn-poly", "--steps", "2000", "--r", "30", "--seed", "4", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("best validation hinge loss: ")
        out = tmp_path / "learn-poly"
        lines = (out / "learn_poly_validation.csv").read_text().splitlines()
        assert lines[0] == "step,val_loss"
        steps, losses = zip(*(line.split(",") for line in lines[1:]))
        assert [int(s) for s in steps] == list(range(0, 2001, 20))  # step 0 and 100 checkpoints
        summary = (out / "learn_poly_summary.csv").read_text().splitlines()
        assert summary[0] == "best_step,best_val_loss,comparator_loss,bound,within_bound,grad_fd_max_rel_err,drift_ok"
        best = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(best["best_val_loss"]) == min(map(float, losses))
        assert losses[[int(s) for s in steps].index(int(best["best_step"]))] == best["best_val_loss"]

    def test_config_accepts_json_lists(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d_values": [2, 3], "trials": 4, "mc_samples": 2000}')
        code = run(["correlation-decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "correlation-decay" / "correlation_decay.csv").read_text().splitlines()
        assert len(rows) == 3  # header + two dimensions

    def test_correlation_decay_echoes_its_sample_sizes(self, tmp_path, capsys):
        argv = ["correlation-decay", "--d-values", "2,3", "--trials", "5", "--mc-samples", "1500"]
        assert run([*argv, "--jobs", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "correlation-decay" / "correlation_decay.csv").read_text().splitlines()
        assert lines[0] == "d,mean_sq_normalized,std_err,n_w,mc_samples"
        assert [line.split(",")[3:] for line in lines[1:]] == [["5", "1500"], ["5", "1500"]]

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**70])  # the last past the int64 range
    def test_concentration_seed_column_is_the_seed(self, tmp_path, capsys, seed):
        argv = ["concentration", "--r", "64,128", "--trials", "2", "--probes", "50", "--seed", str(seed)]
        assert run([*argv, "--jobs", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "concentration" / "concentration.csv").read_text().splitlines()
        assert lines[0] == "r,trial,sup_error,max_abs_u,seed"
        assert [line.split(",")[-1] for line in lines[1:]] == [str(seed)] * 4

    @pytest.mark.parametrize("trials", [1, 3], ids=["one-trial", "three-trials"])
    def test_concentration_summary_reads_each_rs_rows(self, tmp_path, capsys, trials):
        argv = ["concentration", "--r", "64,128,256", "--trials", str(trials), "--probes", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one trial has no sample deviation; none is taken
            assert run([*argv, "--jobs", "1", "--out", str(tmp_path)]) == 0
        out = tmp_path / "concentration"
        rows = [line.split(",") for line in (out / "concentration.csv").read_text().splitlines()[1:]]
        summary = [line.split(",") for line in (out / "concentration_summary.csv").read_text().splitlines()[1:]]
        assert [line[0] for line in summary] == ["64", "128", "256"]
        for r, mean, std, _ in summary:
            errors = [float(row[2]) for row in rows if row[0] == r]
            assert len(errors) == trials
            assert float(mean) == float(np.mean(errors))
            if trials == 1:
                assert std == "0"
            else:
                assert float(std) == float(np.std(errors, ddof=1))

    def test_neuron_inapprox_smoke(self, tmp_path, capsys):
        code = run(["neuron-inapprox", "--d-values", "3", "--r", "20",
                    "--n-train", "200", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "neuron-inapprox" / "neuron_inapprox.csv").read_text()
        assert "control" in text and "psi" in text and "neuron_gd_baseline" in text
        header, *lines = text.splitlines()
        assert header == "d,target,normalized_error,r_max_abs_u,updates"
        baseline = next(line.split(",") for line in lines if line.startswith("3,neuron_gd_baseline,"))
        assert int(baseline[4]) > 0
        summary_line = f"d=3 neuron_gd_baseline: err={float(baseline[2]):.4f} updates={baseline[4]}\n"
        assert summary_line in capsys.readouterr().out

    def test_represent_poly_smoke(self, tmp_path, capsys):
        code = run(["represent-poly", "--poly", '{"2,0": 0.5, "0,1": -1.0}',
                    "--out", str(tmp_path)])
        assert code == 0

    def test_legendre_check_smoke(self, tmp_path, capsys):
        assert run(["legendre-check", "--max-degree", "8", "--out", str(tmp_path)]) == 0


class TestManifest:
    def test_checksums_match_outputs(self, tmp_path, capsys):
        assert run(["exp-identity", "--out", str(tmp_path)]) == 0
        out = tmp_path / "exp-identity"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"], "manifest must list outputs"
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256(read(out / name)).hexdigest()
            assert actual == digest, name
        assert manifest["version"]
        assert manifest["started"] <= manifest["finished"]

    def test_timings_time_each_stage(self, tmp_path, capsys):
        assert run(["exp-identity", "--out", str(tmp_path)]) == 0
        timings = json.loads((tmp_path / "exp-identity" / "manifest.json").read_text())["timings"]
        assert sorted(timings) == ["run_s", "write_s"]
        assert all(isinstance(seconds, float) and seconds >= 0.0 for seconds in timings.values())

    @pytest.mark.parametrize("openblas", [None, "2"])
    def test_environment_records_blas_threads(self, tmp_path, openblas):
        # a fresh process: the CLI sets its BLAS defaults before NumPy loads
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(rf_lab.__file__).resolve().parent.parent)
        if openblas is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas
        proc = subprocess.run(
            [sys.executable, "-m", "rf_lab.cli", "psi-check", "--d", "2", "--jobs", "1",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        environment = json.loads((tmp_path / "psi-check" / "manifest.json").read_text())["environment"]
        assert environment["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": openblas or "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        }
        assert environment["jobs"] == 1
        assert environment["cpu_count"] == usable_cpus()
        assert environment["kernel_backend"] == "numpy"
        assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
        assert environment["numpy"]

    @pytest.mark.parametrize("size", [0, cli._HASH_CHUNK, 3 * cli._HASH_CHUNK + 12345],
                             ids=["empty", "one-chunk", "chunks-and-tail"])
    def test_sha256_reads_in_chunks(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_every_csv_is_in_manifest(self, tmp_path, capsys):
        assert run(["linear-residual", "--trials", "20", "--d", "10", "--r", "4",
                    "--out", str(tmp_path)]) == 0
        out = tmp_path / "linear-residual"
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert emitted == set(manifest["outputs"])


# Small runs of the commands whose defaults take more than a moment.
SMALL_RUNS = {
    "concentration": ["--r", "64,128", "--trials", "2", "--probes", "50"],
    "learn-poly": SMALL_LEARN_POLY[1:],
    "linear-residual": ["--trials", "20"],
    "correlation-decay": ["--d-values", "2,3", "--trials", "4", "--mc-samples", "2000"],
    "neuron-inapprox": ["--d-values", "3", "--r", "20", "--n-train", "200"],
}


class TestReproducibility:
    def test_concentration_byte_identical(self, tmp_path, capsys):
        argv = ["concentration", "--r", "64,256", "--trials", "3", "--probes", "200", "--seed", "7"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("concentration.csv", "concentration_summary.csv"):
            assert read(tmp_path / "a" / "concentration" / name) == read(
                tmp_path / "b" / "concentration" / name
            ), name

    def test_jobs_flag_does_not_change_results(self, tmp_path, capsys):
        base = ["neuron-inapprox", "--d-values", "3,4", "--r", "20", "--n-train", "200", "--seed", "3"]
        assert run(base + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
        assert run(base + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
        assert read(tmp_path / "serial" / "neuron-inapprox" / "neuron_inapprox.csv") == read(
            tmp_path / "par" / "neuron-inapprox" / "neuron_inapprox.csv"
        )

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_no_random_stream_is_opened_twice(self, tmp_path, capsys, monkeypatch, command):
        # two draws from one stream replay the same bits; --jobs 1 opens every stream here
        keys = []
        generator = RandomSource.generator

        def recording(source, *subkeys):
            keys.append((*source._path, *subkeys))
            return generator(source, *subkeys)

        monkeypatch.setattr(RandomSource, "generator", recording)
        assert run([command, *SMALL_RUNS.get(command, []), "--jobs", "1", "--out", str(tmp_path)]) == 0
        assert len(keys) == len(set(keys)), sorted(keys)

    def test_csv_floats_are_full_precision(self, tmp_path, capsys):
        assert run(["linear-residual", "--trials", "3", "--d", "8", "--r", "2",
                    "--seed", "1", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "linear-residual" / "linear_residual.csv").read_text()
        header, *rows = text.strip().splitlines()
        assert header == "trial,residual,seed"
        value = rows[0].split(",")[1]
        # 17 significant digits survive a float round trip
        assert f"{float(value):.17g}" == value


def reference_fmt(value) -> str:
    """The per-value CSV formatting that ``write_csv`` must reproduce byte for byte."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


class TestWriteCsv:
    COLUMNS = {
        "py_int": [0, -7, 2**70, 5],
        "np_int": [np.int64(-3), np.int32(12), np.uint8(255), np.int64(2**62)],
        "py_float": [0.1, -0.0, float("inf"), float("nan")],
        "np_float": [np.float64(1 / 3), np.float32(1.1), np.float64(-np.inf), np.float16(-0.0)],
        "tiny_huge": [5e-324, 1.7976931348623157e308, -2.5e-308, 1e16],
        "whole_floats": [1.0, -2.0, 1e17, 123456789012345678.0],
        "py_bool": [True, False, True, False],
        "np_bool": [np.True_, np.False_, np.bool_(True), np.bool_(False)],
        "bool_and_int": [True, 3, False, -1],
        "py_str": ["a", "b c", "", "compiled"],
        "np_str": [np.str_("x"), np.str_("y"), np.str_("z"), np.str_("w")],
    }

    @staticmethod
    def expected(header, columns) -> bytes:
        rows = zip(*columns)
        return ("\n".join([",".join(header)] + [",".join(map(reference_fmt, row)) for row in rows]) + "\n").encode()

    def written(self, tmp_path, header, columns) -> bytes:
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        return path.read_bytes()

    def test_matches_reference_formatting(self, tmp_path):
        header = tuple(self.COLUMNS)
        columns = list(self.COLUMNS.values())
        assert self.written(tmp_path, header, columns) == self.expected(header, columns)

    def test_accepts_iterables_of_columns(self, tmp_path):
        column = np.array([0.5, -0.0, np.nan])
        write_csv(tmp_path / "a.csv", ("i", "v"), (range(3), column))
        write_csv(tmp_path / "b.csv", ("i", "v"), list(zip(*[(i, float(v)) for i, v in enumerate(column)])))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() == b"i,v\n0,0.5\n1,-0\n2,nan\n"

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ("a", "b"), [])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"
        write_csv(tmp_path / "u.csv", ("a", "b"), list(zip(*[])))
        assert (tmp_path / "u.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("column", [[1, 2.5], [0.5, "x"], [None, None]], ids=["column0", "column1", "column2"])
    def test_column_without_one_kind_is_refused(self, tmp_path, column):
        with pytest.raises(TypeError, match="CSV column"):
            write_csv(tmp_path / "t.csv", ("a",), [column])

    def test_signed_zeros_stay_apart(self, tmp_path):
        column = [0.0, -0.0, -0.0, 0.0, 1.0]
        assert self.written(tmp_path, ("v",), [column]) == b"v\n0\n-0\n-0\n0\n1\n"
        assert self.written(tmp_path, ("v",), [np.array(column)]) == b"v\n0\n-0\n-0\n0\n1\n"

    def test_nan_payloads_all_write_nan(self, tmp_path):
        bits = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        column = bits.view(np.float64)
        assert np.all(np.isnan(column)) and len(np.unique(bits)) == 5
        assert self.written(tmp_path, ("v",), [column]) == b"v\n" + b"nan\n" * 5

    def test_infinities_and_subnormals(self, tmp_path):
        column = [np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                  2.2250738585072014e-308, np.inf, 5e-324]
        expected = self.expected(("v",), [column])
        assert self.written(tmp_path, ("v",), [column]) == expected
        assert self.written(tmp_path, ("v",), [np.array(column)]) == expected

    def test_long_column_of_few_values(self, tmp_path):
        gen = np.random.default_rng(0)
        column = gen.choice(np.array([1 / 3, -0.0, 2.5e-300]), size=100_000)
        header = ("step", "v")
        columns = (range(len(column)), column)
        assert self.written(tmp_path, header, columns) == self.expected(header, (range(len(column)), column.tolist()))

    BLOCK = CSV_CELLS // 2  # rows per written piece of a two-column table

    @pytest.mark.parametrize("n", [8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1, 16 * BLOCK + 1])
    def test_rows_across_block_boundaries(self, tmp_path, n):
        gen = np.random.default_rng(n)
        values = gen.choice(np.array([0.1, -2.5, 1 / 3, 7.0]), size=n)
        header = ("step", "v")
        expected = self.expected(header, (range(n), values.tolist()))
        assert self.written(tmp_path, header, (range(n), values)) == expected
        assert self.written(tmp_path, header, (list(range(n)), values.tolist())) == expected

    def test_signed_zeros_across_a_block_boundary(self, tmp_path):
        column = np.zeros(self.BLOCK + 2)
        column[self.BLOCK - 1] = column[self.BLOCK + 1] = -0.0
        header, columns = ("i", "v"), (range(len(column)), column)
        written = self.written(tmp_path, header, columns)
        assert written == self.expected(header, columns)
        assert written.decode().splitlines()[self.BLOCK - 1 :] == [
            f"{self.BLOCK - 2},0", f"{self.BLOCK - 1},-0", f"{self.BLOCK},0", f"{self.BLOCK + 1},-0"]

    def test_empty_columns(self, tmp_path):
        assert self.written(tmp_path, ("a", "b"), [[], np.zeros(0)]) == b"a,b\n"
        assert self.written(tmp_path, ("a",), [range(0)]) == b"a\n"

    def test_bad_column_is_refused_before_any_row(self, tmp_path):
        # the float sits in a later piece than the ints: the column is still checked whole
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError, match="CSV column"):
            write_csv(path, ("a",), [[1] * self.BLOCK * 2 + [2.5]])
        assert not path.exists()

    def test_memory_follows_the_block_not_the_table(self, tmp_path):
        # a 200k-row, five-column table: mostly zeros, a column of all-distinct
        # values, and columns that change every 50 rows
        T = 200_001
        gen = np.random.default_rng(3)
        loss = np.where(gen.random(T) < 0.02, gen.random(T), 0.0)
        run_avg = np.cumsum(loss) / np.arange(1, T + 1)
        drift = np.repeat(np.cumsum(gen.random(T // 50 + 1)), 50)[:T]
        unorm = np.repeat(np.cumsum(gen.random(T // 50 + 1)), 50)[:T]
        columns = (range(T), loss, run_avg, drift, unorm)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "table.csv", ("step", "loss", "run_avg_loss", "w_drift", "u_norm"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one piece of CSV_CELLS values of text; the table's text is 13 MB
        assert peak < 2**20

    def test_arrays_and_lists_give_the_same_bytes(self, tmp_path):
        lists = [[0.1, -0.0, np.inf, np.nan, 5e-324], [0, -7, 3, 2**40, 5],
                 [True, False, True, True, False], ["a", "b c", "", "x", "y"]]
        arrays = [np.array(column) for column in lists]
        arrays.append(np.array([1.1, 2.5, -0.0, 3e38, 7.0], dtype=np.float32))
        lists.append(arrays[-1].tolist())
        header = tuple("abcde")
        assert self.written(tmp_path, header, arrays) == self.written(tmp_path, header, lists)
        assert self.written(tmp_path, header, lists) == self.expected(header, lists)
