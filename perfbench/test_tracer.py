"""Tests of the benchmark's tracer: self-time arithmetic, patching, and exact counts.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json

import bench
import pytest
from tracer import EXACT_COUNTS, TARGETS, Span, Tracer

import rf_lab.cli
import rf_lab.trainer

# Reduced sizes, so two traced passes of every workload take seconds.
SMALL = {
    "represent-poly": ["--probes", "5"],
    "concentration": ["--r", "64,128,256", "--trials", "2", "--probes", "200"],
    "learn-poly": ["--r", "50", "--steps", "2000", "--n-val", "200"],
    "psi-check": ["--grid", "1000"],
    "linear-residual": ["--trials", "20"],
    "correlation-decay": ["--d-values", "2,4", "--trials", "4", "--mc-samples", "5000"],
    "neuron-inapprox": ["--d-values", "4", "--r", "50", "--n-train", "500"],
}


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 6.0, 0),
        Span("a", 11.0, 12.0, None),
    ]
    assert tracer.self_times() == {"a": 6.0 + 1.0, "b": 2.0 + 1.0, "c": 1.0}
    assert tracer.root_seconds() == 11.0


def test_installed_patches_every_binding_and_restores():
    original = rf_lab.trainer.forward
    assert rf_lab.cli.forward is original
    tracer = Tracer()
    with tracer.installed():
        assert rf_lab.trainer.forward is not original
        assert rf_lab.cli.forward is rf_lab.trainer.forward
    assert rf_lab.trainer.forward is original
    assert rf_lab.cli.forward is original


def test_spec_matches_the_harness():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in bench.SPEC["workloads"])
    assert {metric for _, _, metric, _ in TARGETS} | set(EXACT_COUNTS) <= set(bench.PER_LAYER)


def _traced_metrics(commands, tmp_path, tag):
    gate = bench.OutputGate()
    work = tmp_path / tag
    work.mkdir()
    spans = work / "spans.jsonl"
    metrics, samples = bench.measure_layers(commands, 3, 0.0, work, gate, float("inf"), spans)
    assert gate.failures == []
    name, start, end, parent = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert (name, start, parent) == (f"cli.run_s.{commands[0][0]}", 0.0, None)
    assert end > 0.0
    assert samples["counts_repeat"]
    assert set(metrics) == set(bench.PER_LAYER)
    return metrics, gate.reference


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_exact_counts_repeat_between_traced_runs(workload, tmp_path):
    commands = [[*argv, *SMALL[argv[0]]] for argv in bench.WORKLOADS[workload]]
    first, outputs = _traced_metrics(commands, tmp_path, "first")
    second, outputs_again = _traced_metrics(commands, tmp_path, "second")
    assert {n: first[n] for n in EXACT_COUNTS} == {n: second[n] for n in EXACT_COUNTS}
    assert outputs == outputs_again
    assert first["cli.bytes_written"] > 0
    if workload == "negative":
        assert first["hardness.psi_eval_points"] > 0
        assert first["trainer.kernel_steps"] == 0
    else:
        assert first["trainer.kernel_steps"] == 2000
        assert first["hardness.psi_eval_points"] == 0
    if workload == "positive":
        # 2 trials x 200 probes x r float64 features per concentration cell
        assert first["features.feature_matrix_bytes"] == 2 * 200 * 8 * (64 + 128 + 256)
