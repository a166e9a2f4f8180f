"""rf-lab benchmark: the CLI end to end, plus a traced pass for per-layer times.

Run from the root of a checkout:

    python3 perfbench/bench.py --workload positive --seed 0 --seconds 40 --trace 0

Each workload is a closed loop with one client: its commands run one after
another, each as a fresh ``python -m rf_lab.cli <command> --seed S --out DIR``
subprocess, with every flag the workload does not set left at the CLI
default (``--jobs`` included) and the environment passed through unchanged.

``--trace 0`` measures the end-to-end metrics: passes over the command list
repeat until ``--seconds`` have elapsed and each metric is the median over
passes; ``setup_s`` is the median over several rounds of import-only
subprocesses.  ``--trace 1`` runs the same commands in this process with
``--jobs 1``, once untraced and once with the layer spans of ``tracer.py``
installed, repeated until ``--seconds`` have elapsed, and reports per-layer
self times (medians) and exact counts.

Every command invocation is checked: exit code 0, a manifest whose output
hashes match the files and list no validation failure, and output hashes
equal to the first run of the same command and seed in this session.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for why these workloads and
metrics were chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import EXACT_COUNTS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "positive": [["represent-poly"], ["concentration"], ["learn-poly"]],
    "negative": [["psi-check"], ["linear-residual"], ["correlation-decay"], ["neuron-inapprox"]],
}

# Metric names and units, and the measurement window, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_ROUNDS = 5
# The whole run must end within 180 s; stop starting work past this point.
DEADLINE_S = 165.0

ENV_PROBE = """
import json, os, sys
import numpy
import rf_lab.trainer
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # NumPy < 1.25 has no mode="dicts"
    blas = "unknown"
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": blas,
    "kernel_backend": rf_lab.trainer.kernel_backend("exp"),
    "cpu_count": os.cpu_count(),
}))
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class OutputGate:
    """Checks every command invocation and keeps the session's reference hashes."""

    def __init__(self):
        self.reference: dict[str, dict] = {}
        self.jobs: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, key: str, returncode, out_dir: Path) -> None:
        self.attempted += 1
        problem = self._problem(key, returncode, out_dir)
        if problem:
            self.failures.append(f"{key}: {problem}")

    def _problem(self, key, returncode, out_dir):
        if returncode != 0:
            return f"exit code {returncode}"
        manifests = list(out_dir.glob("*/manifest.json"))
        if len(manifests) != 1:
            return f"expected one manifest, found {len(manifests)}"
        try:
            manifest = json.loads(manifests[0].read_text(encoding="utf-8"))
            failures, hashes, jobs = manifest["validation_failures"], manifest["outputs"], manifest["config"]["jobs"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable manifest ({exc!r})"
        if failures:
            return f"validation failures {failures}"
        if not hashes:
            return "manifest lists no outputs"
        for name, digest in hashes.items():
            path = manifests[0].parent / name
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                return f"{name} is missing or does not match its manifest hash"
        self.jobs[key] = jobs
        first = self.reference.setdefault(key, hashes)
        if hashes != first:
            changed = sorted(n for n in set(first) | set(hashes) if first.get(n) != hashes.get(n))
            return f"outputs differ from the first run of this seed: {changed}"
        return None


def _spawn(cmd, env, log_path: Path, deadline: float):
    """Run one process to completion; returns (exit code, rusage, wall seconds)."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, wall


def _command_key(argv) -> str:
    return " ".join(argv)


def _cli(argv, seed: int, out_dir: Path) -> list[str]:
    return [*argv, "--seed", str(seed), "--out", str(out_dir)]


def _environment(env) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import rf_lab from {SRC}: {out.stderr.strip()[-500:]}")
    block = json.loads(out.stdout.strip().splitlines()[-1])
    block["git_sha"] = _git_sha()
    block["blas_threads"] = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return block


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _setup_round(commands, work: Path, env, deadline, i: int) -> float:
    """Seconds to start the interpreter and import rf_lab.cli, once per command."""
    total = 0.0
    for j, _ in enumerate(commands):
        code, _, wall = _spawn([sys.executable, "-c", "import rf_lab.cli"], env, work / f"setup{i}_{j}.log", deadline)
        if code != 0:
            raise BenchError(f"`import rf_lab.cli` failed; see {work}")
        total += wall
    return total


def measure_end_to_end(commands, seed, seconds, work: Path, env, gate: OutputGate, deadline):
    setup = []
    passes = []
    window_start = time.monotonic()
    while not passes or (
        time.monotonic() - window_start < seconds and time.monotonic() + passes[-1]["wall_s"] < deadline
    ):
        # One set-up round before each pass, so that set-up is sampled across
        # the whole window and not only in the host's state at its start.
        setup.append(_setup_round(commands, work, env, deadline, len(setup)))
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        runs = []
        per_command = {}
        start = time.perf_counter()
        for i, argv in enumerate(commands):
            out_dir = pass_dir / str(i)
            cmd = [sys.executable, "-m", "rf_lab.cli", *_cli(argv, seed, out_dir)]
            code, usage, wall = _spawn(cmd, env, pass_dir / f"{i}.log", deadline)
            per_command[_command_key(argv)] = {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
            runs.append((argv, code, out_dir))
        wall = time.perf_counter() - start
        for argv, code, out_dir in runs:
            gate.check(_command_key(argv), code, out_dir)
        shutil.rmtree(pass_dir)
        passes.append({
            "wall_s": wall,
            "cpu_s": sum(c["cpu_s"] for c in per_command.values()),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in per_command.values()),
            "commands": per_command,
        })

    while len(setup) < SETUP_ROUNDS:
        setup.append(_setup_round(commands, work, env, deadline, len(setup)))

    metrics = {name: statistics.median(p[name] for p in passes) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, {"passes": passes, "setup_rounds": setup}


def _in_process_pass(commands, seed, pass_dir: Path, gate: OutputGate, tracer: Tracer | None):
    """Run the command list through rf_lab.cli.run at --jobs 1; returns wall seconds."""
    import rf_lab.cli

    runs = []
    with open(pass_dir / "stdout.log", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        for i, argv in enumerate(commands):
            out_dir = pass_dir / str(i)
            full = [*_cli(argv, seed, out_dir), "--jobs", "1"]
            span = tracer.span(f"cli.run_s.{argv[0]}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    code = rf_lab.cli.run(full)
            except Exception as exc:  # the command crashed; count it as failed
                code = f"{type(exc).__name__}: {exc}"
            runs.append((argv, code, out_dir))
        wall = time.perf_counter() - start
    for argv, code, out_dir in runs:
        gate.check(_command_key(argv) + " (in-process, --jobs 1)", code, out_dir)
    return wall


def measure_layers(commands, seed, seconds, work: Path, gate: OutputGate, deadline, spans_path: Path):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    samples = []
    window_start = time.monotonic()
    while not samples or (
        time.monotonic() - window_start < seconds and time.monotonic() + samples[-1]["pair_s"] < deadline
    ):
        pair_start = time.monotonic()
        plain_dir = work / f"plain{len(samples)}"
        traced_dir = work / f"traced{len(samples)}"
        plain_dir.mkdir()
        traced_dir.mkdir()
        tracer = Tracer()

        def traced_pass():
            with tracer.installed():
                return _in_process_pass(commands, seed, traced_dir, gate, tracer)

        # Alternate which pass runs first, so warm-up does not bias trace.overhead_s.
        if len(samples) % 2:
            traced_wall = traced_pass()
            plain_wall = _in_process_pass(commands, seed, plain_dir, gate, None)
        else:
            plain_wall = _in_process_pass(commands, seed, plain_dir, gate, None)
            traced_wall = traced_pass()
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
        if not samples:
            tracer.write(spans_path)
        sample = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
        sample.update(tracer.self_times())
        sample["trace.overhead_s"] = traced_wall - plain_wall
        sample["trace.untraced_s"] = traced_wall - tracer.root_seconds()
        sample["counts"] = {name: tracer.counts.get(name, 0) for name in EXACT_COUNTS}
        sample["pair_s"] = time.monotonic() - pair_start
        samples.append(sample)

    counts = samples[0]["counts"]
    repeat_ok = all(s["counts"] == counts for s in samples)
    metrics = {name: statistics.median(s[name] for s in samples) for name, unit in PER_LAYER.items() if unit == "s"}
    metrics.update(counts)
    kernel_s = metrics["trainer.kernel_s"]
    metrics["trainer.steps_per_s"] = counts["trainer.kernel_steps"] / kernel_s if kernel_s > 0 else 0.0
    return metrics, {"traced_pairs": len(samples), "counts_repeat": repeat_ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed to every command")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced per-layer pass")
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "rf_lab" / "cli.py").is_file():
        print(f"error: no rf_lab sources under {SRC}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    commands = WORKLOADS[args.workload]
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    gate = OutputGate()
    try:
        environment = _environment(env)
        environment["load_avg_1m_start"] = os.getloadavg()[0]
        if args.trace:
            spans_path = ROOT / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, samples = measure_layers(commands, args.seed, args.seconds, work, gate, deadline, spans_path)
            samples["spans"] = str(spans_path.relative_to(ROOT))
            units = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(commands, args.seed, args.seconds, work, env, gate, deadline)
            units = END_TO_END
        environment["load_avg_1m_end"] = os.getloadavg()[0]
        environment["jobs"] = gate.jobs
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(gate.failures)
    fail_frac = failed / gate.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.monotonic() - started:.1f} s")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_frac':<34} {fail_frac:.6g} ({failed} of {gate.attempted} invocations)")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    counts_repeat = samples.get("counts_repeat", True)
    if not counts_repeat:
        print("  FAILED exact counts differ between traced runs of the same seed")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print("outputs: " + json.dumps(gate.reference, sort_keys=True))
    print("samples: " + json.dumps(samples, sort_keys=True))
    result = {
        "correct": not gate.failures and counts_repeat,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
