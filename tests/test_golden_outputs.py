"""Golden digests of what every CLI command writes at its defaults.

``golden_outputs.json`` holds the sha256 of each output file the ten
commands write at seeds 0 and 5 (manifests excluded: they carry timestamps),
of each stdout with the output directory masked, and each exit code.  Float
formatting is exact, so another NumPy, BLAS or CPU may move last digits
legitimately: entries are keyed by that environment.  Where an entry
matches, the test names every digest that moved.  Where none does, it runs
every command twice and asserts equal bytes instead, and warns that no
recorded entry applies.

A change that moves bytes on purpose re-records this environment's entry with

    PYTHONPATH=src python3 tests/test_golden_outputs.py

and the JSON's diff then lists the outputs that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

from rf_lab import cli  # before NumPy loads, so that a re-record runs one BLAS thread, as the commands do

import numpy as np  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEEDS = (0, 5)


def environment() -> dict:
    """What may legitimately move a last digit: NumPy, its BLAS and their threads, the machine
    and the SIMD NumPy dispatches to.  neuron_inapprox.csv moves with the BLAS thread count."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def digests(out: Path) -> dict:
    """{"seed/command/name": value} for every command at its defaults, run in this process:
    the sha256 of each output file and of stdout, and the exit code."""
    found = {}
    for seed in SEEDS:
        for command in sorted(cli.COMMANDS):
            out_dir = out / f"seed{seed}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run([command, "--seed", str(seed), "--out", str(out_dir)])
            key = f"{seed}/{command}"
            found[f"{key}/exit"] = str(code)
            text = stdout.getvalue().replace(str(out_dir), "<out>")
            found[f"{key}/stdout"] = hashlib.sha256(text.encode()).hexdigest()
            for path in sorted((out_dir / command).iterdir()):
                if path.name != "manifest.json":
                    found[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def _moved(expected: dict, got: dict) -> list:
    return sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))


def test_default_outputs_match_their_golden_digests(tmp_path):
    env = environment()
    entries = json.loads(GOLDEN.read_text())["entries"]
    recorded = next((entry["digests"] for entry in entries if entry["environment"] == env), None)
    got = digests(tmp_path / "first")
    if recorded is None:
        warnings.warn(f"no golden entry is recorded for {env}; checking that a rerun repeats every byte")
        moved = _moved(got, digests(tmp_path / "second"))
        assert not moved, f"a rerun moved: {', '.join(moved)}"
    else:
        moved = _moved(recorded, got)
        assert not moved, f"moved from the recorded digests: {', '.join(moved)}"


def record():
    """Replace this environment's entry in ``golden_outputs.json`` with fresh digests."""
    env = environment()
    entries = json.loads(GOLDEN.read_text())["entries"] if GOLDEN.exists() else []
    with tempfile.TemporaryDirectory() as out:
        entry = {"environment": env, "digests": dict(sorted(digests(Path(out)).items()))}
    entries = [e for e in entries if e["environment"] != env] + [entry]
    GOLDEN.write_text(json.dumps({"entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entry['digests'])} digests for {env} in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
