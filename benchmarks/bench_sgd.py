"""Benchmark the SGD kernel, ``rf_lab._sgd_numpy.run_steps``.

The kernel's cost scales with the number of updates, not of steps: steps
whose margin is provably negative are scored in blocks and skipped.  So it
is measured in two regimes:

* sparse: labels y = sign(x_1) and eta = 0.01, a separable stream that the
  net soon fits, after which few steps update (as in ``learn-poly``);
* dense: random labels and eta = 1e-6, so every margin stays near 1 and
  every step updates, the worst case for the kernel.

Each row reports the median and the interquartile range of ``REPEATS``
runs.  One end-to-end ``sgd_train`` row at ``learn-poly``'s shape adds
checkpoint validation.  BLAS runs one thread, as in every ``rf-lab``
command, unless the environment sets another count.

Usage: python benchmarks/bench_sgd.py [--steps N]
"""

import argparse
import math
import os
import statistics
import time

# before NumPy loads: OpenBLAS reads its thread count once, at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from rf_lab import _sgd_numpy
from rf_lab.legendre import MultiIndex
from rf_lab.numerics import RandomSource
from rf_lab.poly_repr import SparsePolynomial, exp_activation
from rf_lab.trainer import TrainConfig, margin_filtered_sampler, sgd_train

REGIMES = {"sparse": 0.01, "dense": 1e-6}  # regime -> eta
REPEATS = 5


def make_problem(steps, r, d, regime, seed=1):
    gen = RandomSource(seed).generator()
    W = gen.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), size=(r, d))
    X = gen.standard_normal((steps + 1, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    if regime == "sparse":
        Y = np.where(X[:, 0] >= 0, 1.0, -1.0)
    else:
        Y = gen.choice((-1.0, 1.0), size=steps + 1)
    return W, X, Y


def run_kernel(steps, r, d, regime):
    """Seconds for one run, and the number of steps with positive loss (all updated)."""
    W, X, Y = make_problem(steps, r, d, regime)
    U = np.zeros(r)
    W0 = W.copy()
    loss = np.zeros(steps + 1)
    drift = np.zeros(steps + 1)
    unorm = np.zeros(steps + 1)
    wnorm = np.zeros(steps + 1)
    t0 = time.perf_counter()
    _sgd_numpy.run_steps(W, U, W0, X, Y, REGIMES[regime], np.exp, np.exp,
                         loss, drift, unorm, wnorm, 0, steps)
    elapsed = time.perf_counter() - t0
    return elapsed, int(np.count_nonzero(loss[:steps]))


def median_iqr(times):
    """Median and interquartile range of the run times."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, q3 - q1


def bench_raw(steps):
    print(f"raw kernel, {steps} steps (exp activation), {REPEATS} runs:")
    print(f"{'regime':<8}{'config':<16}{'median s':>9}{'IQR s':>8}{'steps/s':>12}{'updates':>9}")
    for regime in REGIMES:
        for r, d in ((100, 3), (1000, 3), (1000, 10)):
            runs = [run_kernel(steps, r, d, regime) for _ in range(REPEATS)]
            seconds, iqr = median_iqr([s for s, _ in runs])
            print(f"{regime:<8}r={r:<5} d={d:<5} {seconds:>9.3f}{iqr:>8.3f}{steps / seconds:>12.0f}"
                  f"{runs[0][1]:>9}")


def bench_end_to_end(steps):
    act = exp_activation()
    P = SparsePolynomial(3, {MultiIndex((1, 1, 0)): 2.0})
    sampler = margin_filtered_sampler(P, 0.3)
    cfg = TrainConfig(epsilon=0.1, delta=0.1, degree=2, coeff_bound=1.0,
                      r=1000, eta=0.01, steps=steps, seed=1)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = sgd_train(3, sampler, cfg, RandomSource(1), act)
        times.append(time.perf_counter() - t0)
    seconds, iqr = median_iqr(times)
    print(f"\nend-to-end sgd_train (r=1000, d=3, T={steps}, incl. validation): "
          f"median {seconds:.3f} s, IQR {iqr:.3f} s, best val loss {result.best_val_loss:.6f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=50_000)
    args = parser.parse_args()
    bench_raw(args.steps)
    bench_end_to_end(args.steps)


if __name__ == "__main__":
    main()
