"""Hinge-loss SGD inner loop on a two-layer exp net, in NumPy.

Contract: advance hinge-loss SGD for ``count`` steps on the rows of (X, Y),
whose row i is the example of step ``start + i``, and return the steps that
updated, each as (step, loss, ||W - W0||_F, ||U||, ||W||_F) with the norms
taken after the step.  Every other step has loss 0 and leaves the norms as
they were (the scan invariant below), so these records are the whole
per-step trace.  Updates use the pre-update outer weights, i.e. the exact
simultaneous subgradient step.  Labels must be -1 or +1.

Scan invariant: step t changes W and U only if its margin 1 - y N(x) is
>= 0, so between two updates the net is fixed and every step in between has
loss 0 and the same norms.  The loop therefore alternates two modes:

* exact steps, one at a time, each a ``hinge_step`` in float64, the step
  whose gradient ``trainer.finite_difference_check`` certifies; a step that
  updates computes the norms and is recorded;
* after ``QUIET`` exact steps in a row without an update, a scan scores the
  margins of a window of upcoming steps against the fixed net in float32:
  one GEMM writes the neuron-major (r, window) block W' X^T, with W'
  = W log2(e), exp2 runs on it in place, and one (2, r) GEMM reads each
  step's output and the weight of its error bound off it.  A step whose
  scanned margin is below -tol provably does not update (see
  ``_clear_steps``), so it is skipped.  The first step that might update
  runs as an exact step.  The window starts at ``FIRST_WINDOW`` rows,
  doubles after every clean scan and resets after an update; it never
  exceeds ``SCAN_CELLS // r`` rows (at least 1), the block's buffer.

The scan only decides which steps to skip and writes no number, so it runs
in float32: the steps of a call are cast once per call, the net once at the
first scan after each update.  The records and the final W, U are
bit-identical to the per-step loop; the Python-level work and the records
scale with the number of updates, not of steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

QUIET = 4  # exact steps without an update before the first scan
FIRST_WINDOW = 16  # scan rows right after an update
# window * r cap: one reused 1 MiB float32 buffer, which stays in cache;
# checkpoint validation streams its points through ``features.row_blocks``
SCAN_CELLS = 1 << 18

_UNIT_ROUNDOFF = 2.0**-24  # float32
_TINY = 2.0**-149  # smallest float32 subnormal


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), float32 u: the relative error bound of an
    n-term sum.  inf from n u >= 1/4, so gamma_n is at most 1/3 where it is finite."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu) if nu < 0.25 else math.inf


class _ScanNet(NamedTuple):
    """The fixed net in float32 as a scan reads it, and its terms of the scan's bound."""

    w: np.ndarray  # W', (r, d)
    uu: np.ndarray  # rows U and |U| = max(|U|, 2^-126), (2, r)
    k0: float  # tol = M (k0 + k1 a) + floor
    k1: float
    floor: float


def _scan_net(W, U) -> _ScanNet:
    r, d = W.shape
    w = (W * math.log2(math.e)).astype(np.float32)
    uu = np.array([U, np.maximum(np.abs(U), 2.0**-126)], np.float32)
    k0 = 4.0 * _gamma(r) + 32.0 * _UNIT_ROUNDOFF + 8.0 * _TINY * (np.abs(w).sum(1, float).max() + d)
    k1 = 8.0 * (_gamma(d + 3) * np.abs(W).sum(1).max() + _TINY * d)
    return _ScanNet(w, uu, float(k0), float(k1), 2.0 * (r + 4.0 * uu[1].sum(dtype=float)) * _TINY)


def _clear_steps(net: _ScanNet, X, x_inf, Y, buf) -> int:
    """Number of leading steps of (X, Y) at which the fixed net provably does not update.

    ``X`` holds the steps' x as the columns of a float32 (d, m) array and
    ``x_inf`` their ||x||_inf in float64; the block runs in ``buf``, a flat
    float32 array of >= r m values.

    Bound.  Per step the exact code computes z^ = fl64(W x), s^ = fl64(exp(z^))
    and n^ = fl64(U . s^).  The scan rounds x, U and W' = fl64(W log2(e)) to
    float32 and computes z' = W' x, s~ = exp2(z'), n~ = U . s~ and
    M = |U| . s~ in float32 with other summation orders; s~ = exp(z~) with
    z~ = z' ln 2.  Let u = 2^-24, gamma_m = m u / (1 - m u) and tiny = 2^-149.
    Assume (a) every m-term float32 or float64 inner product, in any order
    and with or without FMA, errs by at most gamma_m times the sum of its
    absolute terms, plus tiny/2 per product that falls below float32's
    normal range; (b) exp2 is evaluated in float32 with relative error <= 8u
    (4 ulp) plus an absolute 2 tiny when the result is subnormal, and exp at
    least as well in float64 (tests check NumPy's float32 exp2); (c) exp
    varies by at most a factor 2 within 2e of z~, which holds whenever
    2e <= ln 2.  Rounding x and W' to float32 adds two relative errors of u
    (or tiny/2 each below the normal range), and W''s float64 scaling one of
    2^-52, to each of the d products, so with a = ||x||_inf (read off
    the float32 x, within the factor 1 + u the doubling below covers),
    b = max_i ||w_i||_1, b' = max_i ||w'_i||_1 and
    e = gamma_{d+3} a b + tiny (b' + d a + d), e bounds |z~_i - z_i| and the
    float64 |z^_i - z_i|.  Rounding U to float32 errs by at most
    u max(|u_i|, 2^-126) = u |u|_i.  Since exp' = exp, the derivative's term
    of the bound is M itself:

        |n^ - n~| <= (2 gamma_r + 16u) M + 4 e M + A  (to first order),
        A = (r + 4 sum_i |u|_i) tiny,

    where A covers the sums' and exp2's values below the normal range.
    tol = M (k0 + k1 a) + 2A doubles the right side, with k0 and k1 fixed per
    net; the doubling covers the higher-order terms and the rounding of M,
    of tol in its reordered float64 form and of the margin.  A scanned
    margin fl(1 - y n~) below -tol gives y n~ > 1 + tol, hence y n^ > 1: the
    exact step's margin is negative and it does not update.

    Where the assumptions fail, no row clears:

    * gamma_m is inf from m u >= 1/4 (``_gamma``), so tol is inf or NaN.
      Where it is finite, gamma_r <= 1/3.
    * For e > ln(2) / 2, tol >= 8 e M > 2.77 M, while |n~| <= 2 M (to the
      terms A covers): the scanned margin is above 1 - tol, never below -tol.
    * A float32 overflow: an inf x or W' entry makes a or b', hence tol,
      inf or NaN; an inf z~ otherwise needs a b > 2^127, hence e > ln(2) / 2;
      an inf s~ makes M, hence tol, inf; and inf - inf or 0 * inf makes the
      margin NaN, which is never below -tol.
    """
    r, m = len(net.w), len(Y)
    with np.errstate(over="ignore", invalid="ignore"):  # rows past an update are speculative
        S = np.matmul(net.w, X, out=buf[: r * m].reshape(r, m))
        n, M = net.uu @ np.exp2(S, out=S)
        tol = M * (net.k0 + net.k1 * x_inf) + net.floor
        could = np.flatnonzero(~(1.0 - Y * n < -tol))
    return int(could[0]) if could.size else m


def hinge_step(W, U, x, y, eta) -> float:
    """One exact step at example (x, y): updates W and U in place iff the margin
    1 - y N(x) is >= 0, and returns the margin.

    The subgradient is dU = -y s, dW_i = -y u_i exp'(z_i) x with z = W x,
    s = exp(z) and exp' = exp, and the step moves both layers by -eta times it
    from the pre-update U.  At eta = 1 the step's displacement, old minus new,
    is the subgradient, which ``trainer.finite_difference_check`` reads.
    """
    z = W @ x
    s = np.exp(z)
    margin = 1.0 - y * float(U @ s)
    if margin >= 0.0:
        coef = (eta * y) * (U * s)
        W += coef[:, None] * x[None, :]
        U += (eta * y) * s
    return margin


def run_steps(W, U, W0, X, Y, eta, start, count):
    r = W.shape[0]
    updates = []
    X32 = np.ascontiguousarray(X[:count].T, np.float32)  # neuron-major scans read (d, window) blocks
    x_inf = np.abs(X32).max(axis=0).astype(float)
    net = None  # the float32 net, cast at the first scan after an update
    max_window = max(1, SCAN_CELLS // r)
    buf = np.empty(min(max_window, count) * r, np.float32)  # pages are touched only by a scan
    first_window = min(FIRST_WINDOW, max_window)
    window = first_window
    quiet = 0
    i = 0
    while i < count:
        if quiet >= QUIET:
            if net is None:
                net = _scan_net(W, U)
            hi = min(count, i + window)
            i += _clear_steps(net, X32[:, i:hi], x_inf[i:hi], Y[i:hi], buf)
            if i == hi:
                window = min(2 * window, max_window)
                continue
            quiet = QUIET - 1  # step i runs exactly; back to scanning unless it updates
        margin = hinge_step(W, U, X[i], Y[i], eta)
        if margin >= 0.0:
            # the step's hinge loss is its margin, which is >= 0
            updates.append((start + i, margin, np.linalg.norm(W - W0), np.linalg.norm(U), np.linalg.norm(W)))
            net = None
            quiet = 0
            window = first_window
        else:
            quiet += 1
        i += 1
    return updates
