"""Hinge-loss SGD inner loop on a two-layer net, in NumPy.

Contract: advance hinge-loss SGD for ``count`` steps starting at ``start``,
writing the per-step loss and the post-step norms into the trace arrays
(entry t+1 describes the state after step t).  Updates use the pre-update
outer weights, i.e. the exact simultaneous subgradient step.  Labels must be
-1 or +1.

Scan invariant: step t changes W and U only if its margin 1 - y N(x) is
>= 0, so between two updates the net is fixed and every step in between has
loss 0 and the same norms.  The loop therefore alternates two modes:

* exact steps, one at a time, the textbook per-step code; a step that does
  not update copies the norms forward instead of recomputing them;
* after ``QUIET`` exact steps in a row without an update, a scan scores the
  margins of a window of upcoming steps with one GEMM against the fixed net.
  A step whose scanned margin is below -tol provably does not update (see
  ``_clear_steps`` for the bound), so it gets loss 0 and the carried norms.
  The first step that might update runs as an exact step.  The window
  starts at ``FIRST_WINDOW`` rows, doubles after every clean scan and resets
  after an update; it never exceeds ``SCAN_CELLS // r`` rows (at least 1),
  the rows of the scan buffer.

Every trace entry and the final W, U are bit-identical to the per-step loop;
the Python-level work scales with the number of updates, not of steps.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

QUIET = 4  # exact steps without an update before the first scan
FIRST_WINDOW = 16  # scan rows right after an update
# window * r cap: one reused 2 MiB buffer, which stays in cache; checkpoint
# validation streams its points through ``features.row_blocks`` (512 KiB)
SCAN_CELLS = 1 << 18

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of an n-term sum."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _clear_steps(W, U, X, Y, sigma, dsigma, buf) -> int:
    """Number of leading rows of (X, Y) at which the fixed net provably does not update.

    ``buf`` is a work array of shape (>= len(X), r); a ufunc activation runs in it.

    Bound.  Per step the exact code computes z^ = fl(W x), s^ = fl(sigma(z^))
    and n^ = fl(U . s^); the scan computes z~, s~, n~ from the same inputs
    with other summation orders.  Assume (a) every m-term inner product, in
    any order and with or without FMA, errs by at most gamma_m times the sum
    of its absolute terms; (b) sigma is evaluated with relative error <= 8u
    (4 ulp); (c) |sigma'| varies by at most a factor 2 within 2e of z~ (exp
    and the identity satisfy it, as e < 1e-12 here).  Then with
    e = gamma_d ||x||_inf max_i ||w_i||_1, which bounds |z^_i - z_i| and
    |z~_i - z_i|,

        |n^ - n~| <= (2 gamma_r + 16u) M + 4 e L  (to first order),
        M = sum_i |u_i sigma(z~_i)|,  L = sum_i |u_i sigma'(z~_i)|.

    tol doubles the right side, which covers the higher-order terms and the
    rounding of M, L and tol themselves.  For exp, L = M, so tol is a
    multiple of sum_i |u_i sigma(z_i)|.  A scanned margin fl(1 - y n~) below
    -tol gives y n~ > 1 + tol, hence y n^ > 1: the exact step's margin is
    negative and it does not update.  NaN or inf anywhere counts as a
    possible update.
    """
    r, d = W.shape
    abs_u = np.abs(U)
    with np.errstate(over="ignore", invalid="ignore"):  # rows past an update are speculative
        Z = np.matmul(X, W.T, out=buf[: len(X)])
        # sigma'(z) before sigma and |S|, either of which may overwrite Z
        lip = None if dsigma is sigma else np.abs(dsigma(Z)) @ abs_u
        S = sigma(Z, out=Z) if isinstance(sigma, np.ufunc) else sigma(Z)
        n = S @ U
        mag = np.abs(S, out=S) @ abs_u
        if lip is None:
            lip = mag
        e = _gamma(d) * np.abs(X).max(axis=1) * np.abs(W).sum(axis=1).max()
        tol = 2.0 * ((2.0 * _gamma(r) + 16.0 * _UNIT_ROUNDOFF) * mag + 4.0 * e * lip)
        could = np.flatnonzero(~(1.0 - Y * n < -tol))
    return int(could[0]) if could.size else len(Y)


def run_steps(W, U, W0, X, Y, eta, sigma, dsigma, loss, drift, unorm, wnorm, start, count):
    r = W.shape[0]
    end = start + count
    reuse_s = dsigma is sigma  # exp: sigma' = sigma, so s serves as sigma'(z) bit for bit
    cur_drift = np.linalg.norm(W - W0)
    cur_unorm = np.linalg.norm(U)
    cur_wnorm = np.linalg.norm(W)
    max_window = max(1, SCAN_CELLS // r)
    buf = np.empty((min(max_window, count), r))  # pages are touched only by a scan
    first_window = min(FIRST_WINDOW, max_window)
    window = first_window
    quiet = 0
    t = start
    while t < end:
        if quiet >= QUIET:
            hi = min(end, t + window)
            clear = _clear_steps(W, U, X[t:hi], Y[t:hi], sigma, dsigma, buf)
            loss[t : t + clear] = 0.0
            drift[t + 1 : t + clear + 1] = cur_drift
            unorm[t + 1 : t + clear + 1] = cur_unorm
            wnorm[t + 1 : t + clear + 1] = cur_wnorm
            t += clear
            if t == hi:
                window = min(2 * window, max_window)
                continue
            quiet = QUIET - 1  # step t runs exactly; back to scanning unless it updates
        x = X[t]
        y = Y[t]
        z = W @ x
        s = sigma(z)
        n_val = float(U @ s)
        margin = 1.0 - y * n_val
        loss[t] = margin if margin > 0.0 else 0.0
        if margin >= 0.0:
            # subgradient: dU = -y * s, dW_i = -y * u_i * sigma'(z_i) * x
            ds = s if reuse_s else dsigma(z)
            coef = (eta * y) * (U * ds)
            W += coef[:, None] * x[None, :]
            U += (eta * y) * s
            cur_drift = np.linalg.norm(W - W0)
            cur_unorm = np.linalg.norm(U)
            cur_wnorm = np.linalg.norm(W)
            quiet = 0
            window = first_window
        else:
            quiet += 1
        drift[t + 1] = cur_drift
        unorm[t + 1] = cur_unorm
        wnorm[t + 1] = cur_wnorm
        t += 1
