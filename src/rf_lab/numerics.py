"""Deterministic quadrature, seeded random streams, and sampling measures.

Two Gauss rules back every exactness check in the package.  A rule is a
``(nodes, weights)`` pair of arrays, as are the composite rules built from
them:

* ``gauss_legendre`` integrates against the flat measure ``dw`` on [-1, 1]
  (total mass 2), so an order-n rule is exact for polynomials of degree
  2n - 1.
* ``gauss_hermite`` is in the probabilists' convention, i.e. against the
  standard normal probability measure ``exp(-z^2/2)/sqrt(2*pi) dz`` (total
  mass 1).  Scaling the nodes by sigma turns it into an expectation under
  N(0, sigma^2), which is how all Gaussian-measure norms here are computed.

Nodes are located by Newton iteration on the three-term recurrences
(initial guesses: the cosine asymptotic for Legendre, Jacobi-matrix
eigenvalues for Hermite) and polished to a 1e-15 step tolerance, which is
stable up to order ~200.

Gauss rules lose their exactness across kinks, so piecewise integrands
(ReLU-like functions) must be integrated with the kink positions supplied
by the caller.  :func:`kink_split_rule` is the one place that splits a 1-D
interval at kinks (and into panels no wider than a given width) and maps a
base rule onto each panel; :func:`gaussian_expectation_1d` builds on it.

Randomness is carried by :class:`RandomSource`, a root seed mapped onto
``numpy.random.SeedSequence``.  Equal seeds reproduce bit-equal draw
sequences, and derived sub-streams extend the spawn key, so they are
statistically independent and trial cells can run concurrently without
coordination.  Feature directions are drawn uniformly on the cube
[-1/sqrt(d), 1/sqrt(d)]^d (``uniform_cube``) or on the unit sphere
(``unit_sphere``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .legendre import legendre_eval

_NEWTON_TOL = 1e-15
_GAUSS_SUPPORT_SIGMAS = 40.0  # exp(-40^2/2) underflows double precision


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1), for n >= 1 and |x| < 1."""
    p = legendre_eval(n, x)
    return p, n * (x * p - legendre_eval(n - 1, x)) / (x * x - 1.0)


def gauss_legendre_rule(order: int):
    """Gauss-Legendre rule on [-1, 1] for the flat measure dw, as (nodes, weights);
    the weights sum to 2."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    k = np.arange(order, dtype=float)
    x = np.cos(np.pi * (k + 0.75) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(order, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # enforce the exact +/- symmetry of the roots
    _, dp = _legendre_with_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def _hermite_orthonormal(n: int, x: np.ndarray):
    """h_n, h_{n-1}, and sum_{k<n} h_k^2 for orthonormal probabilists' Hermite."""
    h_prev = np.ones_like(x)  # h_0
    christoffel = h_prev * h_prev
    if n == 1:
        return x.copy(), h_prev, christoffel
    h = x.copy()  # h_1
    for k in range(1, n):
        if k < n - 1:
            christoffel = christoffel + h * h
        h_prev, h = h, (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1)
    christoffel = christoffel + h_prev * h_prev
    return h, h_prev, christoffel


def gauss_hermite_rule(order: int):
    """Probabilists' Gauss-Hermite rule: E[f(z)] for z ~ N(0, 1), as (nodes, weights);
    the weights sum to 1."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if order == 1:
        return np.zeros(1), np.ones(1)
    off = np.sqrt(np.arange(1, order, dtype=float))
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    for _ in range(100):
        h, h_prev, _ = _hermite_orthonormal(order, x)
        step = h / (math.sqrt(order) * h_prev)
        x -= step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])
    _, _, christoffel = _hermite_orthonormal(order, x)
    w = 1.0 / christoffel
    return x, w


# ---------------------------------------------------------------------------
# kink-split rules and Gaussian expectations of kinked 1-D functions
# ---------------------------------------------------------------------------


def kink_split_rule(base, lo: float, hi: float, kinks, max_width: float = math.inf):
    """Composite rule for the flat measure dx on [lo, hi], as flat (nodes, weights).

    Splits [lo, hi] at every kink strictly inside it, cuts each piece into
    equal panels no wider than ``max_width``, and maps ``base`` (a rule on
    [-1, 1], as (nodes, weights)) onto every panel.  A base rule exact for
    degree k on [-1, 1] then integrates any piecewise polynomial of degree k
    with breaks at the kinks exactly.
    """
    cuts = sorted({lo, hi, *(float(c) for c in kinks if lo < c < hi)})
    edges = [cuts[0]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        panels = max(1, math.ceil((b - a) / max_width))
        edges.extend(a + (b - a) * (i + 1) / panels for i in range(panels))
    edges = np.asarray(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    base_nodes, base_weights = base
    nodes = (mid[:, None] + half[:, None] * base_nodes[None, :]).ravel()
    weights = (half[:, None] * base_weights[None, :]).ravel()
    return nodes, weights


def gaussian_expectation_1d(func, sigma: float, order: int, kinks) -> float:
    """E[func(z)] for z ~ N(0, sigma^2), splitting the domain at ``kinks``.

    With no kinks this is plain scaled Gauss-Hermite.  With kinks the
    integral is taken segment by segment (Gauss-Legendre against the normal
    density) over [-40 sigma, 40 sigma]; the tail mass beyond that is below
    double-precision resolution.  Panels span at most 2 sigma: a fixed-order
    Gauss rule only resolves the normal density on that scale.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return float(np.asarray(func(np.zeros(1)))[0])
    if not len(kinks):
        z, w = gauss_hermite_rule(order)
        return float(w @ np.asarray(func(sigma * z), dtype=float))
    lim = _GAUSS_SUPPORT_SIGMAS * sigma
    z, w = kink_split_rule(gauss_legendre_rule(order), -lim, lim, kinks, max_width=2.0 * sigma)
    dens = np.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(np.sum(w * dens * np.asarray(func(z), dtype=float)))


# ---------------------------------------------------------------------------
# seeded randomness and sampling measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness identified by a root seed.

    ``derive`` extends the underlying spawn key, giving independent
    sub-streams for trial cells while keeping the root seed printable.
    The spawn key's first entry is a fixed 0: the lab's outputs are pinned
    to the streams drawn with it.
    """

    seed: int
    _path: tuple = field(default=(), repr=False)

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed % (1 << 64), spawn_key=(0, *self._path, *subkeys))
        return np.random.default_rng(ss)

    def derive(self, *subkeys: int) -> "RandomSource":
        return RandomSource(self.seed, self._path + subkeys)


def uniform_cube(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws, shape (n, d), uniform on the cube [-1/sqrt(d), 1/sqrt(d)]^d."""
    half = 1.0 / math.sqrt(d)
    return gen.uniform(-half, half, size=(n, d))


def unit_sphere(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws, shape (n, d), uniform on the unit sphere in R^d."""
    g = gen.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # one more normalization pass pins the norm to 1 at machine precision; a product
    # with the reciprocal, which the sphere-sampled outputs' bytes are pinned to
    g *= 1.0 / np.linalg.norm(g, axis=1, keepdims=True)
    return g


def uniform_ball(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform draws from the unit ball (probe points for sup-norm estimates)."""
    g = gen.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = gen.random((n, 1)) ** (1.0 / d)
    return g * radii

