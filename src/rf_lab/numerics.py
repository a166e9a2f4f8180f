"""Deterministic quadrature, seeded random streams, and sampling measures.

Two Gauss rules back every exactness check in the package:

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
by the caller; see :func:`gaussian_expectation_1d`.

Randomness is carried by :class:`RandomSource`, a (seed, stream_id) pair
mapped onto ``numpy.random.SeedSequence``.  Equal pairs reproduce bit-equal
draw sequences, distinct stream ids are statistically independent, and
derived sub-streams extend the spawn key, so trial cells can run
concurrently without coordination.  Feature directions are drawn from a
:class:`Measure`: uniform on the cube [-1/sqrt(d), 1/sqrt(d)]^d or on a
sphere of given radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_NEWTON_TOL = 1e-15
_GAUSS_SUPPORT_SIGMAS = 40.0  # exp(-40^2/2) underflows double precision


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for a fixed-order Gauss rule.

    ``weights`` sum to the total mass of the underlying measure (2 for
    Gauss-Legendre on [-1, 1], 1 for probabilists' Gauss-Hermite).
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f) -> float:
        """Apply the rule to a vectorized scalar function."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


def _legendre_pair(n: int, x: np.ndarray):
    """Value and derivative of the classical Legendre polynomial P_n."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] for the flat measure dw."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    k = np.arange(order, dtype=float)
    x = np.cos(np.pi * (k + 0.75) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(order, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # enforce the exact +/- symmetry of the roots
    _, dp = _legendre_pair(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule("gauss_legendre", order, x, w)


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


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule: E[f(z)] for z ~ N(0, 1)."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if order == 1:
        return QuadratureRule("gauss_hermite", 1, np.zeros(1), np.ones(1))
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
    return QuadratureRule("gauss_hermite", order, x, w)


# ---------------------------------------------------------------------------
# Gaussian expectations of kinked 1-D functions
# ---------------------------------------------------------------------------


def gaussian_expectation_1d(func, sigma: float, order: int, kinks=()) -> float:
    """E[func(z)] for z ~ N(0, sigma^2), splitting the domain at ``kinks``.

    With no kinks this is plain scaled Gauss-Hermite.  With kinks the
    integral is taken segment by segment (Gauss-Legendre against the normal
    density) over [-40 sigma, 40 sigma]; the tail mass beyond that is below
    double-precision resolution.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return float(np.asarray(func(np.zeros(1)))[0])
    if not len(kinks):
        rule = gauss_hermite_rule(order)
        return float(rule.weights @ np.asarray(func(sigma * rule.nodes), dtype=float))
    lim = _GAUSS_SUPPORT_SIGMAS * sigma
    cuts = sorted({-lim, lim, *(float(c) for c in kinks if -lim < c < lim)})
    # refine long segments so each panel spans at most ~2 sigma; a fixed-order
    # Gauss rule only resolves the normal density on that scale
    edges = [cuts[0]]
    for a, b in zip(cuts[:-1], cuts[1:]):
        panels = max(1, math.ceil((b - a) / (2.0 * sigma)))
        edges.extend(a + (b - a) * (i + 1) / panels for i in range(panels))
    cuts = np.asarray(edges)
    base = gauss_legendre_rule(order)
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    z = (mid[:, None] + half[:, None] * base.nodes[None, :]).ravel()
    w = (half[:, None] * base.weights[None, :]).ravel()
    dens = np.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(np.sum(w * dens * np.asarray(func(z), dtype=float)))


# ---------------------------------------------------------------------------
# seeded randomness and sampling measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness identified by a (seed, stream_id) pair.

    ``derive`` extends the underlying spawn key, giving independent
    sub-streams for trial cells while keeping the root pair printable.
    """

    seed: int
    stream_id: int = 0
    _path: tuple = field(default=(), repr=False)

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed % (1 << 64),
            spawn_key=(self.stream_id % (1 << 64), *self._path, *subkeys),
        )
        return np.random.default_rng(ss)

    def derive(self, *subkeys: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id, self._path + subkeys)


@dataclass(frozen=True)
class Measure:
    """Sampling measure on R^d for feature directions."""

    kind: str
    radius: float | None = None


def uniform_cube() -> Measure:
    """Uniform on the cube [-1/sqrt(d), 1/sqrt(d)]^d (d fixed at sampling time)."""
    return Measure("uniform_cube")


def uniform_sphere(radius: float) -> Measure:
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    return Measure("uniform_sphere", radius=radius)


def sample_measure(measure: Measure, d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Draw n points of dimension d from the measure, shape (n, d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if measure.kind == "uniform_cube":
        half = 1.0 / math.sqrt(d)
        return gen.uniform(-half, half, size=(n, d))
    if measure.kind == "uniform_sphere":
        g = gen.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= measure.radius
        # one more normalization pass pins the norm to the radius at machine precision
        g *= measure.radius / np.linalg.norm(g, axis=1, keepdims=True)
        return g
    raise ValueError(f"unknown measure kind: {measure.kind!r}")


def uniform_ball(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform draws from the unit ball (probe points for sup-norm estimates)."""
    g = gen.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = gen.random((n, 1)) ** (1.0 / d)
    return g * radii

