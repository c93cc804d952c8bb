"""Per-sample loss families: value, (auxiliary) gradient, and the constants
that the certificate calculators consume.

A sample ``z`` may be a vector (quadratic and clustering losses), a
``(label, feature_vector)`` pair (multi-index models), or a small integer
(the 1-D two-sample construction).  Evaluators are pure functions of
``(theta, z)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .core import Ball, Box, ConvexDomain, ProductOfBalls, as_point, as_rows

_SIGNS = {
    "alpha": 0, "beta": 1, "beta_prime": 0, "L": 0, "B": 0, "L_prime": 0,
    "R": 1, "R_x": 1, "lam": 0, "zeta": 1,
}


@dataclass(frozen=True)
class LossConstants:
    """Constant record consumed by the bound calculators.

    Unset fields are ``None``.  ``alpha``/``beta`` are strong convexity and
    smoothness, ``beta_prime`` a second-derivative bound, ``L`` the
    weak-Lipschitz constant (Lipschitz modulo a sample-independent offset),
    ``B`` the bounded deviation sup_z f - inf_z f, ``L_prime`` a plain
    Lipschitz constant, ``R``/``R_x`` domain and input radii, ``lam`` the l2
    regularization weight, ``zeta`` the soft-label sharpness, ``K`` the
    number of indices/clusters, and ``Q`` the smooth piece count of a link.
    """

    alpha: float | None = None
    beta: float | None = None
    beta_prime: float | None = None
    L: float | None = None
    B: float | None = None
    L_prime: float | None = None
    R: float | None = None
    R_x: float | None = None
    lam: float | None = None
    zeta: float | None = None
    K: int | None = None
    Q: int | None = None

    def __post_init__(self):
        for name, strict in _SIGNS.items():
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if strict and not v > 0:
                raise ValueError(f"{name} must be positive")
            if not strict and v < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("K", "Q"):
            v = getattr(self, name)
            if v is not None and (int(v) != v or v < 1):
                raise ValueError(f"{name} must be a positive integer")
        if self.alpha is not None and self.beta is not None and self.alpha > self.beta:
            raise ValueError("alpha must not exceed beta")


@dataclass(frozen=True, eq=False)
class LossFamily:
    """A named per-sample loss f(theta; z) with auxiliary gradient.

    ``grad_batch(thetas, zs)`` and ``value_batch(theta, zs)`` are optional
    batched forms over a stacked sample array (``Dataset.matrix`` rows):
    row k of ``grad_batch`` is ``grad(thetas[k], zs[k])`` and entry k of
    ``value_batch`` is ``value(theta, zs[k])``, bitwise.  ``value_batch``
    must also broadcast: given an (m, 1, d) array of parameters it returns
    the (m, n) matrix whose row j is, bitwise, its value for parameter j.
    Families without them are evaluated by per-row loops over ``grad`` and
    ``value``.  Being fields, the batched forms survive
    ``dataclasses.replace``; replacing ``grad`` or ``value`` with a
    different loss must replace them as well.
    """

    name: str
    constants: LossConstants
    sample_space: str
    value: Callable[[np.ndarray, Any], float]
    grad: Callable[[np.ndarray, Any], np.ndarray]
    dim: int | None = None
    domain: ConvexDomain | None = None
    grad_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def grad_rows(self, thetas: np.ndarray, dataset: "Dataset", idx) -> np.ndarray:
        """Gradients of an (m, d) batch: row k uses sample ``idx[k]`` of the dataset."""
        if self.grad_batch is not None:
            return self.grad_batch(thetas, dataset.matrix[idx])
        samples = dataset.samples
        return np.stack([np.asarray(self.grad(theta, samples[i]), dtype=float)
                         for theta, i in zip(thetas, idx)])

    def values(self, theta: np.ndarray, dataset: "Dataset") -> np.ndarray:
        """Per-sample losses over the whole dataset: the (n,) vector of one
        parameter, or the (m, n) matrix of an (m, d) array of parameters,
        whose row j equals, bitwise, the vector of parameter j."""
        if np.ndim(theta) == 2:
            if self.value_batch is None:
                return np.array([self.values(t, dataset) for t in theta],
                                dtype=float).reshape(len(theta), dataset.n)
            thetas = as_rows(theta, np.shape(theta)[1] if self.dim is None else self.dim)
            return self.value_batch(thetas[:, None, :], dataset.matrix)
        if self.value_batch is not None:
            return self.value_batch(as_point(theta, dim=self.dim), dataset.matrix)
        return np.array([self.value(theta, z) for z in dataset.samples], dtype=float)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A sample distribution, with exact enumeration when finitely supported."""

    name: str
    draw: Callable[[np.random.Generator, int], list]
    support: tuple | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if (self.support is None) != (self.probs is None):
            raise ValueError("support and probs must be given together")
        if self.probs is not None:
            p = np.asarray(self.probs, dtype=float)
            if p.ndim != 1 or len(self.support) != p.size:
                raise ValueError("probs must match the support in length")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("probs must be a probability vector")
            object.__setattr__(self, "probs", p)

    @property
    def finite(self) -> bool:
        return self.support is not None


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered tuple of samples plus the distribution they came from."""

    samples: tuple
    distribution: Distribution | None = None

    def __post_init__(self):
        samples = tuple(self.samples)
        if len(samples) < 1:
            raise ValueError("a dataset needs at least one sample")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return len(self.samples)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The samples stacked into one float array (numeric samples only)."""
        return np.asarray(self.samples, dtype=float)

    @staticmethod
    def sample(distribution: Distribution, n: int, rng_or_seed) -> "Dataset":
        rng = (rng_or_seed if isinstance(rng_or_seed, np.random.Generator)
               else np.random.default_rng(int(rng_or_seed)))
        return Dataset(tuple(distribution.draw(rng, n)), distribution)


def uniform_over(points: Sequence) -> Distribution:
    """Uniform distribution over a finite list of samples."""
    support = tuple(np.asarray(p, dtype=float) if not np.isscalar(p) else p for p in points)
    m = len(support)

    def draw(rng, size):
        idx = rng.integers(0, m, size)
        return [support[i] for i in idx]

    return Distribution("uniform_over", draw, support=support, probs=np.full(m, 1.0 / m))


def uniform_ball(radius: float, d: int) -> Distribution:
    """Uniform distribution on the origin-centered d-ball (no finite support)."""
    ball = Ball(np.zeros(d), radius)

    def draw(rng, size):
        return [ball.sample(rng) for _ in range(size)]

    return Distribution("uniform_ball", draw)


# ---------------------------------------------------------------------------
# Quadratic attractor family
# ---------------------------------------------------------------------------

def quadratic_centers(centers: Sequence, R: float) -> LossFamily:
    """Squared-distance loss f(theta; z) = 0.5 ||theta - z||^2.

    Samples are the target points themselves; ``centers`` fixes the finite
    support and must lie inside the origin-centered ball of radius R.  With
    unit curvature both strong convexity and smoothness equal 1, so the
    induced gradient map contracts at |1 - eta| before projection.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    centers = tuple(as_point(c) for c in centers)
    if not centers:
        raise ValueError("need at least one center")
    d = centers[0].shape[0]
    for c in centers:
        as_point(c, dim=d)
        if np.linalg.norm(c) > R * (1 + 1e-12):
            raise ValueError("center outside the radius-R ball")

    def value(theta, z):
        theta = as_point(theta, dim=d)
        return 0.5 * float(np.sum((theta - z) ** 2))

    def grad(theta, z):
        theta = as_point(theta, dim=d)
        return theta - np.asarray(z, dtype=float)

    constants = LossConstants(alpha=1.0, beta=1.0, L=R, B=2.0 * R**2, R=R)
    return LossFamily(
        name="quadratic_centers",
        constants=constants,
        sample_space=f"points of the {d}-ball of radius {R}",
        value=value,
        grad=grad,
        dim=d,
        domain=Ball(np.zeros(d), R),
        grad_batch=lambda thetas, zs: thetas - zs,
        value_batch=lambda theta, zs: 0.5 * np.sum((theta - zs) ** 2, axis=-1),
    )


# ---------------------------------------------------------------------------
# Multi-index models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinkFunction:
    """Scalar link l(u_1..u_K; y) with per-piece smoothness metadata."""

    name: str
    value: Callable[[np.ndarray, Any], float]
    grad: Callable[[np.ndarray, Any], np.ndarray]
    beta: float
    Q: int
    K: int


def zero_link(K: int) -> LinkFunction:
    return LinkFunction("zero", lambda u, y: 0.0, lambda u, y: np.zeros(K), beta=0.0, Q=1, K=K)


def squared_error_link() -> LinkFunction:
    """Single-index least squares l(u; y) = 0.5 (u - y)^2."""
    return LinkFunction(
        "squared_error",
        lambda u, y: 0.5 * float((u[0] - y) ** 2),
        lambda u, y: np.array([u[0] - y]),
        beta=1.0,
        Q=1,
        K=1,
    )


def smooth_margin_link(K: int) -> LinkFunction:
    """Multi-class margin link max_{y' != y} rho(u_y - u_{y'}) with the
    smooth decreasing rho(s) = log(1 + exp(-s)).

    rho is 1-Lipschitz and 1/4-smooth; the max over the K-1 competitors
    makes the link piecewise smooth with K-1 pieces (ties broken toward the
    lowest competitor index).
    """
    if K < 2:
        raise ValueError("margin link needs K >= 2 classes")

    def rho(s):
        return math.log1p(math.exp(-abs(s))) + max(-s, 0.0)

    def rho_prime(s):
        if s > 700.0:
            return 0.0
        if s < -700.0:
            return -1.0
        return -1.0 / (1.0 + math.exp(s))

    def best_competitor(u, y):
        diffs = [(u[y] - u[j], j) for j in range(K) if j != y]
        # rho is decreasing, so the max of rho is at the smallest margin
        m = min(dv for dv, _ in diffs)
        return next(j for dv, j in diffs if dv == m), m

    def value(u, y):
        _, m = best_competitor(u, int(y))
        return rho(m)

    def grad(u, y):
        y = int(y)
        j, m = best_competitor(u, y)
        g = np.zeros(K)
        g[y] = rho_prime(m)
        g[j] = -rho_prime(m)
        return g

    return LinkFunction("smooth_margin", value, grad, beta=0.25, Q=K - 1, K=K)


def _split_blocks(theta, K):
    """theta as a (K, d) array of its blocks."""
    t = as_point(theta)
    if t.size % K:
        raise ValueError("theta length must be a multiple of K")
    return t.reshape(K, -1)


def multi_index(
    link: LinkFunction,
    lam: float,
    R: float,
    R_x: float,
    K: int,
    d: int | None = None,
    L: float | None = None,
    B: float | None = None,
) -> LossFamily:
    """l2-regularized multi-index loss on samples z = (y, x), ||x|| <= R_x.

    f(theta; z) = l(theta_1.x, ..., theta_K.x; y) + (lam/2) sum_j ||theta_j||^2
    with block-j gradient  grad_j l(.) * x + lam * theta_j.
    """
    if link.K != K:
        raise ValueError("link was built for a different K")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (R > 0 and R_x > 0):
        raise ValueError("R and R_x must be positive")

    def check_sample(z):
        y, x = z
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) > R_x * (1 + 1e-12):
            raise ValueError("sample feature vector exceeds radius R_x")
        return y, x

    def value(theta, z):
        y, x = check_sample(z)
        blocks = _split_blocks(theta, K)
        u = blocks @ x
        return float(link.value(u, y)) + 0.5 * lam * float(np.sum(blocks**2))

    def grad(theta, z):
        y, x = check_sample(z)
        blocks = _split_blocks(theta, K)
        u = blocks @ x
        lg = np.asarray(link.grad(u, y), dtype=float)
        return (lg[:, None] * x[None, :] + lam * blocks).reshape(-1)

    if link.beta == 0.0 and lam > 0:
        # pure ridge: f is exactly lam-strongly convex and lam-smooth
        constants = LossConstants(alpha=lam, beta=lam, L=L, B=B, R=R, R_x=R_x,
                                  lam=lam, K=K, Q=link.Q)
    else:
        # the link's own smoothness lives on the LinkFunction; f itself is
        # non-convex in general, so its curvature constants stay unset
        constants = LossConstants(L=L, B=B, R=R, R_x=R_x, lam=lam, K=K, Q=link.Q)
    domain = ProductOfBalls(K, d, R) if d is not None else None
    return LossFamily(
        name=f"multi_index[{link.name}]",
        constants=constants,
        sample_space=f"(label, x) pairs with ||x|| <= {R_x}",
        value=value,
        grad=grad,
        dim=K * d if d is not None else None,
        domain=domain,
    )


# ---------------------------------------------------------------------------
# K-means clustering (soft and hard labels)
# ---------------------------------------------------------------------------

def _sq_dists(theta, z, K):
    """Squared distances of the K blocks of theta to z, the blocks, and z."""
    blocks = _split_blocks(theta, K)
    z = np.asarray(z, dtype=float)
    return np.sum((blocks - z[None, :]) ** 2, axis=1), blocks, z


def soft_kmeans(K: int, zeta: float, R: float, d: int | None = None) -> LossFamily:
    """Soft-label clustering loss -(1/zeta) log sum_j exp(-zeta ||theta_j - z||^2).

    Constants follow the soft clustering analysis with B = 4(R+1)^2:
    L = (4R/sqrt(K)) e^{zeta B}, alpha = (2/K) e^{-zeta B},
    beta = (2/K) e^{zeta B}, beta' = 4 zeta B e^{zeta B} + 4 zeta B + 2.
    Iterates are meant to be run without projection
    (``SGDStep(..., domain=WholeSpace(K * d))``); whether they stay in the
    radius-R product ball is checked by passing that ball as
    ``run_trajectory(..., invariant_domain=...)``.
    """
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    if not R > 0:
        raise ValueError("R must be positive")
    if K < 1:
        raise ValueError("K must be a positive integer")

    B = 4.0 * (R + 1.0) ** 2
    constants = LossConstants(
        alpha=2.0 / K * math.exp(-zeta * B),
        beta=2.0 / K * math.exp(zeta * B),
        beta_prime=4.0 * zeta * B * math.exp(zeta * B) + 4.0 * zeta * B + 2.0,
        L=4.0 * R / math.sqrt(K) * math.exp(zeta * B),
        B=B,
        R=R,
        zeta=zeta,
        K=K,
    )

    def value(theta, z):
        d2, _, _ = _sq_dists(theta, z, K)
        a = -zeta * d2
        m = a.max()
        return float(-(m + math.log(np.exp(a - m).sum())) / zeta)

    def grad(theta, z):
        d2, blocks, z = _sq_dists(theta, z, K)
        a = -zeta * d2
        a -= a.max()
        w = np.exp(a)
        w /= w.sum()
        return (2.0 * w[:, None] * (blocks - z[None, :])).reshape(-1)

    domain = ProductOfBalls(K, d, R) if d is not None else None
    return LossFamily(
        name="soft_kmeans",
        constants=constants,
        sample_space=f"points of the ball of radius {R}",
        value=value,
        grad=grad,
        dim=K * d if d is not None else None,
        domain=domain,
    )


TIE_RULES = ("lowest", "random", "full")


def hard_kmeans(K: int, R: float, tie_rule: str = "lowest", d: int | None = None) -> LossFamily:
    """Hard-label clustering loss min_j ||theta_j - z||^2 with an auxiliary
    gradient: the blocks in a chosen subset of the argmin get 2(theta_j - z),
    all other blocks get zero.

    Tie rules: "lowest" picks the single smallest argmin index, "random"
    picks one argmin via a deterministic hash of (theta, z) so evaluation
    stays pure, "full" assigns the gradient to every minimizer.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie_rule {tie_rule!r}; expected one of {TIE_RULES}")
    if not R > 0:
        raise ValueError("R must be positive")
    if K < 1:
        raise ValueError("K must be a positive integer")

    def value(theta, z):
        d2, _, _ = _sq_dists(theta, z, K)
        return float(d2.min())

    def chosen(d2, theta, z):
        ties = np.flatnonzero(d2 == d2.min())
        if tie_rule == "full" or ties.size == 1:
            return ties if tie_rule == "full" else ties[:1]
        if tie_rule == "lowest":
            return ties[:1]
        digest = hashlib.sha256(np.ascontiguousarray(theta).tobytes()
                                + np.ascontiguousarray(z).tobytes()).digest()
        pick = int.from_bytes(digest[:8], "big") % ties.size
        return ties[pick:pick + 1]

    def grad(theta, z):
        d2, blocks, z = _sq_dists(theta, z, K)
        g = np.zeros_like(blocks)
        for j in chosen(d2, theta, z):
            g[j] = 2.0 * (blocks[j] - z)
        return g.reshape(-1)

    constants = LossConstants(B=4.0 * R**2, L=4.0 * R, L_prime=4.0 * R, R=R, K=K)
    domain = ProductOfBalls(K, d, R) if d is not None else None
    return LossFamily(
        name="hard_kmeans",
        constants=constants,
        sample_space=f"points of the ball of radius {R}",
        value=value,
        grad=grad,
        dim=K * d if d is not None else None,
        domain=domain,
    )


# ---------------------------------------------------------------------------
# 1-D two-sample construction with an order-one stability gap
# ---------------------------------------------------------------------------

def stability_counterexample_1d() -> LossFamily:
    """Two losses on theta in [0, 4]: sample 1 gives (x-1)^2 while sample 0
    gives min{(x-1)^2, 1/2 + (x-3)^2/2}, whose two basins trap constant-step
    gradient descent on opposite sides of x = 2.  The auxiliary gradient at
    the kink is fixed to grad f(2; 0) = 2 (the left branch's slope)."""

    def value(theta, z):
        x = float(as_point(theta, dim=1)[0])
        left = (x - 1.0) ** 2
        if int(z) == 1:
            return left
        return min(left, 0.5 + 0.5 * (x - 3.0) ** 2)

    def grad(theta, z):
        x = float(as_point(theta, dim=1)[0])
        if int(z) == 1:
            return np.array([2.0 * (x - 1.0)])
        left = (x - 1.0) ** 2
        right = 0.5 + 0.5 * (x - 3.0) ** 2
        if left < right:
            return np.array([2.0 * (x - 1.0)])
        if right < left:
            return np.array([x - 3.0])
        return np.array([2.0])  # kink at x = 2: both branches evaluate to 1

    def grad_batch(thetas, zs):
        x = thetas[:, 0]
        left = (x - 1.0) ** 2
        right = 0.5 + 0.5 * (x - 3.0) ** 2
        g0 = np.where(left < right, 2.0 * (x - 1.0), np.where(right < left, x - 3.0, 2.0))
        one = np.reshape(zs, x.shape).astype(np.int64) == 1  # int(z) == 1, row-wise
        return np.where(one, 2.0 * (x - 1.0), g0)[:, None]

    constants = LossConstants(alpha=1.0, beta=2.0, B=8.0, R=4.0)
    return LossFamily(
        name="stability_counterexample_1d",
        constants=constants,
        sample_space="{0, 1}",
        value=value,
        grad=grad,
        dim=1,
        domain=Box([0.0], [4.0]),
        grad_batch=grad_batch,
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

_LINK_BUILDERS = {
    "zero": lambda desc, K: zero_link(K),
    "squared_error": lambda desc, K: squared_error_link(),
    "smooth_margin": lambda desc, K: smooth_margin_link(K),
}


def family_from_descriptor(desc: dict) -> LossFamily:
    """Build a loss family from a JSON-style descriptor {"name": ..., params}."""
    if not isinstance(desc, dict) or "name" not in desc:
        raise ValueError("family descriptor must be an object with a 'name' field")
    desc = dict(desc)
    name = desc.pop("name")
    try:
        if name == "quadratic_centers":
            return quadratic_centers(desc.pop("centers"), desc.pop("R"))
        if name == "soft_kmeans":
            return soft_kmeans(desc.pop("K"), desc.pop("zeta"), desc.pop("R"),
                               d=desc.pop("d", None))
        if name == "hard_kmeans":
            return hard_kmeans(desc.pop("K"), desc.pop("R"),
                               tie_rule=desc.pop("tie_rule", "lowest"),
                               d=desc.pop("d", None))
        if name == "stability_counterexample_1d":
            return stability_counterexample_1d()
        if name == "multi_index":
            link_desc = desc.pop("link")
            K = desc.pop("K")
            builder = _LINK_BUILDERS.get(link_desc["name"])
            if builder is None:
                raise ValueError(f"unknown link {link_desc['name']!r}")
            link = builder(link_desc, K)
            return multi_index(link, desc.pop("lambda"), desc.pop("R"), desc.pop("R_x"),
                               K, d=desc.pop("d", None),
                               L=desc.pop("L", None), B=desc.pop("B", None))
    except KeyError as exc:
        raise ValueError(f"family {name!r} descriptor missing field {exc}") from exc
    raise ValueError(f"unknown family {name!r}")
