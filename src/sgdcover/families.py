"""The loss families beyond ``quadratic_centers``: multi-index models and
their links, soft- and hard-label clustering, and the 1-D two-sample
construction with an order-one stability gap.

``losses.family_from_descriptor`` loads this module for every descriptor
but a ``quadratic_centers`` one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .bounds import soft_kmeans_constants
from .core import Box, ProductOfBalls, as_point
from .losses import LossConstants, LossFamily


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


def _block_domain(K: int, d: int | None, R: float) -> ProductOfBalls | None:
    """K blocks in R^d, each in the radius-R ball, or None when d is unknown."""
    return None if d is None else ProductOfBalls(K, d, R)


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
    return LossFamily(name=f"multi_index[{link.name}]", constants=constants, value=value,
                      grad=grad, domain=_block_domain(K, d, R))


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

    Constants follow the soft clustering analysis: B, L, beta and beta' are
    ``bounds.soft_kmeans_constants``, and alpha = (2/K) e^{-zeta B}.
    Iterates are meant to be run without projection
    (``SGDStep(..., domain=WholeSpace(K * d))``).  Nothing checks that they
    stay in the radius-R product ball; validating this theorem (ROADMAP
    item 10) needs that check across lockstep runs.
    """
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    if not R > 0:
        raise ValueError("R must be positive")
    if K < 1:
        raise ValueError("K must be a positive integer")

    B, L, beta, beta_prime = soft_kmeans_constants(K, R, zeta)
    constants = LossConstants(
        alpha=2.0 / K * math.exp(-zeta * B),
        beta=beta,
        beta_prime=beta_prime,
        L=L,
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

    return LossFamily(name="soft_kmeans", constants=constants, value=value, grad=grad,
                      domain=_block_domain(K, d, R))


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
    return LossFamily(name="hard_kmeans", constants=constants, value=value, grad=grad,
                      domain=_block_domain(K, d, R))


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
        value=value,
        grad=grad,
        domain=Box([0.0], [4.0]),
        grad_batch=grad_batch,
    )


_LINK_BUILDERS = {
    "zero": lambda desc, K: zero_link(K),
    "squared_error": lambda desc, K: squared_error_link(),
    "smooth_margin": lambda desc, K: smooth_margin_link(K),
}
