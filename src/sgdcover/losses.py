"""Per-sample loss families: value, (auxiliary) gradient, and the constants
that the certificate calculators consume.

A sample ``z`` may be a vector (quadratic and clustering losses), a
``(label, feature_vector)`` pair (multi-index models), or a small integer
(the 1-D two-sample construction).  Evaluators are pure functions of
``(theta, z)``.  This module defines ``quadratic_centers``; the other
families are in ``families``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .core import Ball, ConvexDomain, all_finite, as_point, as_rows, safe_norms, shaped_like

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
        # checked before math.isfinite and int(), which take True as 1 and
        # raise their own errors on text
        def real(v):
            return isinstance(v, numbers.Real) and not isinstance(v, bool)

        for name, strict in _SIGNS.items():
            v = getattr(self, name)
            if v is None:
                continue
            if not real(v):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if strict and not v > 0:
                raise ValueError(f"{name} must be positive")
            if not strict and v < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("K", "Q"):
            v = getattr(self, name)
            if v is not None and not (real(v) and math.isfinite(v) and int(v) == v and v >= 1):
                raise ValueError(f"{name} must be a positive integer")
        if self.alpha is not None and self.beta is not None and self.alpha > self.beta:
            raise ValueError("alpha must not exceed beta")


@dataclass(frozen=True, eq=False)
class LossFamily:
    """A named per-sample loss f(theta; z) with auxiliary gradient.

    ``grad_batch(thetas, zs)`` and ``value_batch(thetas, zs)`` are optional
    batched forms over a stacked sample array (``Dataset.matrix`` rows):
    row k of ``grad_batch`` is ``grad(thetas[k], zs[k])``, bitwise, and
    ``value_batch``, given an (m, 1, d) array of parameters and the (n, d)
    samples, returns the (m, n) matrix whose entry (j, k) is, bitwise,
    ``value(thetas[j, 0], zs[k])``.  Families without them are evaluated by
    per-row loops over ``grad`` and ``value``.  Being fields, the batched
    forms survive ``dataclasses.replace``; replacing ``grad`` or ``value``
    with a different loss must replace them as well.  A parameter's width
    is ``domain.dim`` when the family has a domain.
    """

    name: str
    constants: LossConstants
    value: Callable[[np.ndarray, Any], float]
    grad: Callable[[np.ndarray, Any], np.ndarray]
    domain: ConvexDomain | None = None
    grad_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def grad_rows(self, thetas: np.ndarray, dataset: "Dataset", idx) -> np.ndarray:
        """Gradients of an (m, d) batch: row k uses sample ``idx[k]`` of the
        dataset.  A ``grad_batch`` result of another shape than ``thetas``, or
        a per-row ``grad`` of another than its row, is refused (``shaped_like``)."""
        if self.grad_batch is not None:
            return shaped_like(self.grad_batch(thetas, dataset.matrix.take(idx, axis=0)), thetas,
                               "gradient")
        samples = dataset.samples
        return np.stack([shaped_like(self.grad(theta, samples[i]), theta, "gradient")
                         for theta, i in zip(thetas, idx)])

    def values(self, theta: np.ndarray, dataset: "Dataset") -> np.ndarray:
        """Per-sample losses over the whole dataset: the (n,) vector of one
        parameter, or the (m, n) matrix of an (m, d) array of parameters,
        whose row j equals, bitwise, the vector of parameter j.  A single
        parameter is evaluated as a one-row batch."""
        rows = np.atleast_2d(theta)
        rows = as_rows(rows, rows.shape[1] if self.domain is None else self.domain.dim)
        if self.value_batch is not None:
            out = self.value_batch(rows[:, None, :], dataset.matrix)
        else:
            out = np.array([[self.value(t, z) for z in dataset.samples] for t in rows],
                           dtype=float).reshape(len(rows), dataset.n)
        return out if np.ndim(theta) == 2 else out[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A sample distribution, defined by its fields alone.  A finite one is its
    ``support`` and weights ``probs``, and its draws are derived by ``positions``;
    a ``draw`` callable serves only a distribution without a finite support."""

    support: tuple | None = None
    probs: np.ndarray | None = None
    draw: Callable[[np.random.Generator, int], list] | None = None

    def __post_init__(self):
        if (self.support is None) != (self.probs is None):
            raise ValueError("support and probs must be given together")
        if self.draw is not None and self.support is not None:
            raise ValueError("a finite distribution draws from its support; it takes no draw")
        if self.draw is None and self.support is None:
            raise ValueError("a distribution needs a support and probs, or a draw")
        if self.probs is not None:
            p = np.asarray(self.probs, dtype=float)
            if p.ndim != 1 or len(self.support) != p.size:
                raise ValueError("probs must match the support in length")
            if not all_finite(p) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("probs must be a probability vector")
            object.__setattr__(self, "probs", p)
            object.__setattr__(self, "_equal_probs", bool(np.all(p == p[0])))

    @property
    def finite(self) -> bool:
        return self.support is not None

    def positions(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Support positions of ``size`` i.i.d. draws: ``rng.integers(0, m,
        size)`` when every probability is equal, else ``rng.choice(m, size,
        p=probs)``."""
        m = len(self.support)
        if self._equal_probs:  # tested once, when the distribution is made
            return rng.integers(0, m, size)
        return rng.choice(m, size=size, p=self.probs)


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
    def sample(distribution: Distribution, n: int, rng: np.random.Generator) -> "Dataset":
        """n i.i.d. draws from ``rng``: a finite distribution's support
        objects at ``distribution.positions(rng, n)``, else its ``draw``."""
        if distribution.finite:
            samples = [distribution.support[i] for i in distribution.positions(rng, n)]
        else:
            samples = distribution.draw(rng, n)
        return Dataset(tuple(samples), distribution)


def uniform_over(points: Sequence) -> Distribution:
    """Equal weights over a finite list of samples: draws ``rng.integers(0, m, size)``."""
    support = tuple(np.asarray(p, dtype=float) if not np.isscalar(p) else p for p in points)
    m = len(support)
    if m == 0:
        raise ValueError("uniform_over needs a non-empty support, got no points")
    return Distribution(support=support, probs=np.full(m, 1.0 / m))


def uniform_ball(radius: float, d: int) -> Distribution:
    """Uniform distribution on the origin-centered d-ball (no finite support):
    ``size`` draws are the rows of one ``Ball.sample_batch``."""
    ball = Ball(np.zeros(d), radius)

    def draw(rng, size):
        return list(ball.sample_batch(rng, size))

    return Distribution(draw=draw)


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
    try:
        B = 2.0 * R**2
    except OverflowError:  # a float power raises where a product gives inf
        raise ValueError(f"R = {R!r} is too large: the loss range B = 2 R^2 overflows") from None
    d = centers[0].shape[0]
    for c in centers:
        as_point(c, dim=d)
    if np.any(safe_norms(np.stack(centers)) > R * (1 + 1e-12)):
        raise ValueError("center outside the radius-R ball")

    def value(theta, z):
        theta = as_point(theta, dim=d)
        return 0.5 * float(np.sum((theta - z) ** 2))

    def grad(theta, z):
        theta = as_point(theta, dim=d)
        return theta - np.asarray(z, dtype=float)

    constants = LossConstants(alpha=1.0, beta=1.0, L=R, B=B, R=R)
    return LossFamily(
        name="quadratic_centers",
        constants=constants,
        value=value,
        grad=grad,
        domain=Ball(np.zeros(d), R),
        grad_batch=lambda thetas, zs: thetas - zs,
        value_batch=lambda thetas, zs: 0.5 * np.sum((thetas - zs) ** 2, axis=-1),
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def family_from_descriptor(desc: dict) -> LossFamily:
    """Build a loss family from a JSON-style descriptor {"name": ..., params}."""
    if not isinstance(desc, dict) or "name" not in desc:
        raise ValueError("family descriptor must be an object with a 'name' field")
    desc = dict(desc)
    name = desc.pop("name")
    try:
        if name == "quadratic_centers":
            return quadratic_centers(desc.pop("centers"), desc.pop("R"))
        from . import families  # every other family is defined there
        if name == "soft_kmeans":
            return families.soft_kmeans(desc.pop("K"), desc.pop("zeta"), desc.pop("R"),
                                        d=desc.pop("d", None))
        if name == "hard_kmeans":
            return families.hard_kmeans(desc.pop("K"), desc.pop("R"),
                                        tie_rule=desc.pop("tie_rule", "lowest"),
                                        d=desc.pop("d", None))
        if name == "stability_counterexample_1d":
            return families.stability_counterexample_1d()
        if name == "multi_index":
            link_desc = desc.pop("link")
            K = desc.pop("K")
            builder = families._LINK_BUILDERS.get(link_desc["name"])
            if builder is None:
                raise ValueError(f"unknown link {link_desc['name']!r}")
            link = builder(link_desc, K)
            return families.multi_index(link, desc.pop("lambda"), desc.pop("R"),
                                        desc.pop("R_x"), K, d=desc.pop("d", None),
                                        L=desc.pop("L", None), B=desc.pop("B", None))
    except KeyError as exc:
        raise ValueError(f"family {name!r} descriptor missing field {exc}") from exc
    raise ValueError(f"unknown family {name!r}")
