"""Shared numeric primitives: parameter vectors, convex domains, projection.

Parameters are plain 1-D float64 numpy arrays.  Block-structured parameters
(e.g. K cluster centers in R^d) are stored flattened, length K*d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tolerance for algebraic identities checked in floating point.
DETERMINISTIC_TOL = 1e-9

# Relative nudge applied before integer ceilings so that quantities which are
# exact integers in real arithmetic do not round up from float noise.
_CEIL_REL_TOL = 1e-9


def all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))`` for an array, including an empty one,
    without the ``np.all`` dispatch that dominates its cost on small arrays."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float64 vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {arr.shape}")
    if not all_finite(arr):
        raise ValueError("point has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape[0]}")
    return arr


def shaped_like(value, theta: np.ndarray, what: str) -> np.ndarray:
    """A user callable's ``value`` at the point ``theta`` as a float64 array,
    refused with ValueError, not broadcast, unless it has ``theta``'s shape."""
    out = np.asarray(value, dtype=float)
    if out.shape != theta.shape:
        raise ValueError(f"{what} has shape {out.shape}; the point has shape {theta.shape}")
    return out


def as_rows(X, dim: int) -> np.ndarray:
    """Validate and return ``X`` as a finite (m, dim) float64 array of points."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected an (m, {dim}) array of points, got shape {arr.shape}")
    if not all_finite(arr):
        raise ValueError("points have non-finite entries")
    return arr


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.

    One expression serves single points and batches alike, so a row of a
    batch gets bitwise the norm its single-point projection computes.
    """
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def safe_norms(rows: np.ndarray) -> np.ndarray:
    """``row_norms`` of an (..., d) array of finite rows, with each norm that
    overflows to ``inf`` recomputed from its row scaled by its largest entry."""
    with np.errstate(over="ignore"):
        norms = row_norms(rows)
    huge = np.isinf(norms)
    if np.any(huge):
        scale = np.abs(rows[huge]).max(axis=-1)
        with np.errstate(over="ignore"):  # inf again, which onto_sphere handles
            norms[huge] = scale * row_norms(rows[huge] / scale[:, None])
    return norms


def onto_sphere(rows: np.ndarray, radius: float) -> np.ndarray:
    """Each finite row of an (m, d) array times ``radius`` over its
    ``safe_norms`` norm.  A row whose norm is ``inf`` even so is divided by its
    largest entry first, so it keeps its direction instead of becoming 0."""
    norms = safe_norms(rows)
    lost = np.isinf(norms)
    if np.any(lost):
        rows = rows.copy()
        rows[lost] /= np.abs(rows[lost]).max(axis=1, keepdims=True)
        norms[lost] = row_norms(rows[lost])
    return rows * (radius / norms)[:, None]


def linalg_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, d) array, bitwise equal to
    ``np.linalg.norm(rows[k])`` (a dot product per row; ``row_norms`` and
    ``einsum`` round differently)."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def ceil_int(x: float) -> int:
    """Ceiling with a small downward nudge to absorb float noise at integers."""
    return math.ceil(x - _CEIL_REL_TOL * max(1.0, abs(x)))


def substream(*keys: int) -> np.random.Generator:
    """Independent, reproducible RNG stream keyed by a tuple of integers.

    The stream is ``default_rng(SeedSequence(keys))``: the same key tuple
    gives the same draws on every run and platform, and streams for distinct
    tuples are statistically independent, so what a task draws depends only
    on its keys, never on what other tasks drew before it.
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def numeric_gradient(fn: Callable[[np.ndarray], float], theta) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, step 1e-5."""
    theta = as_point(theta)
    step = 1e-5
    grad = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = step
        grad[j] = (fn(theta + e) - fn(theta - e)) / (2.0 * step)
    return grad


class ConvexDomain:
    """Base class for the supported convex feasible sets.  Each one-point form
    (``project``, ``sample``) is row 0 of its batched form on a one-row batch."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Row 0 of ``project_batch`` on ``x``, checked once by ``as_point``: a
        row that the screen keeps, ``_project_rows``' exact test keeps too."""
        return self._project_rows(as_point(x, dim=self.dim)[None, :])[0]

    def project_batch(self, X) -> np.ndarray:
        """Row k is project(X[k]): ``as_rows`` checks X once, a batch that
        ``_screen`` keeps is returned as it is, any other takes ``_project_rows``."""
        X = as_rows(X, self.dim)
        return X if self._screen(X) else self._project_rows(X)

    def _screen(self, X: np.ndarray) -> bool:
        """Whether every row is inside, and so finite; only ``Ball`` screens."""
        return False

    def bounding_radius(self) -> float:
        """An upper bound on the norm of any member (may be infinite)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform point of the domain: row 0 of ``sample_batch(rng, 1)``."""
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """``m`` uniform points of the domain as an (m, dim) array: ``_draws``,
        array calls in an order each domain states, then ``_place``, row-wise."""
        return self._place(*self._draws(rng, m))

    def _place(self, *draws: np.ndarray) -> np.ndarray:
        return draws[0]


def _in_balls(directions: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Uniform points of the origin-centered d-ball from normals of shape
    ``u.shape + (d,)`` and uniforms ``u``: each normal times radius * u**(1/d)
    over its ``linalg_norms`` norm; a zero normal gives the origin."""
    shape, d = u.shape, directions.shape[-1]
    norms = linalg_norms(directions.reshape(-1, d)).reshape(shape)
    scale = np.divide(radius * u ** (1.0 / d), norms, out=np.zeros(shape), where=norms > 0)
    return directions * scale[..., None]


@dataclass(frozen=True, eq=False)
class Ball(ConvexDomain):
    """Closed Euclidean ball of positive radius.  Its inside test, in
    ``_holds``, ``_screen`` and ``_project_rows``, is bitwise ``row_norms(x -
    center) <= radius``; a sum of squares at or below the margin
    ``_inner_sq``, argued where it is set, decides it without the norm."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not 0 < self.radius < math.inf:
            raise ValueError(f"Ball radius must be finite and positive, got {self.radius!r}")
        object.__setattr__(self, "_at_origin", not np.any(self.center))
        # The inside margin.  Let u = 2**-53 and S be numpy's sum of the
        # rounded squares of an offset, the sum row_norms takes.  Any float
        # sum T of its d squares, or dot product of the offset with itself,
        # in any order, with or without FMA, lies like S within a relative
        # d*u / (1 - d*u) of the exact sum (Higham, *Accuracy and Stability
        # of Numerical Algorithms*, 3.1).  So T <= _inner_sq = fl(r*r)(1 -
        # 4(d + 2)u) gives S < r*r and fl(sqrt(S)) <= r: an offset that T
        # keeps inside, the exact test keeps too, and a nan or inf makes T
        # fail.  _inner_sq is -1 unless 2**-1000 < r*r < 2**1000: below, the
        # up to 2**-1075 that each subnormal square rounds by could exceed
        # the margin; above, the squares can overflow, which the exact test
        # calls outside.
        r2, d = self.radius * self.radius, self.center.shape[0]
        object.__setattr__(self, "_inner_sq", r2 * (1 - 4 * (d + 2) * 2.0**-53)
                           if 2.0**-1000 < r2 < 2.0**1000 else -1.0)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _holds(self, x: np.ndarray) -> bool:
        """Whether the float array ``x`` is a 1-D point of the ball's dimension
        inside the ball, bitwise as ``row_norms(x - center) <= radius`` says;
        at an all-zero center ``x`` itself is tested (``x - 0`` differs from
        ``x`` at most in the sign of a zero).  A pass proves ``x`` finite.
        A dot of the offset with itself at or below ``_inner_sq`` decides
        without the norm, by the margin argument stated where ``_inner_sq``
        is set; any other dot takes the exact norm."""
        if x.shape != self.center.shape:
            return False
        if self._at_origin:
            off = x
        else:
            with np.errstate(over="ignore"):  # an offset that overflows is outside
                off = x - self.center
        # np.vdot, not the faster ndarray.dot, @ or np.inner: those warn
        # "overflow encountered" on a huge update
        if np.vdot(off, off) <= self._inner_sq:
            return True
        with np.errstate(over="ignore"):  # a norm that overflows is outside
            return math.sqrt(np.add.reduce(off * off)) <= self.radius

    def _screen(self, X: np.ndarray) -> bool:
        """Whether one matrix-vector product sums every row's squared offset
        to at most ``_inner_sq``: inside, and finite, by the margin argued
        where it is set.  At an all-zero center, as in ``_holds``, X is squared."""
        with np.errstate(over="ignore"):  # an offset, square or sum that overflows is outside
            sq = X * X if self._at_origin else np.square(X - self.center)
            return (sq @ np.ones(self.dim)).max(initial=0.0) <= self._inner_sq

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        """Rows outside by the exact test, ``row_norms(X - center) > r``, go onto the sphere."""
        with np.errstate(over="ignore"):  # an offset or a norm that overflows is outside
            over = row_norms(X - self.center) > self.radius
            if not np.any(over):
                return X
            offset = X[over] - self.center
        if not all_finite(offset):  # x - center overflowed; x/2 - center/2 points the same way
            blown = ~np.isfinite(offset).all(axis=1)
            offset[blown] = X[over][blown] / 2 - self.center / 2
        out = X.copy()
        out[over] = self.center + onto_sphere(offset, self.radius)
        return out

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def _draws(self, rng, m: int) -> tuple:
        """Normals of shape (m, d), then uniforms of shape (m,)."""
        return rng.normal(size=(m, self.dim)), rng.random(m)

    def _place(self, normals, uniforms) -> np.ndarray:
        return self.center + _in_balls(normals, uniforms, self.radius)


@dataclass(frozen=True, eq=False)
class Box(ConvexDomain):
    """Axis-aligned box with lower <= upper componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper, dim=lo.shape[0])
        if np.any(lo > hi):
            raise ValueError("Box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lower, self.upper)

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def _draws(self, rng, m: int) -> tuple:
        """``rng.uniform(lower, upper, size=(m, d))``, already placed."""
        return (rng.uniform(self.lower, self.upper, size=(m, self.dim)),)


@dataclass(frozen=True, eq=False)
class ProductOfBalls(ConvexDomain):
    """Product of ``blocks`` origin-centered balls of common radius.

    Points are flattened block-major: entry ``j*block_dim + i`` is coordinate
    ``i`` of block ``j``.  The Euclidean projection factorizes into per-block
    radial projections because the squared norm is additive over blocks.
    """

    blocks: int
    block_dim: int
    radius: float

    def __post_init__(self):
        if self.blocks < 1 or self.block_dim < 1:
            raise ValueError("blocks and block_dim must be positive integers")
        if not 0 < self.radius < math.inf:
            raise ValueError(
                f"ProductOfBalls radius must be finite and positive, got {self.radius!r}")

    @property
    def dim(self) -> int:
        return self.blocks * self.block_dim

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        blocks = X.reshape(X.shape[0], self.blocks, self.block_dim).copy()
        with np.errstate(over="ignore"):  # a norm that overflows is outside
            over = row_norms(blocks) > self.radius
        if np.any(over):
            blocks[over] = onto_sphere(blocks[over], self.radius)
        return blocks.reshape(X.shape)

    def bounding_radius(self) -> float:
        return self.radius * math.sqrt(self.blocks)

    def _draws(self, rng, m: int) -> tuple:
        """Normals of shape (m, blocks, block_dim), then uniforms (m, blocks)."""
        return rng.normal(size=(m, self.blocks, self.block_dim)), rng.random((m, self.blocks))

    def _place(self, normals, uniforms) -> np.ndarray:
        return _in_balls(normals, uniforms, self.radius).reshape(len(uniforms), self.dim)


@dataclass(frozen=True)
class WholeSpace(ConvexDomain):
    """All of R^d; projection is the identity."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")

    @property
    def dim(self) -> int:
        return self.dimension

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        return X

    def bounding_radius(self) -> float:
        return math.inf

    def _draws(self, rng, m: int) -> tuple:
        raise ValueError("cannot sample uniformly from an unbounded domain")


def hoeffding_tail(n: int, epsilon: float, range_width: float) -> float:
    """Two-sided tail bound min(1, 2 exp(-2 n eps^2 / width^2)) for the mean
    of n i.i.d. draws of a variable with range ``range_width``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not range_width > 0:
        raise ValueError("range_width must be positive")
    return min(1.0, 2.0 * math.exp(-2.0 * n * epsilon**2 / range_width**2))
