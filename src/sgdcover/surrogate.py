"""Piecewise strongly-convex quadratic surrogates with a lattice anchor
construction, and the cover enumerated over their pieces.

Only ``approx`` and callers of these names load this module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (Ball, Box, ConvexDomain, ProductOfBalls, WholeSpace, as_point, as_rows,
                   ceil_int, linalg_norms)
from .cover import (DEFAULT_CAP, CoverSet, EnumerationCapExceeded, _first_of_each_point,
                    enumerate_cover)
from .losses import Dataset
from .sgd import CustomMap

_BLOCK = 2**20  # squared differences per block of rows; a block holds at least one row


@dataclass(frozen=True, eq=False)
class SmoothPiece:
    """One smooth piece: value and gradient, evaluable on the whole domain."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class PiecewiseSmoothFunction:
    """A function equal to pieces[q] on cell q of a finite partition, with a
    common second-derivative bound beta_prime across pieces."""

    pieces: tuple[SmoothPiece, ...]
    piece_of: Callable[[np.ndarray], int]
    beta_prime: float

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one smooth piece")
        if self.beta_prime < 0:
            raise ValueError("beta_prime must be nonnegative")

    @property
    def Q(self) -> int:
        return len(self.pieces)

    def value(self, theta) -> float:
        return float(self.pieces[self.piece_of(theta)].value(theta))

    def grad(self, theta) -> np.ndarray:
        return np.asarray(self.pieces[self.piece_of(theta)].grad(theta), dtype=float)


def smooth_function(value, grad, beta_prime: float) -> PiecewiseSmoothFunction:
    """Wrap a globally smooth function as a single-piece instance."""
    return PiecewiseSmoothFunction((SmoothPiece(value, grad),), lambda theta: 0, beta_prime)


def _bounding_box(domain: ConvexDomain) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(domain, Ball):
        return domain.center - domain.radius, domain.center + domain.radius
    if isinstance(domain, Box):
        return domain.lower, domain.upper
    if isinstance(domain, ProductOfBalls):
        r = np.full(domain.dim, domain.radius)
        return -r, r
    raise ValueError("anchor lattice needs a bounded domain")


@dataclass(frozen=True, eq=False)
class PiecewiseQuadraticApprox:
    """Piecewise quadratic surrogate h built from anchor points.

    On the cell of smooth piece q assigned to anchor phi_p the surrogate is
        h_{q,p}(theta) = f(phi_p) + grad_q(phi_p).(theta - phi_p)
                         + (curvature/2) ||theta - phi_p||^2,
    which is curvature-strongly-convex and curvature-smooth by construction.
    Cells are nearest-anchor regions inside each smooth piece, ties broken
    toward the lowest anchor index.  When the anchors form an eps-cover of
    the domain with eps = xi / (curvature + beta_prime), the surrogate
    gradient tracks the true gradient to within xi everywhere.  Only the
    gradient pieces are stored: the cover and the THM 3.2 certificate read
    the surrogate's gradients alone, never its values.
    """

    source: PiecewiseSmoothFunction
    anchors: np.ndarray       # (m, d)
    anchor_grads: np.ndarray  # (Q, m, d)
    strong_convexity: float
    curvature: float
    xi: float
    spacing_epsilon: float
    domain: ConvexDomain

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    @property
    def anchor_count(self) -> int:
        return self.anchors.shape[0]

    @property
    def piece_count(self) -> int:
        return self.source.Q * self.anchor_count

    def closed_form_piece_bound(self) -> float:
        """The closed-form anchor-count bound Q*(3*(beta+beta')*R/xi)^d."""
        if self.xi == 0:
            return math.inf
        R = self.domain.bounding_radius()
        total = self.curvature + self.source.beta_prime
        return self.source.Q * (3.0 * total * R / self.xi) ** self.dim

    def anchor_index(self, theta) -> int:
        return int(self._anchor_rows(as_point(theta, dim=self.dim)[None, :])[0])

    def _anchor_rows(self, thetas: np.ndarray) -> np.ndarray:
        """The nearest anchor of each row of an (m, d) array, by one argmin per
        block of rows whose squared coordinate differences hold at most
        max(_BLOCK, anchors.size) values."""
        p = np.empty(len(thetas), dtype=np.int64)
        rows = max(1, _BLOCK // self.anchors.size)
        for lo in range(0, len(thetas), rows):
            d2 = np.sum((self.anchors - thetas[lo:lo + rows, None, :]) ** 2, axis=2)
            p[lo:lo + rows] = np.argmin(d2, axis=1)  # the lowest index on ties
        return p

    def piece_index(self, theta) -> int:
        q = self.source.piece_of(theta)
        return q * self.anchor_count + self.anchor_index(theta)

    def piece_grad(self, flat_index: int, theta) -> np.ndarray:
        """Gradient formula of piece ``flat_index`` applied globally."""
        q, p = divmod(int(flat_index), self.anchor_count)
        theta = as_point(theta, dim=self.dim)
        return self.anchor_grads[q, p] + self.curvature * (theta - self.anchors[p])

    def grad(self, theta) -> np.ndarray:
        return self.piece_grad(self.piece_index(theta), theta)

    def grad_rows(self, thetas) -> np.ndarray:
        """``grad`` of each row of an (m, d) array, bitwise: ``piece_of`` per
        row, then the rows' nearest anchors in blocks."""
        thetas = as_rows(thetas, dim=self.dim)
        q = np.array([self.source.piece_of(theta) for theta in thetas], dtype=np.int64)
        p = self._anchor_rows(thetas)
        return self.anchor_grads[q, p] + self.curvature * (thetas - self.anchors[p])


def _anchor_lattice(domain: ConvexDomain, epsilon: float, cap: int) -> np.ndarray:
    """Axis-aligned lattice whose points eps-cover the domain, projected in.

    Spacing 2*eps/sqrt(d) puts every point of the bounding box within eps of
    a lattice node; projecting nodes onto the domain preserves that cover
    property because projection is nonexpansive.
    """
    lo, hi = _bounding_box(domain)
    d = lo.shape[0]
    spacing = 2.0 * epsilon / math.sqrt(d)
    axes = []
    total = 1
    for j in range(d):
        k = max(1, ceil_int((hi[j] - lo[j]) / spacing))
        total *= k
        if total > cap:
            raise EnumerationCapExceeded(total, cap)
        mid = 0.5 * (lo[j] + hi[j])
        axes.append(mid + (np.arange(k) - (k - 1) / 2.0) * spacing)
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    proj = domain.project_batch(grid)
    # a node farther than epsilon from the domain serves no domain point
    anchors = proj[linalg_norms(proj - grid) <= epsilon * (1 + 1e-12)]
    return anchors[_first_of_each_point(anchors)]


def build_piecewise_approx(
    fn: PiecewiseSmoothFunction,
    domain: ConvexDomain,
    xi: float,
    strong_convexity_smoothness: tuple[float, float],
    cap: int = DEFAULT_CAP,
    anchors: Sequence | None = None,
) -> PiecewiseQuadraticApprox:
    """Build the quadratic surrogate with gradient error at most xi.

    Anchors default to a lattice eps-cover with eps = xi/(beta + beta');
    explicit ``anchors`` override the lattice (required when xi = 0, e.g. to
    represent an exact quadratic with a single anchor at its center).
    """
    alpha, beta = strong_convexity_smoothness
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (0 < alpha <= beta):
        raise ValueError("need strong convexity 0 < alpha <= smoothness beta")
    if not (math.isfinite(xi) and xi >= 0):
        raise ValueError(f"xi must be finite and nonnegative, got {xi}")
    if anchors is not None:
        anchor_arr = np.vstack([as_point(a, dim=domain.dim) for a in anchors])
        epsilon = math.inf
    else:
        if xi == 0:
            raise ValueError("xi = 0 requires explicit anchors")
        epsilon = xi / (beta + fn.beta_prime)
        anchor_arr = _anchor_lattice(domain, epsilon, cap)

    grads = np.empty((fn.Q, anchor_arr.shape[0], domain.dim))
    for q, piece in enumerate(fn.pieces):
        for p, anchor in enumerate(anchor_arr):
            grads[q, p] = np.asarray(piece.grad(anchor), dtype=float)
    return PiecewiseQuadraticApprox(
        source=fn, anchors=anchor_arr, anchor_grads=grads,
        strong_convexity=alpha, curvature=beta, xi=xi,
        spacing_epsilon=epsilon, domain=domain,
    )


def enumerate_piecewise_cover(
    approx_for: Callable[[object], "PiecewiseQuadraticApprox"],
    dataset: Dataset,
    eta: float,
    T: int,
    cap: int = DEFAULT_CAP,
) -> CoverSet:
    """Enumerate compositions over index AND piece choices of the surrogate
    update g_{i,p}(theta) = theta - eta * grad h_p(theta; z_i), where h_p is
    the p-th strongly convex quadratic piece of the per-sample surrogate.

    The piece gradient formula is applied globally (not restricted to its
    cell), producing all (n*P)^T candidate endpoints.  P must be common to
    every sample.  Choice c = (sample c // P, piece c % P) is one sample of
    a ``CustomMap`` over the n*P (surrogate, piece) pairs, which
    ``enumerate_cover`` enumerates, checks and caps like any other cover;
    the result then records n and P.  P = 1 is entrywise ``enumerate_cover``.
    """
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    approxes = [approx_for(z) for z in dataset.samples]
    P = approxes[0].piece_count
    if any(a.piece_count != P for a in approxes):
        raise ValueError("all per-sample surrogates must expose the same piece count")
    surrogate = CustomMap(lambda point, c: point - eta * c[0].piece_grad(c[1], point),
                          WholeSpace(approxes[0].dim))
    choices = Dataset(tuple((a, p) for a in approxes for p in range(P)))
    cover = enumerate_cover(surrogate, choices, T, cap=cap)
    return replace(cover, n_samples=dataset.n, pieces_per_sample=P)
