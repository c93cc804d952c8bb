"""Localized epsilon-cover enumeration and verification, piecewise
strongly-convex quadratic surrogates with a lattice anchor construction, and
iterated-function-system dimension tooling.

The cover of horizon T enumerates every composition of T single-sample
updates applied to the origin.  For contractive updates with ratio gamma and
a domain inside the radius-R ball, any iterate after t >= T steps from any
start lies within gamma^T * R of one of these points, so the enumeration is
an epsilon-cover of the reachable set for epsilon >= gamma^T * R.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import horizon
from .core import (ConvexDomain, WholeSpace, all_finite, as_point, as_rows, ceil_int,
                   linalg_norms, substream)
from .losses import Dataset
from .sgd import CustomMap, UpdateMap, draw_runs, run_lockstep, sgd_step

DEFAULT_CAP = 10**7

# point values the JSONL writer converts to Python floats at once
_WRITE_CHUNK = 2**10

# fewest steps per lockstep orbit chunk, and fewest chunks for which the
# certified lockstep beats the scalar orbit recurrence
_ORBIT_CHUNK = 256
_ORBIT_MIN_CHUNKS = 64
# contraction, in bits, of a chunk's first bracket: 53 bits of mantissa, a
# few for the bracket's width of 2M, and a margin for the last rounding ulp
_ORBIT_BITS = 72
# the bracket bound's absolute floor, the smallest normal double: above all
# that underflow can add to an orbit, and below the smallest subnormal once a
# bracket has contracted by 2^-_ORBIT_BITS
_ORBIT_FLOOR = 2.0**-1022

# box counting marks an occupancy bitmap when the grid has at most this many
# boxes per point (a bool per box, as many bytes as one int64 key per point)
_BITMAP_BOXES_PER_POINT = 8


class EnumerationCapExceeded(ValueError):
    """Raised before enumeration when the entry count would exceed the cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"enumeration needs {required} entries but the cap is {cap}; "
            f"rerun with cap >= {required}"
        )


def cover_horizon(R: float, epsilon: float, gamma: float) -> int:
    """Smallest certified horizon T = max(ceil(log(R/eps)/log(1/gamma)), 0).

    After T contraction steps the reachable set shrinks to radius
    gamma^T * R <= epsilon; epsilon >= R needs no steps at all.
    """
    if not (R > 0 and epsilon > 0):
        raise ValueError("R and epsilon must be positive")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if epsilon >= R:
        return 0
    return horizon(R / epsilon, gamma)


@dataclass(frozen=True, eq=False)
class CoverEntry:
    """One enumerated composition: its index sequence, endpoint, and the set
    of sample indices the endpoint depends on."""

    seq: tuple[int, ...]
    point: np.ndarray
    deps: frozenset[int]
    pieces: tuple[int, ...] | None = None

    def to_json(self) -> str:
        rec = {"seq": list(self.seq)}
        if self.pieces is not None:
            rec["pieces"] = list(self.pieces)
        rec["point"] = np.asarray(self.point, dtype=float).tolist()
        rec["deps"] = sorted(self.deps)
        return json.dumps(rec, sort_keys=False)


@dataclass(frozen=True, eq=False)
class CoverSet:
    """Enumerated cover anchored at the origin, in canonical lexicographic
    order of the (index, piece) choice sequences.

    Row k of ``points`` is reached by the choices that are the base-(n*P)
    digits of ``index[k]``, first choice most significant; choice c picks
    sample c // P and piece c % P (P = 1 for a plain cover).  ``index`` is
    ``arange(N)`` unless the cover was deduped.
    """

    horizon: int
    anchor: np.ndarray
    points: np.ndarray  # (N, d) float64
    index: np.ndarray   # (N,) int64
    n_samples: int
    pieces_per_sample: int | None = None
    deduped: bool = False

    def __len__(self) -> int:
        return len(self.points)

    @property
    def entries(self) -> CoverEntries:
        return CoverEntries(self)

    def jsonl_lines(self) -> Iterator[str]:
        """The cover's JSONL lines without their newlines; line k is
        ``self.entries[k].to_json()``, byte for byte."""
        return itertools.chain.from_iterable(self._jsonl_chunks())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for lines in self._jsonl_chunks():
                fh.write("\n".join(lines) + "\n")

    def _choices(self, index: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Sample and piece (None for a plain cover) of the last ``digits``
        choices that reach each canonical index, as (..., digits) int64
        arrays: the index's base-(n*P) digits, the most significant leftmost."""
        P = self.pieces_per_sample
        rest = np.asarray(index, dtype=np.int64)
        choices = np.empty(rest.shape + (digits,), dtype=np.int64)
        for j in reversed(range(digits)):
            rest, choices[..., j] = np.divmod(rest, self.n_samples * (P or 1))
        return (choices, None) if P is None else (choices // P, choices % P)

    def _spelled(self, index: np.ndarray, digits: int, lead: str) -> list:
        """``(texts, samples)`` per index: its last ``digits`` choices as ``lead``
        plus comma-joined digits per field (seq, pieces), and their sorted samples."""
        fields = [c.tolist() for c in self._choices(index, digits) if c is not None]
        return [(tuple(lead + ", ".join(map(str, f)) for f in row), tuple(sorted(set(row[0]))))
                for row in zip(*fields)]

    def _jsonl_chunks(self) -> Iterator[list[str]]:
        """Lines in chunks of about _WRITE_CHUNK values, each filled into one
        template per cover: floats by ``repr`` (as ``json.dumps`` writes them)
        and the choice text of index = high * (n*P)^L + low, L = floor(T/2),
        looked up by halves.  All (n*P)^L <= sqrt((n*P)^T) low halves are
        spelled once, and a chunk's high halves and ``deps`` strings (cached
        per pair of the halves' sample sets) per chunk.  A chunk holding a non-finite value, which
        JSON spells differently, takes ``CoverEntry.to_json`` per entry."""
        L = self.horizon // 2
        base = (self.n_samples * (self.pieces_per_sample or 1)) ** L
        lows = self._spelled(np.arange(base), L, ", " if L else "")
        fields = '{"seq": [%s%s], ' + ('"pieces": [%s%s], ' if self.pieces_per_sample else "")
        template = fields + f'"point": [{", ".join(["%r"] * self.points.shape[1])}], "deps": %s}}'
        rows = max(1, _WRITE_CHUNK // max(1, self.points.shape[1]))
        for lo in range(0, len(self), rows):
            block = np.asarray(self.points[lo:lo + rows], dtype=float)
            if not all_finite(block):
                yield [self.entries[k].to_json() for k in range(lo, lo + len(block))]
                continue
            high, low = np.divmod(self.index[lo:lo + rows], base)
            heads, high = np.unique(high, return_inverse=True)
            highs = self._spelled(heads, self.horizon - L, "")
            deps_of: dict[tuple[tuple[int, ...], tuple[int, ...]], str] = {}
            lines = []
            for h, l, point in zip(high.tolist(), low.tolist(), block.tolist()):
                (htexts, hset), (ltexts, lset) = highs[h], lows[l]
                deps = deps_of.get((hset, lset))
                if deps is None:
                    deps = deps_of[hset, lset] = str(sorted({*hset, *lset}))
                lines.append(template % (htexts[0], ltexts[0], *htexts[1:], *ltexts[1:],
                                         *point, deps))
            del highs, deps_of  # freed before the next chunk builds its own
            yield lines


class CoverEntries(Sequence):
    """Read-only sequence of a cover's entries, each built on access from
    the same choice decoding the JSONL writer uses; iteration is
    ``Sequence``'s, one access per entry."""

    def __init__(self, cover: CoverSet):
        self._cover = cover

    def __len__(self) -> int:
        return len(self._cover)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(len(self))[k])
        seq, pieces = self._cover._choices(self._cover.index[k], self._cover.horizon)
        seq = tuple(seq.tolist())
        return CoverEntry(seq=seq, point=self._cover.points[k], deps=frozenset(seq),
                          pieces=None if pieces is None else tuple(pieces.tolist()))


def _enumerate_tree(update: UpdateMap, dataset: Dataset, anchor: np.ndarray,
                    T: int) -> np.ndarray:
    """Endpoints of all n^T compositions of the per-sample updates applied to
    the anchor, one ``sgd_step`` call per tree node, built level by level:
    row k*n + i of a level is sample i's update of row k of the level above,
    so row k of the result takes the base-n digits of k as its samples."""
    n = dataset.n
    level = anchor[None, :].copy()
    for _ in range(T):
        children = np.empty((level.shape[0] * n, level.shape[1]))
        for k, point in enumerate(level):
            for i in range(n):
                children[k * n + i] = sgd_step(update, point, i, dataset)
        level = children
    return level


def _first_of_each_point(points: np.ndarray) -> np.ndarray:
    """Ascending row numbers of the first row of each distinct point.  Rows
    are compared by their bits, so 0.0 and -0.0 count as different."""
    return np.sort(np.unique(points.view(np.int64), axis=0, return_index=True)[1])


def enumerate_cover(
    update: UpdateMap,
    dataset: Dataset,
    T: int,
    cap: int = DEFAULT_CAP,
    dedupe: bool = False,
    threads: int = 1,
) -> CoverSet:
    """Enumerate the endpoints of all n^T compositions of the per-sample
    updates applied to the origin of the update's domain (see
    ``_enumerate_tree``); ``enumerate_piecewise_cover`` runs through it too.

    Refuses outright (no partial output) when n^T exceeds the cap.  Every
    node's update is checked finite by ``apply``, so an overflow at any
    level raises ``FloatingPointError``.  With ``dedupe`` the first
    (lexicographically smallest) sequence reaching each exact endpoint is
    kept; counts then no longer equal n^T.  ``threads`` has no effect; it
    stays only until perfbench's ``threads2_ratio`` probe, which passes it,
    is retired.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    n = dataset.n
    required = n**T
    if required > cap:
        raise EnumerationCapExceeded(required, cap)
    domain = update.effective_domain
    if domain is None:
        raise ValueError("the update map needs a domain to fix the parameter dimension")
    anchor = np.zeros(domain.dim)
    points = _enumerate_tree(update, dataset, anchor, T)
    index = np.arange(len(points), dtype=np.int64)
    if dedupe:
        index = _first_of_each_point(points)
        points = points[index]
    return CoverSet(horizon=T, anchor=anchor, points=points, index=index, n_samples=n,
                    deduped=dedupe)


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


def replay_entry(update: UpdateMap, dataset: Dataset, entry: CoverEntry,
                 anchor: np.ndarray) -> np.ndarray:
    """Re-run an entry's recorded sequence from the anchor (bitwise identical
    to enumeration when the dataset agrees on the entry's dependency set).
    A piecewise entry's surrogate steps are not ``update``'s, so it is refused."""
    if entry.pieces is not None:
        raise ValueError("replay_entry replays plain cover entries; this entry has pieces "
                         f"{entry.pieces}, whose surrogate steps the update cannot replay")
    seq = np.array([entry.seq], dtype=np.int64)
    return run_lockstep(update, anchor[None, :], np.array([len(entry.seq)]), seq, dataset)[0]


@dataclass(frozen=True, eq=False)
class CoverVerification:
    """Empirical soundness report: random restarts against the cover."""

    trials: int
    failures: int
    max_min_distance: float
    epsilon: float
    passed: bool
    horizon: int


# squared distances per block of queries; a block holds at least one query
_BLOCK = 2**20


def _nearest_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distance from each query row to its nearest point row, computed as
    sqrt(min_j sum_k (q_k - p_jk)^2) with the sum taken over k in order, the
    arithmetic of cKDTree for d <= 7.  Costs O(queries x points x d) time and
    at most max(_BLOCK, N) squared distances of memory at once.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    points_t = np.ascontiguousarray(points.T)
    best = np.empty(len(queries))
    rows = max(1, _BLOCK // len(points))
    for lo in range(0, len(queries), rows):
        q = queries[lo:lo + rows]
        d2 = np.zeros((len(q), len(points)))
        for k in range(len(points_t)):
            diff = q[:, k, None] - points_t[k]
            d2 += diff * diff
        best[lo:lo + rows] = d2.min(axis=1)
    return np.sqrt(best)


def verify_cover(
    cover: CoverSet,
    update: UpdateMap,
    dataset: Dataset,
    trials: int,
    max_extra_steps: int,
    epsilon: float,
    seed: int = 0,
) -> CoverVerification:
    """Run ``trials`` trajectories from random starts for random t in
    [T, T + max_extra_steps] and report the worst distance to the cover.

    Trial k draws its start, t and indices from ``substream(seed, k)``
    (``draw_runs`` with one run per stream: the streams are seeded together
    and the indices decoded from raw PCG64 words, bitwise what
    ``rng.integers`` draws), and all trials then advance in lockstep.
    Passes only if every endpoint lands within epsilon of some cover point.
    """
    if trials < 1 or max_extra_steps < 0:
        raise ValueError("need trials >= 1 and max_extra_steps >= 0")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    domain = update.effective_domain
    if domain is None:
        raise ValueError("verification needs a bounded domain to sample starts from")

    T = cover.horizon
    starts, steps, indices, _ = draw_runs(seed, trials, 1, domain, T, T + max_extra_steps,
                                          dataset.n)
    endpoints = run_lockstep(update, starts, steps, indices, dataset)
    dists = _nearest_distances(cover.points, endpoints)
    failures = int(np.count_nonzero(dists > epsilon))
    return CoverVerification(
        trials=trials, failures=failures, max_min_distance=float(dists.max()),
        epsilon=epsilon, passed=failures == 0, horizon=T,
    )


# ---------------------------------------------------------------------------
# Piecewise strongly convex quadratic surrogates
# ---------------------------------------------------------------------------

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
    from .core import Ball, Box, ProductOfBalls

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
    gradient tracks the true gradient to within xi everywhere.
    """

    source: PiecewiseSmoothFunction
    anchors: np.ndarray        # (m, d)
    anchor_values: np.ndarray  # (Q, m)
    anchor_grads: np.ndarray   # (Q, m, d)
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
        theta = as_point(theta, dim=self.dim)
        d2 = np.sum((self.anchors - theta[None, :]) ** 2, axis=1)
        return int(np.argmin(d2))  # argmin takes the lowest index on ties

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
        row, then one nearest-anchor argmin per block of rows whose squared
        coordinate differences hold at most max(_BLOCK, anchors.size) values."""
        thetas = as_rows(thetas, dim=self.dim)
        q = np.array([self.source.piece_of(theta) for theta in thetas], dtype=np.int64)
        p = np.empty(len(thetas), dtype=np.int64)
        rows = max(1, _BLOCK // self.anchors.size)
        for lo in range(0, len(thetas), rows):
            d2 = np.sum((self.anchors - thetas[lo:lo + rows, None, :]) ** 2, axis=2)
            p[lo:lo + rows] = np.argmin(d2, axis=1)  # the lowest index on ties
        return self.anchor_grads[q, p] + self.curvature * (thetas - self.anchors[p])

    def value(self, theta) -> float:
        theta = as_point(theta, dim=self.dim)
        q = self.source.piece_of(theta)
        p = self.anchor_index(theta)
        diff = theta - self.anchors[p]
        return float(
            self.anchor_values[q, p]
            + self.anchor_grads[q, p] @ diff
            + 0.5 * self.curvature * diff @ diff
        )


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

    m = anchor_arr.shape[0]
    values = np.empty((fn.Q, m))
    grads = np.empty((fn.Q, m, domain.dim))
    for q, piece in enumerate(fn.pieces):
        for p in range(m):
            values[q, p] = piece.value(anchor_arr[p])
            grads[q, p] = np.asarray(piece.grad(anchor_arr[p]), dtype=float)
    return PiecewiseQuadraticApprox(
        source=fn, anchors=anchor_arr, anchor_values=values, anchor_grads=grads,
        strong_convexity=alpha, curvature=beta, xi=xi,
        spacing_epsilon=epsilon, domain=domain,
    )


# ---------------------------------------------------------------------------
# Iterated function systems and fractal dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IFSModel:
    """n affine maps g_i(theta) = gamma*theta + (1-gamma)*c_i with a common
    contraction ratio gamma, acting on the radius-R ball around the origin.

    These are exactly the no-projection gradient maps of the squared-distance
    loss at step size 1 - gamma, with fixed points at the centers c_i.
    """

    centers: np.ndarray
    gamma: float
    radius: float

    def __post_init__(self):
        try:
            centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        except ValueError:  # ragged rows, or entries that are not numbers
            centers = np.empty((0, 0))
        if centers.ndim != 2 or 0 in centers.shape:
            raise ValueError("centers must be a non-empty (n, d) array of equal-length rows, "
                             "d >= 1")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")
        if not all_finite(centers):
            raise ValueError("centers must be finite")
        if np.any(_center_norms(centers) > self.radius * (1 + 1e-12)):
            raise ValueError("all fixed points must lie inside the radius-R ball")
        object.__setattr__(self, "centers", centers)

    @property
    def n_maps(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def apply(self, i: int, theta) -> np.ndarray:
        theta = as_point(theta, dim=self.dim)
        return self.gamma * theta + (1.0 - self.gamma) * self.centers[i]

    def min_center_distance(self) -> float:
        if self.n_maps < 2:
            return math.inf
        c = self.centers
        d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2[np.triu_indices(self.n_maps, k=1)].min()))

    def center_criterion_ok(self) -> bool:
        """Fixed points pairwise at least 2*gamma*R apart."""
        return self.min_center_distance() >= 2.0 * self.gamma * self.radius * (1 - 1e-12)

    def images_disjoint(self) -> bool:
        """Interiors of the ball images are pairwise disjoint (the images are
        balls of radius gamma*R centered at (1-gamma)*c_i, so this holds iff
        (1-gamma)*||c_i - c_j|| >= 2*gamma*R)."""
        gap = (1.0 - self.gamma) * self.min_center_distance()
        return gap >= 2.0 * self.gamma * self.radius * (1 - 1e-12)

    def sample_attractor(self, n_points: int, seed: int = 0, burn_in: int = 64) -> np.ndarray:
        """Chaos-game orbit: iterate uniformly random maps from the origin.

        Every step is y <- fl(fl(gamma*y) + o) per coordinate, with the
        offset o = (1-gamma)*c_i of the drawn map: the same float64 multiply
        and add that ``apply`` performs, so the orbit is bitwise the one a
        loop of ``apply`` calls gives.  The centers were checked finite at
        construction, so no step is checked again.

        Long orbits are cut into chunks of L steps that advance in lockstep,
        one numpy multiply and add per step for all chunks.  Chunk 0 starts
        at the exact 0.0; every later chunk's start is first certified by a
        bracket, Propp & Wilson's monotone coupling:

        - lo = -M and hi = +M start w steps before the chunk and run
          through those w steps.  M = 2*max|c| + 2^-1022 per coordinate
          bounds every orbit value: the exact orbit stays within max|c|;
          relative rounding errors, which the contraction keeps far below
          max|c|, cannot carry it past the margin, and absolute ones at the
          subnormal scale cannot pass the 2^-1022 floor.  The margin scales
          with the centers, so brackets close at any scale.  Each step map
          is monotone (gamma > 0 and IEEE rounding is monotone), so
          lo <= y <= hi at every step, and when lo and hi agree bitwise, y
          has that value.
        - Signed zeros: the order is IEEE's total order, -0.0 below +0.0.
          Both operations stay monotone in it: gamma*y is -0.0 only for
          y <= -0.0, and a sum is -0.0 only when both terms are, so a
          smaller term never gives +0.0 where a larger one gives -0.0.
          A bracket that coalesces to 0.0 therefore fixes the sign of y too.
        - Brackets that do not coalesce double w and run again while w <= L.
          Each chunk still uncertified then continues, in order, from the
          end of the chunk before it with the scalar recurrence.

        w = ceil(72 / log2(1/gamma)) shrinks the bracket from 2M by 2^-72,
        below the last ulp of a unit-scale orbit; L = max(256, w).  The
        lockstep runs only when the orbit holds at least 64 chunks, so for
        slow contraction or few points each coordinate runs the scalar
        recurrence over Python floats.  The choice reads only gamma and the
        orbit length.
        """
        if n_points < 1:
            raise ValueError("n_points must be positive")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        rng = substream(seed)
        total = burn_in + n_points
        choices = rng.integers(0, self.n_maps, size=total)
        offsets = (1.0 - self.gamma) * self.centers
        gamma = float(self.gamma)
        window = math.ceil(_ORBIT_BITS / -math.log2(gamma))
        chunk = max(_ORBIT_CHUNK, window)
        if total // chunk < _ORBIT_MIN_CHUNKS:
            return _scalar_orbit(offsets, choices.tolist(), gamma, burn_in, n_points)
        with np.errstate(over="ignore"):  # an infinite bound still brackets the orbit
            bound = 2.0 * np.abs(self.centers).max(axis=0) + _ORBIT_FLOOR
        return _lockstep_orbit(offsets, choices, gamma, bound, window, chunk)[burn_in:]


def _center_norms(centers: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(centers, axis=1)``, with each row whose squared norm
    overflows recomputed scaled by its largest entry."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(centers, axis=1)
        huge = np.isinf(norms)
        if np.any(huge):
            scale = np.abs(centers[huge]).max(axis=1)
            norms[huge] = scale * np.linalg.norm(centers[huge] / scale[:, None], axis=1)
    return norms


def _recurrence(offsets: Iterable[float], gamma: float, start: float) -> Iterator[float]:
    """start, then y <- gamma*y + x for each offset x, over Python floats."""
    return itertools.accumulate(offsets, lambda y, x: gamma * y + x, initial=start)


def _scalar_orbit(offsets: np.ndarray, choices: list, gamma: float, burn_in: int,
                  n_points: int) -> np.ndarray:
    """The chaos-game orbit one coordinate at a time."""
    out = np.empty((n_points, offsets.shape[1]))
    for j, column in enumerate(offsets.T.tolist()):
        orbit = _recurrence(map(column.__getitem__, choices), gamma, 0.0)
        out[:, j] = np.fromiter(itertools.islice(orbit, burn_in + 1, None),
                                dtype=float, count=n_points)
    return out


def _lockstep_orbit(offsets: np.ndarray, choices: np.ndarray, gamma: float,
                    bound: np.ndarray, window: int, chunk: int) -> np.ndarray:
    """All orbit values y_1..y_N (row k holds y_{k+1}), advanced in lockstep
    chunks of ``chunk`` steps; brackets from -bound and +bound certify each
    chunk's start.  See ``IFSModel.sample_attractor``."""
    total = choices.size
    n_chunks = -(-total // chunk)
    # row k holds step k's offset until the advance overwrites it with y_{k+1};
    # the last chunk's rows past the orbit hold zero offsets and are dropped
    steps = np.zeros((n_chunks * chunk, offsets.shape[1]))
    np.take(offsets, choices, axis=0, out=steps[:total])
    by_chunk = steps.reshape(n_chunks, chunk, -1)

    starts = np.zeros((n_chunks, offsets.shape[1]))  # chunk 0 starts at the exact 0.0
    ends = np.stack([-bound, bound])[:, None]
    pending = np.arange(1, n_chunks)
    while pending.size and window <= chunk:
        # each bracket runs through the last `window` steps of the chunk before
        before = by_chunk[:-1] if pending.size == n_chunks - 1 else by_chunk[pending - 1]
        bracket = np.repeat(ends, pending.size, axis=1)  # lo, hi
        for s in range(chunk - window, chunk):
            np.multiply(bracket, gamma, out=bracket)
            np.add(bracket, before[:, s], out=bracket)
        lo, hi = bracket
        done = np.all(lo.view(np.int64) == hi.view(np.int64), axis=1)
        starts[pending[done]] = lo[done]
        pending = pending[~done]
        window *= 2

    uncertified = by_chunk[pending]  # offsets, before the advance overwrites them
    prev, scaled = starts, np.empty_like(starts)
    for s in range(chunk):
        np.multiply(prev, gamma, out=scaled)
        prev = by_chunk[:, s]
        np.add(scaled, prev, out=prev)
    # in order, each uncertified chunk continues from the end of the chunk before
    for j, chunk_offsets in zip(pending.tolist(), uncertified):
        for k, column in enumerate(chunk_offsets.T.tolist()):
            orbit = _recurrence(column, gamma, float(by_chunk[j - 1, -1, k]))
            by_chunk[j, :, k] = np.fromiter(itertools.islice(orbit, 1, None),
                                            dtype=float, count=chunk)
    return steps[:total]


@dataclass(frozen=True)
class IFSDimension:
    """log n / log(1/gamma), certified only under the separation checks."""

    dimension: float
    certified: bool
    warning: str | None = None


def ifs_dimension(model: IFSModel) -> IFSDimension:
    """Similarity dimension log n / log(1/gamma) of the attractor.

    The closed form is certified when the fixed points satisfy the pairwise
    distance criterion >= 2*gamma*R and the ball images are actually
    disjoint; otherwise the value is returned with a warning flag.
    """
    value = math.log(model.n_maps) / math.log(1.0 / model.gamma)
    criterion = model.center_criterion_ok()
    disjoint = model.images_disjoint()
    if criterion and disjoint:
        return IFSDimension(value, True)
    parts = []
    if not criterion:
        parts.append("fixed-point distance criterion fails")
    if not disjoint:
        parts.append("ball images overlap")
    return IFSDimension(value, False, "; ".join(parts) + ": formula not certified")


@dataclass(frozen=True, eq=False)
class BoxCountFit:
    """Least-squares box-counting estimate with its per-scale counts."""

    dimension: float
    scales: np.ndarray
    counts: np.ndarray


def box_counting_dimension(points, scales: Sequence[float]) -> BoxCountFit:
    """Slope of log(box count) vs log(1/scale) over the given scales.

    Requires at least 10^3 finite points and at least 4 finite scales
    spanning two or more decades, none so small that the points' widest
    extent spans 2^63 boxes.  A cloud of identical points occupies one box at
    every scale and so estimates dimension 0.

    A scale whose grid has at most 8 boxes per point counts the set entries
    of an occupancy bitmap over the grid; a finer grid sorts one int64 key
    per point, or compares whole rows when int64 cannot index the grid.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:  # a flat vector of scalars
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError(f"points must be an (N, d) array, got shape {pts.shape}")
    if pts.shape[0] < 1000:
        raise ValueError("box counting needs at least 1000 points")
    if not all_finite(pts):
        raise ValueError("points have non-finite entries")
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if not all_finite(scales):
        raise ValueError("scales must be finite")
    if scales.size < 4 or np.any(scales <= 0):
        raise ValueError("need at least 4 positive scales")
    if scales.max() / scales.min() < 100.0:
        raise ValueError("scales must span at least two decades")
    lo = pts.min(axis=0)
    # box indices are cast to int64, so the widest extent must stay below
    # 2**63 boxes at the smallest scale
    if np.max(pts.max(axis=0) - lo) / scales[-1] >= 2.0**63:
        raise ValueError(f"scale {scales[-1]:g} is too small for int64 box indices "
                         "over the points' extent")

    shifted = pts - lo
    counts = np.empty(scales.size)
    for k, s in enumerate(scales):
        idx = np.floor(shifted / s).astype(np.int64)
        shape = idx.max(axis=0) + 1
        boxes = math.prod(map(int, shape))
        if boxes <= _BITMAP_BOXES_PER_POINT * pts.shape[0]:
            # mark each point's box in an occupancy bitmap, no bigger than
            # the key array the sort below would build; the keys are
            # ravel_multi_index's, without its bounds checks
            keys = idx[:, 0]
            for j in range(1, idx.shape[1]):
                keys = keys * shape[j] + idx[:, j]
            occupied = np.zeros(boxes, dtype=bool)
            occupied[keys] = True
            counts[k] = np.count_nonzero(occupied)
            continue
        # One sorted int64 key per box; grids with more boxes than int64 can
        # index fall back to comparing whole rows.
        try:
            keys = np.ravel_multi_index(idx.T, shape)
        except ValueError:
            counts[k] = np.unique(idx, axis=0).shape[0]
            continue
        del idx
        keys.sort()
        counts[k] = 1 + np.count_nonzero(keys[1:] != keys[:-1])
    # equal counts are a flat line, whose fitted slope can round below zero
    slope = 0.0 if np.all(counts == counts[0]) else float(
        np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0])
    return BoxCountFit(dimension=slope, scales=scales, counts=counts)
