"""Localized epsilon-cover enumeration and verification, and piecewise
strongly-convex quadratic surrogates with a lattice anchor construction.

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import horizon
from .core import (ConvexDomain, WholeSpace, all_finite, as_point, as_rows, ceil_int,
                   linalg_norms)
# kept only because perfbench's tracer rebinds cover.IFSModel.apply and
# .sample_attractor (ROADMAP item 1 retires it); the IFS code is fractal.py's
from .fractal import IFSModel  # noqa: F401
from .losses import Dataset
from .sgd import CustomMap, UpdateMap, draw_runs, run_lockstep, sgd_step

DEFAULT_CAP = 10**7

# point values the JSONL writer converts to Python floats at once
_WRITE_CHUNK = 2**10


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
    passed: bool


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
        passed=failures == 0,
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
