"""Localized epsilon-cover enumeration and verification.

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
from dataclasses import dataclass

import numpy as np

from .bounds import horizon
from .core import all_finite
# kept only because perfbench's tracer rebinds cover.IFSModel.apply and
# .sample_attractor (ROADMAP item 1 retires it); the IFS code is fractal.py's
from .fractal import IFSModel  # noqa: F401
from .losses import Dataset
from .sgd import UpdateMap, draw_runs, run_lockstep, sgd_step

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
    """Smallest certified horizon T = max(ceil(log(R/eps)/log(1/gamma)), 0),
    by ``horizon``, which checks gamma.

    After T contraction steps the reachable set shrinks to radius
    gamma^T * R <= epsilon; epsilon >= R needs no steps at all, also where
    R/eps underflows to 0 (the ratio is floored at 1, where ``horizon`` is 0).
    """
    if not (R > 0 and epsilon > 0):
        raise ValueError("R and epsilon must be positive")
    return horizon(max(R / epsilon, 1.0), gamma)


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


def _enumerate_tree(update: UpdateMap, dataset: Dataset, d: int, T: int) -> np.ndarray:
    """Endpoints of all n^T compositions of the per-sample updates applied to
    the origin of R^d, one ``sgd_step`` call per tree node, built level by
    level: row k*n + i of a level is sample i's update of row k of the level
    above, so row k of the result takes the base-n digits of k as its samples."""
    n = dataset.n
    level = np.zeros((1, d))
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
    domain = update.domain
    if domain is None:
        raise ValueError("the update map needs a domain to fix the parameter dimension")
    points = _enumerate_tree(update, dataset, domain.dim, T)
    index = np.arange(len(points), dtype=np.int64)
    if dedupe:
        index = _first_of_each_point(points)
        points = points[index]
    return CoverSet(horizon=T, points=points, index=index, n_samples=n,
                    deduped=dedupe)


def replay_entry(update: UpdateMap, dataset: Dataset, entry: CoverEntry) -> np.ndarray:
    """Re-run an entry's recorded sequence from the origin (bitwise identical
    to enumeration when the dataset agrees on the entry's dependency set).
    A piecewise entry's surrogate steps are not ``update``'s, so it is refused."""
    if entry.pieces is not None:
        raise ValueError("replay_entry replays plain cover entries; this entry has pieces "
                         f"{entry.pieces}, whose surrogate steps the update cannot replay")
    seq = np.array([entry.seq], dtype=np.int64)
    start = np.zeros((1, len(entry.point)))
    return run_lockstep(update, start, np.array([len(entry.seq)]), seq, dataset)[0]


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
    domain = update.domain
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
