"""Localized epsilon-cover enumeration and verification.

The cover of horizon T enumerates every composition of T single-sample
updates applied to the origin.  For contractive updates with ratio gamma and
a domain inside the radius-R ball, any iterate after t >= T steps from any
start lies within gamma^T * R of its own entry, the composition of its last
T samples, so the enumeration is an epsilon-cover of the reachable set for
epsilon >= gamma^T * R in any dimension.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bounds import horizon
from .core import all_finite, row_norms
# kept only because perfbench's tracer rebinds cover.IFSModel.apply and
# .sample_attractor (ROADMAP item 1 retires it); the IFS code is fractal.py's
from .fractal import IFSModel  # noqa: F401
from .losses import Dataset
from .sgd import UpdateMap, draw_runs, run_lockstep, sgd_step

DEFAULT_CAP = 10**7

# point values the JSONL writer converts to Python floats at once
_WRITE_CHUNK = 2**10

# verification trials drawn per keyed stream
_TRIAL_BLOCK = 256


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
    """Horizon T = max(ceil(log(R/eps)/log(1/gamma)), 0) by ``horizon``, which
    checks gamma; epsilon >= R needs no steps, also where R/eps underflows to
    0 (the ratio is floored at 1, where ``horizon`` is 0).  The reachable set
    then has radius gamma^T * R <= eps * max(1/gamma, R/eps)^1e-9 up to the
    logs' rounding, not <= eps: ``ceil_int``'s 1e-9 nudge keeps eps = R/8 at
    gamma = 1/2 at T = 3, so eps = 0.1249999999 gives T = 3 (radius 0.125) too.
    """
    if not (R > 0 and epsilon > 0):
        raise ValueError("R and epsilon must be positive")
    return horizon(max(R / epsilon, 1.0), gamma)


@dataclass(frozen=True, eq=False)
class CoverEntry:
    """One enumerated composition: its index sequence, endpoint and, for a
    piecewise cover, the piece chosen at each step."""

    seq: tuple[int, ...]
    point: np.ndarray
    pieces: tuple[int, ...] | None = None

    @property
    def deps(self) -> frozenset[int]:
        """The sample indices the endpoint depends on: those in ``seq``."""
        return frozenset(self.seq)

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
    ``arange(N)`` unless the cover was deduped.  Points must be finite
    float64.  The cover is the sequence of its entries: ``cover[k]``, slices
    as tuples.
    """

    horizon: int
    points: np.ndarray  # (N, d) float64
    index: np.ndarray   # (N,) int64
    n_samples: int
    pieces_per_sample: int | None = None
    deduped: bool = False

    def __post_init__(self):
        if self.points.dtype != np.float64:
            raise ValueError(f"cover points must be float64, got {self.points.dtype}")
        if not all_finite(self.points):
            raise ValueError("cover points have non-finite entries")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, k):
        """Built on access from the choice decoding the JSONL writer uses."""
        if isinstance(k, slice):
            return tuple(self[j] for j in range(len(self))[k])
        seq, pieces = self._choices(self.index[k], self.horizon)
        return CoverEntry(seq=tuple(seq.tolist()), point=self.points[k],
                          pieces=None if pieces is None else tuple(pieces.tolist()))

    def jsonl_lines(self) -> Iterator[str]:
        """The cover's JSONL lines without their newlines; line k is
        ``self[k].to_json()``, byte for byte."""
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

    def _spelled(self, index: np.ndarray, digits: int, lead: str) -> tuple[list, np.ndarray, list]:
        """``(texts, ids, sets)`` for the indices: per field (seq, pieces) a
        column of their last ``digits`` choices as ``lead`` plus comma-joined
        digits, and per index the id of its sorted sample set in ``sets``."""
        fields = [c.tolist() for c in self._choices(index, digits) if c is not None]
        texts = [[lead + ", ".join(map(str, row)) for row in f] for f in fields]
        sets: dict[tuple[int, ...], int] = {}
        ids = [sets.setdefault(tuple(sorted(set(row))), len(sets)) for row in fields[0]]
        return texts, np.array(ids, dtype=np.int64), list(sets)

    def _jsonl_chunks(self) -> Iterator[list[str]]:
        """Lines in chunks of about _WRITE_CHUNK values, each filled into one
        template per cover, a column per template field: floats by ``repr``
        (as ``json.dumps`` writes them) from ``block.T.tolist()``, and the
        choice text of index = high * (n*P)^L + low, L = floor(T/2), looked
        up by halves.  All (n*P)^L <= sqrt((n*P)^T) low halves are spelled
        once, and a chunk's high halves per chunk; its ``deps`` strings are
        spelled once per distinct pair of the halves' sample sets."""
        L = self.horizon // 2
        base = (self.n_samples * (self.pieces_per_sample or 1)) ** L
        lows, low_ids, low_sets = self._spelled(np.arange(base), L, ", " if L else "")
        fields = '{"seq": [%s%s], ' + ('"pieces": [%s%s], ' if self.pieces_per_sample else "")
        template = fields + f'"point": [{", ".join(["%r"] * self.points.shape[1])}], "deps": %s}}'
        rows = max(1, _WRITE_CHUNK // max(1, self.points.shape[1]))
        for lo in range(0, len(self), rows):
            block = np.asarray(self.points[lo:lo + rows], dtype=float)
            high, low = np.divmod(self.index[lo:lo + rows], base)
            heads, high = np.unique(high, return_inverse=True)
            highs, high_ids, high_sets = self._spelled(heads, self.horizon - L, "")
            pairs, pair = np.unique(high_ids[high] * len(low_sets) + low_ids[low],
                                    return_inverse=True)
            deps = [str(sorted({*high_sets[k // len(low_sets)], *low_sets[k % len(low_sets)]}))
                    for k in pairs.tolist()]
            high, low = high.tolist(), low.tolist()
            columns = [list(map(texts.__getitem__, half))
                       for h, l in zip(highs, lows) for texts, half in ((h, high), (l, low))]
            lines = list(map(template.__mod__, zip(*columns, *block.T.tolist(),
                                                   map(deps.__getitem__, pair.tolist()))))
            del highs, columns, deps  # freed before the next chunk builds its own
            yield lines


def _enumerate_tree(update: UpdateMap, dataset: Dataset, d: int, T: int) -> np.ndarray:
    """Endpoints of all n^T compositions of the per-sample updates applied to
    the origin of R^d, one ``sgd_step`` call per tree node, built level by
    level: row k*n + i of a level is sample i's update of row k of the level
    above, so row k of the result takes the base-n digits of k as its samples.
    Each level is one ``np.fromiter`` over its nodes' ``sgd_step`` calls, in
    row order.  A node whose ``SGDStep`` update stays inside a ball is proved
    finite by one inside test and checked no further (``SGDStep.apply``)."""
    n, row = dataset.n, np.dtype((float, (d,)))
    level = np.zeros((1, d))
    for _ in range(T):
        level = np.fromiter((sgd_step(update, point, i, dataset) for point in level
                             for i in range(n)), dtype=row, count=len(level) * n)
    return level


def _point_keys(points: np.ndarray) -> np.ndarray:
    """Each (N, d) row's bits as one scalar that sorts; 0.0 and -0.0 differ."""
    return np.ascontiguousarray(points, dtype=float).view((np.void, 8 * points.shape[1]))[:, 0]


def _first_of_each_point(points: np.ndarray) -> np.ndarray:
    """Ascending row numbers of the first row of each distinct bit pattern."""
    return np.sort(np.unique(_point_keys(points), return_index=True)[1])


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
    start = np.zeros((1, len(entry.point)))
    return run_lockstep(update, start, [len(entry.seq)], [entry.seq], dataset)[0]


def _own_entry_runs(update: UpdateMap, dataset: Dataset, T: int, trials: int,
                    max_extra_steps: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``verify_cover``'s runs without a cover: the (trials, d) endpoints, the
    (trials, T) last T indices of each run, and each run's own entry, those
    indices applied to the origin in a second lockstep.

    Trials are drawn ``_TRIAL_BLOCK`` to a stream by ``draw_runs``: trial k
    is row k % _TRIAL_BLOCK of stream k // _TRIAL_BLOCK, and a partial last
    block is drawn whole, so the first trials of a longer verification are
    bitwise those of a shorter one."""
    streams = -(-trials // _TRIAL_BLOCK)
    starts, steps, indices, _ = draw_runs(seed, streams, _TRIAL_BLOCK, update.domain, T,
                                          T + max_extra_steps, dataset.n)
    starts, steps, indices = starts[:trials], steps[:trials], indices[:trials]
    endpoints = run_lockstep(update, starts, steps, indices, dataset)
    last = np.take_along_axis(indices, steps[:, None] - T + np.arange(T), axis=1)
    own = run_lockstep(update, np.zeros_like(endpoints), np.full(trials, T), last, dataset)
    return endpoints, last, own


@dataclass(frozen=True, eq=False)
class CoverVerification:
    """Empirical soundness report: random runs against their own cover entries.
    ``max_min_distance`` is the largest distance from an endpoint to its own
    entry, which bounds the distance to the nearest entry from above."""

    trials: int
    failures: int
    max_min_distance: float
    passed: bool


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
    [T, T + max_extra_steps] and check each against its own cover entry.

    Trial k draws its start, t and indices as row k % 256 of the runs that
    ``draw_runs`` draws from ``substream(seed, k // 256)``, ``_TRIAL_BLOCK``
    = 256 trials to a stream (``_own_entry_runs``), and all trials then
    advance in lockstep.  A
    trial's own entry, its last T indices applied to the origin, is rerun in
    a second lockstep (bitwise what enumeration reaches) and looked up by its
    bits among the sorted points, which a deduped cover holds too; the
    lookup needs float64 points, which ``CoverSet`` requires.  Passes
    only if every own entry is stored and within epsilon of its endpoint;
    costs O(trials x T x d) beyond the runs.  Piecewise covers, and covers of
    another sample count or dimension than the runs, are refused before any trial.
    """
    if trials < 1 or max_extra_steps < 0:
        raise ValueError("need trials >= 1 and max_extra_steps >= 0")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    domain = update.domain
    if domain is None:
        raise ValueError("verification needs a bounded domain to sample starts from")
    if cover.pieces_per_sample is not None:
        raise ValueError("verify_cover verifies plain covers; this cover has pieces, "
                         "whose surrogate steps the update cannot replay")
    if (cover.n_samples, cover.points.shape[1]) != (dataset.n, domain.dim):
        raise ValueError(f"the cover has {cover.n_samples} samples in R^{cover.points.shape[1]}, "
                         f"the runs {dataset.n} in R^{domain.dim}")

    endpoints, _, own = _own_entry_runs(update, dataset, cover.horizon, trials,
                                        max_extra_steps, seed)
    stored, keys = np.sort(_point_keys(cover.points)), _point_keys(own)
    found = stored[np.minimum(np.searchsorted(stored, keys), len(stored) - 1)] == keys
    dists = row_norms(endpoints - own)
    failures = int(np.count_nonzero(~found | (dists > epsilon)))
    return CoverVerification(
        trials=trials, failures=failures, max_min_distance=float(dists.max()),
        passed=failures == 0,
    )
