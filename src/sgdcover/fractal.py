"""Iterated function systems and fractal dimension: the affine contraction
maps whose attractor dimension enters the fractal form of the bound, the
chaos-game orbit that samples the attractor, and box counting.

Needs only numpy and ``core``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import all_finite, as_point, safe_norms, substream

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
        if np.any(safe_norms(centers) > self.radius * (1 + 1e-12)):
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
    # choices come from rng.integers, in range; mode="clip" writes out unbuffered
    np.take(offsets, choices, axis=0, out=steps[:total], mode="clip")
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

    Requires at least 10^3 finite points with d >= 1 coordinates and at
    least 4 finite scales spanning two or more decades, none so small that
    the points' widest extent spans 2^63 boxes.  A cloud of identical points
    occupies one box at every scale and so estimates dimension 0.

    The grid starts at the points' minimum lo.  Each scale s takes one pass
    over the points, writing fl((x - lo) / s) truncated to int64 into one
    key buffer that every scale reuses.  Truncation is the floor here:
    x - lo >= +0.0 because IEEE subtraction is monotone, and the extent guard
    keeps every quotient below 2^63.  A grid origin other than the minimum
    must refuse points below it, or negative quotients would truncate toward
    zero instead.  The same monotonicity of subtraction, division and
    truncation gives each axis's largest box index as that of its extent,
    fl(fl(max - lo) / s), so the grid's shape needs no pass over the keys.

    A scale whose grid has at most 8 boxes per point counts the set entries
    of an occupancy bitmap over the grid; a finer grid sorts one int64 key
    per point, or compares whole rows when int64 cannot index the grid.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:  # a flat vector of scalars
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] == 0:
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
    extent = pts.max(axis=0) - lo
    # box indices are cast to int64, so the widest extent must stay below
    # 2**63 boxes at the smallest scale
    if np.max(extent) / scales[-1] >= 2.0**63:
        raise ValueError(f"scale {scales[-1]:g} is too small for int64 box indices "
                         "over the points' extent")

    shifted = pts - lo
    idx = np.empty(shifted.shape, dtype=np.int64)
    counts = np.empty(scales.size)
    for k, s in enumerate(scales):
        np.divide(shifted, s, out=idx, casting="unsafe")
        shape = (extent / s).astype(np.int64) + 1
        boxes = math.prod(map(int, shape))
        if boxes > np.iinfo(np.int64).max:  # no int64 key: compare whole rows
            counts[k] = np.unique(idx, axis=0).shape[0]
            continue
        # row-major keys, ravel_multi_index's without its bounds checks
        keys = idx[:, 0]
        for j in range(1, idx.shape[1]):
            keys = keys * shape[j] + idx[:, j]
        if boxes <= _BITMAP_BOXES_PER_POINT * pts.shape[0]:
            # an occupancy bitmap, no bigger than the keys the sort would hold
            occupied = np.zeros(boxes, dtype=bool)
            occupied[keys] = True
            counts[k] = np.count_nonzero(occupied)
        else:
            keys.sort()
            counts[k] = 1 + np.count_nonzero(keys[1:] != keys[:-1])
    # equal counts are a flat line, whose fitted slope can round below zero
    slope = 0.0 if np.all(counts == counts[0]) else float(
        np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0])
    return BoxCountFit(dimension=slope, scales=scales, counts=counts)
