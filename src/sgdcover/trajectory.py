"""Recorded SGD runs and synchronous coupling: run configurations, index
schemes, full trajectories, and per-step contraction ratios of coupled
pairs.  Only ``gap``, ``contract`` and callers of these names load this
module; every update goes through ``sgd``'s kernels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConvexDomain, as_point, as_rows, linalg_norms, substream
from .losses import Dataset
from .sgd import UpdateMap

SCHEMES = ("explicit", "uniform", "without_replacement", "shuffle")


@dataclass(frozen=True, eq=False)
class SGDConfig:
    """Run configuration: start point, step count, and index sampling scheme.

    ``indices`` is required for the "explicit" scheme and may be a flat
    sequence (batch size 1) or one row of indices per step.  For the seeded
    schemes, a ``seed`` makes the realized index sequence reproducible.
    """

    init: np.ndarray
    steps: int
    scheme: str = "uniform"
    indices: Sequence | None = None
    seed: int | None = None
    batch_size: int = 1

    def __post_init__(self):
        object.__setattr__(self, "init", as_point(self.init))
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if self.scheme == "explicit":
            if self.indices is None:
                raise ValueError("explicit scheme needs an index sequence")
        elif self.indices is not None:
            raise ValueError("indices are only accepted with the explicit scheme")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """All iterates of one run plus the realized index sequence."""

    points: np.ndarray   # (steps + 1, dim)
    indices: np.ndarray  # (steps, batch_size)
    scheme: str
    seed: int | None = None

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    def to_csv(self, path) -> None:
        """Dump as CSV with stable columns step,index,x0,...; batches join
        their indices with '|' and the step-0 row carries an empty index."""
        d = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "index"] + [f"x{j}" for j in range(d)])
            writer.writerow([0, ""] + [repr(float(v)) for v in self.points[0]])
            for t in range(self.steps):
                label = "|".join(str(int(i)) for i in self.indices[t])
                writer.writerow([t + 1, label] + [repr(float(v)) for v in self.points[t + 1]])


def draw_indices(config: SGDConfig, n: int) -> np.ndarray:
    """Realize the (steps, batch_size) index array for a run over n samples."""
    t, b = config.steps, config.batch_size
    if config.scheme == "explicit":
        idx = np.asarray(config.indices, dtype=np.int64)
        if idx.ndim == 1:
            idx = idx[:, None]
        if idx.shape != (t, b):
            raise ValueError(f"explicit indices must have shape ({t}, {b})")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("explicit indices out of range")
        return idx
    rng = substream(config.seed if config.seed is not None else 0)
    if config.scheme == "uniform":
        return rng.integers(0, n, size=(t, b))
    if b != 1:
        raise ValueError(f"scheme {config.scheme!r} supports batch_size 1 only")
    if config.scheme == "without_replacement":
        if t > n:
            raise ValueError("cannot draw more without-replacement steps than samples")
        return rng.permutation(n)[:t][:, None]
    # shuffle: concatenated independent passes over the data, as many as
    # the steps need (none for zero steps)
    passes = [rng.permutation(n) for _ in range(-(-t // n))]
    return np.concatenate([np.empty(0, dtype=np.int64), *passes])[:t][:, None]


def run_trajectory(
    update: UpdateMap,
    config: SGDConfig,
    dataset: Dataset,
    invariant_domain: ConvexDomain | None = None,
) -> Trajectory:
    """Run ``config.steps`` updates, recording every iterate.

    Deterministic given (config, dataset): seeded schemes derive their index
    stream from ``config.seed`` alone.  If ``invariant_domain`` is given,
    every iterate must stay inside it (used by the projection-free clustering
    runs, whose boundedness is an empirical contract).
    """
    indices = draw_indices(config, dataset.n)
    b = config.batch_size
    points = np.empty((config.steps + 1, config.init.shape[0]))
    points[0] = theta = config.init
    for t in range(config.steps):
        rows = update.apply_batch(np.tile(theta, (b, 1)), indices[t], dataset)
        # a mini-batch step averages the single-sample updates (an average of
        # gamma-contractive maps is gamma-contractive); sum() adds them from
        # zero, in order, and a single update is taken as is
        theta = rows[0] if b == 1 else sum(rows) / b
        if invariant_domain is not None and not invariant_domain.contains(theta):
            raise RuntimeError(
                f"iterate left the declared invariant domain at step {t + 1}: {theta}"
            )
        points[t + 1] = theta
    return Trajectory(points=points, indices=indices, scheme=config.scheme, seed=config.seed)


@dataclass(frozen=True, eq=False)
class CouplingReport:
    """Per-step distance ratios of m synchronously coupled pairs.

    Row k belongs to pair k: ``distances[k, t]`` is its distance before step
    t and ``ratios[k, t]`` the ratio that step achieved.  ``coalesce_step[k]``
    is the step at which pair k was found coalesced, or -1 if it never was;
    from that step on its ratios and distances are 0.  Ratios measured at
    tiny distances carry rounding noise of order eps_machine / distance.
    """

    ratios: np.ndarray         # (m, steps)
    distances: np.ndarray      # (m, steps)
    coalesce_step: np.ndarray  # (m,)

    @property
    def coalesced(self) -> np.ndarray:
        return self.coalesce_step >= 0

    @property
    def max_ratio(self) -> float:
        """Largest ratio of any pair before it coalesced (0 if none)."""
        return self.max_measurable_ratio(0.0)

    def max_measurable_ratio(self, min_distance: float) -> float:
        """Largest ratio of any pair among steps whose starting distance is
        at least ``min_distance`` (the regime where rounding noise is
        negligible)."""
        # steps from a pair's coalescence on keep distance 0 and are skipped
        live = self.ratios[(self.distances > 0) & (self.distances >= min_distance)]
        return float(live.max()) if live.size else 0.0


def coupled_contraction_ratio(
    update: UpdateMap,
    theta_a,
    theta_b,
    indices,
    dataset: Dataset,
) -> CouplingReport:
    """Drive m pairs of starting points, rows of the (m, d) arrays ``theta_a``
    and ``theta_b``, with identical sample indices (row k of the (m, steps)
    array ``indices`` drives pair k) and report ||g(a) - g(b)|| / ||a - b||
    at every step.

    All 2m points advance together, one ``apply_batch`` call per step, and
    every figure equals, bitwise, the one stepping the pair alone through
    ``sgd_step`` gives.  Once a pair agrees to within 1e-14 times the domain
    scale the ratio is 0/0: the pair is masked out, its remaining ratios
    are reported as 0 and its coalescence step is recorded.
    """
    d = np.shape(theta_a)[-1]
    a, b = as_rows(theta_a, d).copy(), as_rows(theta_b, d).copy()
    idx = np.asarray(indices, dtype=np.int64)
    if len(b) != len(a) or idx.ndim != 2 or len(idx) != len(a):
        raise ValueError(f"need (m, d), (m, d) and (m, steps) arrays, got shapes "
                         f"{a.shape}, {b.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= dataset.n):
        raise IndexError(f"sample indices must lie in [0, {dataset.n})")
    dist = linalg_norms(a - b)
    if np.any(dist == 0.0):
        raise ValueError("coupled starting points must differ")
    domain = update.domain
    scale = domain.bounding_radius() if domain is not None else math.inf
    if not math.isfinite(scale):
        scale = np.maximum(1.0, dist)
    coalesce_tol = 1e-14 * scale

    ratios, distances = np.zeros(idx.shape), np.zeros(idx.shape)
    coalesce_step = np.full(len(a), -1)
    for t in range(idx.shape[1]):
        coalesce_step[(coalesce_step < 0) & (dist <= coalesce_tol)] = t
        k = np.flatnonzero(coalesce_step < 0)
        if not k.size:
            break
        distances[k, t] = dist[k]
        moved = update.apply_batch(np.concatenate([a[k], b[k]]),
                                   np.concatenate([idx[k, t], idx[k, t]]), dataset)
        a[k], b[k] = moved[:k.size], moved[k.size:]
        new_dist = linalg_norms(a[k] - b[k])
        ratios[k, t] = new_dist / dist[k]
        dist[k] = new_dist
    return CouplingReport(ratios=ratios, distances=distances, coalesce_step=coalesce_step)
