"""Recorded SGD runs and synchronous coupling: full trajectories over a
caller's index array, and per-step contraction ratios of coupled pairs.  Only
``gap``, ``contract`` and callers of these names load this module; every
update goes through ``sgd``'s kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_point, as_rows, linalg_norms
from .losses import Dataset
from .sgd import UpdateMap, _sample_indices


@dataclass(frozen=True, eq=False)
class Trajectory:
    """All iterates of one run plus the realized index rows: ``points[t]``
    is the iterate after step t, reached with the samples ``indices[t - 1]``."""

    points: np.ndarray   # (steps + 1, dim)
    indices: np.ndarray  # (steps, b)

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def run_trajectory(
    update: UpdateMap,
    init,
    indices,
    dataset: Dataset,
) -> Trajectory:
    """Run one update per row of ``indices`` from ``init``, recording every
    iterate.  Inputs are checked once (the indices by ``_sample_indices``),
    then each step is one ``_advance``: a flat sequence takes one sample per
    step, a (steps, b) array one mini-batch row per step.
    """
    theta = as_point(init)
    idx = _sample_indices(indices, dataset.n)
    idx = idx[:, None] if idx.ndim == 1 else idx
    if idx.ndim != 2 or idx.shape[1] < 1:
        raise ValueError(f"indices must be flat or (steps, b) with b >= 1, got {idx.shape}")
    b = idx.shape[1]
    update._check_rows((b, theta.shape[0]))
    points = np.empty((len(idx) + 1, theta.shape[0]))
    points[0] = theta
    for t, batch in enumerate(idx):
        rows = update._advance(np.tile(theta, (b, 1)), batch, dataset)
        # a mini-batch step averages the single-sample updates (an average of
        # gamma-contractive maps is gamma-contractive); sum() adds them from
        # zero, in order, and a single update is taken as is
        theta = rows[0] if b == 1 else sum(rows) / b
        points[t + 1] = theta
    return Trajectory(points=points, indices=idx.copy())  # not the caller's array


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

    Checked once (the indices by ``_sample_indices``), all 2m points advance
    together, one ``_advance`` per step, and every figure equals, bitwise,
    the one stepping the pair alone through ``sgd_step`` gives.  Once a pair
    agrees to within 1e-14 times the domain scale the ratio is 0/0: the pair
    is masked out, its remaining ratios are reported as 0 and its
    coalescence step is recorded.
    """
    d = np.shape(theta_a)[-1]
    a, b = as_rows(theta_a, d).copy(), as_rows(theta_b, d).copy()
    idx = _sample_indices(indices, dataset.n)
    if len(b) != len(a) or idx.ndim != 2 or len(idx) != len(a):
        raise ValueError(f"need (m, d), (m, d) and (m, steps) arrays, got shapes "
                         f"{a.shape}, {b.shape} and {idx.shape}")
    update._check_rows(a.shape)
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
        moved = update._advance(np.concatenate([a[k], b[k]]),
                                np.concatenate([idx[k, t], idx[k, t]]), dataset)
        a[k], b[k] = moved[:k.size], moved[k.size:]
        new_dist = linalg_norms(a[k] - b[k])
        ratios[k, t] = new_dist / dist[k]
        dist[k] = new_dist
    return CouplingReport(ratios=ratios, distances=distances, coalesce_step=coalesce_step)
