"""Constant-step projected SGD engine: the update maps, seeded run draws,
lockstep runs, and the closed-form contraction factor for strongly convex
and smooth losses.  Recorded runs and coupling are in ``trajectory``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (Ball, ConvexDomain, DETERMINISTIC_TOL, all_finite, as_point, shaped_like,
                   substream)
from .losses import Dataset, LossFamily


def _sample_indices(indices, n: int, steps=None) -> np.ndarray:
    """``indices`` as int64 (an int64 array as it is) by the one index rule of
    every batched entry: a dtype not integer or bool raises ValueError, an
    index outside [0, n) IndexError, as in ``sgd_step``; with ``steps``, only
    row k's first ``steps[k]``, the ones a run reads, are range-checked."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "biu":
        raise ValueError(f"sample indices must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        read = idx if steps is None else idx[np.arange(idx.shape[-1]) < steps[:, None]]
        bad = read[(read < 0) | (read >= n)]
        if bad.size:
            raise IndexError(f"sample index {bad[0]} out of range [0, {n})")
    return idx.astype(np.int64, copy=False)


class _BatchedUpdate:
    """The checked entry that both update maps share into their ``_advance``."""

    def apply_batch(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """Row k is ``apply(thetas[k], dataset.samples[idx[k]])``, bitwise.  Rows
        not of the domain's width, and indices not one valid per row
        (``_sample_indices``), are refused here; ``_advance`` checks the rest."""
        self._check_rows(np.shape(thetas))
        idx = _sample_indices(idx, dataset.n)
        if len(idx) != len(thetas):
            raise ValueError(f"expected {len(thetas)} sample indices, one per row, got {len(idx)}")
        return self._advance(thetas, idx, dataset)

    def _check_rows(self, shape: tuple) -> None:
        if len(shape) != 2 or self.domain is not None and shape[1] != self.domain.dim:
            raise ValueError(f"expected an (m, {getattr(self.domain, 'dim', 'd')}) array of "
                             f"points, got shape {shape}")


@dataclass(frozen=True, eq=False)
class SGDStep(_BatchedUpdate):
    """One projected gradient update theta -> Pi(theta - eta grad f(theta; z)).

    Pi projects onto ``domain``, which defaults to the family's domain.
    ``WholeSpace(d)`` projects as the identity, so ``domain=WholeSpace(d)``
    means no projection: the raw update.  Nothing checks that a raw run
    stays bounded, as the clustering analysis assumes; validating those
    theorems (ROADMAP item 10) needs that check across lockstep runs.
    """

    family: LossFamily
    eta: float
    domain: ConvexDomain | None = None

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError("eta must be nonnegative")
        if self.domain is None:
            object.__setattr__(self, "domain", self.family.domain)
            if self.domain is None:
                raise ValueError("no domain to project onto; pass domain=WholeSpace(d) for none")
        object.__setattr__(self, "_row_shape", (self.domain.dim,))  # one point's, derived once

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        """Row 0 of ``apply_batch`` on the one-row batch ``theta[None]``, bitwise.

        The gradient, refused unless of ``theta``'s shape, is the family's
        ``grad_batch`` on one-row views when it has one and ``theta`` has the
        domain's width, else its ``grad``, as in ``grad_rows``.  On a ``Ball``
        an update that the ball's inside test keeps is returned as it is:
        the test proves it finite.  Any other is checked by
        ``_checked_update`` and takes the domain's ``project``.
        """
        grad_batch, domain = self.family.grad_batch, self.domain
        g = (grad_batch(theta[None], np.asarray(z, dtype=float)[None])[0]
             if grad_batch is not None and theta.shape == self._row_shape
             else np.asarray(self.family.grad(theta, z), dtype=float))
        if g.shape != theta.shape:  # shaped_like's refusal, inline at every tree node
            raise ValueError(f"gradient has shape {g.shape}; the point has shape {theta.shape}")
        out = theta - self.eta * g
        if isinstance(domain, Ball) and domain._holds(out):
            return out
        return domain.project(_checked_update(theta, g, out))

    def _advance(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """One step of (m, d) float64 rows and indices that the caller checked:
        an update that the domain's ``_screen`` keeps is returned as it is, any
        other is checked by ``_checked_update`` and takes ``_project_rows``."""
        g = self.family.grad_rows(thetas, dataset, idx)
        out = np.multiply(g, self.eta)  # thetas - eta * g, in one buffer
        np.subtract(thetas, out, out=out)
        if self.domain._screen(out):
            return out
        _checked_update(thetas, g, out)
        del g  # freed before the projection's norms
        return self.domain._project_rows(out)


def _checked_update(theta: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The update ``out = theta - eta * g``, refused when not finite, before
    any projection.  A non-finite ``theta`` or gradient makes the update
    non-finite too, so one check on the result covers every fault; the
    inputs are read again only to name it: ValueError for ``theta``, as
    ``as_point`` raises, else FloatingPointError."""
    if not all_finite(out):
        if not all_finite(theta):
            raise ValueError("point has non-finite entries")
        raise FloatingPointError("non-finite gradient" if not all_finite(g)
                                 else "update produced non-finite values")
    return out


@dataclass(frozen=True, eq=False)
class CustomMap(_BatchedUpdate):
    """An arbitrary iterative update g(theta; z)."""

    fn: Callable[[np.ndarray, object], np.ndarray]
    domain: ConvexDomain | None = None

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        """``fn(theta, z)``, refused when not of ``theta``'s shape or not
        finite.  ``theta`` is validated here with ``as_point``, because ``fn``
        may ignore it."""
        theta = as_point(theta)
        out = shaped_like(self.fn(theta, z), theta, "update")
        if not all_finite(out):
            raise FloatingPointError("update produced non-finite values")
        return out

    def _advance(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """The per-row fallback: ``apply`` on each row and its sample."""
        samples = dataset.samples
        return np.stack([self.apply(theta, samples[i]) for theta, i in zip(thetas, idx)])


UpdateMap = Union[SGDStep, CustomMap]


def contraction_factor(alpha: float, beta: float, eta: float) -> float:
    """Closed-form coupling ratio sqrt(1 - 2*alpha*eta + alpha*beta*eta^2)
    of one gradient step on an alpha-strongly-convex, beta-smooth loss.

    Requires 0 < alpha <= beta and 0 < eta < 2/beta, which keeps the value
    in [0, 1); a slightly negative radicand from rounding is clamped to 0.
    """
    if not (0 < alpha <= beta):
        raise ValueError("need 0 < alpha <= beta")
    if not 0 < eta < 2.0 / beta:
        raise ValueError("step size must satisfy 0 < eta < 2/beta for this certificate: "
                         f"eta={eta} outside (0, {2.0 / beta})")
    radicand = 1.0 - 2.0 * alpha * eta + alpha * beta * eta**2
    if radicand < -DETERMINISTIC_TOL:
        raise ValueError(f"negative radicand {radicand}")
    return math.sqrt(max(radicand, 0.0))


def sgd_step(update: UpdateMap, theta, sample_index: int, dataset: Dataset) -> np.ndarray:
    """Apply one update using sample ``sample_index`` of the dataset.  Only
    the shape of ``theta`` is checked before the index (a scalar is a
    1-point); the update proves the point finite (``SGDStep.apply``) or
    checks it, raising what ``as_point`` would.  The index is held to
    ``_sample_indices``' rule by one scalar comparison, cheap at a tree node."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        theta = as_point(theta)
    samples = dataset.samples
    if not 0 <= sample_index < len(samples):
        raise IndexError(f"sample index {sample_index} out of range [0, {len(samples)})")
    return update.apply(theta, samples[sample_index])


def draw_runs(
    seed: int,
    streams: int,
    runs: int,
    domain: ConvexDomain,
    t_min: int,
    t_max: int,
    n: int,
    prelude: Callable[[int, np.random.Generator], object] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Randomness of ``runs`` runs from each of ``streams`` keyed streams.

    Stream k is ``substream(seed, k)``.  It first serves ``prelude(k, rng)``,
    if one is given, and then draws runs k * runs to (k + 1) * runs - 1 by
    three array calls, in this order: the raw draws of the starts
    ``domain.sample_batch(rng, runs)``, the step counts
    ``rng.integers(t_min, t_max + 1, size=runs)`` and the indices
    ``rng.integers(0, n, size=(runs, t_max))``.  All raw draws are placed
    at once, and each index row is zeroed past its step count.

    Returns (starts (m, d), steps (m,), indices (m, t_max), the prelude's
    result per stream, or [] without a prelude), with m = streams * runs.
    Step counts outside 0 <= t_min <= t_max are refused.
    """
    if not 0 <= t_min <= t_max:
        raise ValueError(f"step counts need 0 <= t_min <= t_max, got t_min={t_min}, "
                         f"t_max={t_max}")
    m = streams * runs
    steps = np.empty(m, dtype=np.int64)
    indices = np.empty((m, t_max), dtype=np.int64)
    draws, preluded = [], []
    for k in range(streams):
        rng = substream(seed, k)
        if prelude is not None:
            preluded.append(prelude(k, rng))
        rows = slice(k * runs, (k + 1) * runs)
        draws.append(domain._draws(rng, runs))
        steps[rows] = rng.integers(t_min, t_max + 1, size=runs)
        indices[rows] = rng.integers(0, n, size=(runs, t_max))
    indices[np.arange(t_max) >= steps[:, None]] = 0
    starts = domain._place(*map(np.concatenate, zip(*draws))) if m else np.empty((0, domain.dim))
    return starts, steps, indices, preluded


def run_lockstep(
    update: UpdateMap,
    starts: np.ndarray,
    steps: np.ndarray,
    indices: np.ndarray,
    dataset: Dataset,
) -> np.ndarray:
    """Endpoints of many runs advanced together, one batched update per step.

    Run k starts at ``starts[k]`` and applies samples ``indices[k, :steps[k]]``.
    The runs are sorted once by step count, longest first (a stable sort),
    so the runs still live at step s are a prefix and each step updates a
    slice; the endpoints come back in input order.  Each endpoint equals,
    bitwise, the one a sequential ``sgd_step`` loop reaches: each step is one
    ``_advance``, which treats every row on its own and refuses a non-finite
    point or update.  Once, before any step, starts not of the domain's
    width, counts of starts, step counts and index rows that differ, and
    step counts that are not integers in [0, indices.shape[1]] raise
    ValueError, and the indices meet ``_sample_indices``' rule; entries past
    a run's first ``steps[k]`` are never read.
    """
    update._check_rows(np.shape(starts))
    steps, indices = np.asarray(steps), np.asarray(indices)
    counts = (len(starts), len(steps), len(indices))
    if len(set(counts)) > 1:
        raise ValueError("need one step count and one index row per start, got "
                         "{} starts, {} step counts and {} index rows".format(*counts))
    if steps.size and steps.dtype.kind not in "biu":
        raise ValueError(f"step counts must be integers, got dtype {steps.dtype}")
    cols = indices.shape[-1]
    if steps.size and (steps.min() < 0 or steps.max() > cols):
        bad = steps[(steps < 0) | (steps > cols)][0]
        raise ValueError(f"step count {bad} outside [0, {cols}], the number of index columns")
    indices = _sample_indices(indices, dataset.n, steps)
    order = np.argsort(-steps, kind="stable")
    ends, thetas, idx = steps[order], np.asarray(starts, dtype=float)[order], indices[order]
    live = np.searchsorted(-ends, -np.arange(int(ends.max(initial=0))))  # ends > s
    for s, k in enumerate(live):
        thetas[:k] = update._advance(thetas[:k], idx[:k, s], dataset)
    out = np.empty_like(thetas)
    out[order] = thetas
    return out
