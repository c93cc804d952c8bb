"""Constant-step projected SGD engine: the update maps, seeded run draws,
lockstep runs, and the closed-form contraction factor for strongly convex
and smooth losses.  Recorded runs and coupling are in ``trajectory``."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (_MASK32, Ball, ConvexDomain, DETERMINISTIC_TOL, _ball_direction,
                   _keyed_streams, all_finite, as_point, substream)
from .losses import Dataset, LossFamily


@dataclass(frozen=True, eq=False)
class SGDStep:
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

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        """Row 0 of ``apply_batch`` on the one-row batch ``theta[None]``, bitwise.

        The gradient is the family's ``grad_batch`` on one-row views when
        the family has one and ``theta`` has the domain's width, else its
        ``grad``, as ``grad_rows`` falls back to.  On a ``Ball`` an update
        that the ball's inside test keeps is returned as it is: the test
        proves it finite, so no other check runs.  Any other update is
        checked by ``_checked_update`` and takes the validated projection.
        """
        grad_batch, domain = self.family.grad_batch, self.domain
        if grad_batch is not None and theta.shape == (domain.dim,):
            g = grad_batch(theta[None], np.asarray(z, dtype=float)[None])[0]
        else:
            g = np.asarray(self.family.grad(theta, z), dtype=float)
        out = theta - self.eta * g
        if isinstance(domain, Ball) and domain._holds(out):
            return out
        return domain.project(_checked_update(theta, g, out))

    def apply_batch(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """Row k is ``apply(thetas[k], dataset.samples[idx[k]])``, bitwise.  Rows
        of a width other than the domain's are refused, not broadcast."""
        shape, d = np.shape(thetas), self.domain.dim
        if len(shape) != 2 or shape[1] != d:
            raise ValueError(f"expected an (m, {d}) array of points, got shape {shape}")
        g = self.family.grad_rows(thetas, dataset, idx)
        out = np.multiply(g, self.eta)  # thetas - eta * g, in one buffer
        np.subtract(thetas, out, out=out)
        return self.domain.project_batch(_checked_update(thetas, g, out))


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
class CustomMap:
    """An arbitrary iterative update g(theta; z)."""

    fn: Callable[[np.ndarray, object], np.ndarray]
    domain: ConvexDomain | None = None

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        """``fn(theta, z)``, refused when not finite.  ``theta`` is validated
        here with ``as_point``, because ``fn`` may ignore it."""
        out = np.asarray(self.fn(as_point(theta), z), dtype=float)
        if not all_finite(out):
            raise FloatingPointError("update produced non-finite values")
        return out

    def apply_batch(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """Per-row fallback: row k is ``apply(thetas[k], dataset.samples[idx[k]])``."""
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
    checks it, raising what ``as_point`` would."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        theta = as_point(theta)
    samples = dataset.samples
    if not 0 <= sample_index < len(samples):
        raise IndexError(f"sample index {sample_index} out of range [0, {len(samples)})")
    return update.apply(theta, samples[sample_index])


# numpy draws a bounded integer of range up to 2**32 from one 32-bit half
_RANGE32 = 2**32
# runs drawn before their indices are decoded, which bounds the raw words
# and decoding arrays held at once
_RUN_BLOCK = 256


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
    if one is given, which must finish its draws before it returns, and
    then runs k * runs to (k + 1) * runs - 1 in turn, each drawn in the
    order a sequential loop consumes it: a uniform start
    ``domain.sample(rng)``, a step count ``rng.integers(t_min, t_max + 1)``,
    then the indices ``rng.integers(0, n, size=t)``.

    Only the starts go through the generator.  numpy draws a bounded integer
    of range r <= 2**32 by Lemire's multiply-shift over one 32-bit half of a
    PCG64 word, low half first, and keeps the high half pending for the next
    draw.  So each run takes from ``random_raw`` exactly the words its step
    count and indices consume, and the indices of ``_RUN_BLOCK`` runs are
    decoded together in one numpy pass; every output is bitwise the
    sequential loop's.  A stream with a rejected draw (probability below
    r / 2**32 per draw), and every stream when a range exceeds 2**32 or
    ``_replicas_hold`` fails, is drawn again by that loop.

    Returns (starts (m, d), steps (m,), indices (m, t_max), the prelude's
    result per stream, or [] without a prelude), with m = streams * runs.
    Row j of the index array is padded with zeros past ``steps[j]``.
    """
    # above 2**32 numpy draws from whole words, which are not decoded
    fast = max(t_max - t_min + 1, n) <= _RANGE32 and _replicas_hold()
    return _draw_runs(seed, streams, runs, domain, t_min, t_max, n, prelude, fast)


@functools.cache
def _replicas_hold() -> bool:
    """Whether ``core._seed_words`` and ``_decode_indices``, copies of numpy
    internals that NEP 19 does not promise to keep, match the numpy in use:
    once per process, one fixed small case is drawn by the decoding path and
    by the sequential loop and compared bitwise."""
    # a seed of five 32-bit words mixes entropy beyond the pool's four
    case = (2**128 + 1, 2, 2, Ball(np.array([0.5, -0.25, 1.0]), 2.0), 1, 9, 7, None)
    decoded, looped = (_draw_runs(*case, fast) for fast in (True, False))
    return all(a.tobytes() == b.tobytes() for a, b in zip(decoded[:3], looped[:3]))


def _draw_runs(seed, streams, runs, domain, t_min, t_max, n, prelude, fast):
    """``draw_runs``, decoding raw words where ``fast`` and otherwise drawing
    every stream by the sequential loop."""
    m, ball = streams * runs, isinstance(domain, Ball)
    starts, scales = np.empty((m, domain.dim)), np.empty(m)
    steps = np.empty(m, dtype=np.int64)
    indices = np.zeros((m, t_max), dtype=np.int64)
    preluded = [None] * streams if prelude is not None else []
    redraw = set() if fast else set(range(streams))
    span = t_max - t_min + 1
    span_floor = _RANGE32 % span  # Lemire rejects a product whose low half is below
    # the pending half each undecoded run's first index takes (-1 for none),
    # and the raw words its other indices take
    first, leads, words = 0, [], []
    for k, rng in enumerate(_keyed_streams(seed, streams) if fast else ()):
        bits = rng.bit_generator
        raw = bits.random_raw
        pending = -1  # the high half PCG64 keeps for its next 32-bit draw
        if prelude is not None:
            preluded[k] = prelude(k, rng)
            state = bits.state
            if state["has_uint32"]:
                pending = state["uinteger"]
        for j in range(k * runs, (k + 1) * runs):
            if ball:  # a direction and scale, applied to every row below
                starts[j], scales[j] = _ball_direction(rng, domain.dim, domain.radius)
            else:
                starts[j] = domain.sample(rng)
            t = t_min
            if span > 1:  # a range of 1 consumes nothing
                if pending < 0:
                    word = raw()
                    half, pending = word & _MASK32, word >> 32
                else:
                    half, pending = pending, -1
                scaled = half * span
                if scaled & _MASK32 < span_floor:
                    redraw.add(k)
                t += scaled >> 32
            steps[j] = t
            if n < 2:
                continue
            need, lead = t, -1
            if need and pending >= 0:
                lead, pending = pending, -1
                need -= 1
            leads.append(lead)
            words.append(raw((need + 1) // 2))
            if need % 2:
                pending = int(words[-1][-1]) >> 32
            if len(words) == _RUN_BLOCK or j == m - 1:
                counts = steps[first:j + 1]
                values, rejected = _decode_indices(counts, leads, words, n)
                indices[first:j + 1][np.arange(t_max) < counts[:, None]] = values
                if rejected.any():
                    run = np.repeat(np.arange(first, j + 1), counts)[rejected]
                    redraw.update((run // runs).tolist())
                first, leads, words = j + 1, [], []
    if fast and ball:  # center + direction * scale, as Ball.sample
        starts *= scales[:, None]
        starts += domain.center
    for k in sorted(redraw):
        rng = substream(seed, k)
        if prelude is not None:
            preluded[k] = prelude(k, rng)
        for j in range(k * runs, (k + 1) * runs):
            starts[j] = domain.sample(rng)
            steps[j] = t = rng.integers(t_min, t_max + 1)
            indices[j] = 0
            indices[j, :t] = rng.integers(0, n, size=t)
    return starts, steps, indices, preluded


def _decode_indices(t, leads, words, n):
    """The indices of a block of runs, concatenated, and whether each was a
    rejected draw.  Run j has t[j] indices: the first is ``leads[j]`` unless
    that is -1, the others come from the halves of ``words[j]``, low half
    first, each a draw ``(half * n) >> 32``."""
    first = np.cumsum(t) - t  # where each run's indices start
    with_lead = [j for j, lead in enumerate(leads) if lead >= 0]
    has = np.zeros(t.size, dtype=np.int64)
    has[with_lead] = 1
    nwords = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    halves = np.concatenate(words).astype("<u8", copy=False).view("<u4")
    # index i of run j is half 2 * (words before run j) + i - has[j], or, for
    # i = 0 when has[j], the lead, placed after all the halves
    at = np.repeat(2 * (np.cumsum(nwords) - nwords) - has - first, t) + np.arange(t.sum())
    at[first[with_lead]] = halves.size + np.arange(len(with_lead))
    halves = np.concatenate((halves, np.array([leads[j] for j in with_lead], dtype="<u4")))
    # the high half of half * n is the draw; Lemire's method rejects it when
    # the low half is below 2**32 mod n
    product = (halves[at].astype(np.uint64) * np.uint64(n)).astype("<u8", copy=False).view("<u4")
    return product[1::2], product[0::2] < _RANGE32 % n


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
    bitwise, the one a sequential ``sgd_step`` loop reaches, because
    ``apply_batch`` treats every row on its own.
    """
    order = np.argsort(-steps, kind="stable")
    ends = steps[order]
    thetas = np.asarray(starts, dtype=float)[order]
    idx = indices[order]
    live = np.searchsorted(-ends, -np.arange(int(ends.max(initial=0))))  # ends > s
    for s, k in enumerate(live):
        thetas[:k] = update.apply_batch(thetas[:k], idx[:k, s], dataset)
    out = np.empty_like(thetas)
    out[order] = thetas
    return out
