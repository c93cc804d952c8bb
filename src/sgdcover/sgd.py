"""Constant-step projected SGD engine, synchronous coupling, and the
closed-form contraction factor for strongly convex and smooth losses."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (_MASK32, Ball, ConvexDomain, DETERMINISTIC_TOL, _ball_direction,
                   _keyed_streams, all_finite, as_point, as_rows, linalg_norms, substream)
from .losses import Dataset, LossFamily

SCHEMES = ("explicit", "uniform", "without_replacement", "shuffle")


@dataclass(frozen=True, eq=False)
class SGDStep:
    """One projected gradient update theta -> Pi(theta - eta grad f(theta; z)).

    Pi projects onto ``domain``, else onto the family's own domain.
    ``WholeSpace(d)`` projects as the identity, so ``domain=WholeSpace(d)``
    means no projection: the raw update.  A raw run that must stay bounded
    (as the clustering analysis assumes) is checked with
    ``run_trajectory(..., invariant_domain=...)``.
    """

    family: LossFamily
    eta: float
    domain: ConvexDomain | None = None

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError("eta must be nonnegative")
        if self.effective_domain is None:
            raise ValueError("no domain to project onto; pass domain=WholeSpace(d) for none")

    @property
    def effective_domain(self) -> ConvexDomain:
        return self.domain if self.domain is not None else self.family.domain

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        g = np.asarray(self.family.grad(theta, z), dtype=float)
        out = _checked_update(theta, self.eta, g)
        return self.effective_domain.project(out)

    def apply_batch(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """Row k is ``apply(thetas[k], dataset.samples[idx[k]])``, bitwise."""
        out = _checked_update(thetas, self.eta, self.family.grad_rows(thetas, dataset, idx))
        return self.effective_domain.project_batch(out)


def _checked_update(theta: np.ndarray, eta: float, g: np.ndarray) -> np.ndarray:
    """``theta - eta * g``, refused with FloatingPointError when not finite,
    before any projection.  A non-finite gradient makes the update non-finite
    too, so one check covers both faults; the gradient is read again only to
    name the fault."""
    out = theta - eta * g
    if not all_finite(out):
        raise FloatingPointError("non-finite gradient" if not all_finite(g)
                                 else "update produced non-finite values")
    return out


@dataclass(frozen=True, eq=False)
class CustomMap:
    """An arbitrary iterative update g(theta; z)."""

    fn: Callable[[np.ndarray, object], np.ndarray]
    domain: ConvexDomain | None = None

    @property
    def effective_domain(self) -> ConvexDomain | None:
        return self.domain

    def apply(self, theta: np.ndarray, z) -> np.ndarray:
        out = np.asarray(self.fn(theta, z), dtype=float)
        if not all_finite(out):
            raise FloatingPointError("update produced non-finite values")
        return out

    def apply_batch(self, thetas: np.ndarray, idx, dataset: Dataset) -> np.ndarray:
        """Per-row fallback: row k is ``apply(thetas[k], dataset.samples[idx[k]])``."""
        samples = dataset.samples
        return np.stack([self.apply(theta, samples[i]) for theta, i in zip(thetas, idx)])


UpdateMap = Union[SGDStep, CustomMap]


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


def contraction_factor(alpha: float, beta: float, eta: float) -> float:
    """Closed-form coupling ratio sqrt(1 - 2*alpha*eta + alpha*beta*eta^2)
    of one gradient step on an alpha-strongly-convex, beta-smooth loss.

    Requires 0 < alpha <= beta and 0 < eta < 2/beta, which keeps the value
    in [0, 1); a slightly negative radicand from rounding is clamped to 0.
    """
    if not (0 < alpha <= beta):
        raise ValueError("need 0 < alpha <= beta")
    if not 0 < eta < 2.0 / beta:
        raise ValueError("step size must satisfy 0 < eta < 2/beta for this certificate")
    radicand = 1.0 - 2.0 * alpha * eta + alpha * beta * eta**2
    if radicand < -DETERMINISTIC_TOL:
        raise ValueError(f"negative radicand {radicand}")
    return math.sqrt(max(radicand, 0.0))


def sgd_step(update: UpdateMap, theta, sample_index: int, dataset: Dataset) -> np.ndarray:
    """Apply one update using sample ``sample_index`` of the dataset."""
    theta = as_point(theta)
    if not 0 <= sample_index < dataset.n:
        raise IndexError(f"sample index {sample_index} out of range [0, {dataset.n})")
    return update.apply(theta, dataset.samples[sample_index])


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
    if one is given (the generator is valid only during that call), and
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
    r / 2**32 per draw), and every stream when a range exceeds 2**32, is
    drawn again by that loop.

    Returns (starts (m, d), steps (m,), indices (m, t_max), the prelude's
    result per stream, or [] without a prelude), with m = streams * runs.
    Row j of the index array is padded with zeros past ``steps[j]``.
    """
    m = streams * runs
    starts = np.empty((m, domain.dim))
    steps = np.empty(m, dtype=np.int64)
    indices = np.zeros((m, t_max), dtype=np.int64)
    preluded = [None] * streams if prelude is not None else []
    redraw = set()
    if max(t_max - t_min + 1, n) > _RANGE32:  # numpy draws from whole words here
        redraw.update(range(streams))
        drawn = iter(())
    else:
        drawn = _raw_runs(seed, streams, runs, domain, t_min, t_max, n, prelude, preluded)
    done = 0
    while block := list(itertools.islice(drawn, _RUN_BLOCK)):
        points, scales, counts, step_rejected, leads, words = zip(*block)
        rows = slice(done, done + len(block))
        done = rows.stop
        starts[rows] = points
        if isinstance(domain, Ball):  # center + direction * scale, as Ball.sample
            starts[rows] *= np.array(scales)[:, None]
            starts[rows] += domain.center
        steps[rows] = t = np.array(counts, dtype=np.int64)
        redraw.update(j // runs for j in itertools.compress(range(rows.start, rows.stop),
                                                             step_rejected))
        if n > 1:
            values, rejected = _decode_indices(t, leads, words, n)
            indices[rows][np.arange(t_max) < t[:, None]] = values
            if rejected.any():
                run = np.repeat(np.arange(rows.start, rows.stop), t)[rejected]
                redraw.update((run // runs).tolist())
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


def _raw_runs(seed, streams, runs, domain, t_min, t_max, n, prelude, preluded):
    """Each run of ``draw_runs``, in draw order: its start (a Ball's as a
    direction and scale), its step count t, whether t came from a rejected
    draw, the pending half its first index takes (-1 for none) and the raw
    words its other indices take."""
    span = t_max - t_min + 1
    span_floor = _RANGE32 % span  # Lemire rejects a product whose low half is below
    ball, dim = isinstance(domain, Ball), domain.dim
    for k, rng in enumerate(_keyed_streams(seed, streams)):
        bits = rng.bit_generator
        raw = bits.random_raw
        pending = -1  # the high half PCG64 keeps for its next 32-bit draw
        if prelude is not None:
            preluded[k] = prelude(k, rng)
            state = bits.state
            if state["has_uint32"]:
                pending = state["uinteger"]
        for _ in range(runs):
            if ball:
                start, scale = _ball_direction(rng, dim, domain.radius)
            else:
                start, scale = domain.sample(rng), 1.0
            t, rejected = t_min, False
            if span > 1:  # a range of 1 consumes nothing
                if pending < 0:
                    word = raw()
                    half, pending = word & _MASK32, word >> 32
                else:
                    half, pending = pending, -1
                scaled = half * span
                rejected = scaled & _MASK32 < span_floor
                t += scaled >> 32
            need, lead = (t if n > 1 else 0), -1
            if need and pending >= 0:
                lead, pending = pending, -1
                need -= 1
            words = raw((need + 1) // 2)
            if need % 2:
                pending = int(words[-1]) >> 32
            yield start, scale, t, rejected, lead, words


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
    domain = update.effective_domain
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
