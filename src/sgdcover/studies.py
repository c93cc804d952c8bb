"""Empirical studies beside certificate validation: gap estimation at a
trajectory endpoint, the alternating soft-clustering update and its
mixture-likelihood equivalence, the 1-D stability gap reproduction, and
Hoeffding sanity checks.  Only ``gap``, ``kmeans``, ``stability``,
``hoeffding`` and callers of these names load this module.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import hoeffding_tail, substream
from .families import stability_counterexample_1d
from .losses import Dataset, Distribution, LossFamily
from .sgd import SGDStep, run_lockstep
from .trajectory import Trajectory


# ---------------------------------------------------------------------------
# Gap estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapEstimate:
    """Empirical vs population risk at one trajectory endpoint."""

    empirical_risk: float
    population_risk: float | None
    gap: float | None
    mc_standard_error: float
    exact_population: bool
    t: int
    indices_digest: str
    flags: tuple[str, ...] = ()


def empirical_risk(family: LossFamily, dataset: Dataset, theta) -> float:
    return float(np.mean(family.values(theta, dataset)))


def population_risk(
    family: LossFamily,
    distribution: Distribution | None,
    theta,
    rng: np.random.Generator,
    m: int = 100_000,
) -> tuple[float | None, float, bool]:
    """(risk, standard error, exact?) — exact enumeration for finite support,
    otherwise a Monte Carlo estimate from m fresh draws of the caller's
    ``rng``.  ``m`` must be at least 1 even when it goes unused."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if distribution is None:
        return None, 0.0, False
    if distribution.finite:
        vals = family.values(theta, Dataset(distribution.support))
        return float(vals @ distribution.probs), 0.0, True
    vals = family.values(theta, Dataset.sample(distribution, m, rng))
    se = float(vals.std(ddof=1) / math.sqrt(m)) if m > 1 else float("inf")
    return float(vals.mean()), se, False


def estimate_gap(
    family: LossFamily,
    dataset: Dataset,
    trajectory: Trajectory,
    m: int = 100_000,
    seed: int = 0,
) -> GapEstimate:
    """Empirical risk over the dataset minus population risk at the endpoint.

    Population risk is enumerated exactly when the generator has finite
    support and estimated from m fresh i.i.d. draws (with reported standard
    error) otherwise; with no generator only the empirical side is returned.
    """
    theta = trajectory.endpoint
    f_hat = empirical_risk(family, dataset, theta)
    digest = hashlib.sha256(np.ascontiguousarray(trajectory.indices).tobytes()).hexdigest()[:16]
    f_pop, se, exact = population_risk(family, dataset.distribution, theta, substream(seed), m=m)
    flags = () if dataset.distribution is not None else ("population_risk_unavailable",)
    gap = None if f_pop is None else f_hat - f_pop
    return GapEstimate(
        empirical_risk=f_hat, population_risk=f_pop, gap=gap,
        mc_standard_error=se, exact_population=exact,
        t=trajectory.steps, indices_digest=digest, flags=flags,
    )


# ---------------------------------------------------------------------------
# Soft clustering: alternating update and mixture-likelihood equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EMStepResult:
    weights: np.ndarray   # (n, K), rows sum to 1
    centers: np.ndarray   # (K, d)
    held_fixed: tuple[int, ...]


def _scaled_distances(theta, dataset: Dataset, zeta: float):
    """The (K, d) centers, the (n, d) stacked samples and the (n, K) matrix
    of -zeta times each sample's squared distance to each center."""
    centers = np.atleast_2d(np.asarray(theta, dtype=float))
    samples = dataset.matrix.reshape(dataset.n, -1)
    d2 = np.sum((samples[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return centers, samples, -zeta * d2


def em_step(theta, dataset: Dataset, zeta: float) -> EMStepResult:
    """One alternating update: soft labels from the current centers, then
    each center moves to its label-weighted sample mean.

    A center whose total weight underflows to zero is held fixed and its
    index reported in ``held_fixed``.
    """
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    centers, samples, a = _scaled_distances(theta, dataset, zeta)
    w = np.exp(a - a.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    totals = w.sum(axis=0)
    new = centers.copy()
    held = []
    for j in range(centers.shape[0]):
        if totals[j] > 0.0:
            new[j] = (w[:, j] @ samples) / totals[j]
        else:
            held.append(j)
    return EMStepResult(weights=w, centers=new, held_fixed=tuple(held))


def run_em(theta0, dataset: Dataset, zeta: float,
           max_iters: int = 10_000) -> tuple[np.ndarray, int, bool]:
    """Iterate em_step until the centers stop changing bitwise or the
    iteration budget runs out; return the centers, the iterations run and
    whether the last one converged."""
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    centers = np.atleast_2d(np.asarray(theta0, dtype=float))
    for it in range(1, max_iters + 1):
        new = em_step(centers, dataset, zeta).centers
        if np.abs(new - centers).max() <= 0.0:
            return new, it, True
        centers = new
    return centers, max_iters, False


@dataclass(frozen=True)
class EMEquivalenceReport:
    gmm_log_likelihood: float
    affine_image: float
    residual: float
    slope: float
    intercept: float
    passed: bool


def verify_em_equivalence(theta, dataset: Dataset, zeta: float) -> EMEquivalenceReport:
    """Check that the equal-weight Gaussian-mixture log-likelihood with
    componentwise variance 1/(2*zeta) is an affine image of the soft
    clustering objective:

        gmm_ll(theta) = -zeta * n * F_hat(theta) + n * log((zeta/pi)^(d/2) / K)

    Both sides are evaluated directly; the report carries the relative
    residual and the affine coefficients, and passes at a residual <= 1e-8.
    """
    centers, samples, a = _scaled_distances(theta, dataset, zeta)
    K, d = centers.shape
    n = samples.shape[0]

    m = a.max(axis=1)
    lse = m + np.log(np.exp(a - m[:, None]).sum(axis=1))

    intercept_per_sample = 0.5 * d * math.log(zeta / math.pi) - math.log(K)
    gmm_ll = float(np.sum(lse + intercept_per_sample))

    f_hat = float(np.mean(-lse / zeta))  # soft clustering objective
    slope = -zeta * n
    intercept = n * intercept_per_sample
    image = slope * f_hat + intercept
    residual = abs(gmm_ll - image) / max(1.0, abs(gmm_ll), abs(image))
    return EMEquivalenceReport(
        gmm_log_likelihood=gmm_ll, affine_image=image, residual=residual,
        slope=slope, intercept=intercept, passed=residual <= 1e-8,
    )


# ---------------------------------------------------------------------------
# 1-D stability gap experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    mean_identical: float      # all-zeros dataset
    mean_swapped: float        # one sample swapped to z = 1
    separation: float
    converged_fraction: float
    basin_respected: bool
    eta: float
    steps: int
    inits: int
    n_samples: int


def stability_experiment(
    eta: float = 1.0 / 3.0,
    inits: int = 10_000,
    steps: int = 200,
    seed: int = 0,
    n_samples: int = 10,
) -> StabilityReport:
    """Run constant-step SGD on the two-basin 1-D family for the all-zeros
    dataset and the dataset with a single swapped sample, from uniform
    starts on [0, 4], and report the mean of f(endpoint; 1) for each.

    Deterministic descent on the all-zeros data converges to 1 or 3
    depending on the side of x = 2, giving a limit of 2; a single use of the
    swapped sample pulls the iterate into [0, 2], giving a limit of 0.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if inits < 1 or steps < 1 or n_samples < 1:
        raise ValueError("inits, steps, n_samples must be positive")

    step = SGDStep(stability_counterexample_1d(), eta)
    datasets = {
        "identical": Dataset((0,) * n_samples),
        "swapped": Dataset((1,) + (0,) * (n_samples - 1)),
    }
    means = {}
    converged = 0
    for tag, (label, data) in enumerate(datasets.items()):
        rng = substream(seed, tag)
        x = rng.uniform(0.0, 4.0, size=(inits, 1))
        idx = rng.integers(0, n_samples, size=(steps, inits))
        x = run_lockstep(step, x, np.full(inits, steps), idx.T, data)[:, 0]
        means[label] = float(np.mean((x - 1.0) ** 2))
        converged += int(np.sum((np.abs(x - 1.0) <= 1e-6) | (np.abs(x - 3.0) <= 1e-6)))

    # deterministic basin check on the all-zeros data
    grid = np.concatenate([np.linspace(0.0, 2.0, 21), np.linspace(2.0 + 1e-9, 4.0, 21)])
    xg = run_lockstep(step, grid[:, None], np.full(grid.size, steps),
                      np.zeros((grid.size, steps), dtype=np.int64), datasets["identical"])[:, 0]
    basin = bool(np.all(np.abs(xg[:21] - 1.0) <= 1e-6) and np.all(np.abs(xg[21:] - 3.0) <= 1e-6))

    return StabilityReport(
        mean_identical=means["identical"],
        mean_swapped=means["swapped"],
        separation=means["identical"] - means["swapped"],
        converged_fraction=converged / (2.0 * inits),
        basin_respected=basin,
        eta=eta, steps=steps, inits=inits, n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Hoeffding sanity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoeffdingCell:
    n: int
    epsilon: float
    empirical_rate: float
    bound: float
    ok: bool


@dataclass(frozen=True, eq=False)
class HoeffdingReport:
    cells: tuple[HoeffdingCell, ...]
    resamplings: int
    passed: bool


def hoeffding_check(
    family: LossFamily,
    theta,
    n_grid: Sequence[int],
    epsilon_grid: Sequence[float],
    resamplings: int,
    distribution: Distribution,
    seed: int = 0,
) -> HoeffdingReport:
    """At a fixed parameter, compare the empirical frequency of
    |sample mean - true mean| >= eps against the two-sided tail bound on an
    (n, eps) grid, allowing three-sigma binomial noise on the frequency."""
    if not distribution.finite:
        raise ValueError("the check needs a finitely supported distribution")
    if resamplings < 1:
        raise ValueError("resamplings must be positive")
    if not (len(n_grid) and len(epsilon_grid)):
        raise ValueError("n_grid and epsilon_grid must be nonempty")
    if min(n_grid) < 1:
        raise ValueError(f"every n in n_grid must be >= 1, got {min(n_grid)}")
    values = family.values(theta, Dataset(distribution.support))
    mean = float(values @ distribution.probs)
    width = float(values.max() - values.min())
    if width == 0.0:
        raise ValueError("loss is constant over the support; the tail bound is vacuous")

    cells = []
    for gi, n in enumerate(n_grid):
        rng = substream(seed, gi)
        draws = rng.choice(values.size, size=(resamplings, int(n)), p=distribution.probs)
        means = values[draws].mean(axis=1)
        dev = np.abs(means - mean)
        for eps in epsilon_grid:
            rate = float(np.mean(dev >= eps))
            # eps = 0 makes the tail bound vacuously 1
            bound = 1.0 if eps == 0 else hoeffding_tail(int(n), float(eps), width)
            noise = 3.0 * math.sqrt(bound * (1.0 - bound) / resamplings)
            cells.append(HoeffdingCell(
                n=int(n), epsilon=float(eps), empirical_rate=rate,
                bound=bound, ok=rate <= bound + noise,
            ))
    return HoeffdingReport(
        cells=tuple(cells), resamplings=resamplings,
        passed=all(c.ok for c in cells),
    )
