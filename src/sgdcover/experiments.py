"""Certificate validation by dataset resampling: a scenario, its report,
and ``validate_bound``.  The other empirical studies are in ``studies``."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_strongly_convex
from .core import ConvexDomain, all_finite
from .losses import Dataset, Distribution, LossFamily
from .sgd import SGDStep, contraction_factor, draw_runs, run_lockstep


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named experimental setup: family, sampling distribution, feasible
    set, step size, and dataset size."""

    name: str
    family: LossFamily
    distribution: Distribution
    domain: ConvexDomain
    eta: float
    n: int


@dataclass(frozen=True, eq=False)
class ValidationReport:
    scenario: str
    resamplings: int
    violations: int
    certificate_total: float
    max_observed_gap: float
    delta: float
    passed: bool
    max_gaps: tuple[float, ...]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["resampling", "max_abs_gap", "violated"])
            for r, g in enumerate(self.max_gaps):
                writer.writerow([r, repr(float(g)), int(g > self.certificate_total)])


def validate_bound(
    scenario: Scenario,
    resamplings: int,
    trials: int,
    delta: float,
    seed: int = 0,
    shrink: float = 1.0,
    t_band: int = 50,
    threads: int = 1,
) -> ValidationReport:
    """Resample the dataset, run many trajectories (random start, random
    t in [T, T + t_band]), and PASS iff the fraction of datasets whose worst
    endpoint gap exceeds the THM 2.3 certificate (``bound_strongly_convex``)
    is at most delta, for delta in (0, 1).

    ``shrink`` divides the certificate (a shrink of 50 gives the negative
    control that must FAIL).  The family must declare alpha, beta, B, L and
    R, and population risk must be exactly enumerable; ``contraction_factor``
    then refuses a step size outside (0, 2/beta).

    A resampled dataset is the array of n support positions
    ``distribution.positions`` draws.  Resampling r draws from
    ``substream(seed, r)``: its dataset, then its trials' starts, step
    counts and indices, each by one array call (``draw_runs`` with the
    dataset draw as the prelude).
    Every resampling's trials then run in one lockstep over the m support
    points, and each endpoint equals, bitwise, the one a run over its own
    resampled dataset reaches.  Each resampling is scored from its one
    (trials, m) loss matrix: the population risk weighs its columns, the
    empirical risk averages the columns its positions pick.  Beyond the runs' starts and
    indices, memory is trials * max(n, m) floats per resampling.  A
    non-finite gradient raises FloatingPointError.
    ``threads`` has no effect; it stays only until perfbench's
    ``threads2_ratio`` probe, which passes it, is retired.
    """
    if resamplings < 1 or trials < 1:
        raise ValueError("validation needs at least one resampling and one trial")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (math.isfinite(shrink) and shrink > 0):
        raise ValueError(f"shrink must be finite and positive, got {shrink}")
    if t_band < 0:
        raise ValueError(f"t_band must be nonnegative, got {t_band}")
    fam = scenario.family
    c = fam.constants
    if c.alpha is None or c.beta is None or c.B is None or c.L is None or c.R is None:
        raise ValueError("scenario family must declare alpha, beta, L, B, R")
    if not scenario.distribution.finite:
        raise ValueError("validation needs a finitely supported distribution")
    gamma = contraction_factor(c.alpha, c.beta, scenario.eta)
    certificate = bound_strongly_convex(scenario.n, delta, c.B, c.L, c.R, gamma)
    threshold = certificate.total / shrink
    T = certificate.inputs["T"]

    dist, n = scenario.distribution, scenario.n
    starts, steps, indices, positions = draw_runs(seed, resamplings, trials, scenario.domain,
                                                  T, T + t_band, n,
                                                  prelude=lambda r, rng: dist.positions(rng, n))
    for r, at in enumerate(positions):  # dataset positions -> support positions
        block = indices[r * trials:(r + 1) * trials]
        block[:] = at[block]
    data = Dataset(dist.support)
    step = SGDStep(fam, scenario.eta, domain=scenario.domain)
    endpoints = run_lockstep(step, starts, steps, indices, data)

    probs = dist.probs
    max_gaps = []
    for r, at in enumerate(positions):
        losses = fam.values(endpoints[r * trials:(r + 1) * trials], data)  # (trials, m)
        # the gather comes out F-ordered; its row means must be those of a
        # C-ordered (trials, n) loss matrix, bitwise
        f_hat = np.ascontiguousarray(losses[:, at]).mean(axis=1)
        # a sequential sum in support order, not a dot product: the frozen
        # max_gaps depend on this rounding
        f_pop = 0
        for p, v in zip(probs, losses.T):
            f_pop = f_pop + p * v
        gaps = np.abs(f_hat - f_pop)
        if not all_finite(gaps):
            raise FloatingPointError(f"resampling {r} has a non-finite loss gap")
        max_gaps.append(max(0.0, float(gaps.max())))
    max_gaps = tuple(max_gaps)
    violations = sum(g > threshold for g in max_gaps)
    return ValidationReport(
        scenario=scenario.name,
        resamplings=resamplings,
        violations=violations,
        certificate_total=threshold,
        max_observed_gap=max(max_gaps),
        delta=delta,
        passed=violations / resamplings <= delta,
        max_gaps=max_gaps,
    )
