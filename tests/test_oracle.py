"""The package against ``oracle.py``'s plain-Python reference, bitwise:
``quadratic_centers`` on its origin ball in d = 1 and 2, at a step size that
keeps runs from the ball inside it (0.5) and two at which the projection
acts (1.5, 1.9)."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from sgdcover.cover import _own_entry_runs, enumerate_cover
from sgdcover.losses import Dataset, quadratic_centers
from sgdcover.sgd import SGDStep, run_lockstep, sgd_step

_SPEC = importlib.util.spec_from_file_location("oracle", Path(__file__).with_name("oracle.py"))
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

CENTERS = {1: [[0.6], [-0.5], [0.1]], 2: [[0.6, -0.2], [-0.5, 0.5], [0.1, 0.7]]}
ETAS = [0.5, 1.5, 1.9]


def _setup(d, eta):
    samples = CENTERS[d]
    update = SGDStep(quadratic_centers(samples, R=1.0), eta)
    return update, Dataset(tuple(np.array(c) for c in samples)), samples


def _bits(points, d):
    """Float64 bit patterns of lists of floats, or of an array, as one list."""
    return np.asarray(points, dtype=float).reshape(-1, d).view(np.int64).tolist()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("T", range(5))
def test_cover_is_the_oracle(d, eta, T):
    update, ds, samples = _setup(d, eta)
    assert _bits(enumerate_cover(update, ds, T=T).points, d) == _bits(
        oracle.cover(samples, T, eta, 1.0), d)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("eta", ETAS)
def test_sgd_step_is_the_oracle(d, eta):
    """Points inside and outside the ball, each stepped by every sample."""
    update, ds, samples = _setup(d, eta)
    thetas = np.random.default_rng(d).uniform(-1.3, 1.3, size=(40, d))
    for theta, i in itertools.product(thetas, range(ds.n)):
        assert _bits(sgd_step(update, theta, i, ds), d) == _bits(
            oracle.step(theta.tolist(), samples[i], eta, 1.0), d)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("eta", ETAS)
def test_lockstep_and_own_entries_are_the_oracle(d, eta):
    """Runs of 0 to 4 steps from starts in the ball, and the own entries of
    verification runs: rerun by ``_own_entry_runs`` and stored in the T = 3
    cover at the row their last three samples spell in base n."""
    update, ds, samples = _setup(d, eta)
    rng = np.random.default_rng(10 + d)
    starts = rng.uniform(-0.7, 0.7, size=(60, d))
    steps = rng.integers(0, 5, size=60)
    indices = rng.integers(0, ds.n, size=(60, 4))
    ends = run_lockstep(update, starts, steps, indices, ds)
    assert _bits(ends, d) == _bits([oracle.run(s.tolist(), row[:t], samples, eta, 1.0)
                                    for s, t, row in zip(starts, steps, indices)], d)
    T, cov = 3, enumerate_cover(update, ds, T=3)
    _, last, own = _own_entry_runs(update, ds, T, trials=40, max_extra_steps=2, seed=d)
    expected = [oracle.own_entry(seq, T, samples, eta, 1.0) for seq in last.tolist()]
    assert _bits(own, d) == _bits(expected, d)
    rows = last @ ds.n ** np.arange(T - 1, -1, -1)
    assert _bits(cov.points[rows], d) == _bits(expected, d)
