"""Shared test reference for the seeded run draws."""

import numpy as np
import pytest

from sgdcover.core import substream


def _reference_runs(seed, streams, runs, domain, t_min, t_max, n, prelude=None):
    """``sgd.draw_runs`` as its docstring states it: stream k is a fresh
    ``substream(seed, k)`` that serves the prelude, then the runs' starts,
    step counts and (runs, t_max) index rows, one array call each; a run of
    t steps keeps the first t entries of its row, then zeros."""
    starts, steps, indices, preluded = [], [], [], []
    for k in range(streams):
        rng = substream(seed, k)
        if prelude is not None:
            preluded.append(prelude(k, rng))
        starts.extend(domain.sample_batch(rng, runs))
        counts = rng.integers(t_min, t_max + 1, size=runs).tolist()
        for t, row in zip(counts, rng.integers(0, n, size=(runs, t_max))):
            steps.append(t)
            indices.append(np.concatenate([row[:t], np.zeros(t_max - t, dtype=np.int64)]))
    m = len(steps)
    return (np.array(starts, dtype=float).reshape(m, domain.dim),
            np.array(steps, dtype=np.int64),
            np.array(indices, dtype=np.int64).reshape(m, t_max), preluded)


@pytest.fixture(scope="session")
def reference_runs():
    """``_reference_runs``, for the tests that compare draws with it."""
    return _reference_runs
