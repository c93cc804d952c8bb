"""A plain-Python reference for ``quadratic_centers`` on its origin ``Ball``
in d <= 2, written from the update rule alone, with Python floats and
``math.sqrt``, and sharing no code with the package it checks:

- one projected step: u = t - eta * (t - z), then 0.0 + u * (r / |u|)
  wherever |u| > r, |u| being the square root of u's squares summed in order;
- the cover of horizon T: every one of the n^T sample sequences, in
  ``itertools.product`` order, applied to the origin;
- a run's own entry: its last T samples applied to the origin.

Points are lists of floats.  ``test_oracle.py`` compares the package's
``sgd_step``, ``enumerate_cover`` and ``run_lockstep`` with it, bitwise.
pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import itertools
import math


def step(theta: list, z: list, eta: float, radius: float) -> list:
    """The gradient step on 0.5 |theta - z|^2, projected onto the radius-r ball."""
    u = [t - eta * (t - c) for t, c in zip(theta, z)]
    squares = 0.0
    for x in u:
        squares += x * x
    norm = math.sqrt(squares)
    if norm > radius:
        u = [0.0 + x * (radius / norm) for x in u]
    return u


def run(start: list, seq, samples: list, eta: float, radius: float) -> list:
    """``start`` after one ``step`` per sample index of ``seq``, in order."""
    theta = list(start)
    for i in seq:
        theta = step(theta, samples[i], eta, radius)
    return theta


def cover(samples: list, T: int, eta: float, radius: float) -> list:
    """The n^T endpoints from the origin, the first sample most significant."""
    origin = [0.0] * len(samples[0])
    return [run(origin, seq, samples, eta, radius)
            for seq in itertools.product(range(len(samples)), repeat=T)]


def own_entry(seq, T: int, samples: list, eta: float, radius: float) -> list:
    """The cover entry of a run over ``seq``: its last T samples from the origin."""
    return run([0.0] * len(samples[0]), list(seq)[len(seq) - T:], samples, eta, radius)
