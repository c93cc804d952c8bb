"""Tracing for one sgdcover CLI invocation, installed from outside.

The package's public functions are wrapped by rebinding module and class
attributes inside the child process; no file of the package changes.

- Coarse calls (``cli.run``, ``enumerate_cover``, ``verify_cover``,
  ``write_jsonl``, ``validate_bound``, ``bound_strongly_convex``,
  ``sample_attractor``, ``box_counting_dimension``) become spans with a
  parent link, start, end, total and self time.
- Hot leaf calls (``as_point``, ``Ball.project``, the family's ``grad`` and
  ``value``, ``sgd_step``, ``IFSModel.apply``) are aggregated per enclosing
  span as call count, summed time and summed self time, so memory stays
  constant however many calls a run makes.

Self time is a call's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (name, span id) -> [calls, total_s, self_s, active]
        self.leaves: dict[tuple, list] = {}
        self._open: list[int] = []           # ids of the open coarse spans
        self._child_s: list[list[float]] = []  # per open call: traced child time

    def leaf(self, name: str, fn, active=None):
        """Wrap a hot call; ``active(args, result)`` marks calls that did work."""
        leaves, open_spans, child_s = self.leaves, self._open, self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = [0.0]
            child_s.append(acc)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child_s.pop()
                if child_s:
                    child_s[-1][0] += dt
            key = (name, open_spans[-1] if open_spans else None)
            rec = leaves.get(key)
            if rec is None:
                rec = leaves[key] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - acc[0]
            if active is not None and active(args, result):
                rec[3] += 1
            return result

        return wrapper

    def span(self, name: str, fn, info=None):
        """Wrap a coarse call; ``info(args, result)`` adds fields to its span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name,
                      "parent": self._open[-1] if self._open else None}
            self.spans.append(record)
            self._open.append(record["id"])
            acc = [0.0]
            self._child_s.append(acc)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._child_s.pop()
                self._open.pop()
                if self._child_s:
                    self._child_s[-1][0] += t1 - t0
                record.update(start=t0, end=t1, s=t1 - t0, self_s=t1 - t0 - acc[0])
            if info is not None:
                record.update(info(args, result))
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [
                {"name": name, "parent": parent, "calls": rec[0], "s": rec[1],
                 "self_s": rec[2], "active": rec[3]}
                for (name, parent), rec in self.leaves.items()
            ],
        }


def _moved(args, result) -> bool:
    """A projection is active when its output differs from its input."""
    x = args[1]
    return result is not x and not np.array_equal(result, x)


def install(tracer: Tracer):
    """Wrap the package's public functions; return the traced ``cli.run``."""
    from sgdcover import bounds, cli, core, cover, experiments, losses, sgd

    original = core.as_point
    as_point = tracer.leaf("core.as_point", original)
    for module in (core, losses, sgd, cover, experiments, bounds, cli):
        if getattr(module, "as_point", None) is original:
            module.as_point = as_point
    core.Ball.project = tracer.leaf("core.project", core.Ball.project, active=_moved)
    cover.sgd_step = tracer.leaf("sgd.sgd_step", cover.sgd_step)
    cover.IFSModel.apply = tracer.leaf("cover.IFSModel.apply", cover.IFSModel.apply)

    family_from_descriptor = cli.family_from_descriptor

    def traced_family(desc):
        family = family_from_descriptor(desc)
        return dataclasses.replace(
            family,
            grad=tracer.leaf("losses.grad", family.grad),
            value=tracer.leaf("losses.value", family.value),
        )

    cli.family_from_descriptor = traced_family
    cli.enumerate_cover = tracer.span(
        "cover.enumerate_cover", cli.enumerate_cover,
        info=lambda args, result: {"entries": len(result)})
    cli.verify_cover = tracer.span(
        "cover.verify_cover", cli.verify_cover,
        info=lambda args, result: {"trials": result.trials})
    cover.CoverSet.write_jsonl = tracer.span(
        "cover.write_jsonl", cover.CoverSet.write_jsonl,
        info=lambda args, result: {"bytes": os.path.getsize(args[1])})
    cli.validate_bound = tracer.span(
        "experiments.validate_bound", cli.validate_bound,
        info=lambda args, result: {"resamplings": result.resamplings})
    experiments.bound_strongly_convex = tracer.span(
        "bounds.bound_strongly_convex", experiments.bound_strongly_convex)
    cover.IFSModel.sample_attractor = tracer.span(
        "cover.sample_attractor", cover.IFSModel.sample_attractor)
    cli.box_counting_dimension = tracer.span(
        "cover.box_counting_dimension", cli.box_counting_dimension)
    return tracer.span("cli.run", cli.run)
