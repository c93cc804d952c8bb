"""One fresh interpreter of the benchmark: ``python child.py SPEC RESULT``.

SPEC is a JSON file written by run.py; RESULT is where this process writes
its JSON report.  Modes:

- ``run``: import ``sgdcover.cli`` (the monotonic clock reading right after
  the import marks the end of set-up), call ``cli.run(argv)`` once, traced
  when ``trace`` is set, and report the wall time of ``run``, its exit code,
  the peak RSS of this process and the trace.  The reference kernel runs
  once before and once after ``run``, outside its timing.
- ``probe``: call ``enumerate_cover`` or ``validate_bound`` directly on the
  workload's inputs, twice with ``threads=1`` and twice with ``threads=2``; for
  ``enumerate_cover`` also take the tracemalloc peak of one more call.
"""

import sys
import time

# The reference kernel's median time on the host where the benchmark was
# defined (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).  Timings are scaled
# by REFERENCE_NOMINAL_S / (the kernel's time in the same process), which
# cancels the host's drift in speed; changing the kernel or this constant
# rescales every timing and needs a new baseline.
REFERENCE_STEPS = 12_000
REFERENCE_NOMINAL_S = 0.11


def reference_kernel() -> float:
    """Seconds for a fixed loop with the program's mix of work: small numpy
    arrays, a finiteness check, a contraction step and a projection."""
    import numpy as np

    z = np.array([0.3, -0.4])
    theta = np.zeros(2)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError("reference kernel left the finite range")
        theta = theta - 0.5 * (theta - z)
        norm = float(np.linalg.norm(theta))
        if norm > 1.0:
            theta = theta * (1.0 / norm)
    return time.perf_counter() - t0


def _run(cli, spec: dict) -> dict:
    run = cli.run
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        run = install(tracer)
    ref_before = reference_kernel()
    t0 = time.perf_counter()
    code = run(spec["argv"])
    run_s = time.perf_counter() - t0
    ref_after = reference_kernel()

    import resource

    return {
        "run_s": run_s,
        "ref_before_s": ref_before,
        "ref_after_s": ref_after,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
    }


def _probe(spec: dict) -> dict:
    import json
    import tracemalloc

    from sgdcover import (Dataset, Scenario, SGDStep, enumerate_cover,
                          family_from_descriptor, uniform_over, validate_bound)

    with open(spec["scenario"]) as fh:
        scen = json.load(fh)
    family = family_from_descriptor(scen["family"])
    dist = uniform_over(scen["family"]["centers"])
    if spec["call"] == "enumerate_cover":
        update = SGDStep(family, scen["eta"], domain=family.domain)
        data = Dataset(dist.support, dist)

        def call(threads):
            return enumerate_cover(update, data, spec["T"], threads=threads)
    else:
        scenario = Scenario(name=family.name, family=family, distribution=dist,
                            domain=family.domain, eta=scen["eta"], n=scen["dataset"]["n"])

        def call(threads):
            return validate_bound(scenario, spec["resamplings"], spec["trials"],
                                  spec["delta"], seed=spec["seed"], threads=threads)

    # ABBA order cancels a linear drift of the machine's speed.
    out = {"threads1_s": 0.0, "threads2_s": 0.0}
    for threads in (1, 2, 2, 1):
        t0 = time.perf_counter()
        call(threads)
        out[f"threads{threads}_s"] += time.perf_counter() - t0
    if spec["call"] == "enumerate_cover":
        tracemalloc.start()
        cover = call(1)
        out["tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["entries"] = len(cover)
    return out


def main(spec_path: str, result_path: str) -> None:
    import sgdcover.cli as cli

    ready = time.monotonic()
    import json

    with open(spec_path) as fh:
        spec = json.load(fh)
    result = _run(cli, spec) if spec["mode"] == "run" else _probe(spec)
    result["ready"] = ready
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
