"""sgdcover benchmark: four CLI workloads, end-to-end metrics, and a traced
per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation of the program is ``sgdcover.cli.run(argv)`` in a
fresh interpreter, one at a time (a closed loop with a single client), with
the BLAS/OpenMP thread counts pinned to 1.  Inputs are made from ``--seed``;
every output is checked (see workloads.py) and a failed check counts toward
``error_rate``.

``--trace 0`` repeats the invocation for about ``--seconds`` and reports the
end-to-end metrics, measured from outside the program.  Every reported time
is scaled by a fixed reference kernel timed in the same child process (see
child.py), which cancels most of a shared host's drift in speed; the text
report prints the wall times next to the scaled ones.  ``--trace 1``
alternates untraced and traced invocations for about ``--seconds``, adds the
import-time and thread-count probes, and reports the per-layer metrics; the
last trace is written to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of ``BENCHMARK.json``.  The exit code is 0 when every check
passed, 1 when a check failed and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from child import REFERENCE_NOMINAL_S
from workloads import (ENUM_T, OUT, VALIDATE_DELTA, VALIDATE_RESAMPLINGS, VALIDATE_TRIALS,
                       WORKLOADS, CheckFailed, Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LEAVES = ("core.as_point", "core.project", "losses.grad", "losses.value", "sgd.sgd_step")
# What a failed invocation or probe raises: a wrong or missing output, a
# child that hung, crashed or wrote malformed JSON.
FAILURES = (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SGDCOVER_CAP")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(env: dict, workload: Workload) -> dict:
    """Versions, processor and cache sizes, next to the working set."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "working_set_bytes": workload.working_set_bytes,
        "loop": "closed, 1 client, 1 invocation at a time",
    }


class Runner:
    """Invokes the program in fresh interpreters inside one work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.argv = workload.prepare(workdir, seed)
        self.attempted = 0
        self.failures: list[str] = []

    def verify(self, ok: bool, problem: str) -> None:
        """Count one check of the run; record ``problem`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(problem)

    def child(self, spec: dict) -> dict:
        """Run child.py on ``spec``; return its report with the set-up time."""
        spec_path, result_path = self.workdir / "spec.json", self.workdir / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path), str(result_path)],
            env=self.env, cwd=self.workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise CheckFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        report = json.loads(result_path.read_text())
        report["setup_s"] = report["ready"] - t0
        return report

    def invoke(self, trace: bool) -> dict | None:
        """One checked CLI invocation; None when it failed."""
        self.attempted += 1
        out = self.workdir / OUT
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        try:
            report = self.child({"mode": "run", "argv": self.argv, "trace": trace})
            # Scale each timing by the speed of the reference kernel measured
            # next to it in the same process: set-up by the kernel run right
            # after the import, the run by the mean of the kernels around it.
            report["setup_scale"] = REFERENCE_NOMINAL_S / report["ref_before_s"]
            report["run_scale"] = REFERENCE_NOMINAL_S / (
                (report["ref_before_s"] + report["ref_after_s"]) / 2)
            report["quality"] = self.workload.check(self.workdir, self.seed, report["exit_code"])
        except FAILURES as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return report


def _loop(seconds: float, body) -> None:
    """Call ``body`` until the next call would end after ``seconds``."""
    start = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        body()
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def tail(values: list) -> str:
    """The highest percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return f"none (n={n} < 11)"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} (n={n})"


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    reports = []

    def body():
        report = runner.invoke(trace=False)
        if report is not None:
            reports.append(report)

    _loop(seconds, body)
    if not reports:
        return {}, []
    w = runner.workload
    setup = [r["setup_s"] * r["setup_scale"] for r in reports]
    run = [r["run_s"] * r["run_scale"] for r in reports]
    rss = [r["maxrss_kb"] / 1024 for r in reports]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run),
        "peak_rss_mb": statistics.median(rss),
        "work_per_s": w.work / statistics.median(run),
    }
    wall_setup = [r["setup_s"] for r in reports]
    wall_run = [r["run_s"] for r in reports]
    ref = [r["ref_before_s"] for r in reports] + [r["ref_after_s"] for r in reports]
    lines = [
        f"  setup_s            median {metrics['setup_s']:.6g} s scaled, tail {tail(setup)}; "
        f"wall median {statistics.median(wall_setup):.6g} s, tail {tail(wall_setup)}",
        f"  run_s              median {metrics['run_s']:.6g} s scaled, tail {tail(run)}; "
        f"wall median {statistics.median(wall_run):.6g} s, tail {tail(wall_run)}",
        f"  reference kernel   median {statistics.median(ref):.6g} s "
        f"(nominal {REFERENCE_NOMINAL_S} s), min {min(ref):.6g} s, max {max(ref):.6g} s",
        f"  peak_rss_mb        median {metrics['peak_rss_mb']:.6g} MB, max {max(rss):.6g} MB",
        f"  {w.work_unit + '_per_s':18} {metrics['work_per_s']:.6g} 1/s scaled "
        f"({w.work} {w.work_unit} per run)",
    ]
    for name, values in _quality(reports).items():
        lines.append(f"  {name:18} median {statistics.median(values):.6g}, "
                     f"min {min(values):.6g}, max {max(values):.6g}")
    return metrics, lines


def _quality(reports: list) -> dict:
    out = defaultdict(list)
    for r in reports:
        for name, value in r["quality"].items():
            out[name].append(value)
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_metrics(trace: dict, scale: float) -> dict:
    """Per-layer metrics of one traced invocation, times multiplied by ``scale``."""
    leaves = defaultdict(lambda: defaultdict(float))
    spans = defaultdict(lambda: defaultdict(float))
    span_names = {s["id"]: s["name"] for s in trace["spans"]}
    for leaf in trace["leaves"]:
        for key in ("calls", "active"):
            leaves[leaf["name"]][key] += leaf[key]
        for key in ("s", "self_s"):
            leaves[leaf["name"]][key] += leaf[key] * scale
        if span_names.get(leaf["parent"]) == "cover.verify_cover":
            leaves[leaf["name"]]["under_verify"] += leaf["calls"]
    for span in trace["spans"]:
        for key, value in span.items():
            if key in ("s", "self_s"):
                value *= scale
            if key not in ("id", "name", "parent", "start", "end"):
                spans[span["name"]][key] += value

    m = {}
    for name in LEAVES:
        m[f"{name}.calls"] = int(leaves[name]["calls"])
        m[f"{name}.self_s"] = leaves[name]["self_s"]
    m["core.project.active_ratio"] = _ratio(leaves["core.project"]["active"],
                                            leaves["core.project"]["calls"])
    step = leaves["sgd.sgd_step"]
    m["sgd.sgd_step.us_per_call"] = 1e6 * _ratio(step["s"], step["calls"])
    enum = spans["cover.enumerate_cover"]
    m["cover.enumerate_cover.s"] = enum["s"]
    m["cover.enumerate_cover.entries_per_s"] = _ratio(enum["entries"], enum["s"])
    write = spans["cover.write_jsonl"]
    m["cover.write_jsonl.s"] = write["s"]
    m["cover.write_jsonl.mb_per_s"] = _ratio(write["bytes"] / 1e6, write["s"])
    verify = spans["cover.verify_cover"]
    m["cover.verify_cover.s"] = verify["s"]
    m["cover.verify_cover.trials_per_s"] = _ratio(verify["trials"], verify["s"])
    m["cover.verify_cover.steps_per_trial"] = _ratio(step["under_verify"], verify["trials"])
    m["cover.sample_attractor.s"] = spans["cover.sample_attractor"]["s"]
    m["cover.IFSModel.apply.calls"] = int(leaves["cover.IFSModel.apply"]["calls"])
    m["cover.box_counting_dimension.s"] = spans["cover.box_counting_dimension"]["s"]
    validate = spans["experiments.validate_bound"]
    m["experiments.validate_bound.s"] = validate["s"]
    m["experiments.validate_bound.self_s"] = validate["self_s"]
    m["experiments.validate_bound.resamplings_per_s"] = _ratio(validate["resamplings"],
                                                               validate["s"])
    m["bounds.bound_strongly_convex.s"] = spans["bounds.bound_strongly_convex"]["s"]
    m["cli.run.self_s"] = spans["cli.run"]["self_s"]
    return m


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".steps_per_trial", ".active_ratio"))


def import_times(runner: Runner) -> dict:
    """Cumulative import times of sgdcover and scipy.spatial (-X importtime),
    scaled by the reference kernel run in the same process after the import."""
    code = (f"import sgdcover.cli, sys; sys.path.insert(0, {str(HERE)!r}); "
            f"from child import reference_kernel; print(reference_kernel())")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=runner.env, cwd=runner.workdir, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"import failed: {proc.stderr.strip()[-400:]}")
    scale = REFERENCE_NOMINAL_S / float(proc.stdout)
    sgdcover_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)$", line)
        if not match:
            continue
        cumulative, depth, module = int(match[1]), len(match[2]), match[3]
        if depth == 1 and module.split(".")[0] == "sgdcover":
            sgdcover_us += cumulative
        if module == "scipy.spatial" and not scipy_us:
            scipy_us = cumulative
    return {"setup.import_sgdcover_s": sgdcover_us / 1e6 * scale,
            "setup.import_scipy_spatial_s": scipy_us / 1e6 * scale}


def probes(runner: Runner) -> dict:
    """Import times, and threads=2 vs threads=1 on the same inputs."""
    m = import_times(runner)
    m["cover.enumerate_cover.bytes_per_entry"] = 0.0
    m["cover.enumerate_cover.threads2_ratio"] = 0.0
    m["experiments.validate_bound.threads2_ratio"] = 0.0
    name = runner.workload.name
    if name == "cover-enum":
        spec = {"call": "enumerate_cover", "T": ENUM_T}
    elif name == "validate":
        spec = {"call": "validate_bound", "resamplings": VALIDATE_RESAMPLINGS,
                "trials": VALIDATE_TRIALS, "delta": VALIDATE_DELTA, "seed": runner.seed}
    else:
        return m
    scenario = runner.argv[runner.argv.index("--scenario") + 1]
    report = runner.child({"mode": "probe", "scenario": scenario, **spec})
    ratio = report["threads2_s"] / report["threads1_s"]
    if name == "cover-enum":
        m["cover.enumerate_cover.threads2_ratio"] = ratio
        m["cover.enumerate_cover.bytes_per_entry"] = (report["tracemalloc_peak_bytes"]
                                                      / report["entries"])
    else:
        m["experiments.validate_bound.threads2_ratio"] = ratio
    return m


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    start = time.monotonic()
    try:
        m = probes(runner)
    except FAILURES as exc:
        runner.verify(False, f"probe: {type(exc).__name__}: {exc}")
        return {}, []
    untraced, traced = [], []
    pairs = [((False, untraced), (True, traced)), ((True, traced), (False, untraced))]

    def body():
        # alternate which side runs first, so a drift in speed cancels
        for trace, reports in pairs[len(traced) % 2]:
            report = runner.invoke(trace=trace)
            if report is not None:
                reports.append(report)

    _loop(seconds - (time.monotonic() - start), body)
    if not untraced or not traced:
        return {}, []
    per_trace = [trace_metrics(r["trace"], r["run_scale"]) for r in traced]
    for name in per_trace[0]:
        values = [t[name] for t in per_trace]
        m[name] = values[0] if _is_count(name) else statistics.median(values)
    unsteady = [name for name in m if _is_count(name) and len({t[name] for t in per_trace}) > 1]
    runner.verify(not unsteady, f"counts differ between traced invocations: {unsteady}")
    if runner.workload.name == "cover-enum":
        expected = (3 ** (ENUM_T + 1) - 3) // 2
        runner.verify(m["sgd.sgd_step.calls"] == expected,
                      f"sgd.sgd_step.calls {m['sgd.sgd_step.calls']} != {expected}")
    m["trace.overhead_s"] = (statistics.median(r["run_s"] * r["run_scale"] for r in traced)
                             - statistics.median(r["run_s"] * r["run_scale"] for r in untraced))
    quality = _quality(traced + untraced)
    m["experiments.validate_bound.cert_tightness"] = statistics.median(
        quality.get("cert_tightness", [0.0]))
    m["cover.box_counting_dimension.abs_error"] = statistics.median(
        quality.get("box_dim_abs_error", [0.0]))

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": runner.workload.name, "seed": runner.seed,
        "environment": environment(runner.env, runner.workload),
        "metrics": m, "last_trace": traced[-1]["trace"],
    }, indent=1) + "\n")
    lines = [f"  {name:46} {value:.6g}" for name, value in m.items()]
    lines.append(f"  trace written to {trace_path.relative_to(ROOT)}")
    return m, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 section: list) -> dict:
    """Run one workload; print its report and return its result object."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = base / f"work-{os.getpid()}-{workload.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            trace_path = base / "traces" / f"{workload.name}-seed{seed}.json"
            metrics, lines = traced_run(runner, seconds, trace_path)
        else:
            metrics, lines = timed_run(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {workload.name} (seed {seed}, {'traced' if trace else 'timed'}): "
          f"{workload.why}")
    for line in lines:
        print(line)
    print(f"  {'error_rate':18} {failed}/{runner.attempted} = "
          f"{_ratio(failed, runner.attempted):.6g}")
    for problem in runner.failures:
        print(f"  FAILED: {problem}")
    print("env: " + json.dumps(environment(runner.env, workload)))
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section if m["name"] in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sgdcover" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a sgdcover checkout; {ROOT / 'src' / 'sgdcover'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    section = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), section) for name in names}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        for name, res in results.items():
            print(f"{name}: " + json.dumps(res))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
