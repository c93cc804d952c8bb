"""The four benchmark workloads: seeded inputs, CLI arguments, and output
checks that do not trust the code under test.

Every workload is one call of ``sgdcover.cli.run(argv)`` on inputs made from
the benchmark seed.  The scenario is 3 centers drawn uniformly in the unit
disc of R^2 with R = 1 and eta = 0.5 (contraction ratio gamma = 0.5).  The
checks read only the files the CLI wrote and recompute what they can with
numpy alone; they never import sgdcover.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

R = 1.0
ETA = 0.5
N_CENTERS = 3
DIM = 2

# cover-enum
ENUM_T = 9
# cover-verify: epsilon 1/6 gives horizon T = ceil(log(6) / log(2)) = 3.  Any
# iterate after t >= T contracting steps lies within gamma^T R = 1/8 of the
# cover, which the check holds the reported worst distance to.
VERIFY_EPSILON = 0.1666667
VERIFY_T = 3
VERIFY_RADIUS = (1.0 - ETA) ** VERIFY_T * R
VERIFY_TRIALS = 2000
# validate
VALIDATE_N = 200
VALIDATE_RESAMPLINGS = 30
VALIDATE_TRIALS = 20
VALIDATE_DELTA = 0.05
# ifs: the README input (middle-thirds Cantor set, dimension log 2 / log 3)
IFS_CENTERS = "[[1.0],[-1.0]]"
IFS_GAMMA = 0.3333333333
IFS_POINTS = 100_000
CANTOR_DIM = math.log(2.0) / math.log(3.0)

# Entries of a cover must match the benchmark's own recurrence within this
# many units of float64 roundoff per step, relative to the domain radius.
ULP_PER_STEP = 8
# Entries whose points are recomputed per check.
SAMPLED_ENTRIES = 64
# Subdirectory of the work directory that receives the CLI's outputs.
OUT = "out"


def centers_from_seed(seed: int) -> list[list[float]]:
    """3 centers uniform in the unit disc (radius sqrt(u), uniform angle)."""
    rng = np.random.default_rng(seed)
    radius = R * np.sqrt(rng.uniform(size=N_CENTERS))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=N_CENTERS)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).tolist()


def scenario(seed: int, dataset: dict) -> dict:
    return {
        "family": {"name": "quadratic_centers", "centers": centers_from_seed(seed), "R": R},
        "eta": ETA,
        "dataset": dataset,
    }


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reference_point(centers: np.ndarray, seq) -> np.ndarray:
    """theta <- Pi_B(theta - eta (theta - z)) from the origin, z = centers[i]."""
    theta = np.zeros(DIM)
    for i in seq:
        theta = theta - ETA * (theta - centers[i])
        norm = np.linalg.norm(theta)
        if norm > R:
            theta = theta * (R / norm)
    return theta


def _check_cover_file(path: Path, centers: np.ndarray, T: int, seed: int) -> None:
    """Count is 3^T, entry k has the base-3 digits of k as its sequence (so
    the order is lexicographic and complete), deps match, and a seeded sample
    of points matches the reference recurrence."""
    n = len(centers)
    lines = path.read_text().splitlines()
    if len(lines) != n**T:
        raise CheckFailed(f"{path.name}: {len(lines)} entries, expected {n}^{T} = {n**T}")
    rng = np.random.default_rng([seed, 7])
    sampled = set(rng.choice(len(lines), size=min(SAMPLED_ENTRIES, len(lines)), replace=False))
    sampled.update((0, len(lines) - 1))
    tol = ULP_PER_STEP * max(T, 1) * np.finfo(float).eps * R
    prev = None
    for k, line in enumerate(lines):
        rec = json.loads(line)
        seq = rec["seq"]
        if k in sampled:
            expected = [(k // n ** (T - 1 - j)) % n for j in range(T)]
            if seq != expected:
                raise CheckFailed(f"{path.name}: entry {k} has seq {seq}, expected {expected}")
            if rec["deps"] != sorted(set(seq)):
                raise CheckFailed(f"{path.name}: entry {k} deps {rec['deps']} do not match seq")
            err = np.max(np.abs(np.asarray(rec["point"]) - _reference_point(centers, seq)))
            if not err <= tol:
                raise CheckFailed(f"{path.name}: entry {k} point off by {err:.3g} > {tol:.3g}")
        if len(seq) != T or not all(0 <= c < n for c in seq) or (
            prev is not None and not prev < seq
        ):
            raise CheckFailed(f"{path.name}: entry {k} breaks lexicographic order")
        prev = seq


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str          # what one unit of ``work`` is, for <unit>_per_s
    work: int               # units done by one invocation
    working_set_bytes: int  # principal arrays: count x dim x 8 B, as computed
    prepare: Callable[[Path, int], list]  # (workdir, seed) -> argv
    check: Callable[[Path, int, int], dict]  # (workdir, seed, exit code) -> quality


# ---------------------------------------------------------------------------
# cover-enum
# ---------------------------------------------------------------------------

def _enum_prepare(workdir: Path, seed: int) -> list:
    scen = _write(workdir / "cover.json", scenario(seed, {"kind": "support"}))
    return ["cover", "--scenario", scen, "--T", str(ENUM_T),
            "--out", str(workdir / OUT / "cover.jsonl"), "--seed", str(seed)]


def _enum_check(workdir: Path, seed: int, code: int) -> dict:
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    meta = _load(workdir / OUT / "cover.jsonl.meta.json")["result"]
    if meta["entries"] != N_CENTERS**ENUM_T or meta["horizon"] != ENUM_T:
        raise CheckFailed(f"meta reports {meta['entries']} entries at horizon {meta['horizon']}")
    _check_cover_file(workdir / OUT / "cover.jsonl", np.asarray(centers_from_seed(seed)),
                      ENUM_T, seed)
    return {}


# ---------------------------------------------------------------------------
# cover-verify
# ---------------------------------------------------------------------------

def _verify_prepare(workdir: Path, seed: int) -> list:
    scen = _write(workdir / "cover.json", scenario(seed, {"kind": "support"}))
    return ["cover", "--scenario", scen, "--epsilon", str(VERIFY_EPSILON),
            "--verify-trials", str(VERIFY_TRIALS),
            "--out", str(workdir / OUT / "cover.jsonl"), "--seed", str(seed)]


def _verify_check(workdir: Path, seed: int, code: int) -> dict:
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    result = _load(workdir / OUT / "cover.jsonl.meta.json")["result"]
    ver = result["verification"]
    if result["horizon"] != VERIFY_T or ver["trials"] != VERIFY_TRIALS:
        raise CheckFailed(f"horizon {result['horizon']}, {ver['trials']} trials")
    if ver["failures"] != 0 or not ver["max_min_distance"] <= VERIFY_RADIUS * (1 + 1e-9):
        raise CheckFailed(f"{ver['failures']} failures, max distance {ver['max_min_distance']}")
    _check_cover_file(workdir / OUT / "cover.jsonl", np.asarray(centers_from_seed(seed)),
                      VERIFY_T, seed)
    return {}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_prepare(workdir: Path, seed: int) -> list:
    scen = _write(workdir / "validate.json",
                  scenario(seed, {"kind": "iid", "n": VALIDATE_N}))
    return ["validate", "--scenario", scen, "--resamplings", str(VALIDATE_RESAMPLINGS),
            "--trials", str(VALIDATE_TRIALS), "--delta", str(VALIDATE_DELTA),
            "--out", str(workdir / OUT / "report.json"),
            "--csv", str(workdir / OUT / "rows.csv"), "--seed", str(seed)]


def _validate_check(workdir: Path, seed: int, code: int) -> dict:
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    result = _load(workdir / OUT / "report.json")["result"]
    if result["passed"] is not True or result["resamplings"] != VALIDATE_RESAMPLINGS:
        raise CheckFailed(f"verdict {result['passed']} over {result['resamplings']} resamplings")
    with open(workdir / OUT / "rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["resampling", "max_abs_gap", "violated"]:
        raise CheckFailed(f"CSV header {rows[0]}")
    rows = rows[1:]
    if [int(r[0]) for r in rows] != list(range(VALIDATE_RESAMPLINGS)):
        raise CheckFailed(f"CSV has {len(rows)} rows, expected one per resampling")
    total = result["certificate_total"]
    gaps = [float(r[1]) for r in rows]
    violated = [int(r[2]) for r in rows]
    if violated != [int(g > total) for g in gaps] or sum(violated) != result["violations"]:
        raise CheckFailed("CSV violation flags disagree with the gaps and the certificate")
    if max(gaps) != result["max_observed_gap"]:
        raise CheckFailed("max_observed_gap is not the largest CSV gap")
    if not result["violations"] / VALIDATE_RESAMPLINGS <= VALIDATE_DELTA:
        raise CheckFailed("PASS reported with a violation rate above delta")
    return {"cert_tightness": result["max_observed_gap"] / total}


# ---------------------------------------------------------------------------
# ifs
# ---------------------------------------------------------------------------

def _ifs_prepare(workdir: Path, seed: int) -> list:
    return ["ifs", "--centers", IFS_CENTERS, "--gamma", str(IFS_GAMMA), "--R", str(R),
            "--points", str(IFS_POINTS), "--out", str(workdir / OUT / "ifs.json"),
            "--seed", str(seed)]


def _ifs_check(workdir: Path, seed: int, code: int) -> dict:
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    result = _load(workdir / OUT / "ifs.json")["result"]
    if abs(result["dimension"] - CANTOR_DIM) > 1e-9 or result["certified"] is not True:
        raise CheckFailed(f"closed-form dimension {result['dimension']} is not log 2 / log 3")
    if result["orbit_points"] != IFS_POINTS or result["n_maps"] != 2:
        raise CheckFailed(f"{result['orbit_points']} orbit points, {result['n_maps']} maps")
    estimate = result["box_counting_estimate"]
    if not math.isfinite(estimate) or np.any(np.diff(result["counts"]) < 0):
        raise CheckFailed("box counts must be finite and nondecreasing as scales shrink")
    return {"box_dim_abs_error": abs(estimate - CANTOR_DIM)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cover-enum",
            f"cover --T {ENUM_T} on the 3-atom support: tree enumeration and JSONL "
            f"writing do nearly all the work",
            "entries", N_CENTERS**ENUM_T, N_CENTERS**ENUM_T * DIM * 8,
            _enum_prepare, _enum_check,
        ),
        Workload(
            "cover-verify",
            f"cover --epsilon 1/6 --verify-trials {VERIFY_TRIALS}: 27 entries, time goes to "
            f"random trajectories and k-d tree queries",
            "verify_trials", VERIFY_TRIALS, N_CENTERS**VERIFY_T * DIM * 8,
            _verify_prepare, _verify_check,
        ),
        Workload(
            "validate",
            f"validate {VALIDATE_RESAMPLINGS}x{VALIDATE_TRIALS} on n={VALIDATE_N}: per-sample "
            f"value calls and the inline update in validate_bound dominate",
            "resamplings", VALIDATE_RESAMPLINGS, VALIDATE_N * DIM * 8,
            _validate_prepare, _validate_check,
        ),
        Workload(
            "ifs",
            f"ifs --points {IFS_POINTS}: attractor sampling and box counting, no loss, "
            f"projection or SGD step",
            "orbit_points", IFS_POINTS, IFS_POINTS * 1 * 8,
            _ifs_prepare, _ifs_check,
        ),
    )
}
