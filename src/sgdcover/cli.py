"""Command-line front end: scenario configuration, execution, and
serialization of certificates, covers, and validation reports.

The command table ``_COMMANDS`` holds each command's handler, help line and
config keys, each key typed by a kind of ``_KINDS``; ``_parse`` reads argv
from those two tables alone.  ``argv[0]`` names the command; each later
token is ``--flag value``, ``--flag=value`` (a unique prefix of the flag will
do), or ``-h``/``--help``.  A token is a value unless it starts with "--", so
``--delta -1e-3`` reaches the command's own check.

Exit codes: 0 on success/PASS and for help, 1 only when a validation-style
command FAILS, 2 on usage, schema or library errors (including parse errors
and enumeration-cap refusals).  Every JSON artifact echoes the effective
config, its hash, the seed, and the package version; the timestamp field is
excluded from the determinism contract.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import types
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import THEOREMS
from .core import Ball, linalg_norms, numeric_gradient, substream
from .cover import cover_horizon, enumerate_cover, verify_cover
from .experiments import Scenario, validate_bound
from .fractal import IFSModel, box_counting_dimension, ifs_dimension
from .losses import Dataset, family_from_descriptor, uniform_ball, uniform_over
from .sgd import SGDStep, contraction_factor, draw_runs

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _envelope(command: str, seed: int, config: dict, result: dict) -> dict:
    config = _jsonable(config)
    body = {"command": command, "seed": seed, "config": config}
    return {
        **body,
        "config_hash": _config_hash(body),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": _jsonable(result),
    }


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    _check(not missing, f"missing required parameter(s): {', '.join(missing)}")


def _given(cfg: dict, *keys) -> dict:
    """The values the config sets for ``keys``, as keyword arguments: a key
    it leaves out (or sets to null) keeps the callee's own default."""
    return {k: cfg[k] for k in keys if k in cfg}


# ---------------------------------------------------------------------------
# Option kinds and the effective config
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _split(kind):
    return lambda s: [kind(v) for v in s.split(",")]


# kind -> (conversion of a flag's text, or None for a flag that takes no value;
# test a config-file value must pass; what the test asks for).  File values are
# checked, never converted, because the envelope echoes them.  Text options
# are checked where they are used.
_KINDS = {
    "int": (int, _is_int, "an integer"),
    "float": (float, _is_number, "a number"),
    "flag": (None, lambda v: isinstance(v, bool), "true or false"),
    "ints": (_split(int), lambda v: isinstance(v, list) and all(map(_is_int, v)),
             "a list of integers"),
    "floats": (_split(float), lambda v: isinstance(v, list) and all(map(_is_number, v)),
               "a list of numbers"),
    "text": (str, lambda v: True, "text"),
}


def _merged(args: types.SimpleNamespace, options: dict) -> dict:
    """Effective config: file values overridden by explicitly set flags.  A
    null in the file means "not given", as an absent flag does, so the
    effective config holds no nulls."""
    cfg = {}
    if args.config:
        file_cfg = _load_json_file(args.config)
        _check(isinstance(file_cfg, dict), "config file must contain a JSON object")
        unknown = set(file_cfg) - set(options)
        _check(not unknown, f"unknown config fields: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _, test, wanted = _KINDS[options[key]]
            _check(value is None or test(value),
                   f"config field {key!r} must be {wanted}, got {value!r}")
        cfg.update((key, value) for key, value in file_cfg.items() if value is not None)
    for key in options:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return cfg


# ---------------------------------------------------------------------------
# Scenario descriptors
# ---------------------------------------------------------------------------

# Each (family, dataset kind) pair builds from one source or is refused: a
# family in _FAMILY_ATOMS fixes its samples, any other takes explicit 'points'
# or, with none, a 'uniform_ball' draw; each kind's rule forms the dataset.
_FAMILY_ATOMS = {"quadratic_centers": lambda f: [np.asarray(c, dtype=float) for c in f["centers"]],
                 "stability_counterexample_1d": lambda f: [0, 1]}
_DATASET_KINDS = {"support": lambda dist, points, n, seed: Dataset(dist.support, dist),
                  "points": lambda dist, points, n, seed: Dataset(points, dist),
                  **dict.fromkeys(("iid", "uniform_ball"), lambda dist, points, n, seed:
                                  Dataset.sample(dist, n, substream(seed, 1_000_003)))}


def _is_sample_list(points) -> bool:
    """A non-empty list of finite numbers, or of equal-length lists of them."""
    if not isinstance(points, list) or not points:
        return False
    shapes = {len(p) if isinstance(p, list) else None for p in points}
    values = [v for p in points for v in (p if isinstance(p, list) else [p])]
    return (len(shapes) == 1 and 0 not in shapes
            and all(_is_number(v) and math.isfinite(v) for v in values))


def _load_scenario(cfg: dict, seed: int, need_eta: bool = False, need_domain: bool = False):
    """Validate the config's scenario descriptor (inline or a file path) and
    build it: a Scenario (family, distribution, domain, eta, name, and the
    size ``n`` of a resampled dataset) plus the dataset it describes."""
    _require(cfg, "scenario")
    desc = cfg["scenario"]
    if isinstance(desc, str):
        desc = _load_json_file(desc)
    _check(isinstance(desc, dict), "scenario must be a JSON object")
    ds = desc.get("dataset", {"kind": "support"})
    _check(isinstance(ds, dict), "scenario.dataset must be a JSON object")
    kind = ds.get("kind", "support")
    eta = desc.get("eta")
    _check(kind in _DATASET_KINDS, f"unknown dataset kind {kind!r}")
    for key in ("n", "d"):
        _check(key not in ds or (_is_int(ds[key]) and ds[key] >= 1),
               f"scenario.dataset.{key} must be a positive integer")
    _check("n" in ds or kind not in ("iid", "uniform_ball"), "dataset descriptor needs 'n'")
    _check("d" in ds or kind != "uniform_ball",
           "dataset kind 'uniform_ball' needs scenario.dataset.d")
    _check("R" not in ds or _is_number(ds["R"]), "scenario.dataset.R must be a number")
    _check("points" in ds or kind != "points", "dataset kind 'points' needs 'points'")
    _check("points" not in ds or _is_sample_list(ds["points"]),
           "scenario.dataset.points must be a non-empty list of finite numbers "
           "or of equal-length lists of them")
    _check(eta is None or _is_number(eta), "scenario.eta must be a number")
    _check(eta is not None or not need_eta, "scenario needs 'eta'")
    _check(isinstance(desc.get("name", ""), str), "scenario.name must be a string")

    # a family without a fixed dimension takes the samples' dimension
    points = tuple(np.asarray(p, dtype=float) for p in ds.get("points", ()))
    family_desc = desc.get("family")
    if isinstance(family_desc, dict) and family_desc.get("d") is None:
        family_desc = {**family_desc, "d": ds.get("d", np.size(points[0]) if points else None)}
    try:
        family = family_from_descriptor(family_desc)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad scenario.family: {exc}") from exc

    name = family_desc["name"]
    _check(name != "multi_index", f"family 'multi_index' takes (label, x) samples, which "
           f"dataset kind {kind!r} cannot spell; it is library-only for now")
    atoms = _FAMILY_ATOMS[name](family_desc) if name in _FAMILY_ATOMS else points
    ball = kind == "uniform_ball"  # drawn from a ball, so only without atoms or points
    _check(ball or atoms, "dataset descriptor needs explicit 'points' for this family")
    _check(not (ball and atoms), f"family {name!r} refuses dataset kind 'uniform_ball' with "
           + ("its own atoms" if name in _FAMILY_ATOMS else "explicit points"))
    if name in _FAMILY_ATOMS:  # a family that fixes its samples fixes their width
        width = np.size(atoms[0])
        for key, got in (("d", ds.get("d", width)), ("points", np.size((points or atoms)[0]))):
            _check(got == width, f"scenario.dataset.{key} gives width {got}, but family "
                   f"{name!r} fixes samples of width {width}")
    dist = uniform_ball(ds.get("R", family.constants.R), ds["d"]) if ball else uniform_over(atoms)
    dataset = _DATASET_KINDS[kind](dist, points, ds.get("n"), seed)

    _check(family.domain is not None or not need_domain,
           "scenario does not determine a bounded domain; add 'd' to the "
           "dataset descriptor or use a family with a fixed dimension")
    scenario = Scenario(name=desc.get("name", family.name), family=family, distribution=dist,
                        domain=family.domain, eta=eta, n=ds.get("n", dataset.n))
    return scenario, dataset


# ---------------------------------------------------------------------------
# Commands: each takes the effective config and the parsed arguments and
# returns (result, passed, lines to print, {path: writer} of its own output
# files).  run() writes those and the envelope once the command has returned.
# A command that needs surrogate, trajectory or studies imports it itself, so
# importing this module leaves them unloaded.
# ---------------------------------------------------------------------------

def _cmd_bound(cfg, args):
    _require(cfg, "theorem")
    theorem = str(cfg["theorem"]).upper()
    calculator = THEOREMS.get("EQ_8_FRACTAL" if theorem == "EQ_8" else theorem)
    _check(calculator is not None, f"unknown theorem {cfg['theorem']!r}")
    params = inspect.signature(calculator).parameters.values()
    _require(cfg, *(p.name for p in params if p.default is p.empty))
    cert = calculator(**_given(cfg, *(p.name for p in params)))
    lines = [f"certificate {cert.theorem}"]
    lines += [f"  {name:24s} {value:.12g}"
              for name, value in cert.components.items() if value is not None]
    lines.append(f"  {'total':24s} {cert.total:.12g}")
    if cert.flags:
        lines.append(f"  flags: {', '.join(cert.flags)}")
    return cert.to_dict(), True, lines, {}


def _cmd_cover(cfg, args):
    scenario, dataset = _load_scenario(cfg, args.seed, need_eta=True, need_domain=True)
    family, domain, eta = scenario.family, scenario.domain, scenario.eta
    update = SGDStep(family, eta, domain=domain)

    T = cfg.get("T")
    epsilon = cfg.get("epsilon")
    _check(epsilon is None or (math.isfinite(epsilon) and epsilon > 0),
           f"epsilon must be finite and positive, got {epsilon!r}")
    if T is None:
        c = family.constants
        _check(epsilon is not None and c.alpha is not None and c.beta is not None,
               "give T, or epsilon plus a family with declared alpha/beta")
        gamma = contraction_factor(c.alpha, c.beta, eta)
        T = cover_horizon(domain.bounding_radius(), epsilon, gamma)
    cover = enumerate_cover(update, dataset, int(T), **_given(cfg, "cap", "dedupe"))

    result = {"horizon": cover.horizon, "entries": len(cover),
              "n_samples": cover.n_samples, "epsilon": epsilon,
              "deduped": cover.deduped}
    verification = None
    if "verify_trials" in cfg:  # verify_cover refuses fewer than one trial
        _check(epsilon is not None, "verification needs epsilon")
        verification = verify_cover(cover, update, dataset, cfg["verify_trials"],
                                    cfg.get("max_extra_steps", 50), float(epsilon),
                                    seed=args.seed)
        result["verification"] = dataclasses.asdict(verification)
    passed = verification is None or verification.passed

    if not args.out:
        return result, passed, cover.jsonl_lines(), {}
    lines = [f"cover: {len(cover)} entries at horizon {cover.horizon} -> {args.out}"]
    if verification is not None:
        lines.append(f"verification: {verification.failures} failures in "
                     f"{verification.trials} trials, max own-entry distance "
                     f"{verification.max_min_distance:.6g} vs epsilon {epsilon:.6g}")
    return result, passed, lines, {args.out: cover.write_jsonl}


def _cmd_contract(cfg, args):
    from .trajectory import coupled_contraction_ratio

    scenario, dataset = _load_scenario(cfg, args.seed, need_eta=True, need_domain=True)
    family, domain, eta = scenario.family, scenario.domain, scenario.eta
    pairs = int(cfg.get("pairs", 100))
    steps = int(cfg.get("steps", 50))
    _check(pairs >= 1 and steps >= 1, "contract needs at least one pair and one step")
    tol = float(cfg.get("tolerance", 1e-9))
    _check(math.isfinite(tol) and tol >= 0,
           f"contract needs a finite tolerance >= 0, got {tol}")
    update = SGDStep(family, eta, domain=domain)

    # a family with alpha and beta is checked against its certificate, which
    # refuses a step size outside (0, 2/beta); one without is only measured
    c = family.constants
    theoretical = None
    if c.alpha is not None and c.beta is not None:
        theoretical = contraction_factor(c.alpha, c.beta, eta)

    # ratios measured below this distance are dominated by rounding noise
    scale = domain.bounding_radius()
    floor = 1e-6 * (scale if math.isfinite(scale) else 1.0)
    # pair k draws a, b and then its indices from its own stream: a is the
    # prelude, b the one run's start
    b, _, indices, a = draw_runs(args.seed, pairs, 1, domain, steps, steps, dataset.n,
                                 prelude=lambda k, rng: domain.sample(rng))
    a = np.array(a)
    differ = np.any(a != b, axis=1)
    report = coupled_contraction_ratio(update, a[differ], b[differ], indices[differ], dataset)
    worst = report.max_measurable_ratio(floor)

    ok = theoretical is None or worst <= theoretical + tol
    result = {"pairs": pairs, "steps": steps, "max_ratio": worst,
              "theoretical_gamma": theoretical, "within_tolerance": ok}
    return result, ok, [f"max coupled ratio {worst:.12g}"
                        + (f" vs gamma {theoretical:.12g}" if theoretical is not None else "")], {}


_FUNCTIONS = {
    "sin_plus_cos": (
        2,
        lambda th: math.sin(th[0]) + math.cos(th[1]),
        lambda th: np.array([math.cos(th[0]), -math.sin(th[1])]),
        1.0,
    ),
}


def _cmd_approx(cfg, args):
    from .surrogate import build_piecewise_approx, smooth_function

    _require(cfg, "function", "R", "xi")
    name = cfg["function"]
    _check(name in _FUNCTIONS, f"unknown function {name!r}; available: {sorted(_FUNCTIONS)}")
    d, value, grad, beta_prime = _FUNCTIONS[name]
    R, xi = float(cfg["R"]), float(cfg["xi"])
    alpha = float(cfg.get("alpha", 1.0))
    beta = float(cfg.get("beta", 1.0))
    grid = int(cfg.get("grid", 200))
    # at 2 points per axis the mesh is the four corners, all outside the ball
    _check(grid >= 3, f"approx needs grid >= 3 points per axis, got {grid}")
    domain = Ball(np.zeros(d), R)
    fn = smooth_function(value, grad, beta_prime)
    approx = build_piecewise_approx(fn, domain, xi, (alpha, beta), **_given(cfg, "cap"))

    axes = [np.linspace(-R, R, grid)] * d
    mesh = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= R]
    exact = np.array([fn.grad(p) for p in mesh])
    max_err = float(linalg_norms(exact - approx.grad_rows(mesh)).max())
    result = {"function": name, "xi": xi, "max_gradient_error": max_err,
              "grid_points": int(mesh.shape[0]),
              "piece_count": approx.piece_count,
              "piece_bound": approx.closed_form_piece_bound(),
              "anchor_count": approx.anchor_count,
              "passed": max_err <= xi}
    return result, result["passed"], [
        f"max gradient error {max_err:.6g} vs xi {xi:.6g}; "
        f"{approx.piece_count} pieces (bound {approx.closed_form_piece_bound():.6g})"], {}


def _cmd_gap(cfg, args):
    from .studies import estimate_gap
    from .trajectory import run_trajectory

    scenario, dataset = _load_scenario(cfg, args.seed, need_eta=True, need_domain=True)
    _require(cfg, "t")
    t = cfg["t"]
    _check(t >= 0, f"t must be a non-negative integer, got {t}")
    update = SGDStep(scenario.family, scenario.eta, domain=scenario.domain)
    init = scenario.domain.sample(substream(args.seed, 1))
    indices = substream(args.seed).integers(0, dataset.n, size=t)
    trajectory = run_trajectory(update, init, indices, dataset)
    est = estimate_gap(scenario.family, dataset, trajectory, seed=args.seed, **_given(cfg, "m"))
    return dataclasses.asdict(est), True, [
        f"empirical {est.empirical_risk:.6g}  population {est.population_risk}  gap {est.gap}"], {}


def _cmd_validate(cfg, args):
    scenario, _ = _load_scenario(cfg, args.seed, need_eta=True)
    _require(cfg, "resamplings", "trials", "delta")
    report = validate_bound(
        scenario, int(cfg["resamplings"]), int(cfg["trials"]), float(cfg["delta"]),
        seed=args.seed, **_given(cfg, "shrink", "t_band"),
    )
    result = dataclasses.asdict(report)
    del result["max_gaps"]  # the CSV's rows
    files = {args.csv: report.write_csv} if args.csv else {}
    return result, report.passed, [
        f"{report.violations}/{report.resamplings} violations of "
        f"{report.certificate_total:.6g} (max gap {report.max_observed_gap:.6g}) "
        f"-> {'PASS' if report.passed else 'FAIL'}"], files


def _cmd_kmeans(cfg, args):
    from .studies import empirical_risk, run_em, verify_em_equivalence

    scenario, dataset = _load_scenario(cfg, args.seed)
    family = scenario.family
    c = family.constants
    _check(c.zeta is not None and c.K is not None, "kmeans needs a soft_kmeans scenario family")
    K, zeta, R = int(c.K), float(c.zeta), float(c.R)
    d = np.atleast_1d(np.asarray(dataset.samples[0], dtype=float)).shape[0]
    rng = substream(args.seed, 2)
    theta0 = np.vstack([Ball(np.zeros(d), R).sample(rng) for _ in range(K)])
    # The CLI's ``iters`` is run_em's ``max_iters``, so _given cannot pass it.
    limit = {"max_iters": cfg["iters"]} if "iters" in cfg else {}
    centers, iters, converged = run_em(theta0, dataset, zeta, **limit)
    equiv = verify_em_equivalence(centers, dataset, zeta)
    grad_norm = float(np.linalg.norm(numeric_gradient(
        lambda th: empirical_risk(family, dataset, th), centers.reshape(-1)
    )))
    passed = equiv.passed and grad_norm <= 1e-6
    result = {**dataclasses.asdict(equiv), "iterations": iters, "centers": centers,
              "fixed_point_gradient_norm": grad_norm, "passed": passed}
    outcome = (f"converged in {iters} iterations" if converged
               else f"stopped after {iters} iterations without converging")
    return result, passed, [
        f"alternating update {outcome}; "
        f"affine residual {equiv.residual:.3g}; |grad| {grad_norm:.3g}"], {}


def _cmd_stability(cfg, args):
    from .studies import stability_experiment

    report = stability_experiment(seed=args.seed,
                                  **_given(cfg, "eta", "inits", "steps", "n_samples"))
    passed = report.separation >= 1.5 and report.basin_respected
    return {**dataclasses.asdict(report), "passed": passed}, passed, [
        f"mean endpoint loss: identical data {report.mean_identical:.4f}, "
        f"swapped data {report.mean_swapped:.4f} (separation {report.separation:.4f})"], {}


def _cmd_ifs(cfg, args):
    _require(cfg, "centers", "gamma", "R")
    centers = cfg["centers"]
    if isinstance(centers, str):
        centers = json.loads(centers)
    model = IFSModel(centers, float(cfg["gamma"]), float(cfg["R"]))
    dim = ifs_dimension(model)
    points = int(cfg.get("points", 200_000))
    orbit = model.sample_attractor(points, seed=args.seed, **_given(cfg, "burn_in"))
    if cfg.get("scales") is not None:
        scales = [float(s) for s in cfg["scales"]]
    else:
        # 2R*r^k for k = 1..7 with r = gamma.  r = 0.4 instead when gamma^6 >
        # 1/100 leaves less than the two decades box counting needs, when
        # 2R*gamma^7 is not a positive normal float, or when gamma^7 < 2^-62
        # puts more boxes across the 2R-wide ball than int64 box indices hold
        smallest = 2.0 * model.radius * model.gamma**7
        fits = model.gamma**7 >= 2.0**-62 and smallest >= sys.float_info.min
        ratio = model.gamma if model.gamma**6 <= 0.01 and fits else 0.4
        scales = [2.0 * model.radius * ratio**k for k in range(1, 8)]
    fit = box_counting_dimension(orbit, scales)
    result = {
        "n_maps": model.n_maps, "gamma": model.gamma, "radius": model.radius,
        "dimension": dim.dimension, "certified": dim.certified, "warning": dim.warning,
        "box_counting_estimate": fit.dimension,
        "abs_error": abs(fit.dimension - dim.dimension),
        "scales": list(fit.scales), "counts": list(fit.counts),
        "orbit_points": points,
    }
    return result, True, [f"dimension {dim.dimension:.6f} (certified: {dim.certified}); "
                          f"box-counting estimate {fit.dimension:.6f}"], {}


def _cmd_hoeffding(cfg, args):
    from .studies import hoeffding_check

    scenario, _ = _load_scenario(cfg, args.seed, need_domain=True)
    _require(cfg, "n_grid", "epsilon_grid", "resamplings")
    n_grid = [int(v) for v in cfg["n_grid"]]
    eps_grid = [float(v) for v in cfg["epsilon_grid"]]
    theta = scenario.domain.sample(substream(args.seed, 3))
    report = hoeffding_check(scenario.family, theta, n_grid, eps_grid,
                             int(cfg["resamplings"]), scenario.distribution, seed=args.seed)
    worst = max(report.cells, key=lambda c: c.empirical_rate - c.bound)
    return dataclasses.asdict(report), report.passed, [
        f"{len(report.cells)} grid cells, all within bound: {report.passed} "
        f"(tightest: rate {worst.empirical_rate:.4g} vs bound {worst.bound:.4g})"], {}


# ---------------------------------------------------------------------------
# Command table and argv parsing
# ---------------------------------------------------------------------------

_FLOAT_BOUND_KEYS = ("delta", "B", "L", "R", "R_x", "gamma", "xi", "eta", "zeta", "lam",
                     "beta", "d_H", "epsilon", "C")
_INT_BOUND_KEYS = ("n", "T", "t", "P", "Q", "K", "cover_cardinality")

# command -> (handler, help, {config key: kind}).  Each key is also a flag:
# "--" + the key with "_" replaced by "-".
_COMMANDS = {
    "bound": (_cmd_bound, "evaluate a certificate", {
        "theorem": "text", **dict.fromkeys(_FLOAT_BOUND_KEYS, "float"),
        **dict.fromkeys(_INT_BOUND_KEYS, "int")}),
    "cover": (_cmd_cover, "enumerate (and optionally verify) a localized cover", {
        "scenario": "text", "T": "int", "epsilon": "float", "cap": "int", "dedupe": "flag",
        "verify_trials": "int", "max_extra_steps": "int"}),
    "contract": (_cmd_contract, "measure coupled contraction ratios", {
        "scenario": "text", "pairs": "int", "steps": "int", "tolerance": "float"}),
    "approx": (_cmd_approx, "build a piecewise quadratic surrogate and grade it", {
        "function": "text", "R": "float", "xi": "float", "alpha": "float", "beta": "float",
        "grid": "int", "cap": "int"}),
    "gap": (_cmd_gap, "estimate the generalization gap of one run", {
        "scenario": "text", "t": "int", "m": "int"}),
    "validate": (_cmd_validate, "validate a certificate by dataset resampling", {
        "scenario": "text", "resamplings": "int", "trials": "int", "delta": "float",
        "shrink": "float", "t_band": "int"}),
    "kmeans": (_cmd_kmeans, "alternating soft-clustering run + equivalence check", {
        "scenario": "text", "iters": "int"}),
    "stability": (_cmd_stability, "reproduce the 1-D stability gap", {
        "eta": "float", "inits": "int", "steps": "int", "n_samples": "int"}),
    "ifs": (_cmd_ifs, "attractor dimension: closed form vs box counting", {
        "centers": "text", "gamma": "float", "R": "float", "points": "int", "burn_in": "int",
        "scales": "floats"}),
    "hoeffding": (_cmd_hoeffding, "empirical tail frequencies vs the bound", {
        "scenario": "text", "n_grid": "ints", "epsilon_grid": "floats", "resamplings": "int"}),
}


# The flags every command takes besides its config keys, with their help;
# they are not part of the effective config.  validate also takes --csv.
_RUN_FLAGS = {"seed": ("int", "base RNG seed, non-negative (recorded in outputs)"),
              "config": ("text", "JSON file with parameter defaults (flags override)"),
              "out": ("text", "write the JSON artifact here")}
_CSV_FLAG = {"csv": ("text", "write one row per resampling here")}


def _flags(command: str) -> dict:
    """``command``'s flags in help order: flag -> (key, kind, help)."""
    rows = {**_RUN_FLAGS,
            **{key: (kind, "takes no value" if kind == "flag" else _KINDS[kind][2])
               for key, kind in _COMMANDS[command][2].items()},
            **(_CSV_FLAG if command == "validate" else {})}
    return {"--" + key.replace("_", "-"): (key, kind, text)
            for key, (kind, text) in rows.items()}


def _help(command: str | None = None) -> str:
    """``command``'s flags, or without one every command and its help line."""
    if command is None:
        lines = ["usage: sgdcover <command> [flags]", "",
                 "Localized covers, contraction diagnostics, and generalization-gap",
                 "certificates for constant-step SGD.", "", "commands:"]
        lines += [f"  {name:11s} {text}" for name, (_, text, _) in _COMMANDS.items()]
        lines += ["", "sgdcover <command> --help lists the command's flags."]
    else:
        lines = [f"usage: sgdcover {command} [flags]", "", _COMMANDS[command][1], "",
                 "flags (--flag value, --flag=value, or a unique prefix of the flag):"]
        lines += [f"  {flag:20s} {text}" for flag, (_, _, text) in _flags(command).items()]
        lines.append(f"  {'-h, --help':20s} print this help")
    return "\n".join(lines) + "\n"


def _resolve(name: str, flags) -> str:
    """The flag that ``name`` spells out or, being longer than "--", uniquely
    begins."""
    if name in flags:
        return name
    matches = [flag for flag in flags if len(name) > 2 and flag.startswith(name)]
    _check(len(matches) < 2, f"ambiguous flag {name}: could be {', '.join(matches)}")
    _check(len(matches) == 1, f"unknown flag {name}")
    return matches[0]


def _parse(argv: list):
    """The command of ``argv`` and the value of each of its flags, as a
    namespace, or the help text ``argv`` asks for.  A token is a value unless
    it starts with "--"; a flag given twice keeps its last value."""
    if argv and (argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0])):
        return _help()
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{what}; choose from {', '.join(_COMMANDS)}")
    command, flags = argv[0], _flags(argv[0])
    args = types.SimpleNamespace(command=command, **{key: None for key, _, _ in flags.values()})
    args.seed = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-h":
            return _help(command)
        _check(token.startswith("--"), f"unexpected argument {token!r}")
        name, has_value, value = token.partition("=")
        flag = _resolve(name, [*flags, "--help"])
        key, kind, _ = flags.get(flag, (None, "flag", None))  # --help takes no value
        convert, _, wanted = _KINDS[kind]
        if convert is None:
            _check(not has_value, f"{flag} takes no value, got {value!r}")
            if flag == "--help":
                return _help(command)
            setattr(args, key, True)
            continue
        if not has_value:
            value = next(tokens, None)
            _check(value is not None and not value.startswith("--"), f"{flag} needs a value")
        try:
            setattr(args, key, convert(value))
        except ValueError:
            raise UsageError(f"{flag} must be {wanted}, got {value!r}") from None
    _check(args.seed >= 0, f"--seed must be a non-negative integer, got {args.seed}")
    return args


def _write_outputs(files: dict) -> None:
    """Run each file's writer in turn.  If one fails, first remove what this
    run wrote: the files already written, and the failed one unless it was
    there before the run."""
    written = []
    try:
        for path, write in files.items():
            existed = os.path.exists(path)
            write(path)
            written.append(path)
    except BaseException:
        for stale in written if existed else written + [path]:
            with contextlib.suppress(OSError):
                os.remove(stale)
        raise


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if isinstance(args, str):
            print(args, end="")
            return EXIT_OK
        handler, _, options = _COMMANDS[args.command]
        cfg = _merged(args, options)
        result, passed, lines, files = handler(cfg, args)
        if args.out:  # a cover's JSONL takes --out, so its envelope goes beside it
            doc = json.dumps(_envelope(args.command, args.seed, cfg, result),
                             sort_keys=True, indent=2) + "\n"
            files[args.out + (".meta.json" if args.command == "cover" else "")] = (
                lambda path: Path(path).write_text(doc))
        _write_outputs(files)
        for line in lines:
            print(line)
    except (UsageError, ValueError, TypeError, KeyError, OSError, ArithmeticError,
            RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
