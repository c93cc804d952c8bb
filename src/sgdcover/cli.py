"""Command-line front end: scenario configuration, execution, and
serialization of certificates, covers, and validation reports.

Exit codes: 0 on success/PASS, 1 only when a validation-style command
FAILS, 2 on usage, schema or library errors (including enumeration-cap
refusals).  Every JSON artifact echoes the effective config, its hash, the
seed, and the package version; the timestamp field is excluded from the
determinism contract.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    bound_early,
    bound_expectation,
    bound_fractal,
    bound_hard_kmeans,
    bound_master_covering,
    bound_multi_index,
    bound_piecewise_approx,
    bound_piecewise_contractive,
    bound_single_trajectory,
    bound_soft_kmeans,
    bound_strongly_convex,
)
from .core import Ball, ProductOfBalls, numeric_gradient, substream
from .cover import (
    DEFAULT_CAP,
    IFSModel,
    box_counting_dimension,
    build_piecewise_approx,
    cover_horizon,
    enumerate_cover,
    ifs_dimension,
    smooth_function,
    verify_cover,
)
from .experiments import (
    Scenario,
    empirical_risk,
    estimate_gap,
    hoeffding_check,
    run_em,
    stability_experiment,
    validate_bound,
    verify_em_equivalence,
)
from .losses import Dataset, family_from_descriptor, uniform_ball, uniform_over
from .sgd import SGDConfig, SGDStep, contraction_factor, coupled_contraction_ratio, run_trajectory

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
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
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


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)


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


def _merged(args: argparse.Namespace, file_keys: tuple[str, ...]) -> dict:
    """Effective config: file values overridden by explicitly set flags."""
    cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_json_file(args.config)
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must contain a JSON object")
        unknown = set(file_cfg) - set(file_keys)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in file_keys:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _cap(cfg: dict) -> int:
    """The config's ``cap``, else ``SGDCOVER_CAP``, else ``DEFAULT_CAP``."""
    raw = cfg.get("cap", os.environ.get("SGDCOVER_CAP", DEFAULT_CAP))
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"enumeration cap must be an integer, got {raw!r}") from None


def _require(cfg: dict, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise UsageError(f"missing required parameter(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Scenario descriptors
# ---------------------------------------------------------------------------

def _build_scenario(desc: dict, seed: int):
    """Instantiate (family, distribution, dataset, domain, eta) from a JSON
    scenario descriptor."""
    if not isinstance(desc, dict):
        raise UsageError("scenario must be a JSON object")
    try:
        family_desc = desc["family"]
        family = family_from_descriptor(family_desc)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad scenario.family: {exc}") from exc

    ds = desc.get("dataset", {"kind": "support"})
    kind = ds.get("kind", "support")
    if family_desc.get("name") == "quadratic_centers":
        atoms = [np.asarray(c, dtype=float) for c in family_desc["centers"]]
        dist = uniform_over(atoms)
    elif family_desc.get("name") == "stability_counterexample_1d":
        dist = uniform_over([0, 1])
    elif "points" in ds:
        dist = uniform_over([np.asarray(p, dtype=float) for p in ds["points"]])
    elif kind == "uniform_ball":
        dist = uniform_ball(ds.get("R", family.constants.R), ds["d"])
    else:
        raise UsageError("dataset descriptor needs explicit 'points' for this family")

    if kind == "support":
        if not dist.finite:
            raise UsageError("dataset kind 'support' needs a finite distribution")
        dataset = Dataset(dist.support, dist, seed=None)
    elif kind in ("iid", "uniform_ball"):
        if "n" not in ds:
            raise UsageError("dataset descriptor needs 'n'")
        dataset = Dataset.sample(dist, int(ds["n"]), substream(seed, 1_000_003))
    elif kind == "points":
        dataset = Dataset(tuple(np.asarray(p, dtype=float) for p in ds["points"]), dist)
    else:
        raise UsageError(f"unknown dataset kind {kind!r}")

    eta = desc.get("eta")
    domain = family.domain
    if domain is None:
        d0 = None
        if "d" in ds:
            d0 = int(ds["d"])
        elif isinstance(dataset.samples[0], np.ndarray):
            d0 = int(np.atleast_1d(dataset.samples[0]).size)
        if d0 is not None:
            R0 = family.constants.R or 1.0
            if family.constants.K:
                domain = ProductOfBalls(int(family.constants.K), d0, R0)
            else:
                domain = Ball(np.zeros(d0), R0)
    return family, dist, dataset, domain, eta


def _scenario_cfg(cfg: dict) -> dict:
    scenario = cfg.get("scenario")
    if scenario is None:
        raise UsageError("missing required parameter(s): scenario")
    if isinstance(scenario, str):
        return _load_json_file(scenario)
    return scenario


def _need_domain(domain):
    if domain is None:
        raise UsageError(
            "scenario does not determine a bounded domain; add 'd' to the "
            "dataset descriptor or use a family with a fixed dimension"
        )
    return domain


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

_BOUND_KEYS = ("theorem", "n", "delta", "B", "L", "R", "R_x", "gamma", "T", "t",
               "P", "Q", "K", "xi", "eta", "zeta", "lam", "beta", "d_H",
               "cover_cardinality", "epsilon", "C")


def _cmd_bound(args) -> int:
    cfg = _merged(args, _BOUND_KEYS)
    _require(cfg, "theorem")
    theorem = cfg["theorem"].lower()

    def need(*keys):
        _require(cfg, *keys)
        return [cfg[k] for k in keys]

    if theorem == "thm_2_3":
        cert = bound_strongly_convex(*need("n", "delta", "B", "L", "R", "gamma"))
    elif theorem == "cor_2_4":
        cert = bound_single_trajectory(*need("n", "delta", "B", "T"))
    elif theorem == "cor_2_5":
        cert = bound_early(*need("n", "delta", "B", "t"))
    elif theorem in ("eq_8", "eq_8_fractal"):
        cert = bound_fractal(*need("n", "delta", "B", "L", "R", "gamma", "d_H"))
    elif theorem == "thm_3_2":
        n, delta, B, L, R, gamma = need("n", "delta", "B", "L", "R", "gamma")
        cert = bound_piecewise_approx(n, delta, B, L, R, gamma, T=cfg.get("T"),
                                      P=cfg.get("P", 1), xi=cfg.get("xi", 0.0),
                                      eta=cfg.get("eta", 0.0))
    elif theorem == "thm_5_3":
        n, delta, B, L, R, gamma = need("n", "delta", "B", "L", "R", "gamma")
        cert = bound_piecewise_contractive(n, delta, B, L, R, gamma, T=cfg.get("T"),
                                           P=cfg.get("P", 1), xi=cfg.get("xi", 0.0))
    elif theorem == "thm_4_1":
        cert = bound_multi_index(*need("n", "delta", "B", "L", "R", "R_x", "K",
                                       "Q", "beta", "eta", "lam"))
    elif theorem == "thm_4_3":
        cert = bound_soft_kmeans(*need("n", "delta", "K", "R", "zeta", "eta"))
    elif theorem == "thm_4_4":
        cert = bound_hard_kmeans(*need("n", "delta", "K", "R", "eta"))
    elif theorem == "thm_b_1":
        cert = bound_master_covering(*need("n", "delta", "B", "L", "T",
                                           "cover_cardinality", "epsilon"))
    elif theorem in ("thm_d_1", "thm_d_2", "cor_d_3"):
        n, B, T = need("n", "B", "T")
        cert = bound_expectation(n, B, T, theorem.upper(), C=cfg.get("C", 1.0))
    else:
        raise UsageError(f"unknown theorem {cfg['theorem']!r}")

    doc = _envelope("bound", args.seed, cfg, cert.to_dict())
    _write_json(doc, args.out)
    print(f"certificate {cert.theorem}")
    for name, value in cert.components.items():
        if value is not None:
            print(f"  {name:24s} {value:.12g}")
    print(f"  {'total':24s} {cert.total:.12g}")
    if cert.flags:
        print(f"  flags: {', '.join(cert.flags)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

_COVER_KEYS = ("scenario", "T", "epsilon", "cap", "dedupe", "verify_trials",
               "max_extra_steps", "threads")


def _cmd_cover(args) -> int:
    cfg = _merged(args, _COVER_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    if eta is None:
        raise UsageError("scenario needs 'eta'")
    update = SGDStep(family, eta, domain=_need_domain(domain), project=True)

    T = cfg.get("T")
    epsilon = cfg.get("epsilon")
    if T is None:
        c = family.constants
        if epsilon is None or c.alpha is None or c.beta is None:
            raise UsageError("give T, or epsilon plus a family with declared alpha/beta")
        gamma = contraction_factor(c.alpha, c.beta, eta)
        T = cover_horizon(domain.bounding_radius(), epsilon, gamma)
    cover = enumerate_cover(update, dataset, int(T), cap=_cap(cfg),
                            dedupe=bool(cfg.get("dedupe", False)), epsilon=epsilon,
                            threads=int(cfg.get("threads", 1)))

    result = {"horizon": cover.horizon, "entries": len(cover),
              "n_samples": cover.n_samples, "epsilon": epsilon,
              "deduped": cover.deduped}
    verification = None
    if cfg.get("verify_trials"):
        if epsilon is None:
            raise UsageError("verification needs epsilon")
        verification = verify_cover(cover, update, dataset, int(cfg["verify_trials"]),
                                    int(cfg.get("max_extra_steps", 50)), float(epsilon),
                                    seed=args.seed)
        result["verification"] = {
            "trials": verification.trials, "failures": verification.failures,
            "max_min_distance": verification.max_min_distance,
            "passed": verification.passed,
        }

    if args.out:
        cover.write_jsonl(args.out)
        _write_json(_envelope("cover", args.seed, cfg, result), args.out + ".meta.json")
        print(f"cover: {len(cover)} entries at horizon {cover.horizon} -> {args.out}")
        if verification is not None:
            print(f"verification: {verification.failures} failures in "
                  f"{verification.trials} trials, max distance "
                  f"{verification.max_min_distance:.6g} vs epsilon {epsilon:.6g}")
    else:
        for entry in cover.entries:
            print(entry.to_json())
    if verification is not None and not verification.passed:
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

_CONTRACT_KEYS = ("scenario", "pairs", "steps", "tolerance")


def _cmd_contract(args) -> int:
    cfg = _merged(args, _CONTRACT_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    if eta is None:
        raise UsageError("scenario needs 'eta'")
    domain = _need_domain(domain)
    pairs = int(cfg.get("pairs", 100))
    steps = int(cfg.get("steps", 50))
    tol = float(cfg.get("tolerance", 1e-9))
    update = SGDStep(family, eta, domain=domain, project=True)

    c = family.constants
    theoretical = None
    if c.alpha is not None and c.beta is not None and 0 < eta < 2.0 / c.beta:
        theoretical = contraction_factor(c.alpha, c.beta, eta)

    # ratios measured below this distance are dominated by rounding noise
    scale = domain.bounding_radius()
    floor = 1e-6 * (scale if math.isfinite(scale) else 1.0)
    worst = 0.0
    for k in range(pairs):
        rng = substream(args.seed, k)
        a, b = domain.sample(rng), domain.sample(rng)
        if np.array_equal(a, b):
            continue
        indices = rng.integers(0, dataset.n, size=steps)
        report = coupled_contraction_ratio(update, a, b, indices, dataset)
        worst = max(worst, report.max_measurable_ratio(floor))

    ok = theoretical is None or worst <= theoretical + tol
    result = {"pairs": pairs, "steps": steps, "max_ratio": worst,
              "theoretical_gamma": theoretical, "within_tolerance": ok}
    _write_json(_envelope("contract", args.seed, cfg, result), args.out)
    print(f"max coupled ratio {worst:.12g}"
          + (f" vs gamma {theoretical:.12g}" if theoretical is not None else ""))
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

_APPROX_KEYS = ("function", "R", "xi", "alpha", "beta", "grid", "cap")

_FUNCTIONS = {
    "sin_plus_cos": (
        2,
        lambda th: math.sin(th[0]) + math.cos(th[1]),
        lambda th: np.array([math.cos(th[0]), -math.sin(th[1])]),
        1.0,
    ),
}


def _cmd_approx(args) -> int:
    cfg = _merged(args, _APPROX_KEYS)
    _require(cfg, "function", "R", "xi")
    name = cfg["function"]
    if name not in _FUNCTIONS:
        raise UsageError(f"unknown function {name!r}; available: {sorted(_FUNCTIONS)}")
    d, value, grad, beta_prime = _FUNCTIONS[name]
    R, xi = float(cfg["R"]), float(cfg["xi"])
    alpha = float(cfg.get("alpha", 1.0))
    beta = float(cfg.get("beta", 1.0))
    grid = int(cfg.get("grid", 200))
    domain = Ball(np.zeros(d), R)
    fn = smooth_function(value, grad, beta_prime)
    approx = build_piecewise_approx(fn, domain, xi, (alpha, beta), cap=_cap(cfg))

    axes = [np.linspace(-R, R, grid)] * d
    mesh = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= R]
    max_err = max(
        float(np.linalg.norm(fn.grad(p) - approx.grad(p))) for p in mesh
    )
    result = {"function": name, "xi": xi, "max_gradient_error": max_err,
              "grid_points": int(mesh.shape[0]),
              "piece_count": approx.piece_count,
              "piece_bound": approx.closed_form_piece_bound(),
              "anchor_count": approx.anchor_count,
              "passed": max_err <= xi}
    _write_json(_envelope("approx", args.seed, cfg, result), args.out)
    print(f"max gradient error {max_err:.6g} vs xi {xi:.6g}; "
          f"{approx.piece_count} pieces (bound {approx.closed_form_piece_bound():.6g})")
    return EXIT_OK if result["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

_GAP_KEYS = ("scenario", "t", "m")


def _cmd_gap(args) -> int:
    cfg = _merged(args, _GAP_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    if eta is None:
        raise UsageError("scenario needs 'eta'")
    _require(cfg, "t")
    domain = _need_domain(domain)
    update = SGDStep(family, eta, domain=domain, project=True)
    init = domain.sample(substream(args.seed, 1))
    config = SGDConfig(init=init, steps=int(cfg["t"]), scheme="uniform", seed=args.seed)
    trajectory = run_trajectory(update, config, dataset)
    est = estimate_gap(family, dataset, trajectory, m=int(cfg.get("m", 100_000)),
                       seed=args.seed)
    result = {
        "empirical_risk": est.empirical_risk, "population_risk": est.population_risk,
        "gap": est.gap, "mc_standard_error": est.mc_standard_error,
        "exact_population": est.exact_population, "t": est.t,
        "indices_digest": est.indices_digest, "flags": list(est.flags),
    }
    _write_json(_envelope("gap", args.seed, cfg, result), args.out)
    print(f"empirical {est.empirical_risk:.6g}  population {est.population_risk}  "
          f"gap {est.gap}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_VALIDATE_KEYS = ("scenario", "resamplings", "trials", "delta", "shrink",
                  "t_band", "threads")


def _cmd_validate(args) -> int:
    cfg = _merged(args, _VALIDATE_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    if eta is None:
        raise UsageError("scenario needs 'eta'")
    _require(cfg, "resamplings", "trials", "delta")
    n = scen.get("dataset", {}).get("n", dataset.n)
    scenario = Scenario(name=scen.get("name", family.name), family=family,
                        distribution=dist, domain=domain, eta=eta, n=int(n))
    report = validate_bound(
        scenario, int(cfg["resamplings"]), int(cfg["trials"]), float(cfg["delta"]),
        seed=args.seed, shrink=float(cfg.get("shrink", 1.0)),
        t_band=int(cfg.get("t_band", 50)), threads=int(cfg.get("threads", 1)),
    )
    result = {
        "scenario": report.scenario, "resamplings": report.resamplings,
        "violations": report.violations, "certificate_total": report.certificate_total,
        "max_observed_gap": report.max_observed_gap, "delta": report.delta,
        "passed": report.passed,
    }
    _write_json(_envelope("validate", args.seed, cfg, result), args.out)
    if args.csv:
        report.write_csv(args.csv)
    print(f"{report.violations}/{report.resamplings} violations of "
          f"{report.certificate_total:.6g} (max gap {report.max_observed_gap:.6g}) "
          f"-> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

_KMEANS_KEYS = ("scenario", "iters")


def _cmd_kmeans(args) -> int:
    cfg = _merged(args, _KMEANS_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    c = family.constants
    if c.zeta is None or c.K is None:
        raise UsageError("kmeans needs a soft_kmeans scenario family")
    K, zeta, R = int(c.K), float(c.zeta), float(c.R)
    d = np.atleast_1d(np.asarray(dataset.samples[0], dtype=float)).shape[0]
    rng = substream(args.seed, 2)
    theta0 = np.vstack([Ball(np.zeros(d), R).sample(rng) for _ in range(K)])
    centers, iters = run_em(theta0, dataset, zeta, max_iters=int(cfg.get("iters", 10_000)))
    equiv = verify_em_equivalence(centers, dataset, zeta, K=K, d=d)
    grad_norm = float(np.linalg.norm(numeric_gradient(
        lambda th: empirical_risk(family, dataset, th), centers.reshape(-1), step=1e-5
    )))
    result = {
        "iterations": iters, "centers": centers,
        "gmm_log_likelihood": equiv.gmm_log_likelihood,
        "affine_image": equiv.affine_image, "residual": equiv.residual,
        "slope": equiv.slope, "intercept": equiv.intercept,
        "fixed_point_gradient_norm": grad_norm,
        "passed": equiv.passed and grad_norm <= 1e-6,
    }
    _write_json(_envelope("kmeans", args.seed, cfg, result), args.out)
    print(f"alternating update converged in {iters} iterations; "
          f"affine residual {equiv.residual:.3g}; |grad| {grad_norm:.3g}")
    return EXIT_OK if result["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

_STABILITY_KEYS = ("eta", "inits", "steps", "n_samples")


def _cmd_stability(args) -> int:
    cfg = _merged(args, _STABILITY_KEYS)
    report = stability_experiment(
        eta=float(cfg.get("eta", 1.0 / 3.0)), inits=int(cfg.get("inits", 10_000)),
        steps=int(cfg.get("steps", 200)), seed=args.seed,
        n_samples=int(cfg.get("n_samples", 10)),
    )
    passed = report.separation >= 1.5 and report.basin_respected
    result = {
        "mean_identical": report.mean_identical, "mean_swapped": report.mean_swapped,
        "separation": report.separation, "converged_fraction": report.converged_fraction,
        "basin_respected": report.basin_respected, "eta": report.eta,
        "steps": report.steps, "inits": report.inits,
        "n_samples": report.n_samples, "passed": passed,
    }
    _write_json(_envelope("stability", args.seed, cfg, result), args.out)
    print(f"mean endpoint loss: identical data {report.mean_identical:.4f}, "
          f"swapped data {report.mean_swapped:.4f} (separation {report.separation:.4f})")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# ifs
# ---------------------------------------------------------------------------

_IFS_KEYS = ("centers", "gamma", "R", "points", "burn_in", "scales")


def _cmd_ifs(args) -> int:
    cfg = _merged(args, _IFS_KEYS)
    _require(cfg, "centers", "gamma", "R")
    centers = cfg["centers"]
    if isinstance(centers, str):
        centers = json.loads(centers)
    model = IFSModel(np.asarray(centers, dtype=float), float(cfg["gamma"]), float(cfg["R"]))
    dim = ifs_dimension(model)
    points = int(cfg.get("points", 200_000))
    orbit = model.sample_attractor(points, seed=args.seed,
                                   burn_in=int(cfg.get("burn_in", 64)))
    if cfg.get("scales") is not None:
        scales = [float(s) for s in cfg["scales"]]
    else:
        span = 2.0 * model.radius
        scales = [span * model.gamma**k for k in range(1, 8)]
    fit = box_counting_dimension(orbit, scales)
    result = {
        "n_maps": model.n_maps, "gamma": model.gamma, "radius": model.radius,
        "dimension": dim.dimension, "certified": dim.certified, "warning": dim.warning,
        "box_counting_estimate": fit.dimension,
        "abs_error": abs(fit.dimension - dim.dimension),
        "scales": list(fit.scales), "counts": list(fit.counts),
        "orbit_points": points,
    }
    _write_json(_envelope("ifs", args.seed, cfg, result), args.out)
    print(f"dimension {dim.dimension:.6f} (certified: {dim.certified}); "
          f"box-counting estimate {fit.dimension:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hoeffding
# ---------------------------------------------------------------------------

_HOEFFDING_KEYS = ("scenario", "n_grid", "epsilon_grid", "resamplings")


def _cmd_hoeffding(args) -> int:
    cfg = _merged(args, _HOEFFDING_KEYS)
    scen = _scenario_cfg(cfg)
    family, dist, dataset, domain, eta = _build_scenario(scen, args.seed)
    _require(cfg, "n_grid", "epsilon_grid", "resamplings")
    n_grid = [int(v) for v in cfg["n_grid"]]
    eps_grid = [float(v) for v in cfg["epsilon_grid"]]
    theta = _need_domain(domain).sample(substream(args.seed, 3))
    report = hoeffding_check(family, theta, n_grid, eps_grid,
                             int(cfg["resamplings"]), dist, seed=args.seed)
    result = {
        "resamplings": report.resamplings, "passed": report.passed,
        "cells": [
            {"n": c.n, "epsilon": c.epsilon, "empirical_rate": c.empirical_rate,
             "bound": c.bound, "ok": c.ok}
            for c in report.cells
        ],
    }
    _write_json(_envelope("hoeffding", args.seed, cfg, result), args.out)
    worst = max(report.cells, key=lambda c: c.empirical_rate - c.bound)
    print(f"{len(report.cells)} grid cells, all within bound: {report.passed} "
          f"(tightest: rate {worst.empirical_rate:.4g} vs bound {worst.bound:.4g})")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_HANDLERS = {
    "bound": _cmd_bound, "cover": _cmd_cover, "contract": _cmd_contract,
    "approx": _cmd_approx, "gap": _cmd_gap, "validate": _cmd_validate,
    "kmeans": _cmd_kmeans, "stability": _cmd_stability, "ifs": _cmd_ifs,
    "hoeffding": _cmd_hoeffding,
}


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (recorded in outputs)")
    p.add_argument("--config", help="JSON file with parameter defaults (flags override)")
    p.add_argument("--out", help="write the JSON artifact here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdcover",
        description="Localized covers, contraction diagnostics, and "
                    "generalization-gap certificates for constant-step SGD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate a certificate")
    _add_common(p)
    p.add_argument("--theorem")
    for flag in ("delta", "B", "L", "R", "R-x", "gamma", "xi", "eta", "zeta",
                 "lam", "beta", "d-H", "epsilon", "C"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=float)
    for flag in ("n", "T", "t", "P", "Q", "K", "cover-cardinality"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=int)

    p = sub.add_parser("cover", help="enumerate (and optionally verify) a localized cover")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--T", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--dedupe", action="store_const", const=True, default=None)
    p.add_argument("--verify-trials", dest="verify_trials", type=int)
    p.add_argument("--max-extra-steps", dest="max_extra_steps", type=int)
    p.add_argument("--threads", type=int, help="accepted for compatibility; no effect")

    p = sub.add_parser("contract", help="measure coupled contraction ratios")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--pairs", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--tolerance", type=float)

    p = sub.add_parser("approx", help="build a piecewise quadratic surrogate and grade it")
    _add_common(p)
    p.add_argument("--function")
    p.add_argument("--R", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--cap", type=int)

    p = sub.add_parser("gap", help="estimate the generalization gap of one run")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=int)

    p = sub.add_parser("validate", help="validate a certificate by dataset resampling")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--resamplings", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--shrink", type=float)
    p.add_argument("--t-band", dest="t_band", type=int)
    p.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
    p.add_argument("--csv", help="write one row per resampling here")

    p = sub.add_parser("kmeans", help="alternating soft-clustering run + equivalence check")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--iters", type=int)

    p = sub.add_parser("stability", help="reproduce the 1-D stability gap")
    _add_common(p)
    p.add_argument("--eta", type=float)
    p.add_argument("--inits", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)

    p = sub.add_parser("ifs", help="attractor dimension: closed form vs box counting")
    _add_common(p)
    p.add_argument("--centers")
    p.add_argument("--gamma", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--scales", type=lambda s: [float(v) for v in s.split(",")])

    p = sub.add_parser("hoeffding", help="empirical tail frequencies vs the bound")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--n-grid", dest="n_grid", type=lambda s: [int(v) for v in s.split(",")])
    p.add_argument("--epsilon-grid", dest="epsilon_grid",
                   type=lambda s: [float(v) for v in s.split(",")])
    p.add_argument("--resamplings", type=int)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError, TypeError, KeyError, OSError, FloatingPointError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
