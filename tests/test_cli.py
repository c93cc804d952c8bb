"""Command-line interface: outputs, exit codes, and determinism."""

import ast
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdcover
from sgdcover import cli
from sgdcover.bounds import THEOREMS
from sgdcover.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from sgdcover.core import substream

QUADRATIC_SCENARIO = {
    "family": {
        "name": "quadratic_centers",
        "centers": [[0.8, 0.0], [-0.4, 0.6], [-0.2, -0.7]],
        "R": 1.0,
    },
    "eta": 0.5,
    "dataset": {"kind": "support"},
}


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def _env_with_package_path():
    src = str(Path(sgdcover.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestBoundCommand:
    def test_strongly_convex_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(["bound", "--theorem", "thm_2_3", "--n", "100", "--delta", "0.05",
                    "--B", "1", "--L", "1", "--R", "1", "--gamma", "0.5",
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = load(out)
        total = doc["result"]["total"]
        assert total == pytest.approx(0.5401679738831866, abs=1e-9)
        printed = capsys.readouterr().out
        assert f"{total:.12g}" in printed  # printed numbers come from the artifact

    def test_missing_parameter_is_usage_error(self):
        assert run(["bound", "--theorem", "thm_2_3", "--n", "100"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag,value,message", [
        ("--L", "inf", "L must be finite and positive, got inf"),
        ("--R", "nan", "R must be finite and positive, got nan"),
        ("--B", "nan", "B must be finite and nonnegative, got nan"),
        ("--B", "inf", "B must be finite and nonnegative, got inf"),
    ])
    def test_non_finite_input_is_named(self, tmp_path, capsys, flag, value, message):
        argv = {"--n": "100", "--delta": "0.05", "--B": "1", "--L": "1", "--R": "1",
                "--gamma": "0.5", flag: value}
        out = tmp_path / "cert.json"
        assert run(["bound", "--theorem", "thm_2_3", *itertools.chain(*argv.items()),
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_theorem(self):
        assert run(["bound", "--theorem", "thm_9_9", "--n", "10"]) == EXIT_USAGE

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "theorem": "cor_2_4", "n": 1000, "delta": 0.05, "B": 1.0, "T": 8,
        }))
        out = tmp_path / "cert.json"
        code = run(["bound", "--config", str(cfg), "--n", "500", "--out", str(out)])
        assert code == EXIT_OK
        doc = load(out)
        assert doc["config"]["n"] == 500
        assert doc["result"]["inputs"]["n"] == 500

    BASE = {"n": 100, "delta": 0.05, "B": 1.0, "L": 2.0, "R": 1.5, "gamma": 0.5}

    @pytest.mark.parametrize("theorem,flags,reference", [
        ("thm_2_3", BASE, lambda: sgdcover.bound_strongly_convex(100, 0.05, 1.0, 2.0, 1.5, 0.5)),
        ("cor_2_4", {"n": 100, "delta": 0.05, "B": 1.0, "T": 8},
         lambda: sgdcover.bound_single_trajectory(100, 0.05, 1.0, 8)),
        ("cor_2_5", {"n": 100, "delta": 0.05, "B": 1.0, "t": 5},
         lambda: sgdcover.bound_early(100, 0.05, 1.0, 5)),
        ("eq_8", dict(BASE, **{"d-H": 0.63}),
         lambda: sgdcover.bound_fractal(100, 0.05, 1.0, 2.0, 1.5, 0.5, 0.63)),
        ("eq_8_fractal", dict(BASE, **{"d-H": 0.63}),
         lambda: sgdcover.bound_fractal(100, 0.05, 1.0, 2.0, 1.5, 0.5, 0.63)),
        ("thm_3_2", BASE,
         lambda: sgdcover.bound_piecewise_approx(100, 0.05, 1.0, 2.0, 1.5, 0.5)),
        ("thm_3_2", dict(BASE, T=5, P=3, xi=0.1, eta=0.2),
         lambda: sgdcover.bound_piecewise_approx(100, 0.05, 1.0, 2.0, 1.5, 0.5,
                                                 T=5, P=3, xi=0.1, eta=0.2)),
        ("thm_5_3", dict(BASE, P=2, xi=0.01),
         lambda: sgdcover.bound_piecewise_contractive(100, 0.05, 1.0, 2.0, 1.5, 0.5,
                                                      P=2, xi=0.01)),
        ("thm_4_1", dict(BASE, **{"R-x": 0.5, "K": 2, "Q": 3, "beta": 1.2, "eta": 0.4,
                                  "lam": 1.1}),
         lambda: sgdcover.bound_multi_index(100, 0.05, 1.0, 2.0, 1.5, 0.5, 2, 3, 1.2, 0.4, 1.1)),
        ("thm_4_3", {"n": 100, "delta": 0.05, "K": 2, "R": 1.0, "zeta": 0.05, "eta": 0.1},
         lambda: sgdcover.bound_soft_kmeans(100, 0.05, 2, 1.0, 0.05, 0.1)),
        ("thm_4_4", {"n": 100, "delta": 0.05, "K": 2, "R": 1.5, "eta": 0.25},
         lambda: sgdcover.bound_hard_kmeans(100, 0.05, 2, 1.5, 0.25)),
        ("thm_b_1", {"n": 100, "delta": 0.05, "B": 1.0, "L": 2.0, "T": 3,
                     "cover-cardinality": 27, "epsilon": 0.1},
         lambda: sgdcover.bound_master_covering(100, 0.05, 1.0, 2.0, 3, 27, 0.1)),
        ("thm_d_1", {"n": 100, "B": 1.0, "T": 8},
         lambda: sgdcover.bound_expectation(100, 1.0, 8, "THM_D_1")),
        ("THM_D_2", {"n": 100, "B": 1.0, "T": 8, "C": 2.0},
         lambda: sgdcover.bound_expectation(100, 1.0, 8, "THM_D_2", C=2.0)),
        ("cor_d_3", {"n": 100, "B": 1.0, "T": 8},
         lambda: sgdcover.bound_expectation(100, 1.0, 8, "COR_D_3")),
    ])
    def test_every_theorem_id_reaches_its_calculator(self, tmp_path, theorem, flags, reference):
        out = tmp_path / "cert.json"
        argv = ["bound", "--theorem", theorem, "--out", str(out)]
        argv += [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
        assert run(argv) == EXIT_OK
        cert = reference()
        result = load(out)["result"]
        assert (result["theorem"], result["total"]) == (cert.theorem, cert.total)

    @pytest.mark.parametrize("theorem,flags,flag", [
        ("thm_4_1", {"B": 1, "L": 0.001, "R": 1, "R-x": 1, "K": 2, "Q": 1, "beta": 1,
                     "eta": 0.5, "lam": 1}, "zero_horizon"),  # 3LRn <= 1
        ("thm_4_3", {"K": 1, "R": 0.001, "zeta": 0.01, "eta": 0.5}, "zero_horizon"),
        ("thm_4_4", {"K": 2, "R": 1.5, "eta": 0.5}, "instant_contraction"),
    ])
    def test_collapsed_horizon_is_flagged(self, tmp_path, capsys, theorem, flags, flag):
        """A horizon of 0 needs no pieces (P = 1, kappa "inf") and no sample
        dependency term, and ``bound`` prints the flag that says why."""
        out = tmp_path / "cert.json"
        argv = ["bound", "--theorem", theorem, "--n", "100", "--delta", "0.05", "--out", str(out)]
        argv += [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
        assert run(argv) == EXIT_OK
        result = load(out)["result"]
        assert result["flags"] == [flag]
        assert result["inputs"]["T"] == 0
        assert result["components"]["sample_dependency_term"] == 0.0
        if theorem != "thm_4_4":
            assert (result["inputs"]["P"], result["inputs"]["kappa"]) == (1, "inf")
        assert capsys.readouterr().out.splitlines()[-1] == f"  flags: {flag}"
        # numpy scalars in a result are written as the JSON scalars they hold
        jsonable = cli._jsonable({0: (np.bool_(True), np.int64(3), np.float64(0.5), np.inf)})
        assert jsonable == {"0": [True, 3, 0.5, "inf"]}
        assert [type(v) for v in jsonable["0"]] == [bool, int, float, str]

    def test_expectation_variants(self, tmp_path):
        out = tmp_path / "d1.json"
        code = run(["bound", "--theorem", "thm_d_1", "--n", "100", "--B", "1",
                    "--T", "8", "--out", str(out)])
        assert code == EXIT_OK
        assert load(out)["result"]["total"] == pytest.approx(0.09)


class TestCoverCommand:
    def test_jsonl_entries(self, tmp_path):
        scenario = dict(QUADRATIC_SCENARIO)
        scenario["family"] = dict(scenario["family"], centers=[[0.8, 0.0], [-0.4, 0.6]])
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        entry = json.loads(lines[0])
        assert set(entry) == {"seq", "point", "deps"}
        meta = load(str(out) + ".meta.json")
        assert meta["result"]["entries"] == 4
        assert meta["seed"] == 0

    @pytest.mark.parametrize("argv,scenario", [
        (["cover", "--T", "4"], QUADRATIC_SCENARIO),
        (["cover", "--epsilon", str(1.0 / 6.0), "--verify-trials", "50"], QUADRATIC_SCENARIO),
        (["validate", "--resamplings", "2", "--trials", "3", "--delta", "0.05"],
         dict(QUADRATIC_SCENARIO, dataset={"kind": "iid", "n": 50})),
        (["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3333333333", "--R", "1",
          "--points", "1000"], None),
        (["cover", "--T", "1"], dict(QUADRATIC_SCENARIO, eta=1e200)),
    ], ids=["cover-enum", "cover-verify", "validate", "ifs", "cover-huge-step"])
    def test_command_raises_no_runtime_warning(self, tmp_path, argv, scenario):
        """Every workload command, and a step whose update's squared norm
        overflows, runs with runtime warnings as errors: the one-row step
        proves each update finite by the ball's inside test, and a norm that
        overflows is outside the ball, which the projection does not report."""
        if scenario is not None:
            argv = argv + ["--scenario", write_scenario(tmp_path, scenario)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv + ["--out", str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_verification_path(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--epsilon", str(1.0 / 6.0),
                    "--verify-trials", "200", "--out", str(out)])
        assert code == EXIT_OK
        meta = load(str(out) + ".meta.json")
        assert meta["result"]["horizon"] == 3
        assert meta["result"]["verification"]["passed"] is True

    def test_stdout_lines_match_the_jsonl_file(self, tmp_path, monkeypatch, capsys):
        """Without --out the cover prints the lines write_jsonl writes: the
        golden JSONL digest of ``cover --T 2`` holds for stdout too."""
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, QUADRATIC_SCENARIO)
        assert run(["cover", "--scenario", "scenario.json", "--T", "2"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert hashlib.sha256(printed.encode()).hexdigest() == (
            "49e5e1f3e12e88e1dc1e179596a7f31f296ed96dbc364d6afa79bf887ac6958d")
        assert run(["cover", "--scenario", "scenario.json", "--T", "2", "--out", "c"]) == EXIT_OK
        assert (tmp_path / "c").read_text() == printed

    def test_huge_step_projects_onto_the_boundary(self, tmp_path):
        """At eta = 1e200 each update is 1e200 times its centre, whose squared
        norm overflows: the written points lie on the unit circle, within a
        few ulps, in their centres' directions."""
        scenario = {"family": {"name": "quadratic_centers", "centers": [[0.5, 0.0], [0.0, 0.5]],
                               "R": 1.0}, "eta": 1e200}
        out = tmp_path / "cover.jsonl"
        assert run(["cover", "--scenario", write_scenario(tmp_path, scenario), "--T", "1",
                    "--out", str(out)]) == EXIT_OK
        points = np.array([json.loads(line)["point"] for line in out.read_text().splitlines()])
        ulps = 4 * np.finfo(float).eps
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, rtol=ulps)
        np.testing.assert_allclose(points, [[1.0, 0.0], [0.0, 1.0]], rtol=ulps, atol=0)

    def test_cap_exceeded_is_usage_error(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--T", "9", "--cap", "100",
                    "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()  # refusal is total: no partial artifact

    def test_malformed_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", str(bad), "--T", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestExitCodeContract:
    """Exit 1 means a validation FAIL and nothing else; bad input is exit 2."""

    @pytest.mark.parametrize("scenario", [
        dict(QUADRATIC_SCENARIO, family=dict(QUADRATIC_SCENARIO["family"], centers=5)),
        dict(QUADRATIC_SCENARIO, eta="fast"),
        dict(QUADRATIC_SCENARIO, dataset=5),
        dict(QUADRATIC_SCENARIO, dataset=[1]),
        dict(QUADRATIC_SCENARIO, eta=True),
        dict(QUADRATIC_SCENARIO, dataset={"kind": "iid", "n": 2.7}),
        {"family": {"name": "hard_kmeans", "K": 2, "R": 1.0}, "eta": 0.25,
         "dataset": {"kind": "points", "points": [[0.1, 0.2], [0.3]]}},
    ], ids=["centers-not-a-list", "eta-not-a-number", "dataset-a-number", "dataset-a-list",
            "eta-a-boolean", "n-not-an-integer", "ragged-points"])
    def test_mistyped_scenario_is_usage_error(self, tmp_path, scenario):
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cover", "--T", "2"],
        ["contract", "--pairs", "2", "--steps", "2"],
        ["gap", "--t", "2"],
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05"],
        ["kmeans"],
        ["hoeffding", "--n-grid", "20", "--epsilon-grid", "0.1", "--resamplings", "10"],
    ], ids=lambda argv: argv[0])
    def test_every_scenario_command_validates_the_descriptor(self, tmp_path, argv):
        spath = write_scenario(tmp_path, dict(QUADRATIC_SCENARIO, dataset=5))
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", spath, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    @pytest.mark.parametrize("argv,file_cfg", [
        (["cover", "--T", "2"], {"scenario": QUADRATIC_SCENARIO, "dedupe": "false"}),
        (["cover", "--T", "2"], {"scenario": QUADRATIC_SCENARIO, "dedupe": 1}),
        (["cover"], {"scenario": QUADRATIC_SCENARIO, "T": 2.9}),
        (["cover"], {"scenario": QUADRATIC_SCENARIO, "T": True}),
        (["cover", "--T", "2"], {"scenario": QUADRATIC_SCENARIO, "cap": "abc"}),
        (["bound", "--theorem", "thm_2_3", "--n", "100", "--L", "1", "--R", "1",
          "--gamma", "0.5", "--delta", "0.05"], {"B": True}),
        (["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3333333333", "--R", "1",
          "--points", "2000"], {"scales": [1, "0.1", 0.01, 0.001]}),
        (["hoeffding", "--epsilon-grid", "0.1", "--resamplings", "10"],
         {"scenario": QUADRATIC_SCENARIO, "n_grid": [20.5]}),
    ], ids=["flag-a-string", "flag-an-integer", "int-a-float", "int-a-boolean", "int-a-string",
            "float-a-boolean", "floats-with-a-string", "ints-with-a-float"])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, argv, file_cfg):
        """Config-file values must have the JSON type of their flag."""
        cfg = write_scenario(tmp_path, file_cfg, "cfg.json")
        out = tmp_path / "out.json"
        assert run(argv + ["--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "--resamplings", "5", "--trials", "0", "--delta", "0.05"],
        ["validate", "--resamplings", "0", "--trials", "3", "--delta", "0.05"],
        ["contract", "--pairs", "0"],
        ["contract", "--steps", "0"],
        ["cover", "--T", "1", "--epsilon", "0.5", "--verify-trials", "0"],
        ["gap", "--t", "2", "--m", "0"],
        ["gap", "--t", "2", "--m", "-5"],
    ], ids=["validate-no-trials", "validate-no-resamplings", "contract-no-pairs",
            "contract-no-steps", "cover-no-verify-trials", "gap-no-draws", "gap-negative-draws"])
    def test_run_that_checks_nothing_is_usage_error(self, tmp_path, argv):
        spath = write_scenario(tmp_path, dict(QUADRATIC_SCENARIO,
                                              dataset={"kind": "iid", "n": 20}))
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", spath, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    SCENARIOS = {
        "quadratic.json": QUADRATIC_SCENARIO,
        "hard_kmeans.json": {"family": {"name": "hard_kmeans", "K": 2, "R": 1.0}, "eta": 0.25,
                             "dataset": {"kind": "points",
                                         "points": [[0.1, 0.2], [0.3, 0.1], [-0.2, 0.4]]}},
        "unknown.json": dict(QUADRATIC_SCENARIO, family={"name": "perceptron"}),
        "iid_kmeans.json": {"family": {"name": "hard_kmeans", "K": 2, "R": 1.0, "d": 2},
                            "eta": 0.25, "dataset": {"kind": "iid", "n": 5}},
    }
    BOUND = ["--n", "100", "--delta", "0.05", "--B", "1", "--L", "1", "--R", "1"]

    @pytest.mark.parametrize("argv,message", [
        (["validate", "--scenario", "quadratic.json", "--resamplings", "2", "--trials", "2",
          "--delta", "1"], "delta must lie in (0, 1), got 1.0"),
        (["validate", "--scenario", "hard_kmeans.json", "--resamplings", "2", "--trials", "2",
          "--delta", "0.05"], "scenario family must declare alpha, beta, L, B, R"),
        (["cover", "--scenario", "hard_kmeans.json", "--epsilon", "0.1"],
         "give T, or epsilon plus a family with declared alpha/beta"),
        (["cover", "--scenario", "quadratic.json", "--T", "2", "--verify-trials", "5"],
         "verification needs epsilon"),
        (["cover", "--scenario", "unknown.json", "--T", "2"],
         "bad scenario.family: unknown family 'perceptron'"),
        (["cover", "--scenario", "iid_kmeans.json", "--T", "2"],
         "dataset descriptor needs explicit 'points' for this family"),
        (["approx", "--function", "nope", "--R", "1", "--xi", "0.5"],
         "unknown function 'nope'; available: ['sin_plus_cos']"),
        (["bound", "--theorem", "thm_3_2", "--gamma", "1", *BOUND],
         "the default horizon needs gamma < 1; supply T explicitly"),
        (["bound", "--theorem", "thm_3_2", "--gamma", "1", "--T", "-1", *BOUND],
         "T must be nonnegative"),
        (["bound", "--theorem", "thm_5_3", "--gamma", "0", *BOUND],
         "gamma must lie in (0, 1]"),
        (["gap", "--scenario", "quadratic.json", "--t", "-1"],
         "t must be a non-negative integer, got -1"),
    ], ids=["validate-delta-one", "validate-undeclared-constants", "cover-epsilon-without-T",
            "cover-verify-without-epsilon", "unknown-family", "iid-clustering-without-points",
            "approx-unknown-function", "bound-unit-gamma-without-T", "bound-negative-T",
            "bound-zero-gamma", "gap-negative-t"])
    def test_refusal_prints_one_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                         argv, message):
        monkeypatch.chdir(tmp_path)
        for name, scenario in self.SCENARIOS.items():
            write_scenario(tmp_path, scenario, name)
        assert run(argv + ["--out", "out.json"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.SCENARIOS)

    def test_negative_kmeans_iteration_budget_is_usage_error(self, tmp_path, capsys):
        """``--iters -1`` is refused before any output, not run as an empty
        budget that reports -1 iterations and FAILs."""
        spath = write_scenario(tmp_path, {
            "family": {"name": "soft_kmeans", "K": 2, "zeta": 1, "R": 1},
            "dataset": {"kind": "uniform_ball", "n": 20, "d": 2}})
        out = tmp_path / "km.json"
        assert run(["kmeans", "--scenario", spath, "--iters", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "max_iters must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta", [2.5, 2.0, 0.0])
    def test_contract_refuses_a_step_size_its_certificate_refuses(self, tmp_path, capsys, eta):
        """A family with alpha and beta is held to its contraction factor,
        which needs 0 < eta < 2/beta; outside that the run would check
        nothing, so it is refused before any output, as validate refuses it."""
        spath = write_scenario(tmp_path, dict(QUADRATIC_SCENARIO, eta=eta))
        out = tmp_path / "c.json"
        assert run(["contract", "--scenario", spath, "--pairs", "5", "--steps", "5",
                    "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"eta={eta} outside (0, 2.0)" in captured.err
        assert not out.exists()

    def test_contract_without_alpha_and_beta_only_measures(self, tmp_path):
        spath = write_scenario(tmp_path, {
            "family": {"name": "hard_kmeans", "K": 2, "R": 1.0}, "eta": 2.5,
            "dataset": {"kind": "uniform_ball", "n": 6, "d": 2}})
        out = tmp_path / "c.json"
        assert run(["contract", "--scenario", spath, "--pairs", "5", "--steps", "5",
                    "--out", str(out)]) == EXIT_OK
        res = load(out)["result"]
        assert res["theoretical_gamma"] is None and res["within_tolerance"] is True

    @pytest.mark.parametrize("scenario", [
        QUADRATIC_SCENARIO,
        dict(QUADRATIC_SCENARIO, dataset={"kind": "points", "points": [[0.1, 0.2], [0.3, -0.4]]}),
        {"family": {"name": "soft_kmeans", "K": 2, "zeta": 0.05, "R": 1.5}, "eta": 0.1,
         "dataset": {"kind": "uniform_ball", "n": 20, "d": 2}},
    ], ids=["support", "points", "uniform_ball"])
    def test_gap_without_population_draws_is_usage_error(self, tmp_path, capsys, scenario):
        """``gap --m 0`` is refused on the dataset kinds the size-zero test
        above does not run (it runs ``iid``), also where the population risk
        is exact and would draw nothing."""
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "out.json"
        argv = ["gap", "--scenario", spath, "--t", "2", "--m", "0", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        assert "m must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05", "--shrink", "0"],
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05", "--shrink", "nan"],
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05", "--shrink", "-1"],
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05", "--t-band", "-1"],
        ["contract", "--pairs", "2", "--steps", "2", "--tolerance", "nan"],
        ["contract", "--pairs", "2", "--steps", "2", "--tolerance", "inf"],
        ["contract", "--pairs", "2", "--steps", "2", "--tolerance", "-1"],
    ], ids=["shrink-zero", "shrink-nan", "shrink-negative", "t-band-negative",
            "tolerance-nan", "tolerance-inf", "tolerance-negative"])
    def test_bad_threshold_option_is_usage_error(self, tmp_path, capsys, argv):
        """A threshold that is not a finite, in-range number is refused before
        any output: exit 2, never the FAIL code 1 or a vacuous PASS."""
        spath = write_scenario(tmp_path, dict(QUADRATIC_SCENARIO,
                                              dataset={"kind": "iid", "n": 20}))
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", spath, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and argv[-2][2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("xi", ["inf", "nan"])
    def test_non_finite_xi_prints_only_the_error(self, tmp_path, xi):
        """A non-finite xi is refused before any arithmetic, so numpy prints
        no warning."""
        out = tmp_path / "approx.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sgdcover.cli", "approx", "--function", "sin_plus_cos",
             "--R", "1", "--xi", xi, "--out", str(out)],
            env=_env_with_package_path(), capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [f"error: xi must be finite and nonnegative, got {xi}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--beta", "inf"], "beta must be finite, got inf"),
        (["--alpha", "inf", "--beta", "inf"], "alpha must be finite, got inf"),
    ], ids=["beta", "alpha-and-beta"])
    def test_non_finite_curvature_prints_only_the_error(self, tmp_path, flags, message):
        """A non-finite alpha or beta is refused before the lattice spacing
        is computed from it, so numpy prints no warning."""
        out = tmp_path / "approx.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sgdcover.cli", "approx", "--function", "sin_plus_cos",
             "--R", "1", "--xi", "0.5", *flags, "--out", str(out)],
            env=_env_with_package_path(), capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("R", ["inf", "nan"])
    def test_non_finite_radius_prints_only_the_error(self, tmp_path, R):
        """The ball refuses a non-finite radius before the anchor lattice
        computes with it, so numpy prints no warning."""
        out = tmp_path / "approx.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sgdcover.cli", "approx", "--function", "sin_plus_cos",
             "--R", R, "--xi", "0.5", "--out", str(out)],
            env=_env_with_package_path(), capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [
            f"error: Ball radius must be finite and positive, got {R}"]
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
    def test_vacuous_epsilon_is_usage_error(self, tmp_path, epsilon):
        """An epsilon that is not finite and positive verifies nothing: exit 2,
        neither the JSONL nor its .meta.json is written."""
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        assert run(["cover", "--scenario", spath, "--T", "3", "--epsilon", epsilon,
                    "--verify-trials", "50", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    @pytest.mark.parametrize("grid", ["0", "1", "2"])
    def test_approx_grid_below_three_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "approx.json"
        assert run(["approx", "--function", "sin_plus_cos", "--R", "1", "--xi", "0.5",
                    "--grid", grid, "--out", str(out)]) == EXIT_USAGE
        assert "grid >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_hoeffding_empty_sample_size_prints_only_the_error(self, tmp_path):
        """n = 0 is refused before any resampling, so numpy prints no warning."""
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "hoeffding.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sgdcover.cli", "hoeffding", "--scenario", spath,
             "--n-grid", "0", "--epsilon-grid", "0.1", "--resamplings", "10",
             "--out", str(out)],
            env=_env_with_package_path(), capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == ["error: every n in n_grid must be >= 1, got 0"]
        assert not out.exists()

    def test_non_finite_update_is_usage_error(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise FloatingPointError("gradient produced non-finite values")

        monkeypatch.setattr("sgdcover.cli.enumerate_cover", overflow)
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        assert run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cover", "--scenario", "huge_kmeans.json", "--T", "1"],
        ["bound", "--theorem", "thm_4_3", "--n", "100", "--delta", "0.05", "--K", "2",
         "--R", "1000", "--zeta", "1", "--eta", "0.001"],
    ], ids=["hard-kmeans-R-1e200", "thm-4-3-overflow"])
    def test_arithmetic_overflow_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        """A float power or exp that overflows raises OverflowError, which is
        not a FloatingPointError: it exits 2 with one error line and writes
        nothing, since exit 1 means only a validation FAIL."""
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, {"family": {"name": "hard_kmeans", "K": 2, "R": 1e200},
                                  "eta": 0.25, "dataset": {"kind": "points",
                                                           "points": [[0.1, 0.2], [0.3, 0.1]]}},
                       name="huge_kmeans.json")
        assert run(argv + ["--out", "out"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge_kmeans.json"]

    @pytest.mark.parametrize("flags", [
        ["--centers", "[[1.0],[-1.0]]", "--burn-in", "-3"],
        ["--centers", "[[NaN],[1.0]]"],
        ["--centers", "[[1.0],[-1.0]]", "--scales", "1,0.1,0.01,1e-30"],
        ["--centers", "[[1.0],[-1.0]]", "--scales", "1,0.1,0.01,0.001,nan"],
    ], ids=["negative-burn-in", "nan-center", "scale-beyond-int64", "nan-scale"])
    def test_bad_ifs_input_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "ifs.json"
        code = run(["ifs", *flags, "--gamma", "0.3333333333", "--R", "1",
                    "--points", "2000", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("points", [1, 2])
    def test_one_high_dimensional_point_is_not_a_thousand_scalars(self, tmp_path, capsys,
                                                                  points):
        """A single orbit point in d = 1000 is one point, not 1000 scalars:
        box counting refuses it as it refuses two such points."""
        centers = json.dumps([[0.01] * 1000, [-0.01] * 1000])
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", centers, "--gamma", "0.5", "--R", "1",
                    "--points", str(points), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: box counting needs at least 1000 points"]
        assert not out.exists()

    @pytest.mark.parametrize("centers", ["[]", "[[]]", "[[1.0],[2.0,3.0]]"],
                             ids=["no-maps", "zero-dim", "ragged"])
    def test_malformed_ifs_centers_are_usage_error(self, tmp_path, capsys, centers):
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", centers, "--gamma", "0.5", "--R", "1",
                    "--points", "2000", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: centers must be a non-empty (n, d) array of equal-length rows, d >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize("R", ["inf", "nan"])
    def test_non_finite_ifs_radius_is_usage_error(self, tmp_path, capsys, R):
        """With explicit scales an infinite radius once passed every check and
        wrote an uncertified dimension; it is refused before sampling."""
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3333333333",
                    "--R", R, "--scales", "1,0.1,0.01,0.001", "--points", "2000",
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: radius must be finite and positive, got {R}"]
        assert not out.exists()

    def test_orbit_too_large_to_allocate_is_usage_error(self, tmp_path, capsys):
        """numpy refuses the 7.11 PiB array of map choices at once, allocating
        nothing; the MemoryError exits 2, not the FAIL code 1."""
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3333333333",
                    "--R", "1", "--points", "1000000000000000",
                    "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cover", "--T", "2"],
        ["contract"],
        ["gap", "--t", "2"],
        ["hoeffding", "--n-grid", "20", "--epsilon-grid", "0.1", "--resamplings", "10"],
    ], ids=lambda argv: argv[0])
    def test_scenario_without_a_domain_is_usage_error(self, tmp_path, monkeypatch, argv):
        """A family without a domain whose samples are not vectors leaves the
        domain undetermined; commands that sample or project need one."""
        def domainless(desc):
            return dataclasses.replace(sgdcover.stability_counterexample_1d(), domain=None)

        monkeypatch.setattr("sgdcover.cli.family_from_descriptor", domainless)
        spath = write_scenario(tmp_path, {"family": {"name": "stability_counterexample_1d"},
                                          "eta": 0.3})
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", spath, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cover", "--T", "2"],
        ["contract"],
        ["gap", "--t", "2"],
        ["validate", "--resamplings", "2", "--trials", "2", "--delta", "0.05"],
    ], ids=lambda argv: argv[0])
    def test_commands_that_step_need_eta(self, tmp_path, capsys, argv):
        scenario = {k: v for k, v in QUADRATIC_SCENARIO.items() if k != "eta"}
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", write_scenario(tmp_path, scenario),
                           "--out", str(out)]) == EXIT_USAGE
        assert "scenario needs 'eta'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_artifact_prints_no_result(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cert.json"
        assert run(["bound", "--theorem", "thm_d_1", "--n", "100", "--B", "1", "--T", "8",
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_failed_envelope_write_removes_the_csv(self, tmp_path):
        spath = write_scenario(tmp_path, dict(QUADRATIC_SCENARIO,
                                              dataset={"kind": "iid", "n": 20}))
        rows = tmp_path / "rows.csv"
        assert run(["validate", "--scenario", spath, "--resamplings", "2", "--trials", "2",
                    "--delta", "0.05", "--csv", str(rows),
                    "--out", str(tmp_path / "missing" / "r.json")]) == EXIT_USAGE
        assert not rows.exists()

    def test_failed_write_keeps_a_file_the_run_did_not_write(self, tmp_path):
        """A file that existed before the run and could not be written is
        not this run's output, so it is not removed."""
        fresh, kept = tmp_path / "fresh", tmp_path / "kept"
        kept.write_text("earlier run")

        def refuse(path):
            raise PermissionError(path)

        with pytest.raises(PermissionError):
            cli._write_outputs({str(fresh): lambda path: Path(path).write_text("x"),
                                str(kept): refuse})
        assert not fresh.exists()
        assert kept.read_text() == "earlier run"

    def test_failed_meta_write_removes_the_jsonl(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        Path(str(out) + ".meta.json").mkdir()
        assert run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert Path(str(out) + ".meta.json").is_dir()  # not this run's to remove


class TestDeterminism:
    def strip_timestamp(self, path):
        doc = load(path)
        doc.pop("timestamp")
        return json.dumps(doc, sort_keys=True)

    def test_identical_runs_are_byte_identical_modulo_timestamp(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["contract", "--scenario", spath, "--pairs", "20", "--steps", "30",
                "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert self.strip_timestamp(a) == self.strip_timestamp(b)

    def test_seed_is_recorded(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "g.json"
        assert run(["gap", "--scenario", spath, "--t", "20", "--seed", "42",
                    "--out", str(out)]) == EXIT_OK
        assert load(out)["seed"] == 42


def _sha256_without_timestamp(path):
    lines = path.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if '"timestamp":' not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


class TestIfsGolden:
    """sha256 of the ifs JSON minus its timestamp line, recorded when the orbit
    was one ``apply`` call per point and boxes were counted by whole rows."""

    @pytest.mark.parametrize("seed,digest", [
        (1, "02557408c65fb47f1a0fe6ece5e9675d5ccdcc2bd916fa074ee3379e36489a28"),
        (2, "0086f20efdd6f2bdc29e651e7eaaf671a7d93e6d143a3f33b26a38c66956a57f"),
        (3, "5d755aedd867128557784ae14b60c01152da9278c11839892417f4c1a4433f32"),
    ])
    def test_cantor_set(self, tmp_path, seed, digest):
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3333333333",
                    "--R", "1", "--points", "100000", "--seed", str(seed),
                    "--out", str(out)]) == EXIT_OK
        assert _sha256_without_timestamp(out) == digest

    @pytest.mark.parametrize("gamma", ["0.5", "0.9"])
    def test_default_scales_span_two_decades(self, tmp_path, gamma):
        """Once gamma^6 > 1/100 the default scales are 2R*0.4^k, k = 1..7,
        which box counting accepts; 2R*gamma^k would span too little."""
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", gamma, "--R", "1",
                    "--points", "100000", "--out", str(out)]) == EXIT_OK
        scales = load(out)["result"]["scales"]
        assert scales == [2.0 * 0.4**k for k in range(1, 8)]

    @pytest.mark.parametrize("centers,gamma,R", [
        ("[[1.0],[-1.0]]", "1e-60", "1"),  # 2R*gamma^7 underflows to 0.0
        ("[[1.0],[-1.0]]", "1e-40", "1"),  # normal, but more boxes than int64 holds
        ("[[1.0],[-1.0]]", "0.001", "1"),
        ("[[1e-300],[-1e-300]]", "0.01", "2e-300"),  # 2R*gamma^7 is subnormal
    ])
    def test_default_scales_for_tiny_scales(self, tmp_path, centers, gamma, R):
        """When 2R*gamma^k would give a scale box counting refuses, the
        default scales are 2R*0.4^k, k = 1..7."""
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", centers, "--gamma", gamma, "--R", R,
                    "--points", "2000", "--out", str(out)]) == EXIT_OK
        assert load(out)["result"]["scales"] == [2.0 * float(R) * 0.4**k for k in range(1, 8)]

    def test_two_point_attractor_has_dimension_zero(self, tmp_path, capsys):
        """Every box count is 2, so the estimate is 0.0, not a fitted slope
        a rounding error below zero."""
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "1e-60", "--R", "1",
                    "--points", "2000", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("box-counting estimate 0.000000\n")
        result = load(out)["result"]
        assert result["counts"] == [2.0] * 7 and result["box_counting_estimate"] == 0.0
        assert result["abs_error"] == result["dimension"]

    def test_planar_three_maps(self, tmp_path):
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0,0.0],[-0.5,0.8],[-0.5,-0.8]]",
                    "--gamma", "0.4", "--R", "1", "--points", "20000", "--burn-in", "0",
                    "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert _sha256_without_timestamp(out) == (
            "67574cead687a655d56ef66ae2a0e9648bbdc4db7a236ce1a5751a28feca7f9f")


class TestGoldenArtifacts:
    """sha256 of every artifact minus its timestamp line, recorded when each
    command declared its own flags, built its own scenario and wrote its own
    envelope.  Paths are relative to the work directory because the config
    echo includes the scenario path."""

    FILES = {
        "scenario.json": QUADRATIC_SCENARIO,
        "iid.json": dict(QUADRATIC_SCENARIO, dataset={"kind": "iid", "n": 40}),
        "named.json": dict(QUADRATIC_SCENARIO, name="atoms",
                           dataset={"kind": "support", "n": 50}),
        "clusters.json": {
            "family": {"name": "soft_kmeans", "K": 2, "zeta": 0.6, "R": 1.0},
            "dataset": {"kind": "points",
                        "points": np.random.default_rng(1).uniform(-0.7, 0.7, (20, 2)).tolist()},
        },
        "cfg.json": {"theorem": "cor_2_4", "n": 1000, "delta": 0.05, "B": 1.0, "T": 8},
    }

    @pytest.mark.parametrize("argv,digests", [
        (["bound", "--theorem", "thm_2_3", "--n", "100", "--delta", "0.05", "--B", "1",
          "--L", "1", "--R", "1", "--gamma", "0.5", "--out", "a.json"],
         {"a.json": "2d29bda6bea40ea3b7d4cb70f1e7c0bf56ffd5e2e6cf9550fc0df853100ebf82"}),
        (["bound", "--theorem", "thm_3_2", "--n", "200", "--delta", "0.05", "--B", "1",
          "--L", "2", "--R", "1", "--gamma", "0.5", "--P", "4", "--xi", "0.01",
          "--eta", "0.25", "--out", "a.json"],
         {"a.json": "b5318460a6766f59529c0edf94e92029370da32b31dfa840b61ea26d3a4dc474"}),
        (["bound", "--theorem", "thm_5_3", "--n", "200", "--delta", "0.05", "--B", "1",
          "--L", "2", "--R", "1", "--gamma", "0.5", "--P", "4", "--xi", "0.01",
          "--out", "a.json"],
         {"a.json": "693ea55889e384fc5d7a82008e6951420f559f3b262599ae747f3b5c79f5c84b"}),
        (["bound", "--config", "cfg.json", "--n", "500", "--out", "a.json"],
         {"a.json": "964cae63a79d8cd70c9d1a8dd801169c511d2f0840cdf671541eb4fd6c1680a6"}),
        (["cover", "--scenario", "scenario.json", "--T", "2", "--out", "c"],
         {"c": "49e5e1f3e12e88e1dc1e179596a7f31f296ed96dbc364d6afa79bf887ac6958d",
          "c.meta.json": "2b7e79d61866272f4b8cd227473b48709986d8e676f05d6ca15d71e08f717368"}),
        (["cover", "--scenario", "scenario.json", "--epsilon", "0.1666667", "--dedupe",
          "--verify-trials", "200", "--seed", "3", "--out", "c"],
         {"c": "86afedfa5926ceafe08f81c1f74e6ca48e29da083d017f7f0062a07af3146a78",
          "c.meta.json": "6c5a907d39384cb3f2357f40d55a43d689eb2cc222301c449ec76a40a9bac05d"}),
        (["contract", "--scenario", "scenario.json", "--pairs", "20", "--steps", "30",
          "--seed", "11", "--out", "a.json"],
         {"a.json": "93805153580d9697e1ec4ada87ba06bfd31c57274c3421bd11aab13fa677d415"}),
        (["approx", "--function", "sin_plus_cos", "--R", "1", "--xi", "0.5", "--grid", "60",
          "--out", "a.json"],
         {"a.json": "e7f8c71959622abecb0f7821301f3655b64ee24024aa3ee7304251fe658b2022"}),
        (["gap", "--scenario", "scenario.json", "--t", "20", "--seed", "42", "--out", "a.json"],
         {"a.json": "6495806983aadaf47d8f8fa44188e45d55afc0ebe4ae8542dd2cc88e3dd8c9f7"}),
        (["validate", "--scenario", "iid.json", "--resamplings", "30", "--trials", "3",
          "--delta", "0.05", "--out", "a.json", "--csv", "a.csv"],
         {"a.json": "1082328e0663d014af1989403ad60d3b83d4777193bc19acb27bc568bd1673b3",
          "a.csv": "eac1b1c89cbb1f2d67ff1770ca040a9b579c5a0e5f8d2ee9390349431fda49ca"}),
        (["validate", "--scenario", "named.json", "--resamplings", "10", "--trials", "3",
          "--delta", "0.05", "--t-band", "5", "--out", "a.json"],
         {"a.json": "0f48c9ac8eaef4fc077bd5cae93f3c5576020139bd40202cf806fdce37ba4e0e"}),
        (["kmeans", "--scenario", "clusters.json", "--out", "a.json"],
         {"a.json": "9cbea58098f415058da7c316c6a21742c6f3bf4292675b5488608417d8661e9e"}),
        (["stability", "--inits", "2000", "--out", "a.json"],
         {"a.json": "5b06385cf21829e03be980b61f2c0cb2387a8a8f1918cf8a97565e9148fe11f8"}),
        (["hoeffding", "--scenario", "scenario.json", "--n-grid", "20,50",
          "--epsilon-grid", "0.05,0.2", "--resamplings", "1000", "--out", "a.json"],
         {"a.json": "62e6ae1e442ef04f64c2cf5aaab9d6ab06b2f3295e87aba7daabadcb785aa0f7"}),
    ], ids=["bound-thm_2_3", "bound-thm_3_2", "bound-thm_5_3", "bound-config-override", "cover",
            "cover-verify-dedupe", "contract", "approx", "gap", "validate",
            "validate-support-n", "kmeans", "stability", "hoeffding"])
    def test_artifacts(self, tmp_path, monkeypatch, argv, digests):
        monkeypatch.chdir(tmp_path)
        for name, doc in self.FILES.items():
            write_scenario(tmp_path, doc, name)
        assert run(argv) == EXIT_OK
        assert {name: _sha256_without_timestamp(tmp_path / name) for name in digests} == digests


# Small valid runs, at least one per command.  TestNullConfig tries every
# option a run leaves unset as null in a config file; the property test
# draws flags to add to a run.
_BASES = {
    "bound-thm_3_2": ["bound", "--theorem", "thm_3_2", "--n", "100", "--delta", "0.05",
                      "--B", "1", "--L", "1", "--R", "1", "--gamma", "0.5"],
    "bound-thm_d_2": ["bound", "--theorem", "thm_d_2", "--n", "100", "--B", "1", "--T", "8"],
    "cover-T": ["cover", "--scenario", "scenario.json", "--T", "2"],
    "cover-epsilon": ["cover", "--scenario", "scenario.json", "--epsilon", "0.2",
                      "--verify-trials", "5"],
    "contract": ["contract", "--scenario", "scenario.json"],
    "approx": ["approx", "--function", "sin_plus_cos", "--R", "1", "--xi", "0.5",
               "--grid", "10"],
    "gap": ["gap", "--scenario", "scenario.json", "--t", "5"],
    "validate": ["validate", "--scenario", "iid.json", "--resamplings", "3", "--trials", "2",
                 "--delta", "0.05"],
    "kmeans": ["kmeans", "--scenario", "clusters.json"],
    "stability": ["stability", "--inits", "50"],
    "ifs": ["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.33", "--R", "1"],
    "hoeffding": ["hoeffding", "--scenario", "scenario.json", "--n-grid", "20",
                  "--epsilon-grid", "0.1", "--resamplings", "20"],
}
# Runs that leave the sizes _BASES sets at their defaults, the costliest
# ones; only TestNullConfig uses them.
_DEFAULT_SIZE_BASES = {
    "approx-grid": ["approx", "--function", "sin_plus_cos", "--R", "1", "--xi", "0.5",
                    "--alpha", "1", "--beta", "1", "--cap", "1000"],
    "stability-inits": ["stability", "--steps", "50"],
}


def _unset_options(argv):
    return [key for key in cli._COMMANDS[argv[0]][2]
            if "--" + key.replace("_", "-") not in argv]


def _write_scenarios(directory):
    for fname, doc in TestGoldenArtifacts.FILES.items():
        write_scenario(directory, doc, fname)


class TestNullConfig:
    """A null in a config file means "not given": for every option, it gives
    the exit code and result of leaving the option out."""

    def _run(self, argv):
        code = run(argv + ["--out", "out"])
        envelope = "out.meta.json" if argv[0] == "cover" else "out"
        return code, load(envelope)["result"] if os.path.exists(envelope) else None

    RUNS = {**_BASES, **_DEFAULT_SIZE_BASES}

    @pytest.mark.parametrize("name", [name for name, argv in RUNS.items()
                                      if _unset_options(argv)])
    def test_null_is_not_given(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        _write_scenarios(tmp_path)
        argv = self.RUNS[name]
        baseline = self._run(argv)
        assert baseline[0] == EXIT_OK
        for key in _unset_options(argv):
            write_scenario(tmp_path, {key: None}, "null.json")
            assert self._run(argv + ["--config", "null.json"]) == baseline, key


# For each option the CLI forwards to a library call only when it is set: a
# base run and a valid value other than the callee's default.
_FORWARDED = [
    ("bound-thm_3_2", "T", "4"), ("bound-thm_3_2", "P", "2"),
    ("bound-thm_3_2", "xi", "0.1"), ("bound-thm_3_2", "eta", "0.5"),
    (["bound", "--theorem", "thm_5_3", "--n", "100", "--delta", "0.05", "--B", "1",
      "--L", "1", "--R", "1", "--gamma", "0.5"], "T", "4"),
    ("bound-thm_d_2", "C", "2"),
    ("cover-T", "dedupe", None), ("cover-T", "cap", "100"), ("approx", "cap", "1000"),
    ("gap", "m", "50"),
    ("validate", "shrink", "0.5"), ("validate", "t_band", "3"),
    ("kmeans", "iters", "3"),
    ("stability", "eta", "0.25"), ("stability", "steps", "20"),
    ("stability", "n_samples", "4"), ("stability-inits", "inits", "30"),
    ("ifs", "burn_in", "8"),
]


def _theorem_parameters():
    """Each calculator parameter as (name, default), with those a partial
    binds left out."""
    return {(p.name, p.default) for calculator in THEOREMS.values()
            for p in inspect.signature(calculator).parameters.values()
            if not (isinstance(calculator, functools.partial) and p.name in calculator.keywords)}


def test_theorem_parameters_are_the_bound_options():
    assert ({name for name, _ in _theorem_parameters()}
            == set(cli._FLOAT_BOUND_KEYS) | set(cli._INT_BOUND_KEYS))


# one valid value for every calculator parameter, under its bound option name
_BOUND_INPUTS = {"n": 100, "delta": 0.05, "B": 1.0, "L": 2.0, "R": 1.5, "R_x": 0.5,
                 "gamma": 0.5, "xi": 0.01, "eta": 0.25, "zeta": 0.05, "lam": 1.1,
                 "beta": 1.2, "d_H": 0.63, "epsilon": 0.1, "C": 2.0, "T": 8, "t": 5,
                 "P": 2, "Q": 3, "K": 2, "cover_cardinality": 27}


@pytest.mark.parametrize("theorem", THEOREMS)
def test_each_calculator_certifies_its_own_id(theorem):
    calculator = THEOREMS[theorem]
    names = {p.name for p in inspect.signature(calculator).parameters.values()}
    cert = calculator(**{k: v for k, v in _BOUND_INPUTS.items() if k in names})
    assert cert.theorem == theorem


def _forwarded_keys():
    """Every option ``cli`` forwards only when set: the literal keys of its
    ``_given`` calls, the theorems' optional parameters, and ``iters``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    keys = {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_given"
            for arg in node.args[1:] if isinstance(arg, ast.Constant)}
    optional = {name for name, default in _theorem_parameters()
                if default is not inspect.Parameter.empty}
    return keys | optional | {"iters"}


def test_every_forwarded_option_is_exercised():
    assert _forwarded_keys() == {key for _, key, _ in _FORWARDED}


@pytest.mark.parametrize("base,key,value", _FORWARDED,
                         ids=[f"{b if isinstance(b, str) else b[2]}-{k}" for b, k, _ in _FORWARDED])
def test_forwarded_option_reaches_its_callee(tmp_path, monkeypatch, base, key, value):
    """Given a non-default value, the option reaches the callee under a name
    it accepts: the run passes or fails, and is never refused."""
    monkeypatch.chdir(tmp_path)
    _write_scenarios(tmp_path)
    argv = TestNullConfig.RUNS[base] if isinstance(base, str) else base
    flag = ["--" + key.replace("_", "-")] + ([value] if value is not None else [])
    assert run(argv + flag + ["--out", "out"]) in (EXIT_OK, EXIT_FAIL)
    result = load("out.meta.json" if argv[0] == "cover" else "out")["result"]
    if key in result:
        assert result[key] == (True if value is None else json.loads(value))


def test_kmeans_iters_caps_the_iterations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_scenarios(tmp_path)
    for argv in (["--iters", "3"], ["--config", write_scenario(tmp_path, {"iters": 3}, "i.json")]):
        assert run(["kmeans", "--scenario", "clusters.json", "--out", "out"] + argv) in (
            EXIT_OK, EXIT_FAIL)
        assert load("out")["result"]["iterations"] <= 3


# The values the property test draws for each option, kept small so that
# every run is quick.
_TEXT_POOL = {
    "scenario": ["scenario.json", "iid.json", "clusters.json", "missing.json"],
    "theorem": ["thm_2_3", "thm_3_2", "thm_5_3", "thm_4_4", "thm_b_1", "thm_d_2", "bogus"],
    "function": ["sin_plus_cos", "bogus"],
    "centers": ["[[1.0],[-1.0]]", "[[0.5,0.5],[-0.5,0.0]]", "[[1.0],[0.0,1.0]]", "oops"],
}
_KIND_POOL = {
    "int": ["-1", "0", "1", "2", "3"],
    "float": ["-1", "0", "0.05", "0.25", "0.5", "1", "3", "inf", "nan"],
    "ints": ["20", "0", "1,5"],
    "floats": ["0.1", "1,0.1,0.01", "0.5,nan", "-1"],
}


@st.composite
def _commands(draw):
    argv = list(draw(st.sampled_from(list(_BASES.values()))))
    options = cli._COMMANDS[argv[0]][2]
    for key in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3)):
        flag = "--" + key.replace("_", "-")
        kind = options[key]
        if kind == "flag":
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from(_TEXT_POOL.get(key, _KIND_POOL.get(kind))))]
    nulls = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3))
    return argv, nulls, draw(st.sampled_from([True, True, True, False]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_commands())
def test_any_command_exits_0_1_or_2_and_refusals_write_nothing(tmp_path_factory, drawn):
    """Later flags override the base run's; an unwritable output directory
    makes the run refuse at its first write."""
    argv, nulls, writable = drawn
    work = tmp_path_factory.mktemp("run")
    _write_scenarios(work)
    argv = [str(work / a) if a.endswith(".json") else a for a in argv]
    outdir = work if writable else work / "missing"
    outputs = [outdir / "out", outdir / "out.meta.json", outdir / "rows.csv"]
    argv += ["--out", str(outputs[0])]
    if argv[0] == "validate":
        argv += ["--csv", str(outputs[2])]
    if nulls:
        argv += ["--config", write_scenario(work, dict.fromkeys(nulls), "null.json")]
    code = run(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert not any(path.exists() for path in outputs)


_CERTIFICATE = {"--theorem": "thm_2_3", "--n": "100", "--delta": "0.05", "--B": "1",
                "--L": "1", "--R": "1", "--gamma": "0.5"}


def _bound(flags=_CERTIFICATE):
    return ["bound", *itertools.chain(*flags.items())]


def _echoed(argv, out="echo.json"):
    """The seed, echoed config and config hash of a run that must pass."""
    assert run(argv + ["--out", out]) == EXIT_OK
    doc = load(out)
    return doc["seed"], doc["config"], doc["config_hash"]


class TestArgvParsing:
    """``run`` reads argv from the command table: ``--flag value``,
    ``--flag=value`` or a unique prefix of the flag, converted by its kind."""

    def test_equals_form_parses_as_the_separate_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        flags = {**_CERTIFICATE, "--seed": "4", "--R-x": "0.5"}
        joined = _echoed(["bound"] + [f"{flag}={value}" for flag, value in flags.items()])
        assert joined == _echoed(_bound(flags))
        assert joined[:2] == (4, {"theorem": "thm_2_3", "n": 100, "delta": 0.05, "B": 1.0,
                                  "L": 1.0, "R": 1.0, "gamma": 0.5, "R_x": 0.5})

    def test_a_repeated_flag_keeps_its_last_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        repeated = _echoed(["bound", "--n", "7", "--seed", "1"] + _bound()[1:]
                           + ["--seed", "3", "--delta=0.1"])
        assert repeated == _echoed(_bound({**_CERTIFICATE, "--delta": "0.1", "--seed": "3"}))
        assert repeated[0] == 3 and repeated[1]["n"] == 100 and repeated[1]["delta"] == 0.1

    def test_a_unique_prefix_names_its_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, {**QUADRATIC_SCENARIO, "dataset": {"kind": "iid", "n": 20}})
        full = ["validate", "--scenario", "scenario.json", "--resamplings", "3",
                "--trials", "2", "--delta", "0.05"]
        short = ["validate", "--scen", "scenario.json", "--res", "3", "--tr", "2",
                 "--del=0.05", "--se", "0"]
        assert _echoed(short) == _echoed(full)

    def test_an_exact_flag_wins_over_longer_ones(self, tmp_path, monkeypatch):
        """``--R`` is a flag of ``bound`` and a prefix of ``--R-x``."""
        monkeypatch.chdir(tmp_path)
        assert _echoed(_bound({**_CERTIFICATE, "--R": "2"}))[1]["R"] == 2.0

    @pytest.mark.parametrize("delta", ["-0.001", "-1e-3"])
    @pytest.mark.parametrize("argv,message", [
        (_bound(), "delta must lie in (0, 1)"),
        (["validate", "--scenario", "scenario.json", "--resamplings", "2", "--trials", "2"],
         "delta must lie in (0, 1), got -0.001"),
    ], ids=["bound", "validate"])
    def test_a_negative_value_reaches_the_commands_check(self, tmp_path, monkeypatch, capsys,
                                                         argv, message, delta):
        """Every token that does not start with "--" is a value, in exponent
        form too; the command refuses it with its own message."""
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, {**QUADRATIC_SCENARIO, "dataset": {"kind": "iid", "n": 20}})
        assert run(argv + ["--delta", delta, "--out", "out"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not os.path.exists("out")

    @pytest.mark.parametrize("argv,message", [
        (["hoeffding", "--scenario", "scenario.json", "--n-grid", "1,,2",
          "--epsilon-grid", "0.1", "--resamplings", "2"],
         "--n-grid must be a list of integers, got '1,,2'"),
        (["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3", "--R", "1",
          "--scales", "1,,2"], "--scales must be a list of numbers, got '1,,2'"),
        (["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3", "--R", "1",
          "--points=1.5"], "--points must be an integer, got '1.5'"),
        (_bound({**_CERTIFICATE, "--gamma": "half"}), "--gamma must be a number, got 'half'"),
    ], ids=["ints", "floats", "int", "float"])
    def test_a_value_its_kind_refuses_names_flag_value_and_kind(
            self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--out", "out"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (_bound() + ["--bogus", "1"], "unknown flag --bogus"),
        (_bound() + ["--out"], "--out needs a value"),
        (_bound() + ["--out", "--seed", "3"], "--out needs a value"),
        (["cover", "--scenario", "scenario.json", "--T", "2", "--dedupe=x"],
         "--dedupe takes no value, got 'x'"),
        (_bound() + ["stray"], "unexpected argument 'stray'"),
        (_bound() + ["-x"], "unexpected argument '-x'"),
        (["validate", "--t", "3"], "ambiguous flag --t: could be --trials, --t-band"),
        (["validate", "--", "3"], "unknown flag --"),
        (["bogus", "--seed", "1"], "unknown command 'bogus'; choose from "
         + ", ".join(cli._COMMANDS)),
        (["--seed", "1", "bound"], "unknown command '--seed'; choose from "
         + ", ".join(cli._COMMANDS)),
        ([], "missing command; choose from " + ", ".join(cli._COMMANDS)),
        (["bound", "--help=yes"], "--help takes no value, got 'yes'"),
    ], ids=["unknown-flag", "missing-value-last", "missing-value-before-flag",
            "flag-with-value", "stray-positional", "single-dash", "ambiguous-prefix",
            "double-dash", "unknown-command", "flag-before-command", "missing-command",
            "help-with-value"])
    def test_a_parse_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                      argv, message):
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = [] if "--out" in argv or not argv else ["--out", "out"]
        assert run(argv + out) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_a_negative_seed_is_refused(self, tmp_path, monkeypatch, capsys, command):
        """Every command refuses a negative seed by name, whether or not it
        draws: exit 2, one error line, nothing written."""
        monkeypatch.chdir(tmp_path)
        _write_scenarios(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = next(argv for argv in _BASES.values() if argv[0] == command)
        csv = ["--csv", "rows.csv"] if command == "validate" else []
        assert run(argv + ["--seed", "-5", "--out", "out"] + csv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --seed must be a non-negative integer, got -5"]
        assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [[flag] for flag in ("-h", "--help", "--he")]
                         + [[c, flag, "--out", "out"] for c in cli._COMMANDS
                            for flag in ("-h", "--help")]
                         + [["validate", "--scenario", "s.json", "--hel", "--bogus"]])
def test_help_exits_0_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: sgdcover ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in cli._COMMANDS])
def test_help_is_the_full_parsers(capsys, argv):
    """The help is generated from the command table in full: at top level it
    lists every command with its help line, after a command every flag the
    command takes (``--csv`` on validate alone), then ``-h, --help``."""
    assert run(argv) == EXIT_OK
    rows = [line.strip().partition(" ")[::2] for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")]
    if argv == ["--help"]:
        assert [(name, text.strip()) for name, text in rows] == [
            (name, text) for name, (_, text, _) in cli._COMMANDS.items()]
        return
    keys = ["seed", "config", "out", *cli._COMMANDS[argv[0]][2]]
    keys += ["csv"] if argv[0] == "validate" else []
    assert [name for name, _ in rows] == ["--" + key.replace("_", "-") for key in keys] + ["-h,"]


class TestValidationCommands:
    def test_contract_reports_gamma(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "c.json"
        code = run(["contract", "--scenario", spath, "--pairs", "25",
                    "--steps", "40", "--out", str(out)])
        assert code == EXIT_OK
        res = load(out)["result"]
        assert res["theoretical_gamma"] == pytest.approx(0.5)
        assert res["max_ratio"] <= 0.5 + 1e-9

    def test_contract_pair_starts_are_one_row_batch_draws(self, tmp_path, monkeypatch):
        """Pair k's two starts are consecutive one-row ``sample_batch`` draws
        of ``substream(seed, k)``, in a dimension where Python's scalar power
        and numpy's array power can round u**(1/d) differently."""
        from sgdcover import trajectory

        scenario = {**QUADRATIC_SCENARIO, "family": {
            "name": "quadratic_centers", "R": 1.0,
            "centers": [[0.5, 0.0, 0.1], [-0.3, 0.4, 0.0], [0.0, -0.2, 0.6]]}}
        spath = write_scenario(tmp_path, scenario)
        measured = trajectory.coupled_contraction_ratio
        seen = []

        def recorded(update, a, b, indices, dataset):
            seen.append((update.domain, a, b))
            return measured(update, a, b, indices, dataset)

        monkeypatch.setattr(trajectory, "coupled_contraction_ratio", recorded)
        assert run(["contract", "--scenario", spath, "--pairs", "60", "--steps", "3",
                    "--seed", "4"]) == EXIT_OK
        (domain, a, b), = seen
        assert a.shape == b.shape == (60, 3)
        for k in range(60):
            rng = substream(4, k)
            assert a[k].tobytes() == domain.sample_batch(rng, 1)[0].tobytes()
            assert b[k].tobytes() == domain.sample_batch(rng, 1)[0].tobytes()

    def test_validate_pass_and_negative_control(self, tmp_path):
        scenario = dict(QUADRATIC_SCENARIO, dataset={"kind": "iid", "n": 40})
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "v.json"
        csv_path = tmp_path / "rows.csv"
        code = run(["validate", "--scenario", spath, "--resamplings", "30",
                    "--trials", "3", "--delta", "0.05", "--out", str(out),
                    "--csv", str(csv_path)])
        assert code == EXIT_OK
        assert load(out)["result"]["passed"] is True
        assert csv_path.read_text().startswith("resampling,")
        code = run(["validate", "--scenario", spath, "--resamplings", "30",
                    "--trials", "3", "--delta", "0.05", "--shrink", "50"])
        assert code == EXIT_FAIL

    def test_approx_command(self, tmp_path):
        out = tmp_path / "ap.json"
        code = run(["approx", "--function", "sin_plus_cos", "--R", "1",
                    "--xi", "0.5", "--grid", "60", "--out", str(out)])
        assert code == EXIT_OK
        res = load(out)["result"]
        assert res["max_gradient_error"] <= 0.5
        assert res["piece_count"] <= res["piece_bound"]

    def test_stability_command(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["stability", "--inits", "2000", "--steps", "200",
                    "--out", str(out)])
        assert code == EXIT_OK
        res = load(out)["result"]
        assert res["separation"] >= 1.5

    def test_ifs_command(self, tmp_path):
        out = tmp_path / "ifs.json"
        code = run(["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma",
                    str(1.0 / 3.0), "--R", "1", "--points", "40000",
                    "--out", str(out)])
        assert code == EXIT_OK
        res = load(out)["result"]
        assert res["certified"] is True
        assert abs(res["box_counting_estimate"] - res["dimension"]) <= 0.06

    def test_kmeans_command(self, tmp_path):
        rng = np.random.default_rng(1)
        scenario = {
            "family": {"name": "soft_kmeans", "K": 2, "zeta": 0.6, "R": 1.0},
            "dataset": {"kind": "points",
                        "points": rng.uniform(-0.7, 0.7, (20, 2)).tolist()},
        }
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "km.json"
        code = run(["kmeans", "--scenario", spath, "--out", str(out)])
        assert code == EXIT_OK
        res = load(out)["result"]
        assert res["residual"] <= 1e-8
        assert res["fixed_point_gradient_norm"] <= 1e-6

    def test_kmeans_budget_that_runs_out_is_reported(self, tmp_path, capsys):
        """A run stopped by ``--iters`` says so; it does not claim convergence."""
        spath = write_scenario(tmp_path, {
            "family": {"name": "soft_kmeans", "K": 2, "zeta": 1, "R": 1},
            "dataset": {"kind": "uniform_ball", "n": 50, "d": 2}})
        out = tmp_path / "km.json"
        assert run(["kmeans", "--scenario", spath, "--iters", "1", "--out", str(out)]) == EXIT_FAIL
        printed = capsys.readouterr().out
        assert printed.startswith("alternating update stopped after 1 iterations without "
                                  "converging; ")
        assert load(out)["result"]["iterations"] == 1
        assert run(["kmeans", "--scenario", spath, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("alternating update converged in ")

    def test_hoeffding_command(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "h.json"
        code = run(["hoeffding", "--scenario", spath, "--n-grid", "20,50",
                    "--epsilon-grid", "0.05,0.2", "--resamplings", "1000",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert load(out)["result"]["passed"] is True

    def test_hoeffding_on_block_structured_family(self, tmp_path):
        """The inferred domain for a K-block family must have dimension K*d."""
        rng = np.random.default_rng(2)
        scenario = {
            "family": {"name": "hard_kmeans", "K": 2, "R": 1.0},
            "dataset": {"kind": "points",
                        "points": rng.uniform(-0.7, 0.7, (6, 2)).tolist()},
        }
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "hb.json"
        code = run(["hoeffding", "--scenario", spath, "--n-grid", "20",
                    "--epsilon-grid", "0.1", "--resamplings", "500",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert load(out)["result"]["passed"] is True

    @pytest.mark.parametrize("argv", [["gap", "--t", "10", "--m", "2000"],
                                      ["contract", "--pairs", "20", "--steps", "10"]],
                             ids=lambda argv: argv[0])
    def test_uniform_ball_dataset(self, tmp_path, argv):
        """A clustering family gets the product ball of its K blocks of the
        dataset's dimension d as its domain."""
        scenario = {"family": {"name": "soft_kmeans", "K": 2, "zeta": 0.05, "R": 1.5},
                    "eta": 0.1, "dataset": {"kind": "uniform_ball", "n": 20, "d": 3}}
        spath = write_scenario(tmp_path, scenario)
        built, dataset = cli._load_scenario({"scenario": spath}, 0)
        domain = built.domain
        assert isinstance(domain, sgdcover.ProductOfBalls)
        assert (domain.blocks, domain.block_dim, domain.radius) == (2, 3, 1.5)
        assert dataset.n == 20 and {np.shape(z) for z in dataset.samples} == {(3,)}
        out = tmp_path / "out.json"
        assert run(argv + ["--scenario", spath, "--out", str(out)]) == EXIT_OK
        assert load(out)["result"]

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["stability", "--config", str(cfg)]) == EXIT_USAGE


def test_import_leaves_scipy_spatial_unloaded(tmp_path):
    """Neither importing the CLI nor verifying a cover loads any scipy module."""
    spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
    out = tmp_path / "cover.jsonl"
    code = (
        "import sys, sgdcover.cli\n"
        "print('scipy.spatial' in sys.modules)\n"
        f"code = sgdcover.cli.run(['cover', '--scenario', {spath!r}, '--epsilon', '0.1666667',"
        f" '--verify-trials', '50', '--out', {str(out)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_package_path(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"
    assert load(str(out) + ".meta.json")["result"]["verification"]["trials"] == 50


# Every public name of the package from before some of its modules loaded on
# first access; each must still resolve from ``sgdcover``.
_PUBLIC_NAMES = [
    "Ball", "Box", "ConvexDomain", "ProductOfBalls", "WholeSpace", "as_point",
    "hoeffding_tail", "numeric_gradient", "substream",
    "Dataset", "Distribution", "LinkFunction", "LossConstants", "LossFamily",
    "family_from_descriptor", "hard_kmeans", "multi_index", "quadratic_centers",
    "smooth_margin_link", "soft_kmeans", "squared_error_link", "stability_counterexample_1d",
    "uniform_ball", "uniform_over", "zero_link",
    "CouplingReport", "CustomMap", "SGDStep", "Trajectory", "contraction_factor",
    "coupled_contraction_ratio", "run_trajectory", "sgd_step",
    "CoverEntry", "CoverSet", "CoverVerification", "EnumerationCapExceeded",
    "PiecewiseQuadraticApprox", "PiecewiseSmoothFunction", "SmoothPiece",
    "build_piecewise_approx", "cover_horizon", "enumerate_cover", "enumerate_piecewise_cover",
    "replay_entry", "smooth_function", "verify_cover",
    "BoxCountFit", "IFSDimension", "IFSModel", "box_counting_dimension", "ifs_dimension",
    "BoundCertificate", "bound_early", "bound_expectation", "bound_fractal",
    "bound_hard_kmeans", "bound_master_covering", "bound_multi_index",
    "bound_piecewise_approx", "bound_piecewise_contractive", "bound_single_trajectory",
    "bound_soft_kmeans", "bound_strongly_convex", "multi_index_piece_params",
    "soft_kmeans_params",
    "EMEquivalenceReport", "EMStepResult", "GapEstimate", "HoeffdingReport", "Scenario",
    "StabilityReport", "ValidationReport", "em_step", "empirical_risk", "estimate_gap",
    "hoeffding_check", "population_risk", "run_em", "stability_experiment", "validate_bound",
    "verify_em_equivalence",
]


def test_import_leaves_deferred_modules_unloaded(tmp_path):
    """Importing the CLI, and running cover, validate and ifs, loads none of
    surrogate, families, trajectory and studies.  Every public name still
    imports from the package and is listed by ``dir``, and an unknown name
    raises AttributeError."""
    spath = write_scenario(tmp_path, {**QUADRATIC_SCENARIO, "dataset": {"kind": "iid", "n": 20}})
    runs = [["cover", "--scenario", spath, "--epsilon", "0.25", "--verify-trials", "20"],
            ["validate", "--scenario", spath, "--resamplings", "2", "--trials", "3",
             "--delta", "0.5"],
            ["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3", "--R", "1",
             "--points", "1000"]]
    code = (
        "import sys, sgdcover.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('sgdcover.')))\n"
        f"codes = [sgdcover.cli.run(argv + ['--out', 'out']) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('sgdcover.')))\n"
        f"from sgdcover import {', '.join(_PUBLIC_NAMES)}\n"
        f"print(sorted(set({_PUBLIC_NAMES!r}) - set(dir(sgdcover))))\n"
        "try:\n"
        "    sgdcover.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_package_path(),
                          capture_output=True, text=True, check=True, cwd=tmp_path)
    imported, *_, ran, missing, unknown = proc.stdout.splitlines()
    loaded = str([f"sgdcover.{m}" for m in (
        "bounds", "cli", "core", "cover", "experiments", "fractal", "losses", "sgd")])
    assert imported == loaded
    assert ran == f"{[EXIT_OK] * 3} {loaded}"
    assert missing == "[]"
    assert unknown == "module 'sgdcover' has no attribute 'no_such_name'"


def test_perfbench_tracer_runs_the_cli(tmp_path):
    """``perfbench/tracer.py``'s ``install``, in a fresh interpreter so its
    rebinding stays there, traces ``cover --T 4`` on 3 centers with the
    (3^(T+1) - 3)/2 = 120 ``sgd_step`` calls perfbench gates on, and a small
    ``validate`` and ``ifs`` run exit 0 under it too."""
    support = write_scenario(tmp_path, QUADRATIC_SCENARIO)
    iid = write_scenario(tmp_path, {**QUADRATIC_SCENARIO, "dataset": {"kind": "iid", "n": 20}},
                         name="iid.json")
    runs = [["cover", "--scenario", support, "--T", "4"],
            ["validate", "--scenario", iid, "--resamplings", "2", "--trials", "3",
             "--delta", "0.5"],
            ["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3", "--R", "1",
             "--points", "1000"]]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'perfbench')!r})\n"
        "from tracer import Tracer, install\n"
        "tracer = Tracer()\n"
        "run = install(tracer)\n"
        f"codes = [run(argv + ['--out', 'out']) for argv in {runs!r}]\n"
        "steps = sum(leaf['calls'] for leaf in tracer.dump()['leaves']\n"
        "            if leaf['name'] == 'sgd.sgd_step')\n"
        "print(json.dumps([codes, steps]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_package_path(),
                          capture_output=True, text=True, check=True, cwd=tmp_path)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[EXIT_OK] * 3, (3**5 - 3) // 2]


@pytest.mark.parametrize("call,spec", [
    ("enumerate_cover", {"T": 3}),
    ("validate_bound", {"resamplings": 2, "trials": 3, "delta": 0.5, "seed": 1}),
])
def test_perfbench_probe_runs(tmp_path, call, spec):
    """``perfbench/child.py``'s probe mode calls ``enumerate_cover`` and
    ``validate_bound`` directly, with ``threads=``, ``Scenario(...)``,
    ``SGDStep(..., domain=)`` and ``Dataset(support, dist)``; on tiny
    inputs it exits 0, and the T = 3 cover of 3 centers has 3^3 entries."""
    scenario = write_scenario(tmp_path, {**QUADRATIC_SCENARIO,
                                         "dataset": {"kind": "iid", "n": 20}})
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps({"mode": "probe", "scenario": scenario, "call": call,
                                     **spec}))
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    subprocess.run([sys.executable, str(child), str(spec_path), str(result_path)],
                   env=_env_with_package_path(), capture_output=True, check=True, cwd=tmp_path)
    result = load(result_path)
    assert result["threads1_s"] > 0 and result["threads2_s"] > 0
    assert result.get("entries") == (27 if call == "enumerate_cover" else None)


def _perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded from its file as the benchmark has it
    (registered while the test runs, as its dataclasses need)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cover-enum", "cover-verify", "validate", "ifs"])
def test_perfbench_workload_checks_pass(tmp_path, monkeypatch, name):
    """Each benchmark workload at seed 1, run in process: its own ``prepare``,
    the CLI on the argv it gives, then its own output ``check`` (cover files
    against a numpy recurrence, cover-verify's worst distance against
    gamma^T R, validate's CSV against its report, the Cantor dimension)."""
    workloads = _perfbench_workloads(monkeypatch)
    assert sorted(workloads.WORKLOADS) == ["cover-enum", "cover-verify", "ifs", "validate"]
    workload = workloads.WORKLOADS[name]
    (tmp_path / workloads.OUT).mkdir()
    argv = workload.prepare(tmp_path, 1)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    workload.check(tmp_path, 1, code)


def test_import_leaves_numpy_random_unloaded():
    """numpy.random loads when a command first draws, not with the CLI."""
    code = "import sys, sgdcover.cli\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_package_path(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_parsing_loads_neither_argparse_nor_gettext(tmp_path):
    """argv is parsed from the command table, so neither importing the CLI
    nor running cover, validate and ifs loads argparse or gettext."""
    spath = write_scenario(tmp_path, {**QUADRATIC_SCENARIO, "dataset": {"kind": "iid", "n": 20}})
    runs = [["cover", "--scenario", spath, "--epsilon", "0.25", "--verify-trials", "20"],
            ["validate", "--scenario", spath, "--resamplings", "2", "--trials", "3",
             "--delta", "0.5", "--csv", "rows.csv"],
            ["ifs", "--centers", "[[1.0],[-1.0]]", "--gamma", "0.3", "--R", "1",
             "--points", "1000"]]
    code = (
        "import sys, sgdcover.cli\n"
        "loaded = lambda: sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "print(loaded())\n"
        f"codes = [sgdcover.cli.run(argv + ['--out', 'out']) for argv in {runs!r}]\n"
        "print(codes, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_package_path(),
                          capture_output=True, text=True, check=True, cwd=tmp_path)
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == f"{[EXIT_OK] * 3} []"


def test_every_annotation_resolves():
    """``typing.get_type_hints`` resolves every function, class, method and
    property defined in each module: no annotation names a type the module
    does not import."""
    modules = [importlib.import_module(f"sgdcover.{info.name}")
               for info in pkgutil.iter_modules(sgdcover.__path__)]
    assert {"core", "cover", "surrogate"} <= {m.__name__.split(".")[1] for m in modules}
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [getattr(m, "fget", None) or getattr(m, "__func__", m)
                           for m in vars(obj).values()]
                objs = [obj] + [m for m in members if inspect.isfunction(m)]
            else:
                objs = [obj] if inspect.isfunction(obj) else []
            for o in objs:
                typing.get_type_hints(o)  # raises NameError on an unresolved name
