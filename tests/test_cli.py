"""Command-line interface: outputs, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgdcover
from sgdcover.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run

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

    def test_verification_path(self, tmp_path):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--epsilon", str(1.0 / 6.0),
                    "--verify-trials", "200", "--out", str(out)])
        assert code == EXIT_OK
        meta = load(str(out) + ".meta.json")
        assert meta["result"]["horizon"] == 3
        assert meta["result"]["verification"]["passed"] is True

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
    ], ids=["centers-not-a-list", "eta-not-a-number"])
    def test_mistyped_scenario_is_usage_error(self, tmp_path, scenario):
        spath = write_scenario(tmp_path, scenario)
        out = tmp_path / "cover.jsonl"
        code = run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_non_finite_update_is_usage_error(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise FloatingPointError("gradient produced non-finite values")

        monkeypatch.setattr("sgdcover.cli.enumerate_cover", overflow)
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        assert run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_iterate_leaving_invariant_domain_is_usage_error(self, tmp_path, monkeypatch):
        def confined(update, config, dataset):
            far = sgdcover.Ball(np.array([5.0, 5.0]), 0.1)
            return sgdcover.run_trajectory(update, config, dataset, invariant_domain=far)

        monkeypatch.setattr("sgdcover.cli.run_trajectory", confined)
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "gap.json"
        assert run(["gap", "--scenario", spath, "--t", "5", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--centers", "[[1.0],[-1.0]]", "--burn-in", "-3"],
        ["--centers", "[[NaN],[1.0]]"],
    ], ids=["negative-burn-in", "nan-center"])
    def test_bad_ifs_input_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "ifs.json"
        code = run(["ifs", *flags, "--gamma", "0.3333333333", "--R", "1",
                    "--points", "2000", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_cap_override_is_read_at_call_time(self, tmp_path, monkeypatch):
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        argv = ["cover", "--scenario", spath, "--T", "3", "--out", str(out)]
        monkeypatch.setenv("SGDCOVER_CAP", "26")
        assert run(argv) == EXIT_USAGE  # 27 entries needed
        assert not out.exists()
        assert run(argv + ["--cap", "27"]) == EXIT_OK  # the config's cap wins
        monkeypatch.setenv("SGDCOVER_CAP", "27")
        assert run(argv) == EXIT_OK

    def test_malformed_cap_override_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGDCOVER_CAP", "abc")
        spath = write_scenario(tmp_path, QUADRATIC_SCENARIO)
        out = tmp_path / "cover.jsonl"
        assert run(["cover", "--scenario", spath, "--T", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


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

    def test_planar_three_maps(self, tmp_path):
        out = tmp_path / "ifs.json"
        assert run(["ifs", "--centers", "[[1.0,0.0],[-0.5,0.8],[-0.5,-0.8]]",
                    "--gamma", "0.4", "--R", "1", "--points", "20000", "--burn-in", "0",
                    "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert _sha256_without_timestamp(out) == (
            "67574cead687a655d56ef66ae2a0e9648bbdc4db7a236ce1a5751a28feca7f9f")


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

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["stability", "--config", str(cfg)]) == EXIT_USAGE


def test_import_leaves_scipy_spatial_unloaded():
    """scipy.spatial is imported only when a cover is verified."""
    src = str(Path(sgdcover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, sgdcover.cli; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_malformed_cap_override_does_not_break_import():
    """SGDCOVER_CAP is read only by commands that enumerate, so a bad value
    leaves the module importable and other commands working."""
    src = str(Path(sgdcover.__file__).resolve().parents[1])
    env = dict(os.environ, SGDCOVER_CAP="abc", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgdcover.cli", "bound", "--theorem", "thm_2_3", "--n", "100",
         "--delta", "0.05", "--B", "1", "--L", "1", "--R", "1", "--gamma", "0.5"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
