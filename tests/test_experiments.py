"""Validation harness: gap estimation, resampling validation, the
alternating clustering update, the stability experiment, and tail checks."""

import dataclasses
import math

import numpy as np
import pytest

from sgdcover.bounds import bound_strongly_convex
from sgdcover.core import Ball, Box, numeric_gradient, substream
from sgdcover.families import soft_kmeans
from sgdcover.losses import (
    Dataset,
    Distribution,
    LossConstants,
    LossFamily,
    quadratic_centers,
    uniform_ball,
    uniform_over,
)
from sgdcover.sgd import SGDStep, contraction_factor, run_lockstep
from sgdcover.trajectory import run_trajectory
from sgdcover.experiments import Scenario, validate_bound
from sgdcover.studies import (
    em_step,
    empirical_risk,
    estimate_gap,
    hoeffding_check,
    run_em,
    stability_experiment,
    verify_em_equivalence,
)

CENTERS = [np.array([0.8, 0.0]), np.array([-0.4, 0.6]), np.array([-0.2, -0.7])]


def quadratic_scenario(n=50, eta=0.5):
    fam = quadratic_centers(CENTERS, R=1.0)
    dist = uniform_over(CENTERS)
    return Scenario("quadratic", fam, dist, fam.domain, eta, n)


def short_trajectory(fam, ds, eta=0.5, steps=30, seed=3):
    update = SGDStep(fam, eta, domain=fam.domain)
    indices = substream(seed).integers(0, ds.n, size=(steps, 1))
    return run_trajectory(update, np.array([0.1, 0.1]), indices, ds)


class TestEstimateGap:
    def test_sample_independent_family_has_zero_gap(self):
        const = LossFamily(
            name="const", constants=LossConstants(B=0.0),
            value=lambda t, z: float(t @ t), grad=lambda t, z: 2.0 * np.asarray(t),
            domain=Ball(np.zeros(2), 1.0),
        )
        ds = Dataset(tuple(CENTERS), uniform_over(CENTERS))
        traj = short_trajectory(const, ds)
        est = estimate_gap(const, ds, traj)
        assert est.gap == 0.0 and est.exact_population

    def test_oracle_and_monte_carlo_agree(self):
        """Exact enumeration vs fresh-draw Monte Carlo within 3 SEs."""
        fam = quadratic_centers(CENTERS, R=1.0)
        finite = uniform_over(CENTERS)
        ds = Dataset.sample(finite, 40, np.random.default_rng(7))
        traj = short_trajectory(fam, ds)
        exact = estimate_gap(fam, ds, traj)
        assert exact.exact_population and exact.mc_standard_error == 0.0

        # the same draws, but through the Monte Carlo path
        mc_dist = Distribution(draw=lambda rng, size: Dataset.sample(finite, size, rng).samples)
        ds_mc = Dataset(ds.samples, mc_dist)
        mc = estimate_gap(fam, ds_mc, traj, m=20_000, seed=11)
        assert not mc.exact_population and mc.mc_standard_error > 0
        assert abs(mc.population_risk - exact.population_risk) <= 3 * mc.mc_standard_error

    def test_standard_error_scales_with_sample_count(self):
        fam = quadratic_centers(CENTERS, R=1.0)
        ball = uniform_ball(1.0, 2)
        ds = Dataset(tuple(CENTERS), ball)
        traj = short_trajectory(fam, ds)
        se_small = estimate_gap(fam, ds, traj, m=4000, seed=1).mc_standard_error
        se_large = estimate_gap(fam, ds, traj, m=16000, seed=2).mc_standard_error
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    @pytest.mark.parametrize("dist", [uniform_over(CENTERS), uniform_ball(1.0, 2), None],
                             ids=["finite", "monte-carlo", "none"])
    @pytest.mark.parametrize("m", [0, -5])
    def test_sample_count_below_one_is_refused(self, dist, m):
        """``m`` is checked before any path returns, the exact one included."""
        fam = quadratic_centers(CENTERS, R=1.0)
        ds = Dataset(tuple(CENTERS), dist)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            estimate_gap(fam, ds, short_trajectory(fam, ds), m=m)

    def test_unknown_generator_flagged(self):
        fam = quadratic_centers(CENTERS, R=1.0)
        ds = Dataset(tuple(CENTERS))  # no distribution attached
        traj = short_trajectory(fam, ds)
        est = estimate_gap(fam, ds, traj)
        assert est.population_risk is None and est.gap is None
        assert "population_risk_unavailable" in est.flags

    def test_reproducible_digest(self):
        fam = quadratic_centers(CENTERS, R=1.0)
        ds = Dataset(tuple(CENTERS), uniform_over(CENTERS))
        t1 = short_trajectory(fam, ds, seed=5)
        t2 = short_trajectory(fam, ds, seed=5)
        assert estimate_gap(fam, ds, t1) == estimate_gap(fam, ds, t2)


class TestValidateBound:
    def test_theorem_scenario_passes(self):
        report = validate_bound(quadratic_scenario(), resamplings=60, trials=5,
                                delta=0.05, seed=0)
        assert report.passed and report.violations == 0
        assert report.max_observed_gap < report.certificate_total

    def test_negative_control_fails(self):
        report = validate_bound(quadratic_scenario(), resamplings=60, trials=5,
                                delta=0.05, seed=0, shrink=50.0)
        assert not report.passed
        assert report.violations / report.resamplings > 0.05

    @pytest.mark.parametrize("violations, passed", [(1, True), (2, False)])
    def test_verdict_boundary(self, violations, passed):
        """With R = 20 and delta = 0.05, a certificate that the worst gaps of
        exactly one resampling exceed PASSes (1/20 = delta), and one that two
        exceed FAILs.  ``shrink`` puts the threshold midway between the
        run's own sorted worst gaps; it moves no gap."""
        run = {"resamplings": 20, "trials": 3, "delta": 0.05, "seed": 3}
        base = validate_bound(quadratic_scenario(), **run)
        gaps = sorted(base.max_gaps, reverse=True)
        assert gaps[0] > gaps[1] > gaps[2]
        shrink = base.certificate_total / ((gaps[violations - 1] + gaps[violations]) / 2)
        report = validate_bound(quadratic_scenario(), shrink=shrink, **run)
        assert report.max_gaps == base.max_gaps
        assert report.violations == violations and report.passed is passed

    def test_gap_equal_to_the_certificate_is_not_a_violation(self, tmp_path):
        """A violation is a gap strictly above the certificate: with ``shrink``
        stepped by ulps until the certificate equals the worst gap bitwise,
        that gap counts in neither the report nor the CSV's column."""
        run = {"resamplings": 20, "trials": 3, "delta": 0.05, "seed": 3}
        base = validate_bound(quadratic_scenario(), **run)
        worst = max(base.max_gaps)
        shrink = base.certificate_total / worst
        for _ in range(64):
            if base.certificate_total / shrink == worst:
                break
            shrink = np.nextafter(shrink, math.inf if base.certificate_total / shrink > worst
                                  else 0.0)
        report = validate_bound(quadratic_scenario(), shrink=float(shrink), **run)
        assert report.max_gaps == base.max_gaps and report.certificate_total == worst > 0
        assert report.violations == 0 and report.passed
        report.write_csv(tmp_path / "rows.csv")
        lines = (tmp_path / "rows.csv").read_text().strip().split("\n")[1:]
        at = base.max_gaps.index(worst)
        assert [line.split(",")[2] for line in lines] == ["0"] * len(lines)
        assert float(lines[at].split(",")[1]) == worst

    def test_hypothesis_violations_abort(self):
        with pytest.raises(ValueError, match=r"eta=3.0 outside \(0, 2.0\)$"):
            validate_bound(quadratic_scenario(eta=3.0), resamplings=2, trials=1,
                           delta=0.05)
        bad = quadratic_scenario()
        object.__setattr__(bad.distribution, "support", None)
        object.__setattr__(bad.distribution, "probs", None)
        with pytest.raises(ValueError):
            validate_bound(bad, resamplings=2, trials=1, delta=0.05)

    @pytest.mark.parametrize("resamplings,trials", [(0, 3), (3, 0), (-1, 3)])
    def test_empty_run_rejected(self, resamplings, trials):
        """A run that draws no gap would PASS having checked nothing."""
        with pytest.raises(ValueError, match="at least one"):
            validate_bound(quadratic_scenario(), resamplings=resamplings, trials=trials,
                           delta=0.05)

    @pytest.mark.parametrize("option", [
        {"shrink": 0.0}, {"shrink": math.nan}, {"shrink": -1.0}, {"shrink": math.inf},
        {"t_band": -1},
    ], ids=["shrink-zero", "shrink-nan", "shrink-negative", "shrink-inf", "t_band-negative"])
    def test_bad_shrink_or_band_rejected(self, option):
        """A certificate divided by 0, NaN or a negative number, or an empty
        band of step counts, validates nothing."""
        with pytest.raises(ValueError, match=next(iter(option))):
            validate_bound(quadratic_scenario(), resamplings=2, trials=1, delta=0.05, **option)

    def test_threads_preserve_results(self):
        seq = validate_bound(quadratic_scenario(n=30), resamplings=16, trials=3,
                             delta=0.05, seed=4, threads=1)
        par = validate_bound(quadratic_scenario(n=30), resamplings=16, trials=3,
                             delta=0.05, seed=4, threads=4)
        assert seq.max_gaps == par.max_gaps

    def test_frozen_max_gaps(self):
        """Frozen per-resampling worst gaps of a small run."""
        report = validate_bound(quadratic_scenario(n=30), resamplings=8, trials=3,
                                delta=0.05, seed=4)
        assert report.max_gaps == (
            0.06983614825583417, 0.0, 0.015691831260285893,
            0.03609961889767871, 0.005734579670440831, 0.011050426511736433,
            0.01941503781570464, 0.03650801580766916,
        )

    def test_per_row_fallback_gives_identical_gaps(self):
        scenario = quadratic_scenario(n=40)
        plain = dataclasses.replace(scenario.family, grad_batch=None, value_batch=None)
        fallback = dataclasses.replace(scenario, family=plain)
        a = validate_bound(scenario, resamplings=6, trials=4, delta=0.05, seed=2)
        b = validate_bound(fallback, resamplings=6, trials=4, delta=0.05, seed=2)
        assert a.max_gaps == b.max_gaps

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", ["grad_batch", "per_row", "box"])
    def test_pooled_lockstep_matches_per_resampling_runs(self, reference_runs, kind, d):
        """One lockstep over every resampling's trials gives, bit for bit,
        the worst gaps of running and scoring each resampling on its own."""
        scenario = _scenario_in(d, kind)
        report = validate_bound(scenario, resamplings=5, trials=4, delta=0.05, seed=d, t_band=7)
        assert report.max_gaps == _per_resampling_max_gaps(
            reference_runs, scenario, resamplings=5, trials=4, delta=0.05, seed=d, t_band=7)

    @pytest.mark.parametrize("resamplings,trials,t_band", [(1, 4, 7), (5, 1, 7), (5, 4, 0),
                                                           (1, 1, 0)])
    def test_pooled_lockstep_edge_sizes(self, reference_runs, resamplings, trials, t_band):
        scenario = _scenario_in(2, "grad_batch")
        report = validate_bound(scenario, resamplings, trials, delta=0.05, seed=3,
                                t_band=t_band)
        assert report.max_gaps == _per_resampling_max_gaps(reference_runs, scenario, resamplings,
                                                           trials, delta=0.05, seed=3,
                                                           t_band=t_band)

    def test_pooled_lockstep_with_weighted_named_support(self, reference_runs):
        """Non-uniform probabilities weigh the population sum and the draws."""
        scenario = _scenario_in(3, "grad_batch")
        skewed = dataclasses.replace(scenario, distribution=Distribution(
            support=scenario.distribution.support, probs=[0.5, 0.3, 0.15, 0.05]))
        report = validate_bound(skewed, resamplings=6, trials=3, delta=0.05, seed=8)
        assert report.max_gaps == _per_resampling_max_gaps(reference_runs, skewed, resamplings=6,
                                                           trials=3, delta=0.05, seed=8,
                                                           t_band=50)

    def test_per_row_values_score_only_the_support(self):
        """A family without ``value_batch`` is evaluated once per trial and
        support point: R * trials * m calls, not R * trials * (n + m)."""
        fam = quadratic_centers(CENTERS, R=1.0)
        calls = 0

        def value(theta, z):
            nonlocal calls
            calls += 1
            return fam.value(theta, z)

        plain = dataclasses.replace(fam, value_batch=None, value=value)
        validate_bound(dataclasses.replace(quadratic_scenario(n=200), family=plain),
                       resamplings=30, trials=20, delta=0.05, seed=1)
        assert calls == 30 * 20 * len(CENTERS)

    def test_support_listing_one_object_twice(self, reference_runs):
        """A support object at two positions is scored at both; either
        position stands for its draws."""
        scenario = _scenario_in(2, "grad_batch")
        twice = (scenario.distribution.support[0],) + scenario.distribution.support
        dup = dataclasses.replace(scenario, distribution=Distribution(
            support=twice, probs=np.full(len(twice), 1.0 / len(twice))))
        report = validate_bound(dup, resamplings=5, trials=4, delta=0.05, seed=6, t_band=7)
        assert report.max_gaps == _per_resampling_max_gaps(reference_runs, dup, resamplings=5,
                                                           trials=4, delta=0.05, seed=6, t_band=7)

    def test_non_finite_gradient_raises(self):
        fam = quadratic_centers(CENTERS, R=1.0)
        bad = dataclasses.replace(fam, grad_batch=lambda thetas, zs: thetas / 0.0)
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            validate_bound(dataclasses.replace(quadratic_scenario(), family=bad),
                           resamplings=2, trials=2, delta=0.05)

    @pytest.mark.parametrize("form", ["value_batch", "value"])
    def test_nan_loss_raises(self, form):
        """A NaN loss makes a NaN gap, which no threshold can pass or fail:
        validation raises instead of reporting a vacuous PASS."""
        fam = quadratic_centers(CENTERS, R=1.0)
        if form == "value_batch":
            bad = dataclasses.replace(
                fam, value_batch=lambda theta, zs: np.sum((theta - zs) ** 2, axis=-1) * np.nan)
        else:
            bad = dataclasses.replace(fam, value_batch=None, value=lambda theta, z: math.nan)
        with pytest.raises(FloatingPointError, match="non-finite loss gap"):
            validate_bound(dataclasses.replace(quadratic_scenario(), family=bad),
                           resamplings=2, trials=2, delta=0.05)

    def test_csv_rows(self, tmp_path):
        report = validate_bound(quadratic_scenario(n=20), resamplings=8, trials=2,
                                delta=0.05, seed=1)
        path = tmp_path / "rows.csv"
        report.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "resampling,max_abs_gap,violated"
        assert len(lines) == 9
        # plain float reprs round-trip
        assert float(lines[1].split(",")[1]) == report.max_gaps[0]


def _scenario_in(d, kind, n=25):
    """A quadratic scenario on four random centers in the unit d-ball, with
    the family's batched forms ("grad_batch"), without them ("per_row"), or
    with a box domain that projection is often active on ("box")."""
    rng = np.random.default_rng(100 + d)
    centers = [Ball(np.zeros(d), 1.0).sample(rng) for _ in range(4)]
    fam = quadratic_centers(centers, R=1.0)
    domain, eta = fam.domain, 0.5
    if kind == "per_row":
        fam = dataclasses.replace(fam, grad_batch=None, value_batch=None)
    elif kind == "box":
        domain, eta = Box(np.full(d, -0.3), np.full(d, 0.3)), 1.5
    return Scenario(f"quadratic-{kind}-{d}", fam, uniform_over(centers), domain, eta, n)


def _per_resampling_max_gaps(draws, scenario, resamplings, trials, delta, seed, t_band):
    """Reference: resampling r's dataset and trials come from ``draws`` over
    ``substream(seed, r)``, the dataset as its prelude; its trials run in a
    lockstep of their own over that dataset, and each endpoint is scored alone."""
    fam, probs = scenario.family, scenario.distribution.probs
    c = fam.constants
    gamma = contraction_factor(c.alpha, c.beta, scenario.eta)
    T = int(bound_strongly_convex(scenario.n, delta, c.B, c.L, c.R, gamma).inputs.get("T", 0))
    support = Dataset(scenario.distribution.support)
    step = SGDStep(fam, scenario.eta, domain=scenario.domain)
    starts, steps, indices, datasets = draws(
        seed, resamplings, trials, scenario.domain, T, T + t_band, scenario.n,
        prelude=lambda r, rng: Dataset.sample(scenario.distribution, scenario.n, rng))
    max_gaps = []
    for r, data in enumerate(datasets):
        rows = slice(r * trials, (r + 1) * trials)
        worst = 0.0
        for theta in run_lockstep(step, starts[rows], steps[rows], indices[rows], data):
            f_hat = float(np.mean(fam.values(theta, data)))
            f_pop = sum(p * v for p, v in zip(probs, fam.values(theta, support)))
            worst = max(worst, abs(f_hat - float(f_pop)))
        max_gaps.append(worst)
    return tuple(max_gaps)


class TestEMStep:
    def test_single_cluster_jumps_to_mean(self):
        rng = np.random.default_rng(71)
        samples = [rng.uniform(-1, 1, 2) for _ in range(25)]
        ds = Dataset(tuple(samples))
        out = em_step(np.array([[0.9, -0.9]]), ds, zeta=0.5)
        np.testing.assert_allclose(out.centers[0], np.mean(samples, axis=0), rtol=1e-12)

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(72)
        samples = [rng.uniform(-1, 1, 3) for _ in range(40)]
        out = em_step(rng.uniform(-1, 1, (4, 3)), Dataset(tuple(samples)), zeta=0.8)
        np.testing.assert_allclose(out.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_mirror_symmetry_preserved(self):
        samples = [np.array([1.0, 0.3]), np.array([-1.0, 0.3]),
                   np.array([1.2, -0.1]), np.array([-1.2, -0.1])]
        theta0 = np.array([[0.5, 0.1], [-0.5, 0.1]])
        out = em_step(theta0, Dataset(tuple(samples)), zeta=1.0)
        np.testing.assert_allclose(out.centers[0][0], -out.centers[1][0], rtol=1e-12)
        np.testing.assert_allclose(out.centers[0][1], out.centers[1][1], rtol=1e-12)

    def test_starved_cluster_held_fixed(self):
        samples = [np.array([0.0]), np.array([0.1])]
        theta0 = np.array([[0.05], [1e8]])  # second center's weights underflow
        out = em_step(theta0, Dataset(tuple(samples)), zeta=10.0)
        assert out.held_fixed == (1,)
        np.testing.assert_array_equal(out.centers[1], theta0[1])

    def test_budget_that_runs_out_is_not_convergence(self):
        rng = np.random.default_rng(73)
        ds = Dataset(tuple(rng.uniform(-0.7, 0.7, 2) for _ in range(40)))
        theta0 = rng.uniform(-0.5, 0.5, (3, 2))
        centers, iters, converged = run_em(theta0, ds, 0.7, max_iters=1)
        assert (iters, converged) == (1, False)
        np.testing.assert_array_equal(centers, em_step(theta0, ds, 0.7).centers)
        _, iters, converged = run_em(theta0, ds, 0.7)
        assert iters > 1 and converged
        # a budget of exactly the iterations needed still converges
        assert run_em(theta0, ds, 0.7, max_iters=iters)[1:] == (iters, True)
        assert run_em(theta0, ds, 0.7, max_iters=iters - 1)[1:] == (iters - 1, False)

    def test_fixed_point_is_stationary(self):
        """At convergence the objective's finite-difference gradient vanishes."""
        rng = np.random.default_rng(73)
        K, d, zeta = 3, 2, 0.7
        samples = [rng.uniform(-0.7, 0.7, d) for _ in range(40)]
        ds = Dataset(tuple(samples))
        fam = soft_kmeans(K=K, zeta=zeta, R=1.0)
        centers, iters, converged = run_em(rng.uniform(-0.5, 0.5, (K, d)), ds, zeta)
        assert iters < 10_000 and converged
        grad = numeric_gradient(lambda t: empirical_risk(fam, ds, t), centers.reshape(-1))
        assert np.linalg.norm(grad) <= 1e-6


class TestEMEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            K = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 50))
            zeta = float(rng.uniform(0.1, 2.0))
            ds = Dataset(tuple(rng.uniform(-1, 1, d) for _ in range(n)))
            theta = rng.uniform(-1, 1, (K, d))
            rep = verify_em_equivalence(theta, ds, zeta)
            assert rep.passed and rep.residual <= 1e-8

    def test_relation_tracks_zeta(self):
        rng = np.random.default_rng(75)
        ds = Dataset(tuple(rng.uniform(-1, 1, 2) for _ in range(20)))
        theta = rng.uniform(-1, 1, (3, 2))
        for zeta in (0.05, 0.3, 1.0, 4.0):
            assert verify_em_equivalence(theta, ds, zeta).residual <= 1e-8

    def test_single_point_closed_form(self):
        z = np.array([0.4])
        rep = verify_em_equivalence(np.array([[0.4]]), Dataset((z,)), zeta=0.9)
        assert rep.gmm_log_likelihood == pytest.approx(
            math.log(math.sqrt(0.9 / math.pi)), rel=1e-12
        )


class TestStabilityExperiment:
    def test_small_run_matches_limits(self):
        rep = stability_experiment(inits=2000, steps=200, seed=0)
        assert rep.mean_identical == pytest.approx(2.0, abs=0.15)
        assert rep.mean_swapped == pytest.approx(0.0, abs=0.01)
        assert rep.separation >= 1.5
        assert rep.basin_respected
        assert rep.converged_fraction == 1.0

    def test_reproducible(self):
        r1 = stability_experiment(inits=500, steps=100, seed=9)
        r2 = stability_experiment(inits=500, steps=100, seed=9)
        assert r1 == r2

    def test_frozen_report(self):
        """Frozen report of a small run."""
        rep = stability_experiment(inits=500, steps=100, seed=9)
        assert (rep.mean_identical, rep.mean_swapped, rep.converged_fraction) == (2.024, 0.0, 1.0)
        assert rep.basin_respected

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            stability_experiment(eta=1.0)
        with pytest.raises(ValueError):
            stability_experiment(inits=0)


class TestHoeffdingCheck:
    def setup_method(self):
        self.fam = quadratic_centers(CENTERS, R=1.0)
        self.dist = uniform_over(CENTERS)
        self.theta = np.array([0.3, -0.2])

    def test_rates_below_bounds(self):
        rep = hoeffding_check(self.fam, self.theta, n_grid=[20, 50, 100],
                              epsilon_grid=[0.05, 0.1, 0.2], resamplings=2000,
                              distribution=self.dist, seed=0)
        assert rep.passed and len(rep.cells) == 9

    def test_zero_epsilon_is_vacuous(self):
        rep = hoeffding_check(self.fam, self.theta, n_grid=[10],
                              epsilon_grid=[0.0], resamplings=100,
                              distribution=self.dist, seed=0)
        cell = rep.cells[0]
        assert cell.bound == 1.0 and cell.ok

    def test_rates_decrease_with_n(self):
        rep = hoeffding_check(self.fam, self.theta, n_grid=[10, 40, 160, 640],
                              epsilon_grid=[0.08], resamplings=4000,
                              distribution=self.dist, seed=1)
        rates = [c.empirical_rate for c in rep.cells]
        assert rates[-1] <= rates[0]

    @pytest.mark.parametrize("n_grid,epsilon_grid", [([0], [0.1]), ([10, -1], [0.1]),
                                                     ([], [0.1]), ([10], [])],
                             ids=["n-zero", "n-negative", "no-n", "no-epsilon"])
    def test_empty_grid_rejected(self, n_grid, epsilon_grid):
        with pytest.raises(ValueError):
            hoeffding_check(self.fam, self.theta, n_grid, epsilon_grid, 100, self.dist)

    def test_requires_finite_support_and_spread(self):
        with pytest.raises(ValueError):
            hoeffding_check(self.fam, self.theta, [10], [0.1], 100,
                            uniform_ball(1.0, 2))
        const_dist = uniform_over([CENTERS[0], CENTERS[0]])
        with pytest.raises(ValueError):
            hoeffding_check(self.fam, self.theta, [10], [0.1], 100, const_dist)
