"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Expected constants marked as derived were recomputed
with 50-digit mpmath evaluations of the closed forms before being frozen.
"""

import json
import math
import tracemalloc

import numpy as np

from sgdcover.bounds import (
    bound_early,
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
from sgdcover.cli import EXIT_OK, run
from sgdcover.core import Ball, WholeSpace, numeric_gradient, row_norms
from sgdcover.cover import _own_entry_runs, cover_horizon, enumerate_cover, verify_cover
from sgdcover.experiments import Scenario, validate_bound
from sgdcover.families import soft_kmeans
from sgdcover.fractal import IFSModel, box_counting_dimension, ifs_dimension
from sgdcover.losses import Dataset, quadratic_centers, uniform_over
from sgdcover.sgd import SGDStep
from sgdcover.studies import (
    empirical_risk,
    hoeffding_check,
    run_em,
    stability_experiment,
    verify_em_equivalence,
)
from sgdcover.surrogate import build_piecewise_approx, smooth_function
from sgdcover.trajectory import coupled_contraction_ratio

CENTERS = [np.array([0.8, 0.0]), np.array([-0.4, 0.6]), np.array([-0.2, -0.7])]


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{cid} failed: {detail}"


class TestAcceptance:
    def test_c01_contraction_exactness(self):
        """Coupled ratio of the unit-curvature quadratic equals |1 - eta|
        to 1e-12 on the unconstrained domain.

        The number of coupled steps per pair keeps the pair distance well
        above the rounding floor, where the identity is measurable.
        """
        fam = quadratic_centers(CENTERS, R=1.0)
        ds = Dataset(tuple(CENTERS))
        rng = np.random.default_rng(101)
        worst = 0.0
        for eta in (0.1, 0.5, 0.9, 1.5):
            update = SGDStep(fam, eta, domain=WholeSpace(2))
            g = abs(1.0 - eta)
            steps = min(20, max(1, int(math.log(0.01) / math.log(g))))
            starts_a, starts_b, idx = [], [], []
            while len(idx) < 100:
                a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
                if np.linalg.norm(a - b) < 0.1:
                    continue
                starts_a.append(a)
                starts_b.append(b)
                idx.append(rng.integers(0, 3, steps))
            rep = coupled_contraction_ratio(update, np.array(starts_a), np.array(starts_b),
                                            np.array(idx), ds)
            worst = max(worst, float(np.max(np.abs(rep.ratios - g))))
        report("C1", worst <= 1e-12,
               f"max |ratio - |1-eta|| = {worst:.3e} over 4 step sizes x 100 pairs")

    def test_c02_cover_soundness(self):
        """10^4 random restarts at random t in [T, T+50] all land within
        eps = 1/(2 L n) of their own entry of the horizon-T enumeration.

        The check is deterministic: every own distance is at most
        gamma^T R = 1/8 < eps = 1/6, so its false-fail probability is 0."""
        fam = quadratic_centers(CENTERS, R=1.0)
        ds = Dataset(tuple(CENTERS))
        update = SGDStep(fam, 0.5, domain=fam.domain)
        eps = 1.0 / (2.0 * 1.0 * 3.0)
        T = cover_horizon(1.0, eps, 0.5)
        cov = enumerate_cover(update, ds, T=T, cap=10**6)
        outcome = verify_cover(cov, update, ds, trials=10_000, max_extra_steps=50,
                               epsilon=eps, seed=11)
        report("C2", outcome.passed and outcome.failures == 0,
               f"T={T}, |cover|={len(cov)}, failures={outcome.failures}/10000, "
               f"max own-entry distance {outcome.max_min_distance:.6f} <= eps {eps:.6f}")

    def test_c03_certificate_regression(self):
        """Frozen certificate values (high-precision recomputations of the
        closed forms) and the hard-clustering horizon."""
        sc = bound_strongly_convex(100, 0.05, 1.0, 1.0, 1.0, 0.5).total
        st = bound_single_trajectory(1000, 0.05, 1.0, 8).total
        T = bound_hard_kmeans(1000, 0.05, 2, 1.0, 0.25).inputs["T"]
        ok = (
            abs(sc - 0.5401679738831866) <= 1e-6
            and abs(st - 0.05194694083467376) <= 1e-6
            and T == 15
        )
        report("C3", ok,
               f"strongly convex {sc:.9f}, single trajectory {st:.9f}, "
               f"hard-clustering T = {T}")

    def test_c04_bound_validity(self):
        """500 dataset resamplings: no certificate violations; the 50x-shrunk
        negative control must violate on more than a delta fraction."""
        scenario = Scenario("strongly_convex_quadratic",
                            quadratic_centers(CENTERS, R=1.0),
                            uniform_over(CENTERS),
                            Ball(np.zeros(2), 1.0), eta=0.5, n=200)
        good = validate_bound(scenario, resamplings=500, trials=20, delta=0.05, seed=21)
        control = validate_bound(scenario, resamplings=500, trials=20, delta=0.05,
                                 seed=21, shrink=50.0)
        frac_good = good.violations / good.resamplings
        frac_control = control.violations / control.resamplings
        ok = good.passed and frac_good <= 0.05 and frac_control > 0.05
        report("C4", ok,
               f"violations {good.violations}/500 (max gap "
               f"{good.max_observed_gap:.4f} vs cert {good.certificate_total:.4f}); "
               f"negative control fraction {frac_control:.2f}")

    def test_c05_piecewise_approximation(self):
        """Surrogate for sin(x) + cos(y) on the unit disk at xi = 0.5: the
        gradient error on a 200 x 200 grid stays within xi and the piece
        count respects the closed-form bound."""
        fn = smooth_function(
            lambda t: math.sin(t[0]) + math.cos(t[1]),
            lambda t: np.array([math.cos(t[0]), -math.sin(t[1])]),
            beta_prime=1.0,
        )
        dom = Ball(np.zeros(2), 1.0)
        ap = build_piecewise_approx(fn, dom, xi=0.5, strong_convexity_smoothness=(1.0, 1.0))
        axis = np.linspace(-1.0, 1.0, 200)
        worst = 0.0
        for x in axis:
            for y in axis:
                p = np.array([x, y])
                if x * x + y * y > 1.0:
                    continue
                worst = max(worst, float(np.linalg.norm(fn.grad(p) - ap.grad(p))))
        bound = ap.closed_form_piece_bound()
        ok = worst <= 0.5 and ap.piece_count <= bound
        report("C5", ok,
               f"max gradient error {worst:.4f} <= 0.5; "
               f"{ap.piece_count} pieces vs bound {bound:.0f}")

    def test_c06_em_equivalence(self):
        """Mixture log-likelihood is an affine image of the soft clustering
        objective (50 random instances), and the alternating update's fixed
        point is stationary for it."""
        rng = np.random.default_rng(31)
        worst_residual = 0.0
        for _ in range(50):
            K = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 101))
            zeta = float(rng.uniform(0.1, 2.0))
            ds = Dataset(tuple(rng.uniform(-1, 1, d) for _ in range(n)))
            theta = rng.uniform(-1, 1, (K, d))
            worst_residual = max(
                worst_residual, verify_em_equivalence(theta, ds, zeta).residual
            )

        K, d, zeta = 3, 2, 0.7
        samples = tuple(rng.uniform(-0.7, 0.7, d) for _ in range(60))
        ds = Dataset(samples)
        fam = soft_kmeans(K=K, zeta=zeta, R=1.0)
        centers, _, _ = run_em(rng.uniform(-0.5, 0.5, (K, d)), ds, zeta)
        grad_norm = float(np.linalg.norm(numeric_gradient(
            lambda t: empirical_risk(fam, ds, t), centers.reshape(-1)
        )))
        ok = worst_residual <= 1e-8 and grad_norm <= 1e-6
        report("C6", ok,
               f"max affine residual {worst_residual:.2e} <= 1e-8; "
               f"fixed-point |grad| {grad_norm:.2e} <= 1e-6")

    def test_c07_stability_counterexample(self):
        """Endpoint loss after 200 steps from 10^5 uniform starts: mean 2 on
        the all-zeros data, mean 0 after swapping in a single z = 1.

        Each endpoint loss on the all-zeros data is 0 or 4, by the side of
        x = 2 its start falls on, so 10^5 * mean / 4 is Bin(10^5, 1/2) and
        the mean's standard error is 2 / sqrt(10^5) = 0.0063.  The 0.05
        tolerance is about 7.9 standard errors, a false-fail probability near
        3e-15; at 10^4 starts it was about 2.5, near 1.2 %."""
        rep = stability_experiment(eta=1.0 / 3.0, inits=100_000, steps=200, seed=41)
        ok = abs(rep.mean_identical - 2.0) <= 0.05 and abs(rep.mean_swapped) <= 0.05
        report("C7", ok,
               f"means {rep.mean_identical:.4f} (target 2 +- 0.05) and "
               f"{rep.mean_swapped:.6f} (target 0 +- 0.05)")

    def test_c08_ifs_dimension(self):
        """Two separated 1-D maps at ratio 1/3: box counting of the orbit
        matches log 2 / log 3, and the fractal certificate consumes the
        measured dimension.

        The grid starts at the orbit's minimum, a little inside the
        attractor's hull, so each scale 2/3^k counts about 2^(k+1) - 1 boxes
        where an aligned grid counts 2^k: the error is an estimator bias, not
        only noise.  Over seeds 0-39 it fails 0.05 on 2 seeds (4 and 24,
        largest error 0.0605, median 0.034); seed 51 reads 0.027.  Starting
        the grid at the hull (ROADMAP item 6) addresses the bias."""
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=1.0 / 3.0, radius=1.0)
        closed_form = ifs_dimension(model)
        orbit = model.sample_attractor(200_000, seed=51)
        scales = [2.0 / 3.0**k for k in range(1, 8)]
        fit = box_counting_dimension(orbit, scales)
        err = abs(fit.dimension - math.log(2) / math.log(3))
        cert = bound_fractal(100, 0.05, 2.0, 1.0, 1.0, 1.0 / 3.0, fit.dimension)
        ok = closed_form.certified and err <= 0.05 and math.isfinite(cert.total)
        report("C8", ok,
               f"box estimate {fit.dimension:.4f} vs log2/log3 = 0.6309 "
               f"(err {err:.4f}); fractal certificate total {cert.total:.4f}")

    def test_c09_reduction_consistency(self):
        """Certificate algebra: the zero-error single-piece reductions agree
        with each other and with the master bound to 1e-12, and all declared
        monotonicities hold on a 1000-point random grid."""
        rng = np.random.default_rng(61)
        worst_rel = 0.0
        for _ in range(20):
            n = int(rng.integers(10, 3000))
            delta = float(rng.uniform(0.01, 0.5))
            B = float(rng.uniform(0.1, 4.0))
            L = float(rng.uniform(0.2, 4.0))
            R = float(rng.uniform(0.2, 3.0))
            gamma = float(rng.uniform(0.1, 0.9))
            T = int(rng.integers(1, 25))
            a = bound_piecewise_approx(n, delta, B, L, R, gamma, T=T, P=1,
                                       xi=0.0, eta=float(rng.uniform(0, 1)))
            b = bound_piecewise_contractive(n, delta, B, L, R, gamma, T=T, P=1, xi=0.0)
            m = bound_master_covering(n, delta, B, L, T, n**T, gamma**T * R)
            worst_rel = max(
                worst_rel,
                abs(a.total - b.total) / max(1.0, a.total),
                abs(a.total - m.total) / max(1.0, a.total),
            )

        mono_failures = self._monotonicity_grid_failures(1000)
        ok = worst_rel <= 1e-12 and mono_failures == 0
        report("C9", ok,
               f"max reduction disagreement {worst_rel:.2e} <= 1e-12; "
               f"monotonicity failures {mono_failures}/3000 checks")

    @staticmethod
    def _monotonicity_grid_failures(points: int) -> int:
        """Certificates must be nonincreasing in n (doubling comparisons for
        the calculators that derive their horizon from n, which jumps at
        ceiling boundaries), nondecreasing in B, and nondecreasing as delta
        shrinks."""
        rng = np.random.default_rng(20260809)
        failures = 0
        for trial in range(points):
            n = int(rng.integers(3, 5000))
            delta = float(rng.uniform(0.01, 0.5))
            B = float(rng.uniform(0.1, 4.0))
            L = float(rng.uniform(0.2, 4.0))
            R = float(rng.uniform(0.2, 3.0))
            gamma = float(rng.uniform(0.1, 0.95))
            T = int(rng.integers(1, 30))
            K = int(rng.integers(1, 6))
            kind = trial % 8
            if kind == 0:
                n = max(n, int(math.ceil(1.0 / (L * R))) + 1)
                f = lambda n_, B_, d_: bound_strongly_convex(n_, d_, B_, L, R, gamma)
                n_next = 2 * n
            elif kind == 1:
                f = lambda n_, B_, d_: bound_single_trajectory(n_, d_, B_, T)
                n_next = n + 1
            elif kind == 2:
                f = lambda n_, B_, d_: bound_early(n_, d_, B_, T)
                n_next = n + 1
            elif kind == 3:
                n = max(n, int(math.ceil(1.0 / (L * R))) + 1)
                dH = float(rng.uniform(0, 2))
                f = lambda n_, B_, d_: bound_fractal(n_, d_, B_, L, R, gamma, dH)
                n_next = 2 * n
            elif kind == 4:
                P = int(rng.integers(1, 10))
                xi = float(rng.uniform(0, 0.1))
                eta = float(rng.uniform(0, 1))
                f = lambda n_, B_, d_: bound_piecewise_approx(
                    n_, d_, B_, L, R, gamma, T=T, P=P, xi=xi, eta=eta)
                n_next = n + 1
            elif kind == 5:
                eta = float(rng.uniform(0.05, 0.45))
                f = lambda n_, B_, d_: bound_hard_kmeans(n_, d_, K, R, eta)
                n_next = 2 * n
            elif kind == 6:
                eta = float(rng.uniform(0.1, 0.9)) * K * math.exp(-0.01 * 4 * (R + 1) ** 2)
                f = lambda n_, B_, d_: bound_soft_kmeans(n_, d_, K, R, 0.01, eta)
                n_next = 2 * n
            else:
                Q = int(rng.integers(1, 4))
                beta = float(rng.uniform(0.2, 3.0))
                lam = float(rng.uniform(0.2, 2.0))
                eta = float(rng.uniform(0.05, 0.95)) * 2.0 / lam
                if abs(1.0 - eta * lam) < 1e-9 or abs(1.0 - eta * lam) >= 1.0:
                    continue
                f = lambda n_, B_, d_: bound_multi_index(
                    n_, d_, B_, L, R, R, K, Q, beta, eta, lam)
                n_next = 2 * n
            base = f(n, B, delta).total
            if not f(n_next, B, delta).total <= base * (1 + 1e-12):
                failures += 1
            if not f(n, 2 * B, delta).total >= base * (1 - 1e-12):
                failures += 1
            if not f(n, B, delta / 2).total >= base * (1 - 1e-12):
                failures += 1
        return failures

    def test_c10_hoeffding_sanity(self):
        """Empirical tail frequencies stay below the bound on a 4 x 4
        (n, epsilon) grid with 10^4 resamplings, up to 3-sigma noise."""
        fam = quadratic_centers(CENTERS, R=1.0)
        dist = uniform_over(CENTERS)
        theta = np.array([0.35, -0.15])
        values = [fam.value(theta, z) for z in CENTERS]
        width = max(values) - min(values)
        rep = hoeffding_check(
            fam, theta,
            n_grid=[25, 50, 100, 200],
            epsilon_grid=[0.1 * width, 0.2 * width, 0.3 * width, 0.5 * width],
            resamplings=10_000, distribution=dist, seed=71,
        )
        bad = [c for c in rep.cells if not c.ok]
        report("C10", rep.passed and len(rep.cells) == 16,
               f"16 grid cells, {len(bad)} above bound; "
               f"worst rate {max(c.empirical_rate for c in rep.cells):.4f}")

    def test_c11_certificate_and_gap_over_n_and_d(self, tmp_path):
        """``validate`` on three centres of norm 0.8 embedded in d dimensions
        (eta = 0.5, R = 1, 30 resamplings x 20 trials, delta = 0.05) PASSes
        in every cell of d in {2, 64, 1024} x n in {10^2, 10^3, 10^4}, and
        the certificate is bitwise the same for every d.  The log-log slopes
        of the certificate and of the largest observed gap against n are
        reported, not gated."""
        angles = [2.0 * math.pi * k / 3.0 for k in range(3)]
        ns, dims = (100, 1000, 10_000), (2, 64, 1024)
        certs, gaps, failed = {}, {}, []
        for d in dims:
            centers = [[0.8 * math.cos(a), 0.8 * math.sin(a)] + [0.0] * (d - 2) for a in angles]
            for n in ns:
                scenario = tmp_path / "scenario.json"
                scenario.write_text(json.dumps({
                    "family": {"name": "quadratic_centers", "centers": centers, "R": 1.0},
                    "eta": 0.5, "dataset": {"kind": "support", "n": n}}))
                out = tmp_path / "validate.json"
                code = run(["validate", "--scenario", str(scenario), "--resamplings", "30",
                            "--trials", "20", "--delta", "0.05", "--seed", "11",
                            "--out", str(out)])
                result = json.loads(out.read_text())["result"]
                if code != EXIT_OK or not result["passed"]:
                    failed.append((d, n))
                certs[d, n] = result["certificate_total"]
                gaps[d, n] = result["max_observed_gap"]
        same = all(certs[d, n].hex() == certs[dims[0], n].hex() for d in dims for n in ns)
        log_n = np.log(ns)
        cert_slope = np.polyfit(log_n, np.log([certs[dims[0], n] for n in ns]), 1)[0]
        gap_slope = np.polyfit(log_n, np.log([np.mean([gaps[d, n] for d in dims])
                                              for n in ns]), 1)[0]
        table = "; ".join(f"n={n}: cert {certs[dims[0], n]:.4f}, gaps "
                          + "/".join(f"{gaps[d, n]:.4f}" for d in dims) for n in ns)
        report("C11", not failed and same,
               f"{table} (d = {'/'.join(map(str, dims))}); slopes vs n: certificate "
               f"{cert_slope:.3f}, mean max gap {gap_slope:.3f}; failed cells {failed}")

    def test_c12_dimension_free_cover_at_paper_scale(self):
        """The localized cover has n^T entries in every dimension, and it
        covers: for 3 ``quadratic_centers`` samples at gamma = 1/2 in d = 2, 64
        and 1024, and T = 10 and 13, each of 2,000 runs of T to T + 10 steps
        ends within gamma^T * R * (1 + 1e-9) of its own entry, its last T
        samples applied to the origin.  No cover is held: in d = 1024 the
        peak traced memory stays under 160 MB, where the T = 10 cover alone
        is 3^10 * 1024 * 8 B = 484 MB.  At T = 6 the recomputed own entries
        of 500 runs are bitwise the enumerated cover's rows at their indices."""
        def setup(d):
            centers = list(np.random.default_rng(d).uniform(-1, 1, (3, d)) / math.sqrt(d))
            fam = quadratic_centers(centers, R=1.0)
            return SGDStep(fam, 0.5, domain=fam.domain), Dataset(tuple(centers)), d

        def own_ratios(update, ds, seed, T):
            endpoints, _, own = _own_entry_runs(update, ds, T, 2000, 10, seed)
            return row_norms(endpoints - own) / 0.5**T

        ratios = [own_ratios(*setup(d), T) for d in (2, 64) for T in (10, 13)]
        tracemalloc.start()
        try:
            ratios += [own_ratios(*setup(1024), T) for T in (10, 13)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bitwise = True
        for update, ds, seed in map(setup, (2, 64, 1024)):
            points = enumerate_cover(update, ds, T=6).points
            _, last, own = _own_entry_runs(update, ds, 6, 500, 10, seed)
            bitwise &= points[last @ 3 ** np.arange(5, -1, -1)].tobytes() == own.tobytes()
        ratios = np.concatenate(ratios)
        failures, worst = int(np.count_nonzero(ratios > 1 + 1e-9)), float(ratios.max())
        ok = failures == 0 and peak < 160e6 and bitwise
        report("C12", ok,
               f"{failures} failures in {ratios.size:,} runs; largest own distance "
               f"{worst:.9f} gamma^T R; peak {peak / 1e6:.1f} MB in d = 1024 (< 160; the "
               f"cover is 484 MB); T = 6 recompute equals lookup bitwise: {bitwise}")
