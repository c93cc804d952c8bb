"""Certificate calculators: frozen examples, reductions, and monotonicity.

Frozen expected values were recomputed with 50-digit mpmath evaluations of
the closed forms before being pinned here.
"""

import math

import numpy as np
import pytest

from sgdcover.bounds import (
    BoundCertificate,
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
    horizon,
    multi_index_piece_params,
    soft_kmeans_params,
)


class TestStronglyConvex:
    def test_frozen_certificate(self):
        cert = bound_strongly_convex(100, 0.05, 1.0, 1.0, 1.0, 0.5)
        assert cert.inputs["T"] == 8
        assert cert.total == pytest.approx(0.5401679738831866, abs=1e-12)
        assert cert.covering_slack_term == pytest.approx(0.01)
        assert cert.sample_dependency_term == pytest.approx(0.08)

    def test_zero_deviation_leaves_only_slack(self):
        cert = bound_strongly_convex(50, 0.1, 0.0, 1.0, 1.0, 0.5)
        assert cert.total == pytest.approx(1.0 / 50.0, rel=1e-15)

    def test_vanishing_at_huge_n(self):
        assert bound_strongly_convex(10**8, 0.05, 1.0, 1.0, 1.0, 0.5).total < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bound_strongly_convex(100, 0.0, 1, 1, 1, 0.5)
        with pytest.raises(ValueError):
            bound_strongly_convex(100, 0.05, 1, 1, 1, 1.0)
        with pytest.raises(ValueError):
            bound_strongly_convex(0, 0.05, 1, 1, 1, 0.5)


class TestNonFiniteInputs:
    """A positive or nonnegative input must also be finite, and the refusal
    names it before any arithmetic turns it into a NaN."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name,call", [
        ("L", lambda v: bound_strongly_convex(100, 0.05, 1.0, v, 1.0, 0.5)),
        ("R", lambda v: bound_strongly_convex(100, 0.05, 1.0, 1.0, v, 0.5)),
        ("B", lambda v: bound_strongly_convex(100, 0.05, v, 1.0, 1.0, 0.5)),
        ("t", lambda v: bound_early(1000, 0.05, 1.0, v)),
        ("d_H", lambda v: bound_fractal(100, 0.05, 1.0, 1.0, 1.0, 0.5, d_H=v)),
        ("xi", lambda v: bound_piecewise_approx(200, 0.05, 1.0, 2.0, 1.0, 0.5, P=4, xi=v)),
        ("epsilon", lambda v: bound_master_covering(100, 0.05, 1.0, 1.0, 3, 27, v)),
        ("C", lambda v: bound_expectation(100, 1.0, 3, "THM_D_2", C=v)),
    ])
    def test_refusal_names_the_input(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            call(bad)


class TestSingleTrajectoryAndEarly:
    def test_frozen_single_trajectory(self):
        cert = bound_single_trajectory(1000, 0.05, 1.0, 8)
        assert cert.total == pytest.approx(0.05194694083467376, abs=1e-12)

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            bound_single_trajectory(1000, 2.0, 1.0, 8)
        with pytest.raises(ValueError):
            bound_early(1000, 1.0, 1.0, 8)

    def test_frozen_early_at_zero_steps(self):
        cert = bound_early(100, 0.05, 1.0, 0)
        assert cert.total == pytest.approx(0.13581015157406195, abs=1e-12)

    def test_early_linearity_in_t(self):
        base = bound_early(100, 0.05, 1.0, 10)
        double = bound_early(100, 0.05, 1.0, 20)
        assert double.total - base.total == pytest.approx(10.0 / 100.0, rel=1e-12)
        assert bound_early(100, 0.05, 1.0, 100).sample_dependency_term == 1.0

    def test_single_trajectory_vs_early_structure(self):
        # same concentration term; the fixed-run bound carries the +1/n slack
        a = bound_single_trajectory(500, 0.05, 2.0, 7)
        b = bound_early(500, 0.05, 2.0, 7)
        assert a.concentration_term == b.concentration_term
        assert a.total - b.total == pytest.approx(1.0 / 500.0, rel=1e-12)


class TestFractal:
    def test_consumes_measured_dimension(self):
        d_H = math.log(2) / math.log(3)
        cert = bound_fractal(100, 0.05, 2.0, 1.0, 1.0, 1.0 / 3.0, d_H)
        assert math.isfinite(cert.total) and cert.total > 0

    def test_ceiling_argument_with_unit_constants(self):
        # log(2 L R)/log(1/gamma) = 1 at L = R = 1, gamma = 0.5
        for d_H in (0.0, 0.4, 1.3):
            cert = bound_fractal(100, 0.05, 1.0, 1.0, 1.0, 0.5, d_H)
            assert cert.inputs["cover_exponent"] == math.ceil(d_H + 1.0)

    def test_degenerate_attractor(self):
        cert = bound_fractal(100, 0.05, 1.0, 1.0, 1.0, 0.5, 0.0)
        assert cert.inputs["cover_exponent"] == 1
        assert math.isfinite(cert.total)


class TestPiecewise:
    def test_zero_error_slack_is_pure_power(self):
        cert = bound_piecewise_approx(100, 0.05, 1.0, 1.0, 1.0, 0.5, T=8, P=1,
                                      xi=0.0, eta=0.3)
        assert cert.approximation_term == pytest.approx(2.0 / 256.0, rel=1e-12)

    def test_frozen_contractive_slack(self):
        cert = bound_piecewise_contractive(100, 0.05, 1.0, 1.0, 1.0, 0.9,
                                           T=50, P=1, xi=0.001)
        assert cert.approximation_term == pytest.approx(0.03020447491049384, rel=1e-10)

    def test_geometric_sum_below_horizon(self):
        for gamma in np.linspace(0.05, 0.95, 19):
            for T in (1, 5, 20):
                assert (1 - gamma**T) / (1 - gamma) <= T + 1e-12

    def test_gamma_one_limit_flagged(self):
        cert = bound_piecewise_approx(100, 0.05, 1.0, 1.0, 1.0, 1.0, T=10, P=2,
                                      xi=0.01, eta=0.1)
        assert "geometric_series_limit" in cert.flags
        assert cert.approximation_term == pytest.approx(
            2.0 * (1.0 + 10 * 0.1 * 0.01), rel=1e-12
        )

    def test_default_horizon_matches_applications(self):
        cert = bound_piecewise_approx(100, 0.05, 1.0, 1.0, 1.0, 0.5)
        assert cert.inputs["T"] == math.ceil(math.log(3 * 100) / math.log(2))

    def test_agreement_between_variants_at_zero_error(self):
        a = bound_piecewise_approx(200, 0.1, 1.5, 2.0, 1.0, 0.7, T=9, P=1, xi=0.0, eta=0.4)
        b = bound_piecewise_contractive(200, 0.1, 1.5, 2.0, 1.0, 0.7, T=9, P=1, xi=0.0)
        assert a.total == pytest.approx(b.total, rel=1e-15)


class TestMultiIndex:
    def test_piece_parameters_example(self):
        kappa, P = multi_index_piece_params(beta=1, eta=0.1, K=2, L=1, R=1,
                                            R_x=1, T=5, n=10)
        assert kappa == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert P == 240

    def test_doubling_input_radius_quadruples_pieces(self):
        _, p1 = multi_index_piece_params(1, 0.1, 2, 1, 1, 1, 5, 10)
        _, p2 = multi_index_piece_params(1, 0.1, 2, 1, 1, 2, 5, 10)
        assert p2 == 4 * p1

    def test_single_index_single_piece_log_factor(self):
        cert = bound_multi_index(100, 0.05, 1.0, 1.0, 1.0, 1.0, K=1, Q=1,
                                 beta=1.0, eta=0.1, lam=0.5)
        T, P = cert.inputs["T"], cert.inputs["P"]
        manual = cert.inputs["B"] if "B" in cert.inputs else 1.0
        expected = 1.0 * math.sqrt(
            (T * math.log(100 * P) + math.log(2 / 0.05)) / 200.0
        )
        assert cert.concentration_term == pytest.approx(expected, rel=1e-12)

    def test_unit_step_ratio_collapses_horizon(self):
        cert = bound_multi_index(100, 0.05, 1.0, 1.0, 1.0, 1.0, K=2, Q=1,
                                 beta=1.0, eta=1.0, lam=1.0)
        assert cert.inputs["gamma"] == 0.0 and cert.inputs["T"] == 0
        assert "instant_contraction" in cert.flags

    def test_step_size_window(self):
        with pytest.raises(ValueError):
            bound_multi_index(100, 0.05, 1, 1, 1, 1, K=2, Q=1, beta=1.0,
                              eta=4.0, lam=0.5)


class TestSoftKmeans:
    def test_frozen_constants(self):
        p = soft_kmeans_params(K=4, R=1.0, zeta=0.01, eta=1.0, n=100)
        assert p["B"] == 16.0
        assert p["L"] == pytest.approx(2.3470217419836205, rel=1e-12)

    def test_gamma_below_one_over_step_grid(self):
        for K in (2, 4, 8):
            B = 4.0 * (1.0 + 1.0) ** 2
            sup = K * math.exp(-0.01 * B)
            for frac in np.linspace(0.025, 0.975, 39):
                p = soft_kmeans_params(K=K, R=1.0, zeta=0.01, eta=frac * sup, n=1000)
                assert 0.0 < p["gamma"] < 1.0

    def test_sqrt_k_scaling(self):
        """Quadrupling K (with step size scaled in proportion) should less
        than double the certificate."""
        for K, eta in ((2, 0.5), (4, 1.0), (8, 2.0)):
            small = bound_soft_kmeans(1000, 0.05, K, 1.0, 0.01, eta).total
            large = bound_soft_kmeans(1000, 0.05, 4 * K, 1.0, 0.01, 4 * eta).total
            assert large / small < 2.1

    def test_step_size_window(self):
        with pytest.raises(ValueError):
            bound_soft_kmeans(100, 0.05, 4, 1.0, 0.01, eta=4.0)


class TestHardKmeans:
    def test_frozen_horizon(self):
        cert = bound_hard_kmeans(1000, 0.05, K=2, R=1.0, eta=0.25)
        assert cert.inputs["gamma"] == 0.5
        assert cert.inputs["T"] == 15

    def test_declared_deviation(self):
        assert bound_hard_kmeans(100, 0.05, 2, 1.0, 0.25).inputs["B"] == 4.0

    def test_half_step_instant_contraction(self):
        cert = bound_hard_kmeans(100, 0.05, 2, 1.0, 0.5)
        assert cert.inputs["T"] == 0 and "instant_contraction" in cert.flags

    def test_growth_shape(self):
        """Totals track sqrt(K log^2 n / n): the normalized ratio moves by
        less than 1.5x over a (K, n) grid where the raw totals move by 4x+."""
        raw, normalized = [], []
        for n in (10**3, 10**4, 10**5):
            for K in (2, 4, 8, 16):
                t = bound_hard_kmeans(n, 0.05, K, 1.0, 0.25).total
                raw.append(t)
                normalized.append(t / math.sqrt(K * math.log(n) ** 2 / n))
        assert max(normalized) / min(normalized) < 1.5
        assert max(raw) / min(raw) > 4.0

    def test_step_window(self):
        with pytest.raises(ValueError):
            bound_hard_kmeans(100, 0.05, 2, 1.0, 1.0)


class TestMasterCovering:
    def test_single_algorithm_is_pointwise_hoeffding(self):
        cert = bound_master_covering(400, 0.05, 1.0, 1.0, 0, 1, 0.0)
        assert cert.total == pytest.approx(math.sqrt(math.log(2 / 0.05) / 800.0), rel=1e-12)

    def test_epsilon_linearity(self):
        base = bound_master_covering(100, 0.05, 1.0, 2.0, 3, 10, 0.25)
        double = bound_master_covering(100, 0.05, 1.0, 2.0, 3, 10, 0.5)
        assert double.total - base.total == pytest.approx(2.0 * 2.0 * 0.25, rel=1e-12)

    def test_reproduces_strongly_convex_certificate(self):
        """Master bound with |cover| = n^T and eps = 1/(2 L n) equals the
        specialized strongly-convex certificate on random inputs."""
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(10, 5000))
            B = float(rng.uniform(0.1, 5.0))
            L = float(rng.uniform(0.1, 5.0))
            R = float(rng.uniform(0.1, 5.0))
            gamma = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.01, 0.5))
            specialized = bound_strongly_convex(n, delta, B, L, R, gamma)
            T = specialized.inputs["T"]
            master = bound_master_covering(n, delta, B, L, T, n**T, 1.0 / (2.0 * L * n))
            assert master.total == pytest.approx(specialized.total, rel=1e-12)

    def test_big_integer_cardinality(self):
        cert = bound_master_covering(1000, 0.05, 1.0, 1.0, 50, 1000**50, 0.0)
        expected = 1.0 * math.sqrt((50 * math.log(1000) + math.log(40)) / 2000.0)
        assert cert.total - 50.0 / 1000.0 == pytest.approx(expected, rel=1e-12)

    def test_reproduces_fixed_run_certificates(self):
        # a single fixed algorithm: cover of cardinality one
        n, delta, B, L, T = 700, 0.07, 1.3, 0.9, 11
        single = bound_single_trajectory(n, delta, B, T)
        master = bound_master_covering(n, delta, B, L, T, 1, 1.0 / (2.0 * L * n))
        assert master.total == pytest.approx(single.total, rel=1e-12)
        early = bound_early(n, delta, B, T)
        master0 = bound_master_covering(n, delta, B, L, T, 1, 0.0)
        assert master0.total == pytest.approx(early.total, rel=1e-12)

    def test_reproduces_fractal_certificate(self):
        n, delta, B, L, R, gamma, d_H = 250, 0.05, 1.4, 0.8, 1.2, 0.4, 0.9
        specialized = bound_fractal(n, delta, B, L, R, gamma, d_H)
        card = n ** specialized.inputs["cover_exponent"]
        master = bound_master_covering(n, delta, B, L, specialized.inputs["T"], card,
                                       1.0 / (2.0 * L * n))
        assert master.total == pytest.approx(specialized.total, rel=1e-12)

    def test_reproduces_multi_index_certificate(self):
        n, delta = 120, 0.05
        specialized = bound_multi_index(n, delta, 1.5, 1.0, 1.0, 1.0, K=3, Q=2,
                                 beta=1.0, eta=0.1, lam=0.5)
        T, P = specialized.inputs["T"], specialized.inputs["P"]
        card = (n * P**3 * 2) ** T  # exact integer arithmetic
        master = bound_master_covering(n, delta, 1.5, 1.0, T, card, 1.0 / (2.0 * n))
        assert master.total == pytest.approx(specialized.total, rel=1e-12)

    def test_reproduces_soft_kmeans_certificate(self):
        n, delta, K = 200, 0.05, 3
        specialized = bound_soft_kmeans(n, delta, K, 1.0, 0.01, eta=0.8)
        T, P, B, L = (specialized.inputs[k] for k in ("T", "P", "B", "L"))
        master = bound_master_covering(n, delta, B, L, T, (n * P**K) ** T,
                                       1.0 / (2.0 * L * n))
        assert master.total == pytest.approx(specialized.total, rel=1e-12)

    def test_reproduces_hard_kmeans_certificate(self):
        n, delta, K, R = 300, 0.05, 2, 1.0
        specialized = bound_hard_kmeans(n, delta, K, R, eta=0.25)
        T, B = specialized.inputs["T"], specialized.inputs["B"]
        # the per-cluster construction depends on K*T samples, covers with
        # (2n)^(K*T) candidates, and is 4R-Lipschitz at radius eps = 1/(8Rn)
        master = bound_master_covering(n, delta, B, 4.0 * R, K * T,
                                       (2 * n) ** (K * T), 1.0 / (8.0 * R * n))
        assert master.total == pytest.approx(specialized.total, rel=1e-12)

    def test_cardinality_validation(self):
        with pytest.raises(ValueError):
            bound_master_covering(100, 0.05, 1, 1, 3, 0, 0.0)
        with pytest.raises(ValueError):
            bound_master_covering(100, 0.05, 1, 1, 3, 2.5, 0.0)


class TestExpectation:
    def test_frozen_fixed_iterate_value(self):
        cert = bound_expectation(100, 1.0, 8, "THM_D_1")
        assert cert.total == pytest.approx(0.09, rel=1e-12)
        assert cert.concentration_term is None

    def test_supremum_dominates_fixed_iterate(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            n = int(rng.integers(10, 10_000))
            B = float(rng.uniform(0.1, 3.0))
            T = int(rng.integers(0, 40))
            d1 = bound_expectation(n, B, T, "THM_D_1").total
            d2 = bound_expectation(n, B, T, "THM_D_2").total
            assert d2 >= d1

    def test_absolute_gap_below_supremum_when_informative(self):
        for n in (10, 100, 10_000):
            for T in (1, 5, 30):
                if T * math.log(n) >= 1.0:
                    d2 = bound_expectation(n, 1.0, T, "THM_D_2", C=2.0).total
                    d3 = bound_expectation(n, 1.0, T, "COR_D_3", C=2.0).total
                    assert d3 <= d2

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            bound_expectation(100, 1.0, 8, "THM_D_9")


def _random_certificates(rng):
    """One certificate from each calculator at a random admissible input."""
    n = int(rng.integers(20, 3000))
    delta = float(rng.uniform(0.01, 0.5))
    B = float(rng.uniform(0.1, 4.0))
    L = float(rng.uniform(0.1, 4.0))
    R = float(rng.uniform(0.2, 3.0))
    gamma = float(rng.uniform(0.1, 0.9))
    T = int(rng.integers(1, 30))
    K = int(rng.integers(1, 6))
    yield bound_strongly_convex(n, delta, B, L, R, gamma)
    yield bound_single_trajectory(n, delta, B, T)
    yield bound_early(n, delta, B, T)
    yield bound_fractal(n, delta, B, L, R, gamma, float(rng.uniform(0, 2)))
    yield bound_piecewise_approx(n, delta, B, L, R, gamma, T=T,
                                 P=int(rng.integers(1, 10)),
                                 xi=float(rng.uniform(0, 0.1)),
                                 eta=float(rng.uniform(0, 1)))
    yield bound_piecewise_contractive(n, delta, B, L, R, gamma, T=T,
                                      P=int(rng.integers(1, 10)),
                                      xi=float(rng.uniform(0, 0.1)))
    yield bound_hard_kmeans(n, delta, K, R, float(rng.uniform(0.05, 0.45)))
    yield bound_master_covering(n, delta, B, L, T, int(rng.integers(1, 10**6)),
                                float(rng.uniform(0, 0.2)))
    yield bound_expectation(n, B, T, "THM_D_2", C=float(rng.uniform(0.5, 2)))


class TestHighPrecisionOracle:
    """Recompute the frozen regression values with 50-digit arithmetic."""

    def test_closed_forms_match_extended_precision(self):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        mpm = pytest.importorskip("mpmath")

        T = int(mpm.ceil(mpm.log(2 * 100) / mpm.log(2)))
        strongly = (T + 1) / mpm.mpf(100) + mpm.sqrt(
            (T * mpm.log(100) + mpm.log(2 / mpm.mpf("0.05"))) / 200
        )
        got = bound_strongly_convex(100, 0.05, 1.0, 1.0, 1.0, 0.5).total
        assert abs(got - float(strongly)) <= 1e-12

        single = 9 / mpm.mpf(1000) + mpm.sqrt(mpm.log(2 / mpm.mpf("0.05")) / 2000)
        got = bound_single_trajectory(1000, 0.05, 1.0, 8).total
        assert abs(got - float(single)) <= 1e-12

        T_hard = int(mpm.ceil(mpm.log(16 * mpm.sqrt(2) * 1000) / mpm.log(2)))
        assert bound_hard_kmeans(1000, 0.05, 2, 1.0, 0.25).inputs["T"] == T_hard == 15


class TestCertificateInvariants:
    def test_component_additivity_and_nonnegativity(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            for cert in _random_certificates(rng):
                parts = sum(v for v in cert.components.values() if v is not None)
                assert parts == cert.total
                assert cert.total >= 0 and math.isfinite(cert.total)

    def test_refusals(self):
        with pytest.raises(ValueError, match="unknown theorem id 'THM_9_9'"):
            BoundCertificate("THM_9_9", {})
        for total in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                BoundCertificate("THM_2_3", {}, sample_dependency_term=total)

    def test_horizon_needs_a_positive_scale(self):
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="horizon scale must be positive"):
                horizon(scale, 0.5)

    def test_serialization_round_trip(self):
        cert = bound_strongly_convex(100, 0.05, 1, 1, 1, 0.5)
        doc = cert.to_dict()
        assert doc["theorem"] == "THM_2_3"
        assert doc["total"] == cert.total
        assert set(doc["components"]) == {
            "sample_dependency_term", "concentration_term",
            "covering_slack_term", "approximation_term",
        }
