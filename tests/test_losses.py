"""Loss families: examples, gradient consistency, and declared constants."""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgdcover.core import Ball, ProductOfBalls, WholeSpace, numeric_gradient
from sgdcover.families import (
    hard_kmeans,
    multi_index,
    smooth_margin_link,
    soft_kmeans,
    squared_error_link,
    stability_counterexample_1d,
    zero_link,
)
from sgdcover.losses import (
    Dataset,
    Distribution,
    LossConstants,
    LossFamily,
    family_from_descriptor,
    quadratic_centers,
    uniform_over,
)
from sgdcover.fractal import IFSModel
from sgdcover.studies import em_step
from sgdcover.surrogate import (
    PiecewiseSmoothFunction,
    build_piecewise_approx,
    enumerate_piecewise_cover,
    smooth_function,
)
from sgdcover.trajectory import coupled_contraction_ratio


class TestLossConstants:
    def test_sign_validation(self):
        with pytest.raises(ValueError):
            LossConstants(beta=0.0)
        with pytest.raises(ValueError):
            LossConstants(alpha=-1.0)
        with pytest.raises(ValueError):
            LossConstants(K=0)
        for field, value in itertools.product(("L", "B", "R"), (math.inf, math.nan)):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                LossConstants(**{field: value})

    def test_counts_refuse_non_integers_with_their_own_message(self):
        for field, value in itertools.product(("K", "Q"), (math.inf, math.nan, True, 2.5)):
            with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
                LossConstants(**{field: value})

    def test_float_fields_refuse_bools_and_text(self):
        """A bool is not stored as a constant, and text is refused by name
        rather than failing inside ``math.isfinite``."""
        for field, value in itertools.product(("alpha", "beta", "L", "B", "R", "zeta"),
                                              (True, False, "2")):
            with pytest.raises(ValueError, match=f"^{field} must be a real number"):
                LossConstants(**{field: value})
        assert LossConstants(alpha=np.float64(0.5), beta=1, L=2).alpha == 0.5

    def test_alpha_beta_ordering(self):
        with pytest.raises(ValueError):
            LossConstants(alpha=2.0, beta=1.0)
        LossConstants(alpha=1.0, beta=1.0)  # equality allowed


class TestQuadraticCenters:
    def setup_method(self):
        self.fam = quadratic_centers([[0.0, 0.0], [0.5, -0.5]], R=1.0)

    def test_minimizer(self):
        z = np.array([0.5, -0.5])
        assert self.fam.value(z, z) == 0.0
        np.testing.assert_array_equal(self.fam.grad(z, z), [0.0, 0.0])

    def test_direct_evaluation(self):
        theta, z = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert self.fam.value(theta, z) == 0.5
        np.testing.assert_array_equal(self.fam.grad(theta, z), [1.0, 0.0])

    def test_constants(self):
        c = self.fam.constants
        assert (c.alpha, c.beta) == (1.0, 1.0)
        assert c.B == 2.0  # 2 R^2
        assert c.L == 1.0

    def test_radius_and_centers_required(self):
        for R in (0.0, -1.0):
            with pytest.raises(ValueError, match="R must be positive"):
                quadratic_centers([[0.0, 0.0]], R=R)
        with pytest.raises(ValueError, match="need at least one center"):
            quadratic_centers([], R=1.0)

    def test_center_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            quadratic_centers([[2.0, 0.0]], R=1.0)

    def test_overflowing_loss_range_is_refused(self):
        """An R whose loss range 2 R^2 overflows is refused with a ValueError
        before any centre is measured; below that, a centre whose squared norm
        overflows is outside the ball."""
        with pytest.raises(ValueError, match="2 R\\^2 overflows"):
            quadratic_centers([[1e200, 0.0]], R=1e300)
        with pytest.raises(ValueError, match="2 R\\^2 overflows"):
            quadratic_centers([[3e200, 4e200]], R=4.9e200)
        with pytest.raises(ValueError, match="outside the radius-R ball"):
            quadratic_centers([[3e200, 4e200]], R=1e150)

    def test_unit_curvature_contraction_identity(self):
        """sqrt(1 - 2 eta + eta^2) equals |1 - eta| for the declared constants."""
        from sgdcover.sgd import contraction_factor

        for eta in np.linspace(0.05, 1.95, 39):
            gamma = contraction_factor(self.fam.constants.alpha, self.fam.constants.beta, eta)
            assert gamma == pytest.approx(abs(1.0 - eta), abs=1e-15)


class TestMultiIndex:
    def test_pure_regularizer(self):
        fam = multi_index(zero_link(3), lam=0.4, R=1.0, R_x=1.0, K=3, d=2)
        theta = np.array([0.1, 0.2, -0.3, 0.0, 0.5, -0.1])
        z = (0, np.array([0.5, 0.5]))
        assert fam.value(theta, z) == pytest.approx(0.2 * float(theta @ theta))
        np.testing.assert_allclose(fam.grad(theta, z), 0.4 * theta, rtol=1e-15)
        assert fam.constants.alpha == fam.constants.beta == 0.4

    def test_least_squares_single_index(self):
        fam = multi_index(squared_error_link(), lam=0.0, R=1.0, R_x=2.0, K=1, d=3)
        theta = np.array([0.2, -0.1, 0.4])
        x = np.array([1.0, 0.5, -0.5])
        y = 0.7
        expected = (theta @ x - y) * x
        np.testing.assert_allclose(fam.grad(theta, (y, x)), expected, rtol=1e-12)

    def test_margin_link_touches_two_blocks(self):
        K, d = 4, 3
        fam = multi_index(smooth_margin_link(K), lam=0.0, R=1.0, R_x=1.0, K=K, d=d)
        rng = np.random.default_rng(3)
        for _ in range(25):
            theta = rng.uniform(-0.5, 0.5, K * d)
            x = rng.uniform(-0.5, 0.5, d)
            x /= max(1.0, np.linalg.norm(x))
            y = int(rng.integers(0, K))
            g = fam.grad(theta, (y, x)).reshape(K, d)
            touched = {j for j in range(K) if np.any(g[j] != 0.0)}
            assert y in touched and len(touched) == 2
            fd = numeric_gradient(lambda t: fam.value(t, (y, x)), theta)
            np.testing.assert_allclose(g.reshape(-1), fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("margin", [701.0, 710.0, 1e300])
    def test_margin_link_gradient_saturates_without_overflow(self, margin):
        """Beyond |margin| 700 rho' is taken as its limit (0 above, -1
        below), so exp never overflows."""
        link = smooth_margin_link(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(link.grad(np.array([margin, 0.0]), 0), [0.0, 0.0])
            np.testing.assert_array_equal(link.grad(np.array([-margin, 0.0]), 0), [-1.0, 1.0])

    def test_feature_radius_enforced(self):
        fam = multi_index(zero_link(2), lam=0.1, R=1.0, R_x=1.0, K=2, d=2)
        with pytest.raises(ValueError):
            fam.value(np.zeros(4), (0, np.array([3.0, 0.0])))


class TestSoftKmeans:
    def test_single_cluster_collapses(self):
        fam = soft_kmeans(K=1, zeta=0.7, R=1.0)
        theta, z = np.array([0.3, -0.2]), np.array([-0.1, 0.4])
        assert fam.value(theta, z) == pytest.approx(float(np.sum((theta - z) ** 2)), rel=1e-12)

    def test_equal_blocks_split_weight_evenly(self):
        K = 4
        fam = soft_kmeans(K=K, zeta=0.5, R=1.0)
        block = np.array([0.2, 0.1])
        theta = np.tile(block, K)
        z = np.array([-0.3, 0.3])
        g = fam.grad(theta, z).reshape(K, 2)
        for j in range(K):
            np.testing.assert_allclose(g[j], 2.0 * (block - z) / K, rtol=1e-12)

    def test_declared_constants(self):
        fam = soft_kmeans(K=4, zeta=0.01, R=1.0)
        c = fam.constants
        assert c.B == 16.0
        assert c.L == pytest.approx(2.3470217419836205, rel=1e-12)  # 2*exp(0.16)
        assert c.alpha == pytest.approx(0.5 * math.exp(-0.16), rel=1e-12)
        assert c.beta == pytest.approx(0.5 * math.exp(0.16), rel=1e-12)
        assert c.beta_prime == pytest.approx(0.64 * math.exp(0.16) + 0.64 + 2.0, rel=1e-12)

    def test_rejects_bad_zeta(self):
        with pytest.raises(ValueError):
            soft_kmeans(K=2, zeta=0.0, R=1.0)

    def test_gradient_norm_bound(self):
        """Per-block gradient norm stays below 4 R e^{zeta B} / K."""
        K, zeta, R, d = 3, 0.5, 1.0, 2
        fam = soft_kmeans(K=K, zeta=zeta, R=R)
        bound = 4.0 * R * math.exp(zeta * fam.constants.B) / K
        ball = Ball(np.zeros(d), R)
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            theta = np.concatenate([ball.sample(rng) for _ in range(K)])
            z = ball.sample(rng)
            g = fam.grad(theta, z).reshape(K, d)
            assert np.linalg.norm(g, axis=1).max() <= bound + 1e-12

    def test_value_bracket(self):
        """-zeta * f stays in [-B + log K, log K] on random draws.

        The bracket needs 4*zeta*R^2 <= B = 4(R+1)^2, which holds for every
        zeta <= ((R+1)/R)^2; tested zetas respect that.
        """
        rng = np.random.default_rng(12)
        for zeta in (0.05, 0.5, 2.0):
            K, R, d = 3, 1.0, 2
            fam = soft_kmeans(K=K, zeta=zeta, R=R)
            B = fam.constants.B
            ball = Ball(np.zeros(d), R)
            for _ in range(500):
                theta = np.concatenate([ball.sample(rng) for _ in range(K)])
                z = ball.sample(rng)
                s = -zeta * fam.value(theta, z)
                assert -B + math.log(K) - 1e-12 <= s <= math.log(K) + 1e-12


class TestHardKmeans:
    def test_direct_minimum(self):
        fam = hard_kmeans(K=2, R=3.0)
        theta = np.array([0.0, 3.0])
        z = np.array([1.0])
        assert fam.value(theta, z) == 1.0
        np.testing.assert_array_equal(fam.grad(theta, z), [-2.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        fam = hard_kmeans(K=2, R=2.0)
        theta = np.array([0.0, 2.0])
        z = np.array([1.0])  # equidistant
        np.testing.assert_array_equal(fam.grad(theta, z), [-2.0, 0.0])

    def test_full_tie_rule_touches_all_minimizers(self):
        fam = hard_kmeans(K=2, R=2.0, tie_rule="full")
        g = fam.grad(np.array([0.0, 2.0]), np.array([1.0]))
        np.testing.assert_array_equal(g, [-2.0, 2.0])

    def test_random_tie_rule_is_deterministic_singleton(self):
        fam = hard_kmeans(K=3, R=2.0, tie_rule="random")
        theta = np.array([0.0, 2.0, 2.0])
        z = np.array([1.0])  # three-way tie (distances 1, 1, 1)
        g1, g2 = fam.grad(theta, z), fam.grad(theta, z)
        np.testing.assert_array_equal(g1, g2)
        assert np.count_nonzero(g1) == 1

    def test_unknown_tie_rule(self):
        with pytest.raises(ValueError):
            hard_kmeans(K=2, R=1.0, tie_rule="coin_flip")

    def test_lipschitz_slope(self):
        """Empirical slopes stay below the declared 4R Lipschitz constant."""
        K, R, d = 3, 1.0, 2
        fam = hard_kmeans(K=K, R=R)
        ball = Ball(np.zeros(d), R)
        rng = np.random.default_rng(13)
        for _ in range(2_000):
            a = np.concatenate([ball.sample(rng) for _ in range(K)])
            b = np.concatenate([ball.sample(rng) for _ in range(K)])
            z = ball.sample(rng)
            gap = abs(fam.value(a, z) - fam.value(b, z))
            assert gap <= 4.0 * R * np.linalg.norm(a - b) + 1e-12

    def test_adding_center_never_increases_value(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            theta = rng.uniform(-1, 1, 4)
            extra = rng.uniform(-1, 1, 2)
            z = rng.uniform(-1, 1, 2)
            v2 = hard_kmeans(K=2, R=2.0).value(theta, z)
            v3 = hard_kmeans(K=3, R=2.0).value(np.concatenate([theta, extra]), z)
            assert v3 <= v2 + 1e-15


_BLOCK_FAMILIES = {
    "multi_index": lambda d: multi_index(zero_link(3), lam=0.5, R=1.5, R_x=1.0, K=3, d=d),
    "soft_kmeans": lambda d: soft_kmeans(K=3, zeta=0.7, R=1.5, d=d),
    "hard_kmeans": lambda d: hard_kmeans(K=3, R=1.5, d=d),
}


@pytest.mark.parametrize("d", [None, 2])
@pytest.mark.parametrize("name", sorted(_BLOCK_FAMILIES))
def test_block_families_share_one_layout(name, d):
    """K = 3 blocks in R^d: the product of K radius-R balls, of dimension
    K*d, or no domain when d is not given."""
    fam = _BLOCK_FAMILIES[name](d)
    if d is None:
        assert fam.domain is None
        return
    assert fam.domain.dim == 6
    assert isinstance(fam.domain, ProductOfBalls)
    assert (fam.domain.blocks, fam.domain.block_dim, fam.domain.radius) == (3, 2, 1.5)


class TestStabilityCounterexample:
    def setup_method(self):
        self.fam = stability_counterexample_1d()

    def test_swapped_sample_averages_to_two(self):
        assert self.fam.value([1.0], 1) == 0.0
        assert self.fam.value([3.0], 1) == 4.0
        assert 0.5 * self.fam.value([1.0], 1) + 0.5 * self.fam.value([3.0], 1) == 2.0

    def test_kink_value_and_auxiliary_gradient(self):
        # both branches evaluate to 1 at x = 2; the fixed gradient is 2
        assert self.fam.value([2.0], 0) == 1.0
        np.testing.assert_array_equal(self.fam.grad([2.0], 0), [2.0])

    def test_right_piece_minimum(self):
        assert self.fam.value([3.0], 0) == 0.5

    def test_batched_gradient_matches_rows_bitwise(self):
        """Same kink rule (gradient 2 at x = 2) in the batched form, for
        both sample values, on a grid through the kink."""
        grid = np.concatenate([np.linspace(0.0, 4.0, 81), [2.0, np.nextafter(2.0, 0.0),
                                                          np.nextafter(2.0, 4.0)]])
        for z in (0, 1):
            batch = self.fam.grad_batch(grid[:, None], np.full(grid.size, z))
            rows = np.stack([self.fam.grad([x], z) for x in grid])
            assert batch.shape == rows.shape and batch.tobytes() == rows.tobytes()
        assert self.fam.grad_batch(np.array([[2.0]]), np.array([0]))[0, 0] == 2.0


def _random_eval_points(name, rng):
    """(theta, z) pairs at differentiable points for each family."""
    if name == "quadratic":
        fam = quadratic_centers([[0.5, 0.0], [-0.5, 0.2]], R=1.0)
        ball = Ball(np.zeros(2), 1.0)
        return fam, lambda: (ball.sample(rng), ball.sample(rng))
    if name == "soft_kmeans":
        fam = soft_kmeans(K=3, zeta=0.8, R=1.0)
        ball = Ball(np.zeros(2), 1.0)
        return fam, lambda: (
            np.concatenate([ball.sample(rng) for _ in range(3)]),
            ball.sample(rng),
        )
    if name == "hard_kmeans":
        fam = hard_kmeans(K=3, R=1.0)
        ball = Ball(np.zeros(2), 1.0)

        def draw():
            while True:
                theta = np.concatenate([ball.sample(rng) for _ in range(3)])
                z = ball.sample(rng)
                d2 = np.sort(np.sum((theta.reshape(3, 2) - z) ** 2, axis=1))
                if d2[1] - d2[0] > 1e-3:  # stay away from assignment boundaries
                    return theta, z

        return fam, draw
    if name == "stability":
        fam = stability_counterexample_1d()

        def draw():
            while True:
                x = rng.uniform(0.0, 4.0)
                if abs(x - 2.0) > 1e-3:
                    return np.array([x]), int(rng.integers(0, 2))

        return fam, draw
    raise AssertionError(name)


class TestFiniteDifferenceConsistency:
    @pytest.mark.parametrize("name", ["quadratic", "soft_kmeans", "hard_kmeans", "stability"])
    def test_gradient_matches_central_differences(self, name):
        rng = np.random.default_rng(15)
        fam, draw = _random_eval_points(name, rng)
        for _ in range(100):
            theta, z = draw()
            g = fam.grad(theta, z)
            fd = numeric_gradient(lambda t: fam.value(t, z), theta)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-6


class TestBoundedDeviation:
    @pytest.mark.parametrize("name", ["quadratic", "soft_kmeans", "hard_kmeans", "stability"])
    def test_sampled_deviation_below_declared_B(self, name):
        rng = np.random.default_rng(16)
        fam, draw = _random_eval_points(name, rng)
        pairs = [draw() for _ in range(300)]
        thetas = [p[0] for p in pairs[:20]]
        zs = [p[1] for p in pairs]
        for theta in thetas:
            vals = [fam.value(theta, z) for z in zs]
            assert max(vals) - min(vals) <= fam.constants.B + 1e-12


class TestBatchedEvaluation:
    def test_quadratic_batched_forms_match_rows_bitwise(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 5, 17):
            centers = [Ball(np.zeros(d), 1.0).sample(rng) for _ in range(4)]
            fam = quadratic_centers(centers, R=1.0)
            ds = Dataset(tuple(centers))
            thetas = rng.uniform(-2.0, 2.0, size=(50, d))
            idx = rng.integers(0, 4, size=50)
            rows = np.stack([fam.grad(t, centers[i]) for t, i in zip(thetas, idx)])
            assert fam.grad_rows(thetas, ds, idx).tobytes() == rows.tobytes()
            for theta in thetas[:10]:
                vals = np.array([fam.value(theta, z) for z in centers])
                assert fam.values(theta, ds).tobytes() == vals.tobytes()

    def test_families_without_batched_forms_fall_back_per_row(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        fam = LossFamily(
            name="aniso", constants=LossConstants(),
            value=lambda t, z: 0.5 * float((t - z) @ A @ (t - z)),
            grad=lambda t, z: A @ (t - z),
        )
        assert fam.grad_batch is None and fam.value_batch is None
        ds = Dataset((np.array([0.5, 0.0]), np.array([-0.2, 0.4])))
        thetas = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.0]])
        idx = np.array([1, 0, 1])
        rows = np.stack([fam.grad(t, ds.samples[i]) for t, i in zip(thetas, idx)])
        assert fam.grad_rows(thetas, ds, idx).tobytes() == rows.tobytes()
        vals = np.array([fam.value(thetas[1], z) for z in ds.samples])
        assert fam.values(thetas[1], ds).tobytes() == vals.tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 5), st.booleans(), st.data())
    def test_row_array_values_stack_point_values_bitwise(self, d, n, m, batched, data):
        """The (m, d) form of ``values`` is ``value`` of each row and sample,
        bit for bit, whether the family has ``value_batch`` or not."""
        coords = hnp.arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3))
        centers = data.draw(coords)
        fam = quadratic_centers(list(centers), R=2.0 * np.linalg.norm(centers, axis=1).max() + 1.0)
        if not batched:
            fam = dataclasses.replace(fam, value_batch=None)
        thetas = data.draw(hnp.arrays(np.float64, (m, d), elements=st.floats(-1e3, 1e3)))
        ds = Dataset(tuple(centers))
        rows = np.array([[fam.value(t, z) for z in ds.samples] for t in thetas]).reshape(m, n)
        got = fam.values(thetas, ds)
        assert got.shape == (m, n) and got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("name", ["quadratic", "quadratic_per_row", "soft_kmeans",
                                      "hard_kmeans", "multi_index", "stability"])
    def test_one_parameter_values_are_value_per_sample_bitwise(self, name):
        """A single parameter is a one-row batch: its (n,) vector is ``value``
        of each sample, bit for bit, on the batched and per-row paths alike."""
        rng = np.random.default_rng(23)
        ball = Ball(np.zeros(2), 1.0)
        if name.startswith("quadratic"):
            centers = [ball.sample(rng) for _ in range(5)]
            fam, samples = quadratic_centers(centers, R=1.0), centers
            if name == "quadratic_per_row":
                fam = dataclasses.replace(fam, value_batch=None)
        elif name in ("soft_kmeans", "hard_kmeans"):
            fam = (soft_kmeans(K=3, zeta=0.8, R=1.0, d=2) if name == "soft_kmeans"
                   else hard_kmeans(K=3, R=1.0, d=2))
            samples = [ball.sample(rng) for _ in range(7)]
        elif name == "multi_index":
            fam = multi_index(smooth_margin_link(3), lam=0.1, R=1.0, R_x=1.0, K=3, d=2)
            samples = [(int(rng.integers(0, 3)), ball.sample(rng)) for _ in range(7)]
        else:
            fam, samples = stability_counterexample_1d(), [0, 1, 1, 0]
        ds = Dataset(tuple(samples))
        width = fam.domain.dim
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, width) + (2.0 if name == "stability" else 0.0)
            ref = np.array([fam.value(theta, z) for z in ds.samples])
            got = fam.values(theta, ds)
            assert got.shape == (ds.n,) and got.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            fam.values(np.zeros(width + 1), ds)

    def test_replace_keeps_batched_forms(self):
        fam = quadratic_centers([[0.5, 0.0]], R=1.0)
        traced = dataclasses.replace(fam, grad=lambda t, z: fam.grad(t, z))
        assert traced.grad_batch is fam.grad_batch and traced.value_batch is fam.value_batch

    def test_dataset_matrix_stacks_samples(self):
        ds = Dataset((np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        np.testing.assert_array_equal(ds.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.matrix is ds.matrix  # computed once


class TestDatasetsAndDescriptors:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(())
        d = Dataset((np.array([1.0]),))
        assert d.n == 1

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Distribution(support=(1,), probs=None)
        with pytest.raises(ValueError):
            Distribution(support=(1, 2), probs=np.array([0.9, 0.2]))
        for probs in ([1.0], [0.25, 0.25, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="probs must match the support in length"):
                Distribution(support=(1, 2), probs=probs)
        with pytest.raises(ValueError, match="finite distribution draws from its support"):
            Distribution(support=(1, 2), probs=[0.5, 0.5], draw=lambda rng, k: [1] * k)
        with pytest.raises(ValueError, match="needs a support and probs, or a draw"):
            Distribution()

    def test_non_finite_probs_refused(self):
        # NaN fails every comparison, so the sum test alone cannot refuse it
        for probs in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, -math.inf]):
            with pytest.raises(ValueError, match="probs must be a probability vector"):
                Distribution(support=(1, 2), probs=probs)

    def test_uniform_over_refuses_empty_support(self):
        with pytest.raises(ValueError, match="non-empty support"):
            uniform_over([])

    def test_uniform_over_sampling(self):
        dist = uniform_over([np.array([0.0]), np.array([1.0])])
        ds = Dataset.sample(dist, 64, np.random.default_rng(5))
        assert ds.n == 64 and dist.finite
        redraw = Dataset.sample(dist, 64, np.random.default_rng(5))
        np.testing.assert_array_equal(np.array(ds.samples), np.array(redraw.samples))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           weights=st.lists(st.integers(1, 9), min_size=6, max_size=6))
    def test_sample_draws_the_derived_positions(self, m, n, seed, weights):
        """A uniform distribution draws ``rng.integers(0, m, n)``; a weighted
        one ``rng.choice(m, n, p=probs)``; each maps them to support objects."""
        support = [np.array([float(i)]) for i in range(m)]
        uniform = uniform_over(support)
        got = Dataset.sample(uniform, n, np.random.default_rng(seed)).samples
        want = np.random.default_rng(seed).integers(0, m, n)
        assert all(z is uniform.support[i] for z, i in zip(got, want, strict=True))

        probs = np.array(weights[:m], dtype=float) / sum(weights[:m])
        if np.all(probs == probs[0]):
            return  # equal weights draw as uniform_over does
        weighted = Distribution(support=tuple(support), probs=probs)
        got = Dataset.sample(weighted, n, np.random.default_rng(seed)).samples
        want = np.random.default_rng(seed).choice(m, n, p=weighted.probs)
        assert all(z is support[i] for z, i in zip(got, want, strict=True))

    def test_family_descriptors_roundtrip(self):
        descs = [
            {"name": "quadratic_centers", "centers": [[0.1, 0.2]], "R": 1.0},
            {"name": "soft_kmeans", "K": 2, "zeta": 0.5, "R": 1.0},
            {"name": "hard_kmeans", "K": 2, "R": 1.0, "tie_rule": "full"},
            {"name": "stability_counterexample_1d"},
            {"name": "multi_index", "link": {"name": "zero"}, "K": 2,
             "lambda": 0.5, "R": 1.0, "R_x": 1.0, "d": 2},
        ]
        for desc in descs:
            fam = family_from_descriptor(desc)
            assert fam.name.startswith(desc["name"].split("_")[0]) or fam.name

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            family_from_descriptor({"name": "perceptron"})
        with pytest.raises(ValueError):
            family_from_descriptor({"name": "soft_kmeans", "K": 2})
        for desc in (["quadratic_centers"], "soft_kmeans", None, {"K": 2}):
            with pytest.raises(ValueError, match="must be an object with a 'name' field"):
                family_from_descriptor(desc)
        with pytest.raises(ValueError, match="unknown link 'nope'"):
            family_from_descriptor({"name": "multi_index", "link": {"name": "nope"}, "K": 2,
                                    "lambda": 0.5, "R": 1.0, "R_x": 1.0, "d": 2})


def _zero_fn(beta_prime=1.0):
    return smooth_function(lambda t: 0.0, lambda t: np.zeros(2), beta_prime=beta_prime)


@pytest.mark.parametrize("call,error,message", [
    (lambda: smooth_margin_link(1), ValueError, "margin link needs K >= 2 classes"),
    (lambda: soft_kmeans(2, 1.0, 1.0).value(np.zeros(3), np.zeros(1)), ValueError,
     "theta length must be a multiple of K"),
    (lambda: multi_index(squared_error_link(), 0.1, 1.0, 1.0, K=2), ValueError,
     "link was built for a different K"),
    (lambda: multi_index(squared_error_link(), -0.1, 1.0, 1.0, K=1), ValueError,
     "lam must be nonnegative"),
    (lambda: multi_index(squared_error_link(), 0.1, 0.0, 1.0, K=1), ValueError,
     "R and R_x must be positive"),
    (lambda: multi_index(squared_error_link(), 0.1, 1.0, 0.0, K=1), ValueError,
     "R and R_x must be positive"),
    (lambda: soft_kmeans(2, 1.0, R=0.0), ValueError, "R must be positive"),
    (lambda: soft_kmeans(0, 1.0, R=1.0), ValueError, "K must be a positive integer"),
    (lambda: hard_kmeans(2, R=0.0), ValueError, "R must be positive"),
    (lambda: hard_kmeans(0, R=1.0), ValueError, "K must be a positive integer"),
    (lambda: IFSModel([[0.5]], gamma=1.0, radius=1.0), ValueError, "gamma must lie in (0, 1)"),
    (lambda: em_step(np.zeros(2), Dataset(([0.0],)), zeta=0.0), ValueError,
     "zeta must be positive"),
    (lambda: PiecewiseSmoothFunction((), lambda t: 0, 1.0), ValueError,
     "need at least one smooth piece"),
    (lambda: _zero_fn(beta_prime=-1.0), ValueError, "beta_prime must be nonnegative"),
    (lambda: build_piecewise_approx(_zero_fn(), WholeSpace(2), 0.5, (1.0, 1.0)), ValueError,
     "anchor lattice needs a bounded domain"),
    (lambda: build_piecewise_approx(_zero_fn(), Ball(np.zeros(2), 1.0), 0.5, (math.inf, 1.0)),
     ValueError, "alpha must be finite, got inf"),
    (lambda: build_piecewise_approx(_zero_fn(), Ball(np.zeros(2), 1.0), 0.5, (1.0, math.nan)),
     ValueError, "beta must be finite, got nan"),
    (lambda: enumerate_piecewise_cover(None, Dataset(([0.0],)), -0.1, 2), ValueError,
     "eta must be nonnegative"),
    (lambda: coupled_contraction_ratio(None, np.zeros((2, 1)), np.ones((3, 1)), [[0], [0]],
                                       Dataset(([0.0],))), ValueError,
     "need (m, d), (m, d) and (m, steps) arrays, got shapes (2, 1), (3, 1) and (2, 1)"),
    (lambda: WholeSpace(0), ValueError, "dimension must be a positive integer"),
], ids=["margin-link-K", "split-blocks-length", "multi-index-link-K", "multi-index-lam",
        "multi-index-R", "multi-index-R_x", "soft-kmeans-R", "soft-kmeans-K", "hard-kmeans-R",
        "hard-kmeans-K", "IFSModel-gamma", "em-step-zeta", "piecewise-no-pieces",
        "piecewise-beta-prime", "anchor-lattice-unbounded", "piecewise-alpha-inf",
        "piecewise-beta-nan", "piecewise-cover-eta", "coupling-shapes", "whole-space-0"])
def test_out_of_range_arguments_are_refused(call, error, message):
    """Each constructor or routine refuses an argument outside its range
    with the error and message that name it."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
