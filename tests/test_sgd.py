"""SGD engine: step semantics, trajectory determinism, coupled contraction."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgdcover import sgd as sgd_module
from sgdcover.cover import enumerate_cover
from sgdcover.core import (DETERMINISTIC_TOL, Ball, Box, ProductOfBalls, WholeSpace, linalg_norms,
                           row_norms, substream)
from sgdcover.families import (hard_kmeans, multi_index, soft_kmeans, squared_error_link,
                                stability_counterexample_1d, zero_link)
from sgdcover.losses import Dataset, LossConstants, LossFamily, quadratic_centers
from sgdcover.sgd import CustomMap, SGDStep, contraction_factor, draw_runs, run_lockstep, sgd_step
from sgdcover.trajectory import coupled_contraction_ratio, run_trajectory

CENTERS = [np.array([0.6, -0.2]), np.array([-0.5, 0.5]), np.array([0.1, 0.7])]


def quadratic_setup(eta, domain=None):
    fam = quadratic_centers(CENTERS, R=1.0)
    ds = Dataset(tuple(CENTERS))
    update = SGDStep(fam, eta, domain=domain)
    return fam, ds, update


class TestSgdStep:
    def test_full_step_reaches_minimizer(self):
        _, ds, update = quadratic_setup(eta=1.0)
        out = sgd_step(update, np.array([0.9, 0.1]), 1, ds)
        np.testing.assert_allclose(out, CENTERS[1], rtol=1e-15)

    def test_zero_step_is_identity(self):
        _, ds, update = quadratic_setup(eta=0.0)
        theta = np.array([0.3, -0.3])
        np.testing.assert_array_equal(sgd_step(update, theta, 0, ds), theta)

    def test_half_step_by_hand(self):
        fam = quadratic_centers([[0.0]], R=1.0)
        ds = Dataset((np.array([0.0]),))
        update = SGDStep(fam, 0.5, domain=Ball(np.zeros(1), 2.0))
        np.testing.assert_array_equal(sgd_step(update, np.array([1.0]), 0, ds), [0.5])

    def test_index_out_of_range(self):
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(IndexError):
            sgd_step(update, np.array([0.0, 0.0]), 3, ds)

    def test_index_is_checked_before_the_point_is_finite(self):
        """sgd_step checks only the shape of theta before the index; the
        update then checks the point finite."""
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(IndexError):
            sgd_step(update, np.array([np.nan, 0.0]), 3, ds)
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            sgd_step(update, np.array([np.nan, 0.0]), 0, ds)

    def test_scalar_theta_is_a_one_point(self):
        update = SGDStep(quadratic_centers([[0.0]], R=1.0), 0.5)
        out = sgd_step(update, 0.5, 0, Dataset((np.array([0.0]),)))
        assert out.dtype == np.float64 and out.shape == (1,)
        np.testing.assert_array_equal(out, [0.25])

    @pytest.mark.parametrize("batched", [False, True], ids=["apply", "apply_batch"])
    def test_non_finite_point_named_before_its_gradient(self, batched):
        """A non-finite theta is refused as as_point refuses it, ahead of the
        non-finite gradient it may also produce."""
        update = SGDStep(dataclasses.replace(_HUGE_GRADIENT, grad=lambda t, z: t), 0.1,
                         domain=WholeSpace(1))
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            if batched:
                update.apply_batch(np.array([[0.0], [np.nan]]), [0, 0], Dataset((None,)))
            else:
                update.apply(np.array([np.nan]), None)

    @pytest.mark.parametrize("update", [
        SGDStep(quadratic_centers(CENTERS, R=1.0), 0.5),
        CustomMap(lambda t, z: 0.5 * (t + z)),
    ], ids=["SGDStep", "CustomMap"])
    def test_lockstep_refuses_a_non_finite_start(self, update):
        ds = Dataset(tuple(CENTERS))
        starts = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            run_lockstep(update, starts, np.array([2, 1]), np.zeros((2, 2), dtype=np.int64), ds)

    def test_non_finite_gradient_rejected(self):
        bad = LossFamily(
            name="bad", constants=LossConstants(),
            value=lambda t, z: 0.0, grad=lambda t, z: np.array([np.inf]),
        )
        update = SGDStep(bad, 0.1, domain=WholeSpace(1))
        with pytest.raises(FloatingPointError):
            update.apply(np.array([0.0]), None)

    @pytest.mark.parametrize("batched", [False, True], ids=["apply", "apply_batch"])
    def test_overflowing_unprojected_update_rejected(self, batched):
        """A finite gradient can still overflow theta - eta * g; with no
        projection to refuse the result, the step itself must."""
        _assert_overflow_rejected(SGDStep(_HUGE_GRADIENT, 10.0, domain=WholeSpace(1)), batched)

    @pytest.mark.parametrize("batched", [False, True], ids=["apply", "apply_batch"])
    def test_overflowing_projected_update_rejected(self, batched):
        """Projection does not change the fault's type: the overflowed
        update is refused before the domain sees it."""
        update = SGDStep(_HUGE_GRADIENT, 10.0, domain=Ball(np.zeros(1), 1.0))
        _assert_overflow_rejected(update, batched)

    @pytest.mark.parametrize("eta", [-0.1, math.nan])
    def test_negative_step_size_is_refused(self, eta):
        fam, _, _ = quadratic_setup(eta=0.5)
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            SGDStep(fam, eta)

    def test_projection_needs_a_domain(self):
        bad = LossFamily(
            name="nodomain", constants=LossConstants(),
            value=lambda t, z: 0.0, grad=lambda t, z: np.zeros(1),
        )
        with pytest.raises(ValueError):
            SGDStep(bad, 0.1)


_HUGE_GRADIENT = LossFamily(
    name="huge", constants=LossConstants(),
    value=lambda t, z: 0.0, grad=lambda t, z: np.array([1e308]),
)


def _assert_overflow_rejected(update, batched):
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                   match="update produced non-finite"):
        if batched:
            update.apply_batch(np.array([[0.0], [0.0]]), [0, 0], Dataset((None,)))
        else:
            update.apply(np.array([0.0]), None)


class TestTrajectories:
    def test_zero_steps(self):
        _, ds, update = quadratic_setup(eta=0.5)
        for indices in ([], substream(1).integers(0, ds.n, size=(0, 1))):
            traj = run_trajectory(update, np.array([0.2, 0.2]), indices, ds)
            assert traj.indices.shape == (0, 1)
            assert traj.points.shape == (1, 2)
            np.testing.assert_array_equal(traj.endpoint, [0.2, 0.2])

    def test_explicit_indices_compose(self):
        _, ds, update = quadratic_setup(eta=0.5)
        theta = np.array([0.0, 0.0])
        traj = run_trajectory(update, theta, [1, 1, 1], ds)
        manual = theta
        for _ in range(3):
            manual = sgd_step(update, manual, 1, ds)
        np.testing.assert_array_equal(traj.endpoint, manual)

    def test_seed_reproducibility(self):
        _, ds, update = quadratic_setup(eta=0.5)
        init = np.array([0.1, -0.1])
        t1 = run_trajectory(update, init, substream(77).integers(0, ds.n, size=(40, 1)), ds)
        t2 = run_trajectory(update, init, substream(77).integers(0, ds.n, size=(40, 1)), ds)
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(t1.indices, t2.indices)

    def test_realized_indices_determine_the_run(self):
        """Replaying a seeded run's indices explicitly gives the same points."""
        _, ds, update = quadratic_setup(eta=0.5)
        seeded = run_trajectory(
            update, np.array([0.1, 0.3]), substream(5).integers(0, ds.n, size=(25, 1)), ds
        )
        replay = run_trajectory(update, np.array([0.1, 0.3]), seeded.indices, ds)
        np.testing.assert_array_equal(seeded.points, replay.points)

    @pytest.mark.parametrize("bad", [[0, 3], [[0], [-1]]])
    def test_index_outside_the_dataset_is_refused(self, bad):
        _, ds, update = quadratic_setup(eta=0.5)
        outside = next(i for i in np.ravel(bad) if not 0 <= i < 3)
        with pytest.raises(IndexError, match=rf"^sample index {outside} out of range \[0, 3\)$"):
            run_trajectory(update, np.zeros(2), bad, ds)

    @pytest.mark.parametrize("bad, message", [
        (0, "indices must be flat or"),
        (np.zeros((2, 1, 1), dtype=int), "indices must be flat or"),
        (np.zeros((2, 0), dtype=int), "indices must be flat or"),
        ([1.9, 0.2], "sample indices must be integers, got dtype float64"),
        ([[0.0], [1.0]], "sample indices must be integers, got dtype float64"),
    ], ids=["scalar", "3-D", "no columns", "float", "float rows"])
    def test_indices_must_be_flat_or_one_row_per_step(self, bad, message):
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(ValueError, match=message):
            run_trajectory(update, np.zeros(2), bad, ds)

    def test_start_point_is_checked(self):
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            run_trajectory(update, np.array([np.nan, 0.0]), [0], ds)

    def test_domain_invariance_under_projection(self):
        _, ds, update = quadratic_setup(eta=0.5)
        traj = run_trajectory(update, np.array([0.9, 0.0]),
                              substream(9).integers(0, ds.n, size=(60, 1)), ds)
        dom = update.domain
        assert all(np.linalg.norm(p - dom.project(p)) <= DETERMINISTIC_TOL for p in traj.points)


class TestContractionFactor:
    def test_closed_form_values(self):
        assert contraction_factor(1.0, 1.0, 1.0) == 0.0
        assert contraction_factor(1.0, 1.0, 0.1) == pytest.approx(0.9, abs=1e-15)
        assert contraction_factor(1.0, 2.0, 0.5) == pytest.approx(0.7071067811865476, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            contraction_factor(1.0, 1.0, 2.0)  # eta >= 2/beta
        with pytest.raises(ValueError):
            contraction_factor(2.0, 1.0, 0.1)  # alpha > beta
        with pytest.raises(ValueError):
            contraction_factor(0.0, 1.0, 0.1)


def _sequential_coupling(update, a, b, indices, ds):
    """One pair stepped alone through sgd_step, the reference the lockstep
    coupling must reproduce: (ratios, distances, coalesce step or -1)."""
    dist = float(np.linalg.norm(a - b))
    domain = update.domain
    scale = domain.bounding_radius() if domain is not None else math.inf
    if not math.isfinite(scale):
        scale = max(1.0, dist)
    ratios, distances = np.zeros(len(indices)), np.zeros(len(indices))
    for t, i in enumerate(indices):
        if dist <= 1e-14 * scale:
            return ratios, distances, t
        distances[t] = dist
        a, b = sgd_step(update, a, int(i), ds), sgd_step(update, b, int(i), ds)
        new_dist = float(np.linalg.norm(a - b))
        ratios[t] = new_dist / dist
        dist = new_dist
    return ratios, distances, -1


# at eta = 1 the first coordinate jumps onto the sample and the second halves
_WEIGHTS = np.array([1.0, 0.5])
_HALVING = LossFamily(
    name="halving", constants=LossConstants(),
    value=lambda t, z: 0.5 * float(_WEIGHTS @ (t - z) ** 2),
    grad=lambda t, z: _WEIGHTS * (t - z), domain=Ball(np.zeros(2), 1.0),
    grad_batch=lambda thetas, zs: _WEIGHTS * (thetas - zs),
)


class TestCoupledContraction:
    @pytest.mark.parametrize("update", [
        SGDStep(_HALVING, 1.0),
        SGDStep(dataclasses.replace(_HALVING, grad_batch=None), 1.0),
        CustomMap(lambda t, z: t - _WEIGHTS * (t - z), domain=Ball(np.zeros(2), 1.0)),
    ], ids=["grad_batch", "per-row-fallback", "custom-map"])
    def test_lockstep_matches_sequential_pairs_bitwise(self, update):
        """Pairs that differ only in the first coordinate coalesce after one
        step; the others never do.  Each pair's ratios, distances and
        coalescence step equal those of stepping it alone."""
        ds = Dataset(tuple(CENTERS))
        rng = np.random.default_rng(26)
        a = rng.uniform(-0.7, 0.7, size=(40, 2))
        b = a + np.column_stack([rng.uniform(0.1, 0.3, 40),
                                 np.where(np.arange(40) % 2, rng.uniform(0.1, 0.3, 40), 0.0)])
        idx = rng.integers(0, ds.n, size=(40, 12))
        report = coupled_contraction_ratio(update, a, b, idx, ds)
        coalesced = report.coalesce_step >= 0
        assert coalesced.any() and not coalesced.all()
        for k in range(40):
            ratios, distances, step = _sequential_coupling(update, a[k], b[k], idx[k], ds)
            assert report.ratios[k].tobytes() == ratios.tobytes()
            assert report.distances[k].tobytes() == distances.tobytes()
            assert report.coalesce_step[k] == step

    def test_unit_quadratic_ratio_identity(self):
        """Unprojected coupling contracts at exactly |1 - eta| every step."""
        fam, ds, _ = quadratic_setup(eta=0.5)
        rng = np.random.default_rng(21)
        for eta in (0.1, 0.5, 1.5):
            update = SGDStep(fam, eta, domain=WholeSpace(2))
            g = abs(1.0 - eta)
            steps = min(20, max(1, int(math.log(0.01) / math.log(g))))
            a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            report = coupled_contraction_ratio(update, a[None], b[None],
                                               rng.integers(0, 3, (1, steps)), ds)
            np.testing.assert_allclose(report.ratios, g, atol=1e-12)

    def test_full_step_coalesces(self):
        # both points land on the sampled target up to rounding; ratios
        # after the coalescence cut are reported as exactly 0
        fam, ds, _ = quadratic_setup(eta=1.0)
        update = SGDStep(fam, 1.0, domain=Ball(np.zeros(2), 1.0))
        report = coupled_contraction_ratio(
            update, np.array([[0.5, 0.0]]), np.array([[-0.5, 0.1]]), [[0, 1, 2]], ds
        )
        assert report.ratios[0, 0] <= 1e-12
        assert report.coalesce_step[0] == 1
        np.testing.assert_array_equal(report.ratios[0, 1:], 0.0)

    def test_identical_starts_rejected(self):
        _, ds, update = quadratic_setup(eta=0.5)
        x = np.array([[0.1, 0.1], [0.2, 0.1]])
        with pytest.raises(ValueError):
            coupled_contraction_ratio(update, x, x[[1, 1]], [[0], [0]], ds)

    def test_certificate_over_family_matrix(self):
        """Projected coupled ratios never exceed the closed-form factor.

        Step sizes keep gamma >= 0.9 so that 100 coupled steps leave the
        pair distance far above the rounding-noise floor where ratios stop
        being measurable (the coalescence cut protects only below 1e-14).
        """
        rng = np.random.default_rng(22)
        matrix = []

        fam = quadratic_centers(CENTERS, R=1.0)
        matrix.append((fam, Dataset(tuple(CENTERS)), fam.domain, 0.1))

        # anisotropic quadratic with curvature between 0.5 and 2.0
        A = np.array([[2.0, 0.0], [0.0, 0.5]])
        aniso = LossFamily(
            name="aniso", constants=LossConstants(alpha=0.5, beta=2.0, R=1.0),
            value=lambda t, z: 0.5 * float((t - z) @ A @ (t - z)),
            grad=lambda t, z: A @ (t - z),
            domain=Ball(np.zeros(2), 1.0),
        )
        matrix.append((aniso, Dataset(tuple(CENTERS)), aniso.domain, 0.05))

        ridge = multi_index(zero_link(2), lam=0.8, R=1.0, R_x=1.0, K=2, d=1)
        ridge_data = Dataset(((0, np.array([0.3])), (1, np.array([-0.4]))))
        matrix.append((ridge, ridge_data, ProductOfBalls(2, 1, 1.0), 0.125))

        for fam, ds, dom, eta in matrix:
            gamma = contraction_factor(fam.constants.alpha, fam.constants.beta, eta)
            assert gamma >= 0.9
            update = SGDStep(fam, eta, domain=dom)
            starts_a, starts_b, idx = [], [], []
            while len(idx) < 1000:
                a, b = dom.sample(rng), dom.sample(rng)
                if np.linalg.norm(a - b) < 0.1:
                    continue
                starts_a.append(a)
                starts_b.append(b)
                idx.append(rng.integers(0, ds.n, 100))
            report = coupled_contraction_ratio(update, np.array(starts_a), np.array(starts_b),
                                               np.array(idx), ds)
            assert report.ratios.shape == (1000, 100)
            assert report.max_measurable_ratio(0.0) <= gamma + 1e-9

    def test_minibatch_average_still_contracts(self):
        """An average of gamma-contractive maps is gamma-contractive."""
        fam, ds, _ = quadratic_setup(eta=0.7)
        dom = Ball(np.zeros(2), 1.0)
        update = SGDStep(fam, 0.7, domain=dom)
        gamma = contraction_factor(1.0, 1.0, 0.7)
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = dom.sample(rng), dom.sample(rng)
            dist = np.linalg.norm(a - b)
            if dist < 1e-8:
                continue
            for _ in range(30):
                batch = rng.integers(0, ds.n, 4)
                a_next = np.mean([sgd_step(update, a, int(i), ds) for i in batch], axis=0)
                b_next = np.mean([sgd_step(update, b, int(i), ds) for i in batch], axis=0)
                new_dist = np.linalg.norm(a_next - b_next)
                assert new_dist <= gamma * dist + 1e-9
                a, b, dist = a_next, b_next, new_dist
                if dist < 1e-12:
                    break

    def test_batched_trajectory_runs(self):
        """A mini-batch step equals, bitwise, single-sample updates summed
        from zero in batch order and divided by the batch size."""
        _, ds, update = quadratic_setup(eta=0.5)
        init = np.zeros(2)
        traj = run_trajectory(update, init,
                              substream(4).integers(0, ds.n, size=(10, 3)), ds)
        assert traj.indices.shape == (10, 3)
        theta = init
        for t, batch in enumerate(traj.indices):
            acc = np.zeros_like(theta)
            for i in batch:
                acc += sgd_step(update, theta, int(i), ds)
            theta = acc / len(batch)
            assert traj.points[t + 1].tobytes() == theta.tobytes()

    def test_single_sample_step_keeps_the_sign_of_zero(self):
        flip = CustomMap(lambda t, z: -0.0 * t)
        traj = run_trajectory(flip, np.array([1.0]), [0], Dataset((None,)))
        assert np.signbit(traj.endpoint[0])

    def test_custom_map(self):
        halver = CustomMap(lambda t, z: 0.5 * t, domain=Ball(np.zeros(1), 1.0))
        ds = Dataset((np.array([0.0]),))
        report = coupled_contraction_ratio(halver, np.array([[1.0]]), np.array([[-1.0]]),
                                           [[0, 0]], ds)
        np.testing.assert_allclose(report.ratios, 0.5, rtol=1e-15)

    @pytest.mark.parametrize("bad, error", [(3, IndexError), (-1, IndexError),
                                            (1.9, ValueError)], ids=["3", "-1", "float"])
    def test_index_out_of_range(self, bad, error):
        """A negative index would wrap silently in Dataset.matrix, and a float
        one would be truncated to a sample."""
        _, ds, update = quadratic_setup(eta=0.5)
        message = ("sample indices must be integers" if error is ValueError
                   else rf"^sample index {bad} out of range \[0, 3\)$")
        with pytest.raises(error, match=message):
            coupled_contraction_ratio(update, np.array([[0.1, 0.0]]), np.array([[0.0, 0.1]]),
                                      [[0, bad]], ds)


def _assert_batch_matches_rows(update, ds, thetas, idx):
    batch = update.apply_batch(thetas, idx, ds)
    rows = np.stack([update.apply(t, ds.samples[i]) for t, i in zip(thetas, idx)])
    assert batch.shape == rows.shape and batch.tobytes() == rows.tobytes()


class TestApplyBatch:
    @pytest.mark.parametrize("eta", [0.5, 1.5])
    def test_quadratic_matches_apply_bitwise(self, eta):
        fam, ds, update = quadratic_setup(eta, domain=Ball(np.zeros(2), 1.0))
        rng = np.random.default_rng(21)
        thetas = np.stack([update.domain.sample(rng) for _ in range(300)])
        idx = rng.integers(0, ds.n, size=300)
        _assert_batch_matches_rows(update, ds, thetas, idx)
        raw = thetas - eta * (thetas - ds.matrix[idx])
        projected = np.linalg.norm(raw, axis=1) > 1.0
        assert np.any(projected) == (eta > 1.0)

    def test_lambda_family_matches_apply_bitwise(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        aniso = LossFamily(
            name="aniso", constants=LossConstants(alpha=1.0, beta=2.0),
            value=lambda t, z: 0.5 * float((t - z) @ A @ (t - z)),
            grad=lambda t, z: A @ (t - z), domain=Ball(np.zeros(2), 1.0),
        )
        update = SGDStep(aniso, 0.9)
        ds = Dataset(tuple(CENTERS))
        rng = np.random.default_rng(22)
        thetas = rng.uniform(-1.0, 1.0, size=(100, 2))
        _assert_batch_matches_rows(update, ds, thetas, rng.integers(0, 3, size=100))

    def test_product_domain_matches_apply_bitwise(self):
        fam = hard_kmeans(K=2, R=0.5, d=2)
        update = SGDStep(fam, 0.75)
        ds = Dataset(tuple(CENTERS))
        rng = np.random.default_rng(23)
        thetas = rng.uniform(-0.5, 0.5, size=(100, 4))
        _assert_batch_matches_rows(update, ds, thetas, rng.integers(0, 3, size=100))

    def test_custom_map_matches_apply_bitwise(self):
        pull = CustomMap(lambda t, z: 0.3 * t + 0.7 * np.asarray(z), Ball(np.zeros(2), 1.0))
        ds = Dataset(tuple(CENTERS))
        rng = np.random.default_rng(24)
        thetas = rng.uniform(-1.0, 1.0, size=(50, 2))
        _assert_batch_matches_rows(pull, ds, thetas, rng.integers(0, 3, size=50))

    def test_non_finite_gradient_rejected_for_the_batch(self):
        bad = LossFamily(
            name="bad", constants=LossConstants(),
            value=lambda t, z: 0.0,
            grad=lambda t, z: np.array([np.inf if t[0] > 0 else 0.0]),
        )
        update = SGDStep(bad, 0.1, domain=WholeSpace(1))
        ds = Dataset((None,))
        assert update.apply_batch(np.array([[-1.0], [-2.0]]), [0, 0], ds).shape == (2, 1)
        with pytest.raises(FloatingPointError):
            update.apply_batch(np.array([[-1.0], [1.0]]), [0, 0], ds)

    @pytest.mark.parametrize("batched", ["sgd_step", "custom_map"])
    def test_indices_other_than_one_per_row_are_refused(self, batched):
        """One index for three rows is refused before any arithmetic, not
        broadcast onto every row or zipped down to one row."""
        _, ds, update = quadratic_setup(0.5)
        applied = []
        if batched == "custom_map":
            update = CustomMap(lambda t, z: applied.append(z) or t)
        with pytest.raises(ValueError, match=r"^expected 3 sample indices, one per row, got 1$"):
            update.apply_batch(np.zeros((3, 2)), [1], ds)
        assert applied == []

    def test_gradient_is_freed_before_the_projection(self):
        """The gradient is released once the update is checked, so a batch
        that the ball projects takes, under ``tracemalloc``, a peak of new
        memory below 5.5 batch sizes (6.0 while the gradient lived on)."""
        rng = np.random.default_rng(25)
        d = 1024
        centers = list(rng.uniform(-1.0, 1.0, (3, d)) / (2 * math.sqrt(d)))
        fam = quadratic_centers(centers, R=1.0)
        update, ds = SGDStep(fam, 0.5), Dataset(tuple(centers))
        thetas = rng.normal(size=(500, d))
        thetas *= 4.0 / row_norms(thetas)[:, None]  # every update lands outside
        idx = rng.integers(0, 3, size=500)
        tracemalloc.start()
        try:
            out = update.apply_batch(thetas, idx, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(row_norms(out) <= 1.0 + 1e-12)
        assert peak < 5.5 * thetas.nbytes, peak / thetas.nbytes


class TestWrongWidth:
    """Rows of the wrong width reach ``apply_batch`` through every batched
    entry point; each refuses them with the library's message instead of
    broadcasting them against the gradient."""

    @pytest.mark.parametrize("call", [
        lambda update, ds: update.apply_batch([[0.5], [0.5]], [0, 1], ds),
        lambda update, ds: run_lockstep(update, np.full((2, 1), 0.5), np.array([1, 1]),
                                        np.zeros((2, 1), dtype=np.int64), ds),
        lambda update, ds: run_trajectory(update, np.array([0.5]), [0, 1], ds),
        lambda update, ds: coupled_contraction_ratio(update, np.full((2, 1), 0.5),
                                                     np.full((2, 1), -0.5),
                                                     np.zeros((2, 3), dtype=np.int64), ds),
    ], ids=["apply_batch", "run_lockstep", "run_trajectory", "coupled_contraction_ratio"])
    def test_wrong_width_rows_are_refused(self, call):
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(ValueError, match=r"^expected an \(m, 2\) array of points, "
                                             r"got shape \(\d+, 1\)$"):
            call(update, ds)

    @pytest.mark.parametrize("call", [
        lambda update, ds: enumerate_cover(update, ds, T=2),
        lambda update, ds: sgd_step(update, np.zeros(2), 1, ds),
        lambda update, ds: run_lockstep(update, np.zeros((2, 2)), np.array([1, 2]),
                                        np.zeros((2, 2), dtype=np.int64), ds),
    ], ids=["enumerate_cover", "sgd_step", "run_lockstep"])
    @pytest.mark.parametrize("update, what", [
        (CustomMap(lambda t, z: np.array([0.5]), domain=Ball(np.zeros(2), 1.0)), "update"),
        (SGDStep(LossFamily(name="narrow", constants=LossConstants(), value=lambda t, z: 0.0,
                            grad=lambda t, z: np.array([1.0])), 0.1, domain=Ball(np.zeros(2), 1.0)),
         "gradient"),
    ], ids=["CustomMap", "per-row grad"])
    def test_user_callable_of_the_wrong_width_is_refused(self, call, update, what):
        """A user's update or per-row gradient of width 1 in d = 2 is refused
        with both shapes, where it used to broadcast to [0.5, 0.5] (or to
        [-0.1, -0.1] after one step) or to fail in numpy's output broadcast."""
        with pytest.raises(ValueError, match=rf"^{what} has shape \(1,\); "
                                             r"the point has shape \(2,\)$"):
            call(update, Dataset(tuple(CENTERS)))


    def test_grad_batch_of_the_wrong_width_is_refused(self):
        """A family's ``grad_batch`` of width 1 in d = 2 is refused with both
        shapes on the one-row path and the batched path, where it used to
        broadcast to [-0.1, -0.1] or fail in numpy's output broadcast."""
        fam = dataclasses.replace(quadratic_centers(CENTERS, R=1.0),
                                  grad_batch=lambda th, zs: np.ones((len(th), 1)))
        update, ds = SGDStep(fam, 0.1), Dataset(tuple(CENTERS))
        one_row = r"^gradient has shape \(1,\); the point has shape \(2,\)$"
        with pytest.raises(ValueError, match=one_row):
            sgd_step(update, np.zeros(2), 1, ds)
        with pytest.raises(ValueError, match=one_row):
            enumerate_cover(update, ds, T=2)
        with pytest.raises(ValueError, match=r"^gradient has shape \(2, 1\); "
                                             r"the point has shape \(2, 2\)$"):
            run_lockstep(update, np.zeros((2, 2)), np.array([1, 2]),
                         np.zeros((2, 2), dtype=np.int64), ds)


class TestIndexRule:
    """Every batched entry holds its sample indices to one rule, with one
    wording: integers in [0, n), as ``sgd_step`` requires of its one index."""

    @pytest.mark.parametrize("bad, error, message", [
        (-1, IndexError, r"^sample index -1 out of range \[0, 3\)$"),
        (3, IndexError, r"^sample index 3 out of range \[0, 3\)$"),
        (1.5, ValueError, r"^sample indices must be integers, got dtype float64$"),
    ], ids=["-1", "n", "1.5"])
    @pytest.mark.parametrize("entry", ["SGDStep.apply_batch", "CustomMap.apply_batch",
                                       "run_lockstep", "run_trajectory",
                                       "coupled_contraction_ratio"])
    def test_every_entry_refuses_the_same_indices(self, entry, bad, error, message):
        """Refused before any update is applied: -1 is not wrapped to the
        last sample, nor 1.5 truncated or left to numpy."""
        _, ds, update = quadratic_setup(eta=0.5)
        applied = []
        if entry == "CustomMap.apply_batch":
            update = CustomMap(lambda t, z: applied.append(z) or t)
        calls = {
            "SGDStep.apply_batch": lambda: update.apply_batch(np.zeros((1, 2)), [bad], ds),
            "CustomMap.apply_batch": lambda: update.apply_batch(np.zeros((1, 2)), [bad], ds),
            "run_lockstep": lambda: run_lockstep(update, np.zeros((1, 2)), [1], [[bad]], ds),
            "run_trajectory": lambda: run_trajectory(update, np.zeros(2), [0, bad], ds),
            "coupled_contraction_ratio": lambda: coupled_contraction_ratio(
                update, np.array([[0.1, 0.0]]), np.array([[0.0, 0.1]]), [[0, bad]], ds),
        }
        with pytest.raises(error, match=message):
            calls[entry]()
        assert applied == []


def _slow_path_cases(skip=None):
    """Each lockstep caller on each domain, as (caller, domain) params."""
    domains = [Ball(np.zeros(2), 1.0), Box(np.full(2, -1.0), np.full(2, 1.0)),
               ProductOfBalls(2, 1, 1.0), WholeSpace(2)]
    return [pytest.param(caller, domain, id=f"{caller}-{type(domain).__name__}")
            for caller in ("run_lockstep", "coupled_contraction_ratio", "run_trajectory")
            for domain in domains if (caller, type(domain)) != skip]


def _through(caller, update, start, ds):
    """One step from ``start`` (and, coupled, from a second start 0.1 away)
    through the caller's entry checks and then the update's kernel."""
    if caller == "run_lockstep":
        return run_lockstep(update, start[None], np.array([1]), np.zeros((1, 1), dtype=int), ds)
    if caller == "run_trajectory":
        return run_trajectory(update, start, [0], ds)
    return coupled_contraction_ratio(update, start[None], start[None] + 0.1,
                                     np.zeros((1, 1), dtype=int), ds)


class TestKernelSlowPath:
    """An update that fails the ball's screen, or any update on a domain
    without one, takes ``_checked_update`` before its projection, so each
    fault keeps its type and message through every lockstep caller and on
    every domain.  A start is checked once at entry where its caller
    validates points (``as_point``, or ``as_rows`` for coupled pairs), else
    by the kernel's first step."""

    @staticmethod
    def _update(domain, grad, eta=0.5):
        fam = quadratic_centers(CENTERS, R=1.0)
        if grad is not None:
            fam = dataclasses.replace(fam, grad_batch=lambda thetas, zs: np.full_like(thetas, grad))
        return SGDStep(fam, eta, domain=domain), Dataset(tuple(CENTERS))

    # run_lockstep on a Ball is test_lockstep_refuses_a_non_finite_start
    @pytest.mark.parametrize("caller, domain", _slow_path_cases(skip=("run_lockstep", Ball)))
    def test_non_finite_start(self, caller, domain):
        update, ds = self._update(domain, None)
        message = ("points have" if caller == "coupled_contraction_ratio" else "point has")
        with pytest.raises(ValueError, match=f"^{message} non-finite entries$"):
            _through(caller, update, np.array([np.nan, 0.0]), ds)

    @pytest.mark.parametrize("caller, domain", _slow_path_cases())
    def test_infinite_gradient(self, caller, domain):
        update, ds = self._update(domain, np.inf)
        with pytest.raises(FloatingPointError, match="^non-finite gradient$"):
            _through(caller, update, np.zeros(2), ds)

    @pytest.mark.parametrize("caller, domain", _slow_path_cases())
    def test_overflowing_update(self, caller, domain):
        update, ds = self._update(domain, 1e308, eta=10.0)
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="^update produced non-finite values$"):
            _through(caller, update, np.zeros(2), ds)


@st.composite
def _stepper(draw):
    """An update on one of the four domains, quadratic_centers with or
    without ``grad_batch``, its dataset, and an (m, d) batch of starts."""
    blocks, block_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    d = blocks * block_dim
    domain = draw(st.sampled_from([
        Ball(np.full(d, 0.1), 0.8), Box(np.full(d, -0.4), np.full(d, 0.6)),
        ProductOfBalls(blocks, block_dim, 0.7), WholeSpace(d)]))
    centers = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), d),
                              elements=st.floats(-1.0, 1.0)))
    fam = quadratic_centers(list(centers), R=float(np.sqrt(d)) + 1.0)
    if draw(st.booleans()):
        fam = dataclasses.replace(fam, grad_batch=None)
    update = SGDStep(fam, draw(st.sampled_from([0.3, 1.0, 1.7])), domain=domain)
    thetas = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                             elements=st.floats(-2.0, 2.0)))
    return update, Dataset(tuple(centers)), thetas


class TestRowIndependence:
    """``run_lockstep`` updates a prefix of its runs sorted by step count, and
    validation steps every resampling over the support: both need every row
    of ``apply_batch`` to be computed on its own."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_stepper(), st.data())
    def test_apply_batch_on_any_rows_is_per_row_apply(self, stepper, data):
        update, ds, thetas = stepper
        m = len(thetas)
        idx = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, ds.n - 1)))
        rows = [update.apply(theta, ds.samples[i]) for theta, i in zip(thetas, idx)]
        order = data.draw(st.permutations(range(m)))[:data.draw(st.integers(1, m))]
        got = update.apply_batch(thetas[order], idx[order], ds)
        assert got.tobytes() == np.stack([rows[k] for k in order]).tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_stepper(), st.data())
    def test_lockstep_is_per_run_sgd_step(self, stepper, data):
        """Ragged counts with ties and zeros, and all-equal counts."""
        update, ds, thetas = stepper
        m = len(thetas)
        steps = data.draw(st.one_of(
            hnp.arrays(np.int64, m, elements=st.integers(0, 5)),
            st.integers(0, 5).map(lambda t: np.full(m, t))))
        indices = data.draw(hnp.arrays(np.int64, (m, 5), elements=st.integers(0, ds.n - 1)))
        endpoints = run_lockstep(update, thetas, steps, indices, ds)
        for k in range(m):
            theta = thetas[k]
            for i in indices[k, :steps[k]]:
                theta = sgd_step(update, theta, int(i), ds)
            assert endpoints[k].tobytes() == theta.tobytes()


def _family_matrix(d, rng):
    """A family of each kind with its dataset: two with ``grad_batch``
    (quadratic_centers in R^d, the 1-D stability family) and three that
    take the per-row fallback (multi_index, soft and hard k-means)."""
    centers = rng.uniform(-1.0, 1.0, size=(3, d))
    centers *= 0.9 / np.maximum(1.0, np.linalg.norm(centers, axis=1))[:, None]
    xs = [x / max(1.0, np.linalg.norm(x)) for x in rng.uniform(-1.0, 1.0, size=(3, 2))]
    points = tuple(rng.uniform(-1.0, 1.0, size=(3, 2)))
    return [
        (quadratic_centers(list(centers), R=1.0), Dataset(tuple(centers))),
        (stability_counterexample_1d(), Dataset((0, 1))),
        (multi_index(squared_error_link(), lam=0.5, R=1.0, R_x=1.0, K=1, d=2),
         Dataset(tuple(zip((0.5, -1.0, 2.0), xs)))),
        (soft_kmeans(K=2, zeta=0.5, R=1.0, d=2), Dataset(points)),
        (hard_kmeans(K=2, R=1.0, d=2), Dataset(points)),
    ]


def _balls_of(domain):
    """(center, radius, width) of each ball the domain is made of; the 1-D
    box [lo, hi] is the ball around its midpoint."""
    if isinstance(domain, Ball):
        return [(domain.center, domain.radius, domain.dim)]
    if isinstance(domain, ProductOfBalls):
        return [(np.zeros(domain.block_dim), domain.radius, domain.block_dim)] * domain.blocks
    assert isinstance(domain, Box) and domain.dim == 1
    return [((domain.lower + domain.upper) / 2, (domain.upper[0] - domain.lower[0]) / 2, 1)]


def _straddle(offset, radius):
    """The last offset inside the sphere and the first outside it, as
    ``row_norms`` measures, one ulp apart in the largest coordinate."""
    offset = offset.copy()
    j = np.argmax(np.abs(offset))
    out = np.copysign(np.inf, offset[j])
    while row_norms(offset) > radius:
        offset[j] = np.nextafter(offset[j], -out)
    inside = offset.copy()
    while row_norms(offset) <= radius:
        offset[j] = np.nextafter(offset[j], out)
    return inside, offset


@st.composite
def _one_row_case(draw):
    """An update of the family matrix, its dataset, and up to 8 points with
    their sample indices.  Each point lies, in every ball of the domain,
    inside, on the sphere (along an axis, where it is met exactly), one ulp
    either side of the sphere, or far outside."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d = draw(st.sampled_from([1, 2, 3, 7, 64]))
    fam, ds = draw(st.sampled_from(_family_matrix(d, rng)))
    update = SGDStep(fam, draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])))
    where = draw(st.sampled_from(["inside", "sphere", "ulp-inside", "ulp-outside", "far"]))
    thetas = []
    for _ in range(draw(st.integers(1, 8))):
        parts = []
        for center, radius, width in _balls_of(update.domain):
            u = rng.normal(size=width)
            if where == "sphere":
                u = np.zeros(width)
                u[rng.integers(width)] = rng.choice([-1.0, 1.0])
            on = center + u * (radius / np.linalg.norm(u))
            outside = where == "ulp-outside"
            if where.startswith("ulp") and isinstance(update.domain, Box):
                on = np.nextafter(on, np.copysign(np.inf, u if outside else -u))
            elif where.startswith("ulp"):
                on = center + _straddle(on - center, radius)[outside]
            parts.append({"inside": center + (on - center) * rng.random(),
                          "far": center + (on - center) * 1e3}.get(where, on))
        thetas.append(np.concatenate(parts))
    return update, ds, np.array(thetas), rng.integers(0, ds.n, size=len(thetas))


class TestOneRowStep:
    """``SGDStep.apply`` is row 0 of ``apply_batch``'s arithmetic: the
    family's ``grad_batch`` on one-row views where it has one, and the
    ball's inside test as the only check on an update the ball keeps."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_one_row_case())
    def test_bitwise_row_zero_of_the_batch(self, case):
        """Compared as int64 views, so 0.0 and -0.0 differ, against the
        one-row batch and against the per-row gradient, checked update and
        projection.  Each point is also stepped with eta = 0, which makes
        it the update itself."""
        update, ds, thetas, idx = case
        for step in (update, SGDStep(update.family, 0.0)):
            for theta, i in zip(thetas, idx):
                z = ds.samples[i]
                got = step.apply(theta, z)
                batch = step.apply_batch(theta[None], [i], ds)[0]
                g = np.asarray(step.family.grad(theta, z), dtype=float)
                reference = step.domain.project(
                    sgd_module._checked_update(theta, g, theta - step.eta * g))
                assert got.shape == batch.shape == reference.shape == theta.shape
                assert (got.view(np.int64).tolist() == batch.view(np.int64).tolist()
                        == reference.view(np.int64).tolist())

    def test_wrong_dimension(self):
        """A point of the wrong width skips ``grad_batch`` for the family's
        checked ``grad``, which names the mismatch."""
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(ValueError, match="^dimension mismatch: expected 2, got 3$"):
            update.apply(np.zeros(3), ds.samples[0])

    @pytest.mark.parametrize("domain", [Ball(np.zeros(2), 1.0), WholeSpace(2)],
                             ids=["Ball", "WholeSpace"])
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_infinite_gradient(self, domain, eta):
        """With eta = 0 the update 0 * inf is nan, not theta."""
        fam = dataclasses.replace(quadratic_centers(CENTERS, R=1.0),
                                  grad_batch=lambda thetas, zs: np.full_like(thetas, np.inf))
        update, ds = SGDStep(fam, eta, domain=domain), Dataset(tuple(CENTERS))
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="^non-finite gradient$"):
            sgd_step(update, np.zeros(2), 0, ds)

    @pytest.mark.parametrize("domain", [Ball(np.zeros(2), 1.0), WholeSpace(2)],
                             ids=["Ball", "WholeSpace"])
    def test_overflowing_update(self, domain):
        fam = dataclasses.replace(quadratic_centers(CENTERS, R=1.0),
                                  grad_batch=lambda thetas, zs: np.full_like(thetas, 1e308))
        update, ds = SGDStep(fam, 10.0, domain=domain), Dataset(tuple(CENTERS))
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="^update produced non-finite values$"):
            sgd_step(update, np.zeros(2), 0, ds)

    def test_refused_update_is_computed_once(self):
        """theta = inf makes inf - eta * inf: numpy warns once, because the
        check reuses the update instead of computing it again."""
        _, ds, update = quadratic_setup(eta=0.5)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(ValueError, match="^point has non-finite entries$"):
            warnings.simplefilter("always")
            sgd_step(update, np.array([np.inf, 0.0]), 0, ds)
        assert [str(w.message) for w in caught] == ["invalid value encountered in subtract"]


def _assert_same_runs(got, expected):
    for a, b in zip(got[:3], expected[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert len(got[3]) == len(expected[3])
    for a, b in zip(got[3], expected[3]):
        assert np.array_equal(a, b)


def _prelude_of(length):
    """A prelude of ``length`` 32-bit draws; odd leaves a pending half."""
    if length is None:
        return None
    return lambda k, rng: rng.integers(0, 2**32 - 1, size=length)


@st.composite
def _domains(draw):
    d = draw(st.integers(1, 3))
    coords = st.floats(-2.0, 2.0)
    kind = draw(st.sampled_from(["ball", "box", "product"]))
    if kind == "ball":
        return Ball(np.array(draw(st.lists(coords, min_size=d, max_size=d))),
                    draw(st.floats(0.1, 3.0)))
    if kind == "box":
        lo = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
        return Box(lo, lo + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d,
                                                   max_size=d))))
    return ProductOfBalls(draw(st.integers(1, 3)), d, draw(st.floats(0.1, 3.0)))


class TestLockstep:
    def test_draw_runs_consumes_randomness_in_sequential_order(self, monkeypatch):
        """Each stream draws, for a Ball, normals (runs, d), uniforms (runs,),
        the step counts and the (runs, t_max) index rows, and then nothing
        more: its generator ends in the state of those calls made by hand."""
        ball = Ball(np.array([0.25, -0.5]), 1.5)
        used = []

        def spy(*keys):
            used.append(substream(*keys))
            return used[-1]

        monkeypatch.setattr(sgd_module, "substream", spy)
        starts, steps, indices, preluded = draw_runs(5, 3, 4, ball, 3, 9, 4)
        assert starts.shape == (12, 2) and indices.shape == (12, 9) and preluded == []
        assert len(used) == 3
        for k, drawn in enumerate(used):
            rng, rows = substream(5, k), slice(4 * k, 4 * k + 4)
            normals = rng.normal(size=(4, 2))
            scale = 1.5 * rng.random(4) ** 0.5 / linalg_norms(normals)
            assert starts[rows].tobytes() == (ball.center + normals * scale[:, None]).tobytes()
            t = rng.integers(3, 10, size=4)
            np.testing.assert_array_equal(steps[rows], t)
            full = rng.integers(0, 4, size=(4, 9))
            np.testing.assert_array_equal(indices[rows],
                                          np.where(np.arange(9) < t[:, None], full, 0))
            assert drawn.bit_generator.state == rng.bit_generator.state

    def test_draw_runs_from_keyed_streams(self, reference_runs):
        """The runs of one stream continue its draws after the prelude."""
        ball = Ball(np.zeros(2), 1.0)
        prelude = _prelude_of(5)
        _assert_same_runs(draw_runs(5, 4, 5, ball, 3, 9, 4, prelude=prelude),
                          reference_runs(5, 4, 5, ball, 3, 9, 4, prelude=prelude))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(domain=_domains(), seed=st.integers(0, 2**40), streams=st.integers(0, 4),
           runs=st.integers(0, 4), t_min=st.integers(0, 6), t_extra=st.sampled_from([0, 1, 7]),
           n=st.sampled_from([1, 2, 3, 4, 200, 2**31 + 1, 2**32, 2**40]),
           prelude=st.sampled_from([None, 0, 1, 2, 7]))
    def test_draw_runs_is_the_sequential_loop(self, reference_runs, domain, seed, streams, runs,
                                              t_min, t_extra, n, prelude):
        """Starts, steps and indices are bitwise the reference's, stream by
        stream: equal step bounds and n = 1 draw nothing, a prelude may
        leave a pending 32-bit half, and n may exceed 2**32."""
        args = (seed, streams, runs, domain, t_min, t_min + t_extra, n)
        _assert_same_runs(draw_runs(*args, prelude=_prelude_of(prelude)),
                          reference_runs(*args, prelude=_prelude_of(prelude)))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_index_is_refused_before_any_step(self, bad):
        """An index a run would apply is refused as sgd_step refuses it, where
        numpy would wrap a negative one, and before any run takes a step;
        padding past a run's step count is never read."""
        _, ds, update = quadratic_setup(0.5)
        message = rf"^sample index {bad} out of range \[0, 3\)$"
        with pytest.raises(IndexError, match=message):
            sgd_step(update, np.zeros(2), bad, ds)
        with pytest.raises(IndexError, match=message):
            run_lockstep(update, np.zeros((1, 2)), np.array([1]), np.array([[bad]]), ds)
        applied = []
        counting = CustomMap(lambda t, z: applied.append(z) or t)
        with pytest.raises(IndexError, match=message):
            run_lockstep(counting, np.zeros((2, 2)), np.array([2, 1]),
                         np.array([[0, 1], [bad, 0]]), ds)
        assert applied == []
        starts = np.array([[0.1, 0.2], [-0.3, 0.4]])
        padded = run_lockstep(update, starts, np.array([2, 1]), np.array([[0, 1], [2, bad]]), ds)
        unpadded = run_lockstep(update, starts, np.array([2, 1]), np.array([[0, 1], [2, 0]]), ds)
        assert padded.tobytes() == unpadded.tobytes()

    @pytest.mark.parametrize("steps, indices, message", [
        ([-1], [[0, 1]], r"step count -1 outside \[0, 2\], the number of index columns"),
        ([3], [[0, 1]], r"step count 3 outside \[0, 2\], the number of index columns"),
        ([2.5], [[0, 1]], r"step counts must be integers, got dtype float64"),
        ([2], [[0.0, 1.0]], r"sample indices must be integers, got dtype float64"),
        ([], [], r"need one step count and one index row per start, got 2 starts, "
                 r"1 step counts and 1 index rows"),
        ([1, 1], [[0, 0], [0, 0]], r"need one step count and one index row per start, "
                                   r"got 2 starts, 3 step counts and 3 index rows"),
        ([1], [], r"need one step count and one index row per start, got 2 starts, "
                  r"2 step counts and 1 index rows"),
    ], ids=["negative", "past the index columns", "fractional", "float indices",
            "extra starts", "too few starts", "too few index rows"])
    def test_inputs_are_refused_before_any_step(self, steps, indices, message):
        """Step counts that are negative, fractional or longer than the index
        rows, indices that are not integers, and counts of starts, step
        counts and index rows that differ, are refused once, before any run
        takes a step, instead of running too few steps, dropping starts or
        failing in numpy."""
        _, ds, _ = quadratic_setup(0.5)
        applied = []
        counting = CustomMap(lambda t, z: applied.append(z) or t)
        starts = np.zeros((2, 2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_lockstep(counting, starts, [1] + steps, [[0, 0]] + indices, ds)
        assert applied == []

    @pytest.mark.parametrize("t_min, t_max", [(-2, 3), (4, 3)])
    def test_draw_runs_refuses_step_bounds_out_of_order(self, t_min, t_max):
        with pytest.raises(ValueError, match=rf"^step counts need 0 <= t_min <= t_max, "
                                             rf"got t_min={t_min}, t_max={t_max}$"):
            draw_runs(0, 1, 2, Ball(np.zeros(2), 1.0), t_min, t_max, 3)

    def test_lists_run_as_arrays(self):
        """Step counts and indices given as lists run as the arrays would."""
        _, ds, update = quadratic_setup(0.5)
        starts = np.array([[0.1, 0.2], [-0.3, 0.4]])
        from_lists = run_lockstep(update, starts, [2, 1], [[0, 1], [2, 0]], ds)
        from_arrays = run_lockstep(update, starts, np.array([2, 1]), np.array([[0, 1], [2, 0]]), ds)
        assert from_lists.tobytes() == from_arrays.tobytes()

    def test_endpoints_match_sequential_runs_bitwise(self):
        """Ragged step counts: finished runs are masked out, and every
        endpoint equals the sequential sgd_step loop's bit for bit."""
        _, ds, update = quadratic_setup(1.5, domain=Ball(np.zeros(2), 1.0))
        starts, steps, indices, _ = draw_runs(25, 1, 40, update.domain, 0, 12, ds.n)
        assert steps.min() < steps.max()
        endpoints = run_lockstep(update, starts, steps, indices, ds)
        for k in range(40):
            theta = starts[k]
            for i in indices[k, : steps[k]]:
                theta = sgd_step(update, theta, int(i), ds)
            assert endpoints[k].tobytes() == theta.tobytes()
