"""SGD engine: step semantics, trajectory determinism, coupled contraction."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgdcover import sgd as sgd_module
from sgdcover.core import _PCG64_MULT, Ball, Box, ProductOfBalls, WholeSpace, substream
from sgdcover.families import hard_kmeans, multi_index, zero_link
from sgdcover.losses import Dataset, LossConstants, LossFamily, quadratic_centers
from sgdcover.sgd import CustomMap, SGDStep, contraction_factor, draw_runs, run_lockstep, sgd_step
from sgdcover.trajectory import (
    SGDConfig,
    coupled_contraction_ratio,
    draw_indices,
    run_trajectory,
)

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

    def test_non_finite_gradient_rejected(self):
        bad = LossFamily(
            name="bad", constants=LossConstants(),
            value=lambda t, z: 0.0, grad=lambda t, z: np.array([np.inf]), dim=1,
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

    def test_projection_needs_a_domain(self):
        bad = LossFamily(
            name="nodomain", constants=LossConstants(),
            value=lambda t, z: 0.0, grad=lambda t, z: np.zeros(1), dim=1,
        )
        with pytest.raises(ValueError):
            SGDStep(bad, 0.1)


_HUGE_GRADIENT = LossFamily(
    name="huge", constants=LossConstants(),
    value=lambda t, z: 0.0, grad=lambda t, z: np.array([1e308]), dim=1,
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
        for scheme in ("explicit", "uniform", "without_replacement", "shuffle"):
            config = SGDConfig(init=np.array([0.2, 0.2]), steps=0, scheme=scheme, seed=1,
                               indices=[] if scheme == "explicit" else None)
            assert draw_indices(config, ds.n).shape == (0, 1)
            traj = run_trajectory(update, config, ds)
            assert traj.points.shape == (1, 2)
            np.testing.assert_array_equal(traj.endpoint, [0.2, 0.2])

    def test_explicit_indices_compose(self):
        _, ds, update = quadratic_setup(eta=0.5)
        theta = np.array([0.0, 0.0])
        config = SGDConfig(init=theta, steps=3, scheme="explicit", indices=[1, 1, 1])
        traj = run_trajectory(update, config, ds)
        manual = theta
        for _ in range(3):
            manual = sgd_step(update, manual, 1, ds)
        np.testing.assert_array_equal(traj.endpoint, manual)

    def test_seed_reproducibility(self):
        _, ds, update = quadratic_setup(eta=0.5)
        config = SGDConfig(init=np.array([0.1, -0.1]), steps=40, scheme="uniform", seed=77)
        t1 = run_trajectory(update, config, ds)
        t2 = run_trajectory(update, config, ds)
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(t1.indices, t2.indices)

    def test_realized_indices_determine_the_run(self):
        """Replaying a seeded run's indices explicitly gives the same points."""
        _, ds, update = quadratic_setup(eta=0.5)
        seeded = run_trajectory(
            update, SGDConfig(init=np.array([0.1, 0.3]), steps=25, scheme="uniform", seed=5), ds
        )
        replay = run_trajectory(
            update,
            SGDConfig(init=np.array([0.1, 0.3]), steps=25, scheme="explicit",
                      indices=seeded.indices),
            ds,
        )
        np.testing.assert_array_equal(seeded.points, replay.points)

    def test_sampling_schemes_cover_expected_index_sets(self):
        config = SGDConfig(init=np.zeros(1), steps=3, scheme="without_replacement", seed=3)
        idx = draw_indices(config, 3).ravel()
        assert sorted(idx) == sorted(set(idx))
        config = SGDConfig(init=np.zeros(1), steps=6, scheme="shuffle", seed=3)
        idx = draw_indices(config, 3).ravel()
        assert sorted(idx[:3]) == [0, 1, 2] and sorted(idx[3:]) == [0, 1, 2]
        with pytest.raises(ValueError):
            draw_indices(SGDConfig(init=np.zeros(1), steps=4,
                                   scheme="without_replacement", seed=0), 3)

    def test_domain_invariance_under_projection(self):
        _, ds, update = quadratic_setup(eta=0.5)
        config = SGDConfig(init=np.array([0.9, 0.0]), steps=60, scheme="uniform", seed=9)
        traj = run_trajectory(update, config, ds)
        dom = update.domain
        assert all(dom.contains(p) for p in traj.points)

    def test_invariant_domain_violation_raises(self):
        # eta = 0.9 can throw hard-clustering iterates out of the ball
        fam = hard_kmeans(K=1, R=1.0, d=1)
        ds = Dataset((np.array([-1.0]),))
        update = SGDStep(fam, 0.9, domain=WholeSpace(1))
        config = SGDConfig(init=np.array([1.0]), steps=5, scheme="uniform", seed=0)
        with pytest.raises(RuntimeError):
            run_trajectory(update, config, ds, invariant_domain=Ball(np.zeros(1), 1.0))

    def test_csv_dump(self, tmp_path):
        _, ds, update = quadratic_setup(eta=0.5)
        config = SGDConfig(init=np.array([0.1, 0.2]), steps=4, scheme="uniform", seed=2)
        traj = run_trajectory(update, config, ds)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "index", "x0", "x1"]
        assert len(rows) == 6
        np.testing.assert_allclose(
            [float(rows[-1][2]), float(rows[-1][3])], traj.endpoint, rtol=1e-15
        )


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
    grad=lambda t, z: _WEIGHTS * (t - z), dim=2, domain=Ball(np.zeros(2), 1.0),
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
        assert report.coalesced.any() and not report.coalesced.all()
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
        assert report.coalesced[0] and report.coalesce_step[0] == 1
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
            dim=2, domain=Ball(np.zeros(2), 1.0),
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
            assert report.max_ratio <= gamma + 1e-9

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
        config = SGDConfig(init=np.zeros(2), steps=10, scheme="uniform", seed=4, batch_size=3)
        traj = run_trajectory(update, config, ds)
        assert traj.indices.shape == (10, 3)
        theta = config.init
        for t, batch in enumerate(traj.indices):
            acc = np.zeros_like(theta)
            for i in batch:
                acc += sgd_step(update, theta, int(i), ds)
            theta = acc / len(batch)
            assert traj.points[t + 1].tobytes() == theta.tobytes()

    def test_single_sample_step_keeps_the_sign_of_zero(self):
        flip = CustomMap(lambda t, z: -0.0 * t)
        config = SGDConfig(init=np.array([1.0]), steps=1, scheme="explicit", indices=[0])
        traj = run_trajectory(flip, config, Dataset((None,)))
        assert np.signbit(traj.endpoint[0])

    def test_custom_map(self):
        halver = CustomMap(lambda t, z: 0.5 * t, domain=Ball(np.zeros(1), 1.0))
        ds = Dataset((np.array([0.0]),))
        report = coupled_contraction_ratio(halver, np.array([[1.0]]), np.array([[-1.0]]),
                                           [[0, 0]], ds)
        np.testing.assert_allclose(report.ratios, 0.5, rtol=1e-15)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_index_out_of_range(self, bad):
        """A negative index would wrap silently in Dataset.matrix."""
        _, ds, update = quadratic_setup(eta=0.5)
        with pytest.raises(IndexError):
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
            grad=lambda t, z: A @ (t - z), dim=2, domain=Ball(np.zeros(2), 1.0),
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
            grad=lambda t, z: np.array([np.inf if t[0] > 0 else 0.0]), dim=1,
        )
        update = SGDStep(bad, 0.1, domain=WholeSpace(1))
        ds = Dataset((None,))
        assert update.apply_batch(np.array([[-1.0], [-2.0]]), [0, 0], ds).shape == (2, 1)
        with pytest.raises(FloatingPointError):
            update.apply_batch(np.array([[-1.0], [1.0]]), [0, 0], ds)


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


def _sequential_runs(seed, streams, runs, domain, t_min, t_max, n, prelude=None):
    """Reference for ``draw_runs``: one fresh generator per stream and the
    plain per-run loop over it."""
    starts, steps, indices, preluded = [], [], [], []
    for k in range(streams):
        rng = substream(seed, k)
        if prelude is not None:
            preluded.append(prelude(k, rng))
        for _ in range(runs):
            starts.append(domain.sample(rng))
            t = int(rng.integers(t_min, t_max + 1))
            row = np.zeros(t_max, dtype=np.int64)
            row[:t] = rng.integers(0, n, size=t)
            steps.append(t)
            indices.append(row)
    return (np.array(starts, dtype=float).reshape(len(steps), domain.dim),
            np.array(steps, dtype=np.int64),
            np.array(indices, dtype=np.int64).reshape(len(steps), t_max), preluded)


def _assert_same_runs(got, expected):
    for a, b in zip(got[:3], expected[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert len(got[3]) == len(expected[3])
    for a, b in zip(got[3], expected[3]):
        assert np.array_equal(a, b)


_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1


def _pcg64_state_before(word, draws, inc):
    """A PCG64 state whose ``draws``-th 64-bit output is ``word``.

    PCG64 steps its 128-bit LCG state and outputs XSL-RR of the new state:
    (high ^ low) rotated right by the top 6 bits.  Any high word can be
    chosen; the low word then follows from ``word``, and the LCG steps are
    undone with the multiplier's inverse mod 2**128."""
    high = 0x0123456789ABCDEF
    rot = high >> 58
    xored = (word << rot | word >> (64 - rot)) & _MASK64 if rot else word
    state = high << 64 | (xored ^ high)
    inverse = pow(_PCG64_MULT, -1, 2**128)
    for _ in range(draws):
        state = (state - inc) * inverse & _MASK128
    return state


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
    def test_draw_runs_consumes_randomness_in_sequential_order(self):
        ball = Ball(np.zeros(2), 1.0)
        starts, steps, indices, preluded = draw_runs(5, 20, 1, ball, 3, 9, 4)
        assert starts.shape == (20, 2) and indices.shape == (20, 9) and preluded == []
        for k in range(20):
            rng = substream(5, k)
            np.testing.assert_array_equal(starts[k], ball.sample(rng))
            t = int(rng.integers(3, 10))
            assert steps[k] == t
            np.testing.assert_array_equal(indices[k, :t], rng.integers(0, 4, size=t))
            assert not np.any(indices[k, t:])

    def test_draw_runs_from_keyed_streams(self):
        """The runs of one stream continue its draws after the prelude."""
        ball = Ball(np.zeros(2), 1.0)
        prelude = _prelude_of(5)
        _assert_same_runs(draw_runs(5, 4, 5, ball, 3, 9, 4, prelude=prelude),
                          _sequential_runs(5, 4, 5, ball, 3, 9, 4, prelude=prelude))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(domain=_domains(), seed=st.integers(0, 2**40), streams=st.integers(0, 4),
           runs=st.integers(0, 4), t_min=st.integers(0, 6), t_extra=st.sampled_from([0, 1, 7]),
           n=st.sampled_from([1, 2, 3, 4, 200, 2**31 + 1, 2**32]),
           prelude=st.sampled_from([None, 0, 1, 2, 7]))
    def test_draw_runs_is_the_sequential_loop(self, domain, seed, streams, runs, t_min,
                                              t_extra, n, prelude):
        """Starts, steps and indices are bitwise those of the per-run loop:
        equal step bounds and n = 1 consume nothing, an odd prelude leaves a
        pending half, and n = 2**31 + 1 rejects about half of all draws."""
        args = (seed, streams, runs, domain, t_min, t_min + t_extra, n)
        _assert_same_runs(draw_runs(*args, prelude=_prelude_of(prelude)),
                          _sequential_runs(*args, prelude=_prelude_of(prelude)))

    @pytest.mark.parametrize("pending", [False, True])
    def test_rejected_step_count_redraws_the_stream(self, monkeypatch, pending):
        """A crafted state whose next half is 0 rejects the step count of
        range 3 (0 * 3 mod 2**32 < 2**32 mod 3): a fresh word's low half, or
        the half a prelude left pending."""
        box = Box(np.zeros(2), np.ones(2))  # a start takes exactly 2 words
        inc, word = 2 * 0x9E3779B97F4A7C15 + 1, 7 << 32  # word's low half is 0

        def prelude(k, rng):
            if k == 1:
                rng.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": _pcg64_state_before(word, 3, inc), "inc": inc},
                    "has_uint32": int(pending), "uinteger": 0}
            return k

        check = np.random.Generator(np.random.PCG64(0))
        prelude(1, check)
        assert check.bit_generator.random_raw(3)[-1] == word
        redrawn = []

        def spy(*keys):
            redrawn.append(keys)
            return substream(*keys)

        monkeypatch.setattr(sgd_module, "substream", spy)
        got = draw_runs(9, 3, 2, box, 1, 3, 5, prelude=prelude)
        assert redrawn == [(9, 1)]
        monkeypatch.undo()
        _assert_same_runs(got, _sequential_runs(9, 3, 2, box, 1, 3, 5, prelude=prelude))

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
