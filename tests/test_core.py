"""Projection, norm, and tail-bound primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgdcover import core
from sgdcover.core import (
    DETERMINISTIC_TOL,
    Ball,
    Box,
    ProductOfBalls,
    WholeSpace,
    all_finite,
    as_point,
    as_rows,
    hoeffding_tail,
    linalg_norms,
    numeric_gradient,
    row_norms,
    substream,
)
from sgdcover.fractal import IFSModel, box_counting_dimension
from sgdcover.losses import Dataset, LossConstants, LossFamily, quadratic_centers
from sgdcover.sgd import CustomMap, SGDStep, sgd_step

TOL = 1e-9

# derandomized and capped, so every run checks the same few hundred arrays
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


class TestProjectionExamples:
    def test_inside_point_is_returned_as_a_float_point(self):
        ball = Ball(np.zeros(2), 2.0)
        x = np.array([1.0, -1.0])
        assert ball.project(x).tobytes() == x.tobytes()
        out = ball.project([1, -1])
        assert out.dtype == np.float64 and out.shape == (2,)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(Ball(np.zeros(1), 1.0).project(0.5), [0.5])

    def test_ball_radial_shrink(self):
        ball = Ball(np.zeros(2), 1.0)
        x = np.array([1.2, 1.6])  # norm 2
        out = ball.project(x)
        np.testing.assert_allclose(out, x / 2.0, rtol=1e-15)
        assert math.isclose(np.linalg.norm(out), 1.0, rel_tol=1e-15)

    def test_ball_identity_on_members(self):
        ball = Ball(np.zeros(2), 1.0)
        x = np.array([0.3, 0.4])  # norm 0.5
        assert ball.project(x) is x or np.array_equal(ball.project(x), x)

    def test_box_componentwise_clamp(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.project([-1.0, 2.0]), [0.0, 1.0])

    def test_product_of_balls_per_block(self):
        dom = ProductOfBalls(blocks=2, block_dim=2, radius=1.0)
        x = np.array([3.0, 4.0, 0.1, 0.2])  # first block norm 5, second inside
        out = dom.project(x)
        np.testing.assert_allclose(out[:2], [0.6, 0.8], rtol=1e-15)
        np.testing.assert_array_equal(out[2:], [0.1, 0.2])

    def test_huge_points_land_on_the_boundary(self):
        """A point whose squared offset overflows is measured scaled by its
        largest entry, so it projects onto the boundary in its own direction,
        not onto the centre; batches and product blocks agree."""
        ulps = 4 * np.finfo(float).eps
        ball = Ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(ball.project([1e200, 0.0]), [1.0, 0.0], rtol=ulps, atol=0)
        np.testing.assert_allclose(ball.project([3e200, -4e200]), [0.6, -0.8], rtol=ulps)
        X = np.array([[1e200, 0.0], [0.3, 0.4], [3.0, 4.0], [-3e300, 4e300]])
        batch = ball.project_batch(X)
        assert batch.tobytes() == np.stack([ball.project(x) for x in X]).tobytes()
        np.testing.assert_allclose(batch, [[1.0, 0.0], [0.3, 0.4], [0.6, 0.8], [-0.6, 0.8]],
                                   rtol=ulps, atol=0)
        shifted = Ball(np.array([1.0, 2.0]), 3.0)
        np.testing.assert_allclose(shifted.project([1e250, 0.0]), [4.0, 2.0], rtol=ulps)
        dom = ProductOfBalls(blocks=2, block_dim=2, radius=1.0)
        X = np.array([[1e200, 0.0, 0.1, 0.2], [3.0, 4.0, 3e300, -4e300]])
        out = dom.project_batch(X)
        assert out.tobytes() == np.stack([dom.project(x) for x in X]).tobytes()
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.1, 0.2], [0.6, 0.8, 0.6, -0.8]],
                                   rtol=ulps, atol=0)

    def test_norm_that_overflows_projects_without_a_warning(self):
        """A norm that overflows to inf only says that the point is outside:
        with warnings as errors, ``project`` and ``project_batch`` of points
        whose squared norm, or even whose norm, overflows return the point
        of the boundary in their direction, 1/sqrt(2) rounded down in each
        entry here, as before these overflows were silenced."""
        edge = np.full(2, float.fromhex("0x1.6a09e667f3bccp-1"))
        shifted = Ball(np.array([1.0, 2.0]), 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([1e200, 1e200], [1.5e308, 1.5e308]):
                for dom in (Ball(np.zeros(2), 1.0), ProductOfBalls(1, 2, 1.0)):
                    assert dom.project(x).tobytes() == edge.tobytes()
                    assert dom.project_batch([x]).tobytes() == edge.tobytes()
                assert shifted.project_batch([x]).tobytes() == shifted.project(x).tobytes()
                assert np.all(np.isfinite(shifted.project(x)))

    def test_norm_that_overflows_after_the_rescale_keeps_its_direction(self):
        """A row whose norm exceeds the largest float even when measured scaled
        by its largest entry projects onto the boundary in its own direction,
        not onto the centre.  Every other row of the batch keeps the rounding
        of the plain radius / norm scaling, bitwise."""
        ulps = 4 * np.finfo(float).eps
        X = np.array([[0.3, 0.4], [1.5e308, 1.5e308], [3.0, 4.0], [1e200, 1e200],
                      [-1.5e308, 1.5e308]])
        far = [1, 4]
        kept = [0, 2, 3]
        expected = [[0.3, 0.4], [1.0, 1.0], [0.6, 0.8], [1.0, 1.0], [-1.0, 1.0]]
        expected = np.array(expected) / np.array([1.0, math.sqrt(2), 1.0, math.sqrt(2),
                                                  math.sqrt(2)])[:, None]
        plain = X.copy()
        plain[1:] = X[1:] * (1.0 / core.safe_norms(X[1:]))[:, None]
        for dom in (Ball(np.zeros(2), 1.0), ProductOfBalls(blocks=1, block_dim=2, radius=1.0)):
            batch = dom.project_batch(X)
            assert batch.tobytes() == np.stack([dom.project(x) for x in X]).tobytes()
            np.testing.assert_allclose(batch[far], expected[far], rtol=ulps, atol=0)
            assert batch[kept].tobytes() == plain[kept].tobytes()
        blocks = ProductOfBalls(blocks=2, block_dim=2, radius=2.0)
        out = blocks.project(np.concatenate([X[1], X[2]]))
        np.testing.assert_allclose(out, 2.0 * np.concatenate([expected[1], expected[2]]),
                                   rtol=ulps, atol=0)

    def test_overflowed_offset_points_toward_x(self):
        """When x - center itself overflows, x/2 - center/2 gives the offset's
        direction: the projection is finite, on the boundary and toward x,
        and a batch row agrees bitwise."""
        ball = Ball(np.array([-1e308, 0.0]), 1.0)
        x = np.array([1e308, 0.0])
        out = ball.project(x)
        assert np.all(np.isfinite(out))
        # center + (1, 0): the boundary point toward x, rounded at this scale
        assert out.tobytes() == (ball.center + [1.0, 0.0]).tobytes()
        assert ball.project_batch(x[None, :])[0].tobytes() == out.tobytes()
        wide = Ball(np.array([-1e308, 0.0]), 1e300)
        out = wide.project([1e308, 1e308])  # offset (2e308, 1e308) overflows
        np.testing.assert_allclose(out - wide.center, 1e300 * np.array([2.0, 1.0]) / math.sqrt(5),
                                   rtol=1e-6)
        whole = Ball(np.array([-1e308, 0.0]), 1e308)
        assert whole.project([1e308, 0.0]).tobytes() == np.array([0.0, 0.0]).tobytes()

    def test_mixed_batch_rows_equal_their_projections(self):
        """A batch whose rows lie inside, outside at a finite norm, outside at
        a norm that overflows and outside at an offset that overflows: every
        row equals its own ``project``, bitwise, and is finite."""
        ball = Ball(np.array([-1e308, 0.0]), 1.0)
        X = np.array([[-1e308, 0.5], [-1e308, 3.0], [-1e308, 1e200], [1e308, 0.0],
                      [1e308, -1e308], [-1e308, -0.25]])
        batch = ball.project_batch(X)
        assert batch.tobytes() == np.stack([ball.project(x) for x in X]).tobytes()
        assert np.all(np.isfinite(batch))
        assert batch[0].tobytes() == X[0].tobytes() and batch[5].tobytes() == X[5].tobytes()
        np.testing.assert_array_equal(batch[1:3], [[-1e308, 1.0], [-1e308, 1.0]])

    def test_whole_space_identity(self):
        dom = WholeSpace(3)
        x = np.array([5.0, -7.0, 11.0])
        np.testing.assert_array_equal(dom.project(x), x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 1.0).project([1.0, 2.0, 3.0])

    def test_invalid_domains(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
        with pytest.raises(ValueError):
            ProductOfBalls(0, 2, 1.0)
        with pytest.raises(ValueError):
            as_point([np.nan, 1.0])
        for radius in (np.inf, np.nan, -np.inf):
            with pytest.raises(ValueError, match="^Ball radius must be finite and positive"):
                Ball(np.zeros(2), radius)
            with pytest.raises(ValueError, match="^ProductOfBalls radius must be finite"):
                ProductOfBalls(2, 2, radius)


def _domains():
    return [
        Ball(np.array([0.2, -0.1, 0.0]), 1.5),
        Box([-1.0, 0.0, -2.0], [1.0, 2.0, 0.5]),
        ProductOfBalls(blocks=3, block_dim=1, radius=0.8),
        WholeSpace(3),
    ]


class TestProjectionProperties:
    def test_nonexpansiveness(self):
        """||P(x) - P(y)|| <= ||x - y|| + tol over 10^4 random pairs/variant."""
        rng = np.random.default_rng(7)
        for dom in _domains():
            xs = rng.uniform(-4, 4, size=(10_000, dom.dim))
            ys = rng.uniform(-4, 4, size=(10_000, dom.dim))
            for x, y in zip(xs, ys):
                lhs = np.linalg.norm(dom.project(x) - dom.project(y))
                assert lhs <= np.linalg.norm(x - y) + TOL

    def test_idempotence(self):
        """Box clamps are bitwise idempotent; radial rescaling may move the
        reprojection by an ulp, so ball variants get the deterministic tol."""
        rng = np.random.default_rng(8)
        box = Box([-1.0, 0.0, -2.0], [1.0, 2.0, 0.5])
        for _ in range(200):
            x = rng.uniform(-4, 4, size=3)
            once = box.project(x)
            np.testing.assert_array_equal(box.project(once), once)
        for dom in _domains():
            for _ in range(200):
                x = rng.uniform(-4, 4, size=dom.dim)
                once = dom.project(x)
                assert np.linalg.norm(dom.project(once) - once) <= TOL

    def test_membership(self):
        rng = np.random.default_rng(9)
        ball = Ball(np.zeros(4), 2.5)
        for _ in range(500):
            x = rng.normal(scale=5.0, size=4)
            assert np.linalg.norm(ball.project(x)) <= 2.5 + TOL

    def test_sampling_stays_inside(self):
        rng = np.random.default_rng(10)
        for dom in _domains()[:3]:
            for _ in range(200):
                x = dom.sample(rng)
                assert np.linalg.norm(x - dom.project(x)) <= DETERMINISTIC_TOL
        with pytest.raises(ValueError):
            WholeSpace(2).sample(rng)

    def test_bounding_radius(self):
        assert Ball(np.array([1.0, 0.0]), 2.0).bounding_radius() == 3.0
        assert Box([0.0], [4.0]).bounding_radius() == 4.0
        assert ProductOfBalls(4, 2, 1.0).bounding_radius() == pytest.approx(2.0)
        assert math.isinf(WholeSpace(1).bounding_radius())


def _ulps_toward(x: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """Each entry of ``x`` moved ``k`` floats toward ``target``'s entry, on
    the integer scale that orders float64 values (-0 and +0 both map to 0)."""
    bits = x.view(np.int64)
    magnitude = bits & np.int64(2**63 - 1)
    key = np.where(bits < 0, -magnitude, magnitude) - k * np.sign(x - target).astype(np.int64)
    return np.where(key < 0, np.abs(key) | np.int64(-2**63), key).view(np.float64)


# k of "k ulps in": each coordinate moved k floats toward the center puts the
# squared offset a relative k*u to 2k*u inside the sphere, around the inside
# test's dot-product margin of 4(d + 2)u
_ULPS_IN = {"2 ulps in": lambda d: 2, "d+2 ulps in": lambda d: d + 2,
            "4(d+2)-1 ulps in": lambda d: 4 * (d + 2) - 1,
            "4(d+2) ulps in": lambda d: 4 * (d + 2),
            "4(d+2)+1 ulps in": lambda d: 4 * (d + 2) + 1,
            "16(d+2) ulps in": lambda d: 16 * (d + 2)}


class TestBallInsideTest:
    """``Ball._holds`` tests ``x`` itself when every center entry is zero,
    and ``x - center`` otherwise; either way its verdict is bitwise that of
    ``row_norms(x - center) <= radius``, whether its dot-product prefilter or
    the exact norm decides it.  Radii of 2**-530 and 2**-501 square below
    2**-1000, and 2**501 and 1e300 above 2**1000, where no dot decides;
    2**-499 and 2**499 square just inside those guards."""

    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 7, 64, 1024]),
           center=st.sampled_from(["+0", "-0", "mixed zeros", "nonzero", "partly zero"]),
           point=st.sampled_from(["inside", "sphere", "ulp in", "ulp out", "far", "nan",
                                  "+inf", "-inf", "signed zeros", "subnormal", *_ULPS_IN]),
           radius=st.one_of(st.floats(1e-3, 1e3),
                            st.sampled_from([2.0**-530, 2.0**-501, 2.0**-499, 2.0**499,
                                             2.0**501, 1e300])),
           seed=st.integers(0, 2**32 - 1))
    def test_verdict_is_row_norms_of_the_offset(self, d, center, point, radius, seed):
        rng = np.random.default_rng(seed)
        c = {"+0": np.zeros(d), "-0": np.full(d, -0.0),
             "mixed zeros": np.where(rng.random(d) < 0.5, 0.0, -0.0),
             "nonzero": rng.uniform(-1.0, 1.0, d),
             "partly zero": np.where(np.arange(d) % 2, 0.0, rng.uniform(-1.0, 1.0, d))}[center]
        ball = Ball(c, radius)
        u = rng.normal(size=d)
        on_sphere = c + u * (radius / np.sqrt(u @ u))
        away = np.where(on_sphere >= c, np.inf, -np.inf)  # ulps away from the center
        x = {"inside": c + u * (radius * rng.random() / np.sqrt(u @ u)),
             "sphere": on_sphere, "ulp in": np.nextafter(on_sphere, -away),
             "ulp out": np.nextafter(on_sphere, away), "far": c + u * (1e3 * radius),
             "signed zeros": np.where(rng.random(d) < 0.5, 0.0, -0.0),
             "subnormal": c + rng.integers(-2**40, 2**40, d) * 2.0**-1074}.get(point, on_sphere)
        if point in _ULPS_IN:
            x = _ulps_toward(on_sphere, c, _ULPS_IN[point](d))
        if point in ("nan", "+inf", "-inf"):
            x = x.copy()
            x[rng.integers(d)] = float(point)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = bool(row_norms(x - c) <= radius)
            assert ball._holds(x) is expected
        if point in ("nan", "+inf", "-inf") or point == "far" and radius >= 1e-3:
            assert not expected  # a tinier far offset can round away next to the center


class TestProjectBatch:
    def test_rows_match_single_projection_bitwise(self):
        """Every domain variant, with rows inside and outside: row k of the
        batch is bit for bit the single-point projection of row k."""
        rng = np.random.default_rng(11)
        for dom in _domains():
            inside = [dom.sample(rng) if math.isfinite(dom.bounding_radius())
                      else rng.normal(size=dom.dim) for _ in range(200)]
            X = np.vstack([inside, rng.uniform(-4, 4, size=(200, dom.dim))])
            batch = dom.project_batch(X)
            rows = np.stack([dom.project(x) for x in X])
            assert batch.shape == X.shape and batch.tobytes() == rows.tobytes()
            moved = np.any(rows != X, axis=1)
            assert not np.any(moved[:200])
            assert np.any(moved[200:]) or isinstance(dom, WholeSpace)

    def test_ball_norm_agrees_in_every_dimension(self):
        rng = np.random.default_rng(12)
        for d in range(1, 34):
            ball = Ball(rng.uniform(-0.5, 0.5, size=d), 1.0)
            X = ball.center + rng.normal(size=(200, d)) * rng.uniform(0.2, 2.0, size=(200, 1))
            rows = np.stack([ball.project(x) for x in X])
            assert ball.project_batch(X).tobytes() == rows.tobytes()

    def test_product_of_balls_blocks_independent(self):
        dom = ProductOfBalls(blocks=2, block_dim=2, radius=1.0)
        X = np.array([[3.0, 4.0, 0.1, 0.2], [0.1, 0.2, 0.0, -2.0]])
        np.testing.assert_allclose(dom.project_batch(X),
                                   [[0.6, 0.8, 0.1, 0.2], [0.1, 0.2, 0.0, -1.0]], rtol=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 1.0).project_batch(np.zeros(2))
        with pytest.raises(ValueError):
            Box([0.0], [1.0]).project_batch(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            WholeSpace(2).project_batch([[np.nan, 0.0]])


class TestLinalgNorms:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 64])
    def test_bitwise_equal_to_linalg_norm_of_each_row(self, d):
        rng = np.random.default_rng(d)
        rows = rng.normal(size=(2000, d)) * rng.uniform(1e-6, 10.0, size=(2000, 1))
        expected = np.array([np.linalg.norm(row) for row in rows])
        assert linalg_norms(rows).tobytes() == expected.tobytes()

    def test_no_rows(self):
        assert linalg_norms(np.zeros((0, 3))).shape == (0,)


class TestHoeffdingTail:
    def test_frozen_value(self):
        # 2*exp(-2*100*0.01/1)
        assert hoeffding_tail(100, 0.1, 1.0) == pytest.approx(0.2706705664732254, rel=1e-12)

    def test_monotone_in_epsilon(self):
        vals = [hoeffding_tail(50, e, 1.0) for e in np.linspace(0.01, 2.0, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_probability_cap(self):
        assert hoeffding_tail(10, 0.01, 1e6) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            hoeffding_tail(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.1, 0.0)


class TestUtilities:
    def test_substream_refuses_a_negative_key(self):
        with pytest.raises(ValueError, match="non-negative"):
            substream(-1, 0)

    def test_substream_reproducible_and_distinct(self):
        a = substream(3, 5).uniform(size=4)
        b = substream(3, 5).uniform(size=4)
        c = substream(3, 6).uniform(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_ball_sample_is_the_linalg_norm_formula(self, d):
        """Ball.sample draws bitwise what np.linalg.norm and rng.uniform(size=1)
        give, with u**(1/d) taken by numpy's array power.  In d <= 2, where
        the d = 2 golden hashes were made by Python's scalar pow, the two
        powers agree bitwise; in d >= 3 they may differ in the last bit."""
        ball = Ball(np.linspace(-0.5, 0.5, d), 0.75)
        for k in range(40):
            rng = substream(7, k)
            direction = rng.normal(size=d)
            u = rng.uniform(size=1)
            r = 0.75 * u ** (1.0 / d)
            expected = ball.center + direction * (r / np.linalg.norm(direction))
            assert ball.sample(substream(7, k)).tobytes() == expected.tobytes()
            if d <= 2:
                assert 0.75 * float(u[0]) ** (1.0 / d) == r[0]

    def test_numeric_gradient_on_quadratic(self):
        grad = numeric_gradient(lambda t: float(t @ t), np.array([0.5, -1.0, 2.0]))
        np.testing.assert_allclose(grad, [1.0, -2.0, 4.0], rtol=1e-9, atol=1e-9)


class _ZeroFirstNormal:
    """A stub generator: normals of ones but for an all-zero first row,
    and uniforms of 0.5."""

    def normal(self, size):
        out = np.ones(size)
        out[0] = 0.0
        return out

    def random(self, size):
        return np.full(size, 0.5)


_SAMPLED = {"ball": Ball(np.array([0.2, -0.1, 0.0]), 1.5),
            "box": Box([-1.0, 0.0, -2.0], [1.0, 2.0, 0.5]),
            "product": ProductOfBalls(blocks=2, block_dim=3, radius=0.8)}


def _ks_distance_from_uniform(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample's empirical CDF from U(0, 1)'s."""
    u, k = np.sort(u), np.arange(1, u.size + 1)
    return float(max(np.max(k / u.size - u), np.max(u - (k - 1) / u.size)))


class TestSampleBatch:
    @pytest.mark.parametrize("kind", _SAMPLED)
    def test_documented_draw_order(self, kind):
        domain, rng = _SAMPLED[kind], substream(9, 1)
        got = domain.sample_batch(substream(9, 1), 5)
        if kind == "box":
            expected = rng.uniform(domain.lower, domain.upper, size=(5, 3))
        else:
            blocks = (5,) if kind == "ball" else (5, 2)
            normals = rng.normal(size=(*blocks, 3))
            r = domain.radius * rng.random(blocks) ** (1.0 / 3)
            expected = normals * (r / linalg_norms(normals.reshape(-1, 3)).reshape(blocks))[..., None]
            expected = domain.center + expected if kind == "ball" else expected.reshape(5, 6)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", _SAMPLED)
    def test_rows_lie_in_the_domain(self, kind):
        domain = _SAMPLED[kind]
        X = domain.sample_batch(substream(4), 2000)
        assert X.shape == (2000, domain.dim)
        assert np.all(row_norms(domain.project_batch(X) - X) <= 1e-12)

    @pytest.mark.parametrize("kind", ["ball", "product"])
    def test_zero_normal_row_gives_the_center(self, kind):
        domain = _SAMPLED[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = domain.sample_batch(_ZeroFirstNormal(), 3)
        center = domain.center if kind == "ball" else np.zeros(domain.dim)
        assert X[0].tobytes() == center.tobytes()
        assert np.all(np.isfinite(X)) and np.all(X[1:] != center)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("kind", _SAMPLED)
    def test_sample_is_row_zero_of_a_one_row_batch(self, kind, d):
        """One point is drawn by the batch sampler: the same bytes, and the
        generator left in the same state."""
        domain = {"ball": Ball(np.linspace(-0.5, 0.5, d), 0.75),
                  "box": Box(np.linspace(-1.0, 0.0, d), np.linspace(0.0, 2.0, d)),
                  "product": ProductOfBalls(blocks=2, block_dim=d, radius=0.8)}[kind]
        for seed in range(40):
            one, batch = substream(seed, d), substream(seed, d)
            point = domain.sample(one)
            assert point.shape == (domain.dim,)
            assert point.tobytes() == domain.sample_batch(batch, 1)[0].tobytes()
            assert one.bit_generator.state == batch.bit_generator.state

    def test_whole_space_refuses_as_sample_does(self):
        message = "^cannot sample uniformly from an unbounded domain$"
        with pytest.raises(ValueError, match=message):
            WholeSpace(2).sample_batch(substream(0), 4)
        with pytest.raises(ValueError, match=message):
            WholeSpace(2).sample(substream(0))

    @pytest.mark.parametrize("kind", _SAMPLED)
    def test_radii_are_uniform_in_volume(self, kind):
        """(|x - c| / r)^d of each ball row, of each block of a product row,
        and (x - lower) / (upper - lower) of each box coordinate are
        independent U(0, 1) draws.  Pooled, N of them stray from U(0, 1)'s
        CDF by more than eps = sqrt(ln(2e6) / 2N) with probability at most
        2 exp(-2 N eps^2) = 1e-6 (the Dvoretzky-Kiefer-Wolfowitz inequality
        with Massart's constant), which is this check's false-fail rate."""
        domain = _SAMPLED[kind]
        X = domain.sample_batch(substream(12), 20_000)
        if kind == "box":
            u = (X - domain.lower) / (domain.upper - domain.lower)
        elif kind == "ball":
            u = (row_norms(X - domain.center) / domain.radius) ** 3
        else:
            u = (row_norms(X.reshape(-1, 2, 3)) / domain.radius) ** 3
        u = u.ravel()
        eps = math.sqrt(math.log(2e6) / (2 * u.size))
        assert _ks_distance_from_uniform(u) <= eps


def _gradient_of(value: float) -> LossFamily:
    """A one-dimensional family whose gradient is ``value`` everywhere."""
    return LossFamily(name="const", constants=LossConstants(),
                      value=lambda t, z: 0.0, grad=lambda t, z: np.array([value]))


def _step(update, theta, dataset=Dataset((None,))):
    return sgd_step(update, theta, 0, dataset)


# sgd_step on updates that check the point in different places: the
# quadratic family's gradient validates it, a constant gradient ignores it,
# and a custom map's function may ignore it
_QUADRATIC = SGDStep(quadratic_centers([[0.5, 0.0]], 1.0), 0.5)
_QUADRATIC_DATA = Dataset(([0.5, 0.0],))
_CONSTANT = SGDStep(_gradient_of(1.0), 0.1, domain=WholeSpace(1))
_CUSTOM = CustomMap(lambda t, z: np.zeros(1))
# SGDStep.apply forms the update before checking the point, so an infinite
# entry minus its gradient's infinity warns "invalid value" before the
# ValueError; a guard ahead of the update would cost every cover-tree node
_INVALID_BEFORE_REFUSAL = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in subtract:RuntimeWarning")


def _box_count(points=None, scales=(1.0, 0.1, 0.01, 0.001)):
    pts = np.random.default_rng(0).uniform(size=(1000, 2)) if points is None else points
    return box_counting_dimension(pts, list(scales))


class TestAllFinite:
    @PROPERTY
    @given(hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
    def test_agrees_with_np_all(self, a):
        assert all_finite(a) == np.all(np.isfinite(a))

    @PROPERTY
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_one_non_finite_value_anywhere(self, a, bad, data):
        assert all_finite(a)
        a[data.draw(st.tuples(*(st.integers(0, side - 1) for side in a.shape)))] = bad
        assert not all_finite(a)

    def test_empty_and_integer_arrays(self):
        for a in (np.array([]), np.zeros((0, 3)), np.zeros((3, 0)), np.array([1, -2]),
                  np.array(5.0), np.array(np.iinfo(np.int64).max)):
            assert all_finite(a)
        assert not all_finite(np.array(np.nan))

    @pytest.mark.parametrize("call,error,message,bad", [
        pytest.param(*case, bad, id=f"{name}-{bad}",
                     marks=_INVALID_BEFORE_REFUSAL
                     if name == "sgd_step-quadratic" and np.isinf(bad) else ())
        for bad in (np.nan, np.inf, -np.inf) for name, case in zip([
            "as_point", "as_rows", "SGDStep.apply", "SGDStep.apply_batch",
            "CustomMap.apply", "sgd_step-quadratic", "sgd_step-unchecked-grad",
            "sgd_step-CustomMap", "sgd_step-2d", "sgd_step-wrong-dim", "Ball.project",
            "Ball.project-2d", "Ball.project-wrong-dim", "IFSModel-centers", "IFSModel-radius",
            "box_counting-points", "box_counting-scales"], [
        (lambda bad: as_point([0.0, bad]), ValueError, "point has non-finite"),
        (lambda bad: as_rows([[0.0, 1.0], [bad, 1.0]], 2), ValueError, "points have non-finite"),
        (lambda bad: SGDStep(_gradient_of(bad), 0.1, domain=WholeSpace(1)).apply(
            np.zeros(1), None), FloatingPointError, "non-finite gradient"),
        (lambda bad: SGDStep(_gradient_of(bad), 0.1, domain=WholeSpace(1)).apply_batch(
            np.zeros((2, 1)), [0, 0], Dataset((None,))), FloatingPointError,
         "non-finite gradient"),
        (lambda bad: CustomMap(lambda t, z: t + bad).apply(np.zeros(2), None),
         FloatingPointError, "non-finite values"),
        (lambda bad: _step(_QUADRATIC, [0.0, bad], _QUADRATIC_DATA), ValueError,
         "^point has non-finite entries$"),
        (lambda bad: _step(_CONSTANT, [bad]), ValueError, "^point has non-finite entries$"),
        (lambda bad: _step(_CUSTOM, [bad]), ValueError, "^point has non-finite entries$"),
        (lambda bad: _step(_QUADRATIC, [[0.0, bad]], _QUADRATIC_DATA), ValueError,
         r"^expected a 1-D point, got shape \(1, 2\)$"),
        (lambda bad: _step(_QUADRATIC, [0.0, 0.0, bad], _QUADRATIC_DATA), ValueError,
         "^point has non-finite entries$"),
        (lambda bad: Ball(np.zeros(2), 1.0).project([0.0, bad]), ValueError,
         "^point has non-finite entries$"),
        (lambda bad: Ball(np.zeros(2), 1.0).project([[0.0, bad]]), ValueError,
         r"^expected a 1-D point, got shape \(1, 2\)$"),
        (lambda bad: Ball(np.zeros(2), 1.0).project([0.0, 0.0, bad]), ValueError,
         "^point has non-finite entries$"),
        (lambda bad: IFSModel([[0.5], [bad]], gamma=0.3, radius=1.0), ValueError,
         "centers must be finite"),
        (lambda bad: IFSModel([[0.5], [-0.5]], gamma=0.3, radius=bad), ValueError,
         "radius must be finite and positive"),
        (lambda bad: _box_count(points=np.full((1000, 2), bad)), ValueError,
         "points have non-finite"),
        (lambda bad: _box_count(scales=(1.0, 0.1, 0.01, 0.001, bad)), ValueError,
         "scales must be finite"),
    ])])
    def test_every_caller_rejects_non_finite_input(self, call, error, message, bad):
        with pytest.raises(error, match=message):
            call(bad)
