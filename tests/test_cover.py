"""Cover enumeration/verification, quadratic surrogates, and IFS dimension."""

import ast
import functools
import hashlib
import itertools
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdcover import cover as cover_module
from sgdcover import fractal
from sgdcover import surrogate as surrogate_module
from sgdcover.core import Ball, Box, ProductOfBalls, WholeSpace, ceil_int, row_norms
from sgdcover.cover import (
    CoverSet,
    EnumerationCapExceeded,
    cover_horizon,
    enumerate_cover,
    replay_entry,
    verify_cover,
)
from sgdcover.fractal import IFSModel, box_counting_dimension, ifs_dimension
from sgdcover.core import substream
from sgdcover.losses import Dataset, LossConstants, LossFamily, quadratic_centers
from sgdcover.sgd import CustomMap, SGDStep, run_lockstep, sgd_step
from sgdcover.surrogate import (
    PiecewiseSmoothFunction,
    SmoothPiece,
    build_piecewise_approx,
    enumerate_piecewise_cover,
    smooth_function,
)

CENTERS = [np.array([0.8, 0.0]), np.array([-0.4, 0.6]), np.array([-0.2, -0.7])]


# the origin moves to the sampled point and then stays: every composition
# ends at the point of its first choice
FIRST_CHOICE = CustomMap(lambda t, z: t if t.any() else np.asarray(z, dtype=float),
                         Ball(np.zeros(2), 1.0))


def quadratic_cover_setup(eta=0.5):
    fam = quadratic_centers(CENTERS, R=1.0)
    ds = Dataset(tuple(CENTERS))
    return fam, ds, SGDStep(fam, eta, domain=fam.domain)


class TestCoverHorizon:
    def test_large_epsilon_needs_no_steps(self):
        assert cover_horizon(1.0, 1.0, 0.5) == 0
        assert cover_horizon(1.0, 2.0, 0.9) == 0
        assert cover_horizon(1.0, math.inf, 0.5) == 0
        assert cover_horizon(1e-30, 1e300, 0.5) == 0  # R / epsilon underflows to 0

    def test_frozen_values(self):
        assert cover_horizon(1.0, 0.01, 0.5) == 7
        assert cover_horizon(1.0, 1.0 / 200.0, 0.5) == 8  # eps = 1/(2*L*R*n), L=1, n=100
        assert cover_horizon(1.0, 1.0 / 6.0, 0.5) == 3

    def test_exact_power_boundary(self):
        # log(8)/log(2) is an exact integer; float noise must not bump it to 4
        assert cover_horizon(1.0, 0.125, 0.5) == 3

    def test_radius_bound_the_nudge_gives(self):
        """``ceil_int``'s nudge can leave gamma^T * R above epsilon, by at most
        the factor max(1/gamma, R/eps)^1e-9 the docstring states.  Raising T
        instead would make the cover n times larger over a last-ulp excess."""
        assert cover_horizon(1.0, 0.1249999999, 0.5) == 3  # radius 0.125 > eps
        assert cover_horizon(1.0, 1e-3, 0.1) == 3  # 0.1**3 exceeds 1e-3 by 2.2e-19
        assert 0.1**3 > 1e-3
        for R, eps, gamma in [(1.0, 0.1249999999, 0.5), (1.0, 1e-3, 0.1),
                              *((R, eps, gamma) for gamma in (0.1, 1 / 3, 0.5, 0.9, 0.99)
                                for R in (1e-3, 1.0, 7.0)
                                for eps in [*R * np.logspace(-12, 1, 300),
                                            *(R * gamma**k for k in range(1, 25))])]:
            radius = gamma ** cover_horizon(R, eps, gamma) * R
            assert radius <= eps * max(1 / gamma, R / eps) ** 1e-9, (R, eps, gamma)

    @pytest.mark.parametrize("R, epsilon", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0),
                                            (1.0, -0.1), (math.nan, 0.1)])
    def test_rejects_nonpositive_radius_or_epsilon(self, R, epsilon):
        with pytest.raises(ValueError, match="R and epsilon must be positive"):
            cover_horizon(R, epsilon, 0.5)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            cover_horizon(1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            cover_horizon(1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            cover_horizon(1.0, 2.0, 1.0)  # also where epsilon >= R needs no steps


class TestEnumerateCover:
    def test_negative_horizon_is_refused(self):
        _, ds, update = quadratic_cover_setup()
        with pytest.raises(ValueError, match="T must be nonnegative"):
            enumerate_cover(update, ds, T=-1)

    def test_zero_horizon_is_origin(self):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=0)
        assert len(cov) == 1
        np.testing.assert_array_equal(cov[0].point, np.zeros(2))
        assert cov[0].seq == ()

    def test_counts(self):
        fam = quadratic_centers(CENTERS[:2], R=1.0)
        ds2 = Dataset(tuple(CENTERS[:2]))
        cov = enumerate_cover(SGDStep(fam, 0.5, domain=fam.domain), ds2, T=2)
        assert len(cov) == 4
        _, ds3, update = quadratic_cover_setup()
        assert len(enumerate_cover(update, ds3, T=3)) == 27

    def test_lexicographic_order_and_points(self):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)
        expected_seqs = list(itertools.product(range(3), repeat=2))
        assert [e.seq for e in cov] == expected_seqs
        for e in cov:
            np.testing.assert_array_equal(
                e.point, replay_entry(update, ds, e)
            )
            assert e.deps == frozenset(e.seq) and len(e.deps) <= 2

    def test_replay_and_lockstep_match_enumeration_with_projection(self):
        """At eta = 1.5 the projection is active; replaying each entry, and
        running all entry sequences through the batched kernel, both give the
        enumerated points bit for bit."""
        _, ds, update = quadratic_cover_setup(eta=1.5)
        cov = enumerate_cover(update, ds, T=4)
        assert any(abs(np.linalg.norm(e.point) - 1.0) < 1e-12 for e in cov)
        seqs = np.array([e.seq for e in cov])
        lockstep = run_lockstep(update, np.zeros((len(cov), 2)), np.full(len(cov), 4), seqs, ds)
        for e, row in zip(cov, lockstep):
            assert replay_entry(update, ds, e).tobytes() == e.point.tobytes()
            assert row.tobytes() == e.point.tobytes()

    def test_threads_do_not_change_output(self):
        _, ds, update = quadratic_cover_setup()
        a = enumerate_cover(update, ds, T=3, threads=1)
        b = enumerate_cover(update, ds, T=3, threads=4)
        assert [e.seq for e in a] == [e.seq for e in b]
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.point, eb.point)

    def test_cap_refusal_is_total(self):
        _, ds, update = quadratic_cover_setup()
        with pytest.raises(EnumerationCapExceeded) as exc:
            enumerate_cover(update, ds, T=10, cap=100)
        assert exc.value.required == 3**10

    def test_map_without_a_domain_is_refused(self):
        """The domain fixes the anchor's dimension; a custom map without one
        is refused with ValueError before any step."""
        _, ds, _ = quadratic_cover_setup()
        with pytest.raises(ValueError, match="needs a domain"):
            enumerate_cover(CustomMap(lambda t, z: t), ds, T=1)

    def test_overflowed_unprojected_endpoint_rejected(self):
        """A raw (unprojected) step whose finite gradient overflows the last
        level is refused, not stored as an infinite cover point."""
        huge = LossFamily(
            name="huge", constants=LossConstants(),
            value=lambda t, z: 0.0, grad=lambda t, z: np.array([1e308]),
        )
        update = SGDStep(huge, 10.0, domain=WholeSpace(1))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            enumerate_cover(update, Dataset((np.array([0.0]),)), T=1)

    def test_dedupe_collapses_coincident_points(self):
        # a map that jumps straight to the sampled point makes every
        # composition equal its last choice, so only n points remain
        _, ds, _ = quadratic_cover_setup()
        jump = CustomMap(lambda t, z: np.asarray(z, dtype=float), Ball(np.zeros(2), 1.0))
        plain = enumerate_cover(jump, ds, T=2)
        deduped = enumerate_cover(jump, ds, T=2, dedupe=True)
        assert len(plain) == 9 and plain.deduped is False
        assert len(deduped) == 3 and deduped.deduped is True
        # first (lexicographically smallest) sequence per point is kept
        assert [e.seq for e in deduped] == [(0, 0), (0, 1), (0, 2)]

    def test_dedupe_keeps_signed_zeros_apart(self):
        # 0.0 and -0.0 compare equal but differ in their bits; dedupe compares bits
        ds = Dataset((np.array([1.0]), np.array([-1.0])))
        zero = CustomMap(lambda t, z: np.asarray(z) * 0.0, Ball(np.zeros(1), 1.0))
        deduped = enumerate_cover(zero, ds, T=2, dedupe=True)
        assert [e.seq for e in deduped] == [(0, 0), (0, 1)]
        assert [np.signbit(e.point[0]) for e in deduped] == [False, True]

    def test_storage_is_one_point_array(self):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=3)
        assert cov.points.shape == (27, 2) and cov.points.dtype == np.float64
        assert cov.index.dtype == np.int64
        np.testing.assert_array_equal(cov.index, np.arange(27))
        deduped = enumerate_cover(FIRST_CHOICE, ds, T=2, dedupe=True)
        assert deduped.index.dtype == np.int64
        np.testing.assert_array_equal(deduped.index, [0, 3, 6])
        assert [e.seq for e in deduped] == [(0, 0), (1, 0), (2, 0)]

    def test_random_access_matches_iteration(self):
        _, ds, update = quadratic_cover_setup()
        two_piece = enumerate_piecewise_cover(
            lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(2)]), ds, eta=0.4, T=2)
        covers = [enumerate_cover(update, ds, T=3), two_piece,
                  enumerate_cover(FIRST_CHOICE, ds, T=3, dedupe=True)]
        for cov in covers:
            listed = list(cov)
            assert len(listed) == len(cov)
            for k, e in enumerate(listed):
                got = cov[k]
                assert (got.seq, got.deps, got.pieces) == (e.seq, e.deps, e.pieces)
                assert got.point.tobytes() == e.point.tobytes() == cov.points[k].tobytes()
            assert cov[-1].seq == listed[-1].seq
            assert [e.seq for e in cov[1:3]] == [e.seq for e in listed[1:3]]
            with pytest.raises(IndexError):
                cov[len(cov)]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(["plain", "deduped", "piecewise"]), st.integers(1, 3),
           st.integers(0, 3), st.data())
    def test_random_access_equals_iteration_property(self, kind, n, T, data):
        """cov[k] for every k (negative too) and cov[a:b:c] for drawn
        slices equal the entries and slices of the iterated list."""
        ds = Dataset(tuple(CENTERS[:n]))
        _, _, update = quadratic_cover_setup()
        if kind == "plain":
            cov = enumerate_cover(update, ds, T=T)
        elif kind == "deduped":
            cov = enumerate_cover(FIRST_CHOICE, ds, T=T, dedupe=True)
        else:
            cov = enumerate_piecewise_cover(
                lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(2)]), ds,
                eta=0.4, T=T)
        listed = list(cov)
        assert len(listed) == len(cov)

        def same(a, b):
            return ((a.seq, a.deps, a.pieces) == (b.seq, b.deps, b.pieces)
                    and a.point.tobytes() == b.point.tobytes())

        for k in range(-len(cov), len(cov)):
            assert same(cov[k], listed[k])
        bound = st.none() | st.integers(-len(cov) - 2, len(cov) + 2)
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.none() | st.integers(-3, 3).filter(bool)))
        got = cov[cut]
        assert isinstance(got, tuple) and len(got) == len(listed[cut])
        assert all(map(same, got, listed[cut]))

    def test_one_sgd_step_call_per_tree_node(self, monkeypatch):
        """Enumeration calls sgd_step once per node of the choice tree,
        (n^(T+1) - n) / (n - 1) calls in all, looked up through the cover
        module at call time.  perfbench's traced cover-enum run counts these
        calls the same way and asserts this number (29523 for n=3, T=9).  A
        piecewise cover walks the same tree in base n*P."""
        calls = []

        def counting(*args):
            calls.append(args[2])
            return sgd_step(*args)

        monkeypatch.setattr(cover_module, "sgd_step", counting)
        _, ds, update = quadratic_cover_setup()
        for T in range(5):
            calls.clear()
            enumerate_cover(update, ds, T=T)
            assert len(calls) == (3 ** (T + 1) - 3) // 2
        two = Dataset((np.array([0.7]), np.array([-0.3])))
        for T in range(4):  # n = P = 2
            calls.clear()
            enumerate_piecewise_cover(
                lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.array([0.1])]), two,
                eta=0.4, T=T)
            assert len(calls) == (4 ** (T + 1) - 4) // 3

    @staticmethod
    def _count_checks(monkeypatch, eta, T=4):
        """Finiteness checks over ``enumerate_cover(T=4)``: calls of
        ``as_point`` and ``all_finite`` (in ``core``, ``losses`` and ``sgd``),
        of the ball's inside test and of ``_checked_update``, with the number
        of tree nodes and of nodes whose update the projection moves."""
        from sgdcover import core, losses, sgd

        _, ds, update = quadratic_cover_setup(eta)
        counts = {"as_point": 0, "all_finite": 0, "_holds": 0, "_checked_update": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (core, losses, sgd):
            for name in ("as_point", "all_finite"):
                monkeypatch.setattr(module, name, counting(name, getattr(core, name)))
        monkeypatch.setattr(sgd, "_checked_update",
                            counting("_checked_update", sgd._checked_update))
        monkeypatch.setattr(Ball, "_holds", counting("_holds", Ball._holds))
        points = enumerate_cover(update, ds, T=T).points
        # every node, level by level, with the update each one takes
        moved, level = 0, np.zeros((1, 2))
        for _ in range(T):
            raw = (level[:, None, :] - eta * (level[:, None, :] - ds.matrix)).reshape(-1, 2)
            out = row_norms(raw) > 1.0
            moved += int(out.sum())
            level = raw.copy()
            level[out] /= row_norms(raw[out])[:, None]
        np.testing.assert_allclose(level, points, rtol=0, atol=1e-12)
        return counts, (3 ** (T + 1) - 3) // 2, moved

    def test_one_finiteness_check_per_tree_node(self, monkeypatch):
        """Each node's update stays inside the ball and is proved finite by
        exactly one inside test (``Ball._holds``), with no ``as_point``,
        ``all_finite`` or ``_checked_update``."""
        counts, nodes, moved = self._count_checks(monkeypatch, eta=0.5)
        assert moved == 0
        assert counts == {"as_point": 0, "all_finite": 0, "_holds": nodes, "_checked_update": 0}

    def test_inside_nodes_take_no_exact_norm(self, monkeypatch):
        """The inside test's dot product decides every node of the T = 4 tree:
        the exact norm, the one ``math.sqrt`` of ``core`` that the tree
        reaches, never runs.  A point on the sphere shows that it is seen."""
        from sgdcover import core

        roots = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sqrt(self, value):
                roots.append(value)
                return math.sqrt(value)

        monkeypatch.setattr(core, "math", CountingMath())
        _, ds, update = quadratic_cover_setup()
        assert len(enumerate_cover(update, ds, T=4)) == 81
        assert roots == []
        assert update.domain._holds(np.array([0.6, 0.8]))
        assert len(roots) == 1

    def test_one_checked_update_per_moved_node(self, monkeypatch):
        """At eta = 1.5 some updates leave the ball; each one the projection
        moves is checked by exactly one ``_checked_update``."""
        counts, nodes, moved = self._count_checks(monkeypatch, eta=1.5)
        assert 0 < moved < nodes
        assert counts["_checked_update"] == moved

    def test_dependency_bit_for_bit(self):
        """Perturbing samples outside an entry's dependency set leaves its
        replayed point unchanged bitwise; perturbing inside moves it."""
        fam, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)
        entry = next(e for e in cov if e.deps == frozenset({0, 1}))
        modified = list(CENTERS)
        modified[2] = np.array([0.3, 0.3])  # outside deps
        ds_mod = Dataset(tuple(modified))
        np.testing.assert_array_equal(
            replay_entry(update, ds_mod, entry), entry.point
        )
        inside = list(CENTERS)
        inside[0] = np.array([0.3, 0.3])
        assert not np.array_equal(
            replay_entry(update, Dataset(tuple(inside)), entry), entry.point
        )

    def test_replay_refuses_piecewise_entry(self):
        """A piecewise entry's point comes from surrogate piece steps; replaying
        its seq through the plain update reaches another point."""
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_piecewise_cover(
            lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(2)]), ds, eta=0.4, T=2)
        entry = cov[5]
        assert (entry.seq, entry.pieces) == ((0, 2), (0, 1))
        with pytest.raises(ValueError, match=r"has pieces \(0, 1\)"):
            replay_entry(update, ds, entry)

    def test_jsonl_serialization(self, tmp_path):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)
        path = tmp_path / "cover.jsonl"
        cov.write_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 9
        first = json.loads(lines[0])
        assert first["seq"] == [0, 0] and sorted(first["deps"]) == [0]
        np.testing.assert_allclose(first["point"], cov[0].point)


def _sha256_of_jsonl(cov, tmp_path):
    path = tmp_path / "cover.jsonl"
    cov.write_jsonl(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCoverFormatGolden:
    """sha256 of write_jsonl output, recorded before covers were stored as
    point arrays; the serialized bytes must not change."""

    def test_plain_cover(self, tmp_path):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=4)
        assert _sha256_of_jsonl(cov, tmp_path) == (
            "76e88ac3c571f7a24ade8996a9aae1bab5d2b99095d8bdfb64282ba28e0920df")

    def test_deduped_cover(self, tmp_path):
        _, ds, _ = quadratic_cover_setup()
        jump = CustomMap(lambda t, z: np.asarray(z, dtype=float), Ball(np.zeros(2), 1.0))
        cov = enumerate_cover(jump, ds, T=2, dedupe=True)
        assert _sha256_of_jsonl(cov, tmp_path) == (
            "bce59790d948f2b71588e7ed77cc1cb39624d6c7f7ccee2587640d6d4481d82c")

    def test_two_piece_cover(self, tmp_path):
        ds = Dataset((np.array([0.7]), np.array([-0.3])))

        def two_piece(z):
            return _per_sample_quadratic_approx(z, anchors=[z, np.array([0.1])])

        cov = enumerate_piecewise_cover(two_piece, ds, eta=0.4, T=3)
        assert _sha256_of_jsonl(cov, tmp_path) == (
            "23272ecf0762598a4bc5bc4191296d1c4756632b3642fe4e26aaa6b23f8891dd")


def _one_dim_cover(n):
    """A T = 1 cover over n one-dim samples: every row has its own choice."""
    return CoverSet(horizon=1, points=np.linspace(-1.0, 1.0, n)[:, None],
                    index=np.arange(n, dtype=np.int64), n_samples=n)


@functools.cache
def _writer_covers():
    """Covers of every shape the JSONL writer handles, by name; the writer
    looks up a line's choice text by its first ceil(T/2) and last floor(T/2)
    choices, so odd and even T, P = 3 and T = 1 each split differently."""
    _, ds, update = quadratic_cover_setup()
    covers = {f"plain-T{T}": enumerate_cover(update, ds, T=T) for T in range(7)}
    signed = Dataset((np.array([1.0]), np.array([-1.0])))
    zero = CustomMap(lambda t, z: np.asarray(z) * 0.0, Ball(np.zeros(1), 1.0))
    covers["deduped-signed-zero"] = enumerate_cover(zero, signed, T=2, dedupe=True)
    covers["deduped-T0"] = enumerate_cover(update, ds, T=0, dedupe=True)
    covers["deduped-first-choice"] = enumerate_cover(FIRST_CHOICE, ds, T=3, dedupe=True)
    covers["piecewise-P2"] = enumerate_piecewise_cover(
        lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(2)]), ds, eta=0.4, T=3)
    covers["piecewise-P3-T4"] = enumerate_piecewise_cover(
        lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(2), [0.1, -0.2]]),
        Dataset(tuple(CENTERS[:2])), eta=0.4, T=4)
    covers["one-dim-T1"] = _one_dim_cover(700)
    # float extremes, whose repr is what json.dumps writes
    points = np.array([-0.0, 5e-324, 1e-300, 1e308, -1e308, -5e-324, 0.1] * 2).reshape(7, 2)
    covers["extremes"] = CoverSet(horizon=1, points=points,
                                  index=np.arange(7, dtype=np.int64), n_samples=7)
    return covers


@functools.cache
def _edge_cover(kind, T, d):
    """A plain or deduped cover over three samples in R^d, or a two-piece
    cover over two.  The deduped one has samples 0 and 1 equal, so it keeps
    the 2^T sequences without a 1, and its index is not ``arange``."""
    samples = tuple(np.linspace(-0.7, 0.8, 3 * d).reshape(3, d) / math.sqrt(d))
    if kind == "piecewise":
        return enumerate_piecewise_cover(
            lambda z: _per_sample_quadratic_approx(z, anchors=[z, np.zeros(d)]),
            Dataset(samples[:2]), eta=0.4, T=T)
    if kind == "deduped":
        samples = (samples[0], samples[0], samples[2])
    fam = quadratic_centers(list(samples), R=1.0)
    return enumerate_cover(SGDStep(fam, 0.5, domain=fam.domain), Dataset(samples), T=T,
                           dedupe=kind == "deduped")


class TestJsonlWriter:
    """The template writer must write byte for byte what ``CoverEntry.to_json``
    gives per entry, at every chunk size."""

    @pytest.mark.parametrize("chunk", [None, 3, 8])
    @pytest.mark.parametrize("name", [
        *(f"plain-T{T}" for T in range(7)), "deduped-signed-zero", "deduped-T0",
        "deduped-first-choice", "piecewise-P2", "piecewise-P3-T4", "one-dim-T1", "extremes"])
    def test_matches_to_json_per_entry(self, tmp_path, monkeypatch, name, chunk):
        if chunk is not None:  # chunks of 1 and 4 rows put boundaries inside every cover
            monkeypatch.setattr(cover_module, "_WRITE_CHUNK", chunk)
        cov = _writer_covers()[name]
        reference = [e.to_json() for e in cov]
        path = tmp_path / "cover.jsonl"
        cov.write_jsonl(path)
        assert path.read_text() == "".join(line + "\n" for line in reference)
        assert list(cov.jsonl_lines()) == reference

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("T", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["plain", "deduped", "piecewise"])
    def test_lines_match_to_json_across_chunk_edges(self, monkeypatch, kind, T, d):
        """Chunks of 4 rows, of half the cover and of all of it, each one row
        shorter and longer too: every line is its entry's ``to_json``."""
        cov = _edge_cover(kind, T, d)
        reference = [e.to_json() for e in cov]
        assert kind != "deduped" or T < 2 or not np.array_equal(cov.index, np.arange(len(cov)))
        for edge in sorted({max(1, rows + e) for rows in (4, len(cov) // 2, len(cov))
                            for e in (-1, 0, 1)}):
            monkeypatch.setattr(cover_module, "_WRITE_CHUNK", edge * d)
            assert list(cov.jsonl_lines()) == reference, edge

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_cover_refuses_non_finite_points(self, bad):
        """A cover is built finite, so the writer never spells a non-finite
        value (JSON would need Infinity or NaN)."""
        points = np.array([[0.5, -0.0], [bad, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            CoverSet(horizon=1, points=points, index=np.arange(2, dtype=np.int64), n_samples=2)

    def test_cover_refuses_points_other_than_float64(self):
        """Bits of float32 points never match a float64 run's own entry, so
        ``verify_cover`` would fail every run; the cover refuses them."""
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)
        with pytest.raises(ValueError, match="^cover points must be float64, got float32$"):
            CoverSet(horizon=2, points=cov.points.astype(np.float32), index=cov.index,
                     n_samples=3)

    @staticmethod
    def _write_peak(cov, path):
        """Bytes written and the peak traced memory of writing them."""
        tracemalloc.start()
        try:
            cov.write_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return path.stat().st_size, peak

    def test_t9_write_memory_is_bounded(self, tmp_path):
        """Writing converts a fixed number of rows at a time, so the 19,683
        entries of T = 9 (about 2 MB of text) never sit in memory at once."""
        _, ds, update = quadratic_cover_setup()
        size, peak = self._write_peak(enumerate_cover(update, ds, T=9), tmp_path / "c.jsonl")
        assert size > 1_900_000
        assert peak < 1_000_000

    def test_t1_write_memory_is_bounded(self, tmp_path):
        """At T = 1 every row has its own choice text and sample set, so no
        table or cache may span the cover: 25,000 rows peak under 1 MB (a
        cache of every row's samples across chunks peaks near 6.5 MB)."""
        size, peak = self._write_peak(_one_dim_cover(25_000), tmp_path / "c.jsonl")
        assert size > 1_500_000
        assert peak < 1_000_000


class TestVerifyCover:
    def test_anchor_trajectory_is_a_cover_point(self):
        """A T-step run from the anchor replays an enumerated composition."""
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=3)
        rng = np.random.default_rng(31)
        for _ in range(20):
            idx = tuple(int(i) for i in rng.integers(0, 3, 3))
            theta = np.zeros(2)
            for i in idx:
                theta = update.apply(theta, ds.samples[i])
            match = next(e for e in cov if e.seq == idx)
            np.testing.assert_array_equal(theta, match.point)

    def test_map_without_domain_is_refused(self):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=1)
        with pytest.raises(ValueError, match="needs a bounded domain"):
            verify_cover(cov, CustomMap(lambda t, z: 0.5 * t), ds, trials=1,
                         max_extra_steps=0, epsilon=0.1)

    def test_soundness_and_negative_control(self):
        _, ds, update = quadratic_cover_setup()
        eps = 1.0 / 6.0  # 1/(2 L n) with L = 1, n = 3
        T = cover_horizon(1.0, eps, 0.5)
        cov = enumerate_cover(update, ds, T=T)
        ok = verify_cover(cov, update, ds, trials=1000, max_extra_steps=50,
                          epsilon=eps, seed=2)
        assert ok.passed and ok.failures == 0
        assert ok.max_min_distance <= 0.5**T * 1.0 + 1e-12
        bad = verify_cover(cov, update, ds, trials=1000, max_extra_steps=50,
                           epsilon=eps / 100.0, seed=2)
        assert not bad.passed and bad.failures > 0

    def test_frozen_verification(self):
        """Frozen worst own-entry distance and failure counts of a small run."""
        _, ds, update = quadratic_cover_setup()
        eps = 1.0 / 6.0
        cov = enumerate_cover(update, ds, T=cover_horizon(1.0, eps, 0.5))
        ok = verify_cover(cov, update, ds, trials=300, max_extra_steps=20, epsilon=eps, seed=3)
        assert (ok.max_min_distance, ok.failures) == (0.10334111001107128, 0)
        bad = verify_cover(cov, update, ds, trials=300, max_extra_steps=20,
                           epsilon=eps / 100.0, seed=3)
        assert (bad.max_min_distance, bad.failures) == (0.10334111001107128, 300)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    def test_vacuous_epsilon_rejected_before_any_trial(self, monkeypatch, epsilon):
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(cover_module, "draw_runs", no_trials)
        with pytest.raises(ValueError, match="finite and positive"):
            verify_cover(cov, update, ds, trials=10, max_extra_steps=5, epsilon=epsilon)

    def test_lockstep_matches_sequential_reference(self, monkeypatch, reference_runs):
        """A user-built family (per-row fallback) verified in lockstep gives,
        run by run and bitwise, the own distances of trials run one at a
        time through sgd_step, and every own entry is a stored cover point."""
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        aniso = LossFamily(
            name="aniso", constants=LossConstants(alpha=1.0, beta=2.0, L=1.0, R=1.0),
            value=lambda t, z: 0.5 * float((t - z) @ A @ (t - z)),
            grad=lambda t, z: A @ (t - z), domain=Ball(np.zeros(2), 1.0),
        )
        ds = Dataset(tuple(CENTERS))
        update = SGDStep(aniso, 0.5)
        cov = enumerate_cover(update, ds, T=4)
        ends, owns = _sequential_runs(reference_runs, update, ds, T=4, max_extra_steps=10, seed=9,
                                      trials=60)
        assert _stored_rows(cov.points, owns).all()
        expected = row_norms(ends - owns)
        dists = _spy_distances(monkeypatch)
        out = verify_cover(cov, update, ds, trials=60, max_extra_steps=10, epsilon=0.05, seed=9)
        np.testing.assert_array_equal(dists[0], expected)
        assert (out.max_min_distance, out.failures) == (expected.max(),
                                                        int(np.sum(expected > 0.05)))

    def test_verification_far_from_origin(self, monkeypatch, reference_runs):
        """Verification in a Box near [1e3, 1e3 + 1]^2 gives, bitwise, the own
        distances of a sequential sgd_step reference, none below the nearest
        stored point's distance."""
        centers = [np.array([1e3 + 0.8, 1e3 + 0.1]), np.array([1e3 + 0.2, 1e3 + 0.6]),
                   np.array([1e3 + 0.5, 1e3 + 0.9])]
        update = SGDStep(quadratic_centers(centers, R=2e3), 0.5,
                         domain=Box(np.full(2, 1e3), np.full(2, 1e3 + 1)))
        ds = Dataset(tuple(centers))
        cov = enumerate_cover(update, ds, T=4)
        ends, owns = _sequential_runs(reference_runs, update, ds, T=4, max_extra_steps=10, seed=4,
                                      trials=500)
        assert _stored_rows(cov.points, owns).all()
        expected = row_norms(ends - owns)
        # in d = 2 row_norms sums in order, as the reference search does
        assert np.all(expected >= _sequential_nearest(cov.points, ends))
        dists = _spy_distances(monkeypatch)
        out = verify_cover(cov, update, ds, trials=500, max_extra_steps=10, epsilon=0.05, seed=4)
        np.testing.assert_array_equal(dists[0], expected)
        assert (out.max_min_distance, out.failures) == (expected.max(),
                                                        int(np.sum(expected > 0.05)))

    def test_trial_replays_from_its_block_stream_alone(self):
        """Trial k's start, step count and indices are row k % 256 of three
        array calls on ``substream(seed, k // 256)``, and its endpoint and own
        entry are, bitwise, the sgd_step loops over them."""
        _, ds, update = quadratic_cover_setup()
        endpoints, last, own = cover_module._own_entry_runs(update, ds, 4, 600, 6, seed=13)
        for k in (0, 255, 256, 511, 599):
            rng = substream(13, k // 256)
            start = update.domain.sample_batch(rng, 256)[k % 256]
            t = int(rng.integers(4, 11, size=256)[k % 256])
            idx = rng.integers(0, ds.n, size=(256, 10))[k % 256, :t]
            theta, entry = start, np.zeros(2)
            for i in idx.tolist():
                theta = sgd_step(update, theta, i, ds)
            for i in idx[t - 4:].tolist():
                entry = sgd_step(update, entry, i, ds)
            assert endpoints[k].tobytes() == theta.tobytes()
            assert last[k].tolist() == idx[t - 4:].tolist()
            assert own[k].tobytes() == entry.tobytes()

    def test_fewer_trials_are_a_prefix_of_more(self):
        """The runs of 200 trials are bitwise the first 200 of 2,000: a
        partial block is drawn whole."""
        _, ds, update = quadratic_cover_setup()
        short = cover_module._own_entry_runs(update, ds, 4, 200, 6, seed=5)
        full = cover_module._own_entry_runs(update, ds, 4, 2000, 6, seed=5)
        for a, b in zip(short, full):
            assert len(a) == 200 and a.tobytes() == b[:200].tobytes()

    @pytest.mark.parametrize("d", [2, 64, 1024])
    def test_own_distance_across_dimensions(self, monkeypatch, d):
        """Paper claim: after t >= T steps a run lies within gamma^T R of its
        own entry, whatever d.  For 3 centers, gamma = 0.5 and T = 4, on every
        one of 2,000 runs the own distance is at least the nearest stored
        point's distance (both by row_norms, so the comparison is exact) and
        at most gamma^T R (1 + 1e-9), the rounding allowance perfbench's
        cover-verify check also grants."""
        centers = list(np.random.default_rng(d).uniform(-1, 1, (3, d)) / math.sqrt(d))
        fam = quadratic_centers(centers, R=1.0)
        update, ds = SGDStep(fam, 0.5, domain=fam.domain), Dataset(tuple(centers))
        cov = enumerate_cover(update, ds, T=4)
        bound = 0.5**4 * 1.0 * (1 + 1e-9)
        runs = []
        monkeypatch.setattr(cover_module, "run_lockstep",
                            lambda *args: runs.append(run_lockstep(*args)) or runs[-1])
        out = verify_cover(cov, update, ds, trials=2000, max_extra_steps=6, epsilon=bound,
                           seed=d)
        endpoints, own = runs
        dists = row_norms(endpoints - own)
        nearest = np.min([row_norms(endpoints - p) for p in cov.points], axis=0)
        assert np.all(dists >= nearest) and np.all(dists <= bound)
        assert (out.failures, out.max_min_distance) == (0, dists.max())

    def test_moved_stored_point_fails_by_lookup(self):
        """One stored point moved by one ulp fails the runs whose own entry it
        was, though no distance changes: the recomputed entry is not stored."""
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=3)
        points = cov.points.copy()
        points[13, 0] = np.nextafter(points[13, 0], np.inf)
        moved = CoverSet(horizon=3, points=points, index=cov.index, n_samples=3)
        ok, bad = (verify_cover(c, update, ds, trials=2000, max_extra_steps=5,
                                epsilon=1.0 / 6.0, seed=5) for c in (cov, moved))
        assert ok.passed and not bad.passed and bad.failures > 0
        assert bad.max_min_distance == ok.max_min_distance

    def test_deduped_cover_passes(self):
        """At eta = 1 every composition ends near its last sample's center, so
        dedupe keeps 10 of the 81 entries; each run's own entry is still
        stored bitwise, and the endpoints lie within rounding of it."""
        _, ds, update = quadratic_cover_setup(eta=1.0)
        cov = enumerate_cover(update, ds, T=4, dedupe=True)
        out = verify_cover(cov, update, ds, trials=2000, max_extra_steps=5, epsilon=1e-9,
                           seed=1)
        assert len(cov) == 10 and out.passed and out.failures == 0

    @pytest.mark.parametrize("kind", ["piecewise", "other-dataset", "other-dimension"])
    def test_unverifiable_cover_refused_before_any_trial(self, monkeypatch, kind):
        """A piecewise cover's digits pick surrogate pieces the update cannot
        replay, and a cover of another sample count or dimension than the
        runs holds other entries: each is refused before a trial is drawn."""
        _, ds, update = quadratic_cover_setup()
        cov = enumerate_cover(update, ds, T=2)
        match = r"the cover has 3 samples in R\^2, the runs 2 in R\^2"
        if kind == "piecewise":
            cov = CoverSet(horizon=1, points=np.zeros((6, 2)), index=np.arange(6),
                           n_samples=3, pieces_per_sample=2)
            match = "surrogate steps the update cannot replay"
        elif kind == "other-dataset":
            ds = Dataset(tuple(CENTERS[:2]))
        else:
            cov = CoverSet(horizon=2, points=np.zeros((9, 3)), index=np.arange(9), n_samples=3)
            match = r"the cover has 3 samples in R\^3, the runs 3 in R\^2"

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(cover_module, "draw_runs", no_trials)
        with pytest.raises(ValueError, match=match):
            verify_cover(cov, update, ds, trials=10, max_extra_steps=5, epsilon=0.5)

    def test_soundness_across_contractive_families(self):
        """Covers built at eps = 1/(2 L n) stay sound for every strongly
        convex and smooth family in the matrix, not just unit quadratics."""
        from sgdcover.families import multi_index, squared_error_link
        from sgdcover.losses import LossConstants, LossFamily
        from sgdcover.sgd import contraction_factor

        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        aniso = LossFamily(
            name="aniso", constants=LossConstants(alpha=1.0, beta=2.0, L=1.0, R=1.0),
            value=lambda t, z: 0.5 * float((t - z) @ A @ (t - z)),
            grad=lambda t, z: A @ (t - z),
            domain=Ball(np.zeros(2), 1.0),
        )

        # regularized single-index least squares: Hessian x x^T + lam I has
        # eigenvalues in [lam, R_x^2 + lam]
        lam, R_x = 0.5, 1.0
        lsq = multi_index(squared_error_link(), lam=lam, R=1.0, R_x=R_x, K=1, d=2)
        lsq = LossFamily(
            name=lsq.name,
            constants=LossConstants(alpha=lam, beta=R_x**2 + lam, L=1.0, R=1.0,
                                    lam=lam, R_x=R_x, K=1, Q=1),
            value=lsq.value, grad=lsq.grad,
            domain=Ball(np.zeros(2), 1.0),
        )
        lsq_data = Dataset(((0.4, np.array([0.8, 0.2])),
                            (-0.3, np.array([-0.5, 0.6])),
                            (0.1, np.array([0.1, -0.9]))))

        fam_q = quadratic_centers(CENTERS, R=1.0)
        matrix = [
            (fam_q, Dataset(tuple(CENTERS)), 0.5),
            (aniso, Dataset(tuple(CENTERS)), 0.5),
            (lsq, lsq_data, 0.6),
        ]
        for fam, ds, eta in matrix:
            c = fam.constants
            gamma = contraction_factor(c.alpha, c.beta, eta)
            n = ds.n
            eps = 1.0 / (2.0 * c.L * n)
            T = cover_horizon(fam.domain.bounding_radius(), eps, gamma)
            update = SGDStep(fam, eta, domain=fam.domain)
            cov = enumerate_cover(update, ds, T=T, cap=10**6)
            out = verify_cover(cov, update, ds, trials=500, max_extra_steps=30,
                               epsilon=eps, seed=7)
            assert out.passed, (fam.name, out.max_min_distance, eps)


def _sequential_nearest(points, queries):
    """Reference: every squared distance summed over coordinates in order."""
    d2 = np.zeros((len(queries), len(points)))
    for k in range(points.shape[1]):
        diff = queries[:, k, None] - points[None, :, k]
        d2 += diff * diff
    return np.sqrt(d2.min(axis=1))


def _sequential_runs(draws, update, ds, T, max_extra_steps, seed, trials):
    """Endpoints and own entries of ``verify_cover``'s trials, one sgd_step
    at a time: trial k is row k % 256 of the runs ``draws`` takes from
    ``substream(seed, k // 256)``, 256 to a stream, and its own entry is the
    sgd_step loop from the origin over its last T indices."""
    starts, steps, indices, _ = draws(seed, -(-trials // 256), 256, update.domain, T,
                                      T + max_extra_steps, ds.n)
    ends, owns = [], []
    for theta, t, row in zip(starts[:trials], steps, indices):
        own = np.zeros(update.domain.dim)
        for j, i in enumerate(row[:t].tolist()):
            theta = sgd_step(update, theta, i, ds)
            if j >= t - T:
                own = sgd_step(update, own, i, ds)
        ends.append(theta)
        owns.append(own)
    return np.array(ends), np.array(owns)


def _stored_rows(points, rows):
    """Whether each row is, bit for bit, one of the points."""
    stored = {p.tobytes() for p in points}
    return np.array([r.tobytes() in stored for r in rows])


def _spy_distances(monkeypatch):
    """The per-run distance arrays ``verify_cover`` computes, as it computes them."""
    seen = []
    monkeypatch.setattr(cover_module, "row_norms", lambda x: seen.append(row_norms(x)) or seen[-1])
    return seen


def _per_sample_quadratic_approx(z, beta=1.0, anchors=None):
    fn = smooth_function(
        lambda t, z=z: 0.5 * float(np.sum((t - z) ** 2)),
        lambda t, z=z: t - np.asarray(z, dtype=float),
        beta_prime=0.0,
    )
    dom = Ball(np.zeros(np.atleast_1d(z).shape[0]), 1.0)
    return build_piecewise_approx(fn, dom, xi=0.0, strong_convexity_smoothness=(beta, beta),
                                  anchors=anchors if anchors is not None else [z])


class TestPiecewiseCover:
    def test_single_piece_reduces_to_plain(self):
        centers = [np.array([0.5]), np.array([-0.5])]
        ds = Dataset(tuple(centers))
        pc = enumerate_piecewise_cover(_per_sample_quadratic_approx, ds, eta=0.5, T=2)
        raw = CustomMap(lambda t, z: t - 0.5 * (t - np.asarray(z)), Ball(np.zeros(1), 1.0))
        plain = enumerate_cover(raw, ds, T=2)
        assert len(pc) == len(plain) == 4
        for a, b in zip(pc, plain):
            assert a.seq == b.seq and a.pieces == (0, 0)
            np.testing.assert_array_equal(a.point, b.point)

    def test_choice_counting(self):
        centers = [np.array([0.5]), np.array([-0.5])]
        ds = Dataset(tuple(centers))

        def two_piece(z):
            return _per_sample_quadratic_approx(z, anchors=[z, np.array([0.0])])

        pc = enumerate_piecewise_cover(two_piece, ds, eta=0.5, T=2)
        assert len(pc) == 16  # (n * P)^T with n = P = T = 2
        assert pc.pieces_per_sample == 2

    def test_affine_composition_oracle(self):
        """Quadratic pieces make every update affine; the enumerated points
        must match the closed-form affine recursion."""
        centers = [np.array([0.7]), np.array([-0.3])]
        ds = Dataset(tuple(centers))
        eta, beta = 0.4, 1.0

        def two_piece(z):
            return _per_sample_quadratic_approx(z, beta=beta, anchors=[z, np.array([0.1])])

        pc = enumerate_piecewise_cover(two_piece, ds, eta=eta, T=3)
        approxes = [two_piece(z) for z in ds.samples]
        for entry in pc:
            x = 0.0
            for i, p in zip(entry.seq, entry.pieces):
                ap = approxes[i]
                g0 = float(ap.anchor_grads[0, p][0])
                phi = float(ap.anchors[p][0])
                # theta <- theta - eta * (g0 + beta * (theta - phi))
                x = (1.0 - eta * beta) * x - eta * (g0 - beta * phi)
            np.testing.assert_allclose(entry.point, [x], rtol=1e-12, atol=1e-15)

    def test_mismatched_piece_counts_rejected(self):
        centers = [np.array([0.5]), np.array([-0.5])]
        ds = Dataset(tuple(centers))

        def ragged(z):
            anchors = [z] if float(z[0]) > 0 else [z, np.array([0.0])]
            return _per_sample_quadratic_approx(z, anchors=anchors)

        with pytest.raises(ValueError):
            enumerate_piecewise_cover(ragged, ds, eta=0.5, T=1)

    def test_overflowed_endpoints_rejected(self):
        """An expansive surrogate step overflows at the last level, which no
        later step would check; enumeration refuses it instead of storing
        infinities."""
        ds = Dataset((np.array([0.7]), np.array([-0.3])))

        def two_piece(z):
            return _per_sample_quadratic_approx(z, anchors=[z, np.array([0.1])])

        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            enumerate_piecewise_cover(two_piece, ds, eta=1e308, T=2)

    @pytest.mark.parametrize("eta,T", [(1e308, 3), (1e200, 4)])
    def test_overflow_at_an_inner_level_rejected(self, eta, T):
        """Every node's update is checked, so a level that overflows before
        the last raises FloatingPointError there, not ValueError from the next
        level's piece gradient reading an infinite point."""
        ds = Dataset((np.array([0.7]), np.array([-0.3])))

        def two_piece(z):
            return _per_sample_quadratic_approx(z, anchors=[z, np.array([0.1])])

        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            enumerate_piecewise_cover(two_piece, ds, eta=eta, T=T)


class TestPiecewiseApprox:
    def test_exact_quadratic_single_anchor(self):
        """A curvature-matched quadratic with one anchor at its center is
        represented exactly, for any xi >= 0."""
        beta = 1.5
        center = np.array([0.2, -0.1])
        fn = smooth_function(
            lambda t: 0.5 * beta * float(np.sum((t - center) ** 2)),
            lambda t: beta * (t - center),
            beta_prime=beta,
        )
        dom = Ball(np.zeros(2), 1.0)
        ap = build_piecewise_approx(fn, dom, xi=0.0,
                                    strong_convexity_smoothness=(beta, beta),
                                    anchors=[center])
        rng = np.random.default_rng(41)
        for _ in range(50):
            t = dom.sample(rng)
            np.testing.assert_allclose(ap.grad(t), fn.grad(t), atol=1e-15)

    @pytest.mark.parametrize("block", [None, 1, 100])
    def test_grad_rows_is_per_row_grad(self, monkeypatch, block):
        """Two source pieces split at x = 0.1, a lattice of anchors, and rows
        on anchors, on ties between anchors and at random, in blocks that cut
        the rows anywhere: every row's gradient is bitwise ``grad``'s."""
        if block is not None:
            monkeypatch.setattr(surrogate_module, "_BLOCK", block)
        fn = PiecewiseSmoothFunction(
            (SmoothPiece(lambda t: math.sin(t[0]), lambda t: np.array([math.cos(t[0]), 0.0])),
             SmoothPiece(lambda t: t[0] * t[1], lambda t: np.array([t[1], t[0]]))),
            lambda t: int(t[0] > 0.1), beta_prime=1.0)
        ap = build_piecewise_approx(fn, Ball(np.zeros(2), 1.0), xi=0.5,
                                    strong_convexity_smoothness=(1.0, 1.0))
        assert ap.anchor_count > 1
        a = ap.anchors
        rows = np.vstack([a, 0.5 * (a[:-1] + a[1:]),
                          np.random.default_rng(43).uniform(-1.0, 1.0, (200, 2))])
        assert len({ap.source.piece_of(r) for r in rows}) == 2
        assert [fn.value(r) for r in rows] == [math.sin(r[0]) if r[0] <= 0.1 else r[0] * r[1]
                                               for r in rows]
        expected = np.array([ap.grad(r) for r in rows])
        assert ap.grad_rows(rows).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
    def test_anchor_index_is_the_per_point_argmin(self, d):
        """The nearest anchor of one point, found through the blocked rows
        search, is the argmin of that point's own (m, d) squared distances,
        on anchors, on midpoints between them (ties) and at random."""
        rng = np.random.default_rng(d)
        anchors = rng.uniform(-0.5, 0.5, (40, d)) / math.sqrt(d)
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(d), beta_prime=1.0)
        ap = build_piecewise_approx(fn, Ball(np.zeros(d), 1.0), 0.5, (1.0, 1.0),
                                    anchors=anchors)
        points = np.vstack([anchors, 0.5 * (anchors[:-1] + anchors[1:]),
                            rng.uniform(-0.6, 0.6, (100, d)) / math.sqrt(d)])
        for t in points:
            assert ap.anchor_index(t) == int(np.argmin(np.sum((anchors - t) ** 2, axis=1)))

    def test_one_dimensional_piece_bound(self):
        # beta = beta' = 1, R = 1, xi = 6 -> bound (3*2*1/6)^1 = 1
        fn = smooth_function(lambda t: math.cos(t[0]), lambda t: np.array([-math.sin(t[0])]),
                             beta_prime=1.0)
        dom = Ball(np.zeros(1), 1.0)
        ap = build_piecewise_approx(fn, dom, xi=6.0, strong_convexity_smoothness=(1.0, 1.0))
        assert ap.piece_count == 1
        assert ap.closed_form_piece_bound() == pytest.approx(1.0)

    def test_sin_cos_grid_error(self):
        fn = smooth_function(
            lambda t: math.sin(t[0]) + math.cos(t[1]),
            lambda t: np.array([math.cos(t[0]), -math.sin(t[1])]),
            beta_prime=1.0,
        )
        dom = Ball(np.zeros(2), 1.0)
        ap = build_piecewise_approx(fn, dom, xi=0.5, strong_convexity_smoothness=(1.0, 1.0))
        axis = np.linspace(-1.0, 1.0, 60)
        worst = 0.0
        for x in axis:
            for y in axis:
                p = np.array([x, y])
                if np.linalg.norm(p) > 1.0:
                    continue
                worst = max(worst, float(np.linalg.norm(fn.grad(p) - ap.grad(p))))
        assert worst <= 0.5
        assert ap.piece_count <= ap.closed_form_piece_bound()

    def test_anchor_cover_property(self):
        """Every domain point is within the lattice spacing epsilon of an anchor."""
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(2), beta_prime=1.0)
        dom = Ball(np.zeros(2), 1.0)
        ap = build_piecewise_approx(fn, dom, xi=0.3, strong_convexity_smoothness=(1.0, 1.0))
        rng = np.random.default_rng(42)
        for _ in range(2000):
            p = dom.sample(rng)
            d = np.sqrt(np.sum((ap.anchors - p) ** 2, axis=1).min())
            assert d <= ap.spacing_epsilon * (1 + 1e-12)

    @pytest.mark.parametrize("domain", [
        Ball(np.array([0.1, -0.2]), 1.0), Box([-1.0, 0.0], [0.5, 1.5]), ProductOfBalls(2, 1, 0.8),
    ], ids=["ball", "box", "product-of-balls"])
    @pytest.mark.parametrize("epsilon", [0.3, 0.07])
    def test_anchor_lattice_matches_per_node_projection(self, domain, epsilon):
        """The batched lattice equals, bitwise, projecting each node alone and
        measuring its shift with np.linalg.norm."""
        lo, hi = surrogate_module._bounding_box(domain)
        spacing = 2.0 * epsilon / math.sqrt(2)
        axes = []
        for j in range(2):
            k = max(1, ceil_int((hi[j] - lo[j]) / spacing))
            axes.append(0.5 * (lo[j] + hi[j]) + (np.arange(k) - (k - 1) / 2.0) * spacing)
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        proj = np.array([domain.project(p) for p in grid])
        kept = proj[[np.linalg.norm(q - p) <= epsilon * (1 + 1e-12) for q, p in zip(proj, grid)]]
        expected = kept[cover_module._first_of_each_point(kept)]
        anchors = surrogate_module._anchor_lattice(domain, epsilon, cap=10**6)
        assert anchors.shape == expected.shape and anchors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("xi", [math.inf, math.nan, -0.5])
    def test_xi_must_be_finite_and_nonnegative(self, xi):
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(2), beta_prime=1.0)
        with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
            build_piecewise_approx(fn, Ball(np.zeros(2), 1.0), xi, (1.0, 1.0))

    def test_xi_zero_needs_anchors(self):
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(1), beta_prime=1.0)
        with pytest.raises(ValueError):
            build_piecewise_approx(fn, Ball(np.zeros(1), 1.0), 0.0, (1.0, 1.0))

    def test_lattice_cap(self):
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(2), beta_prime=1.0)
        with pytest.raises(EnumerationCapExceeded):
            build_piecewise_approx(fn, Ball(np.zeros(2), 1.0), 1e-4, (1.0, 1.0), cap=100)

    def test_invalid_curvature_pair(self):
        fn = smooth_function(lambda t: 0.0, lambda t: np.zeros(1), beta_prime=1.0)
        with pytest.raises(ValueError):
            build_piecewise_approx(fn, Ball(np.zeros(1), 1.0), 0.5, (2.0, 1.0))


def test_fractal_module_boundary():
    """fractal.py imports the standard library, numpy and, of the package,
    only ``core``; the names perfbench's tracer rebinds through ``cover`` and
    ``cli`` are fractal's own objects."""
    tree = ast.parse(open(fractal.__file__).read())
    package, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            outside.update(name.split(".")[0] for name in names)
    assert package == {"core"}
    assert outside - set(sys.stdlib_module_names) == {"numpy"}
    from sgdcover import cli
    assert cover_module.IFSModel is fractal.IFSModel
    assert cli.box_counting_dimension is fractal.box_counting_dimension


def test_traced_names_stay_where_the_tracer_rebinds_them(monkeypatch):
    """perfbench's tracer (``perfbench/tracer.py``) wraps each of these by
    rebinding the attribute it names, so each must still be, there, the
    object that the traced commands call."""
    from sgdcover import bounds, cli, core, experiments, losses, sgd

    assert cover_module.sgd_step is sgd.sgd_step
    assert cover_module.IFSModel is fractal.IFSModel
    assert experiments.bound_strongly_convex is bounds.bound_strongly_convex
    assert cli.enumerate_cover is cover_module.enumerate_cover
    assert cli.verify_cover is cover_module.verify_cover
    assert cli.validate_bound is experiments.validate_bound
    assert cli.box_counting_dimension is fractal.box_counting_dimension
    assert cli.family_from_descriptor is losses.family_from_descriptor
    assert "write_jsonl" in vars(cover_module.CoverSet)

    # a function rebound onto Ball.project is what a ball's projection and
    # the slow path of SGDStep.apply (an update that leaves the ball) call
    projected = []

    def traced(domain, x):
        projected.append(domain)
        return core.ConvexDomain.project(domain, x)

    monkeypatch.setattr(core.Ball, "project", traced)
    ball = Ball(np.zeros(1), 1.0)
    np.testing.assert_array_equal(ball.project([3.0]), [1.0])
    family = LossFamily(name="const", constants=LossConstants(),
                        value=lambda t, z: 0.0, grad=lambda t, z: np.array([-4.0]))
    step = SGDStep(family, 1.0, domain=ball)
    np.testing.assert_array_equal(sgd_step(step, np.zeros(1), 0, Dataset((0.0,))), [1.0])
    assert projected == [ball, ball]


class TestIFS:
    def test_single_map_dimension_zero(self):
        model = IFSModel(np.array([[0.5]]), gamma=0.5, radius=1.0)
        out = ifs_dimension(model)
        assert out.dimension == 0.0 and out.certified

    def test_cantor_dimension(self):
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=1.0 / 3.0, radius=1.0)
        out = ifs_dimension(model)
        assert out.dimension == pytest.approx(0.6309297535714574, rel=1e-12)
        assert out.certified

    def test_half_ratio_line_dimension_one(self):
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=0.5, radius=1.0)
        assert ifs_dimension(model).dimension == pytest.approx(1.0, rel=1e-12)

    def test_separation_warning(self):
        close = IFSModel(np.array([[0.3], [-0.3]]), gamma=0.5, radius=1.0)
        out = ifs_dimension(close)
        assert not out.certified and "criterion" in out.warning

    def test_criterion_met_but_images_overlap(self):
        # pairwise distance 1.22 >= 2*gamma*R = 1.2, yet the shrunken images
        # centered at (1-gamma)*c overlap: the flag must catch it
        model = IFSModel(np.array([[0.61], [-0.61]]), gamma=0.6, radius=1.0)
        assert model.center_criterion_ok()
        assert not model.images_disjoint()
        assert not ifs_dimension(model).certified

    def test_attractor_orbit_stays_in_ball(self):
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=1.0 / 3.0, radius=1.0)
        pts = model.sample_attractor(5000, seed=5)
        assert np.all(np.abs(pts) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("centers", [
        [[1.0], [-1.0]],
        [[0.8, 0.0], [-0.4, 0.6], [-0.2, -0.7]],
        [[0.5, -0.3, 0.1], [-0.0, 0.6, -0.4]],
        [[0.5, -0.3, 0.1], [-0.2, 0.6, -0.4], [0.1, 0.0, 0.9]],
    ], ids=["d1-2maps", "d2-3maps", "d3-2maps", "d3-3maps"])
    @pytest.mark.parametrize("gamma", [0.2, 0.3333333333, 0.5, 0.71])
    def test_orbit_bitwise_equals_apply_loop(self, centers, gamma):
        model = IFSModel(np.array(centers), gamma=gamma, radius=1.0)
        for seed, burn_in in itertools.product((0, 1, 4, 7), (0, 64)):
            _assert_orbit_is_apply_loop(model, 400, seed, burn_in)

    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(st.data())
    def test_orbit_property_bitwise_equals_apply_loop(self, data):
        """Both paths, lengths on either side of the path selection and of a
        chunk boundary, signed zeros and subnormal centers."""
        d = data.draw(st.integers(1, 3), label="d")
        entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]),
                          st.floats(-1.0, 1.0))
        centers = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                     min_size=1, max_size=4), label="centers")
        gamma = data.draw(st.one_of(st.sampled_from([1.0 / 3.0, 0.5, 0.8]),
                                    st.floats(0.01, 0.8)), label="gamma")
        model = IFSModel(np.array(centers), gamma=gamma, radius=2.0)
        chunk = max(fractal._ORBIT_CHUNK,
                    math.ceil(fractal._ORBIT_BITS / -math.log2(gamma)))
        shortest = fractal._ORBIT_MIN_CHUNKS * chunk  # the lockstep's shortest orbit
        total = data.draw(st.one_of(
            st.sampled_from([shortest - 1, shortest, shortest + 1,
                             shortest + chunk - 1, shortest + chunk, shortest + chunk + 1]),
            st.integers(1, 300)), label="total")
        burn_in = data.draw(st.sampled_from([0, 1, 64]).filter(lambda b: b < total),
                            label="burn_in")
        _assert_orbit_is_apply_loop(model, total - burn_in, seed=data.draw(
            st.integers(0, 2**16), label="seed"), burn_in=burn_in)

    @pytest.mark.parametrize("bits", [72, 8], ids=["bits72", "bits8"])
    @pytest.mark.parametrize("gamma", [0.9, 0.99, 0.999])
    def test_lockstep_at_slow_contraction(self, monkeypatch, gamma, bits):
        """The lockstep forced onto slow contraction: 8-bit windows leave most
        brackets uncoalesced, and those chunks continue from the one before."""
        monkeypatch.setattr(fractal, "_ORBIT_MIN_CHUNKS", 1)
        monkeypatch.setattr(fractal, "_ORBIT_BITS", bits)
        model = IFSModel(np.array([[1.0, 0.2], [-1.0, 0.7], [0.3, -0.9]]), gamma=gamma,
                         radius=2.0)
        _assert_orbit_is_apply_loop(model, 12_000, seed=3, burn_in=64)

    @pytest.mark.parametrize("gamma,total,lockstep", [
        (0.9, 100_064, True), (0.99, 100_064, False), (0.999, 100_064, False),
        (0.5, 64 * 256, True), (0.5, 64 * 256 - 1, False), (1.0 / 3.0, 1, False),
    ])
    def test_path_selection_reads_gamma_and_length(self, monkeypatch, gamma, total, lockstep):
        calls = []
        lockstep_orbit = fractal._lockstep_orbit

        def spy(*args):
            calls.append(args)
            return lockstep_orbit(*args)

        monkeypatch.setattr(fractal, "_lockstep_orbit", spy)
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=gamma, radius=1.0)
        burn_in = min(64, total - 1)
        out = model.sample_attractor(total - burn_in, seed=2, burn_in=burn_in)
        assert bool(calls) == lockstep
        np.testing.assert_array_equal(out.view(np.int64),
                                      _scalar_reference(model, total - burn_in, 2, burn_in))

    @pytest.mark.parametrize("centers", [
        [[0.0], [0.0]], [[-0.0], [-0.0]], [[0.0, -0.0], [-0.0, 0.0]],
        [[-5e-324], [-0.0]], [[-0.0, 0.5], [0.0, -0.5]],
    ], ids=["zeros", "negative-zeros", "mixed-zeros", "subnormal-negative", "zero-coordinate"])
    def test_signed_zero_centers(self, centers):
        """Zero and -0.0 centers on the lockstep path.  With -5e-324 and
        gamma < 1/2 the orbit does hold -0.0: gamma*(-5e-324) rounds to
        -0.0, and -0.0 + -0.0 is -0.0."""
        model = IFSModel(np.array(centers), gamma=0.3, radius=2.0)
        out = _assert_orbit_is_apply_loop(model, 64 * 256, seed=4, burn_in=0)
        if centers == [[-5e-324], [-0.0]]:
            assert np.any((out == 0.0) & np.signbit(out))

    def test_brackets_certify_signed_zero_starts(self, monkeypatch):
        """With a bound close to the orbit's subnormal scale every bracket
        coalesces, at a subnormal or at a zero of either sign, and fixes the
        sign of a zero start: no chunk needs the scalar continuation."""
        offsets = np.array([[-5e-324], [-0.0], [5e-324]])
        choices = substream(2).integers(0, 3, size=64 * 256)
        ref = fractal._scalar_orbit(offsets, choices.tolist(), 0.3, 0, choices.size)
        starts = ref[255::256]
        assert np.any((starts == 0.0) & np.signbit(starts))
        assert np.any((starts == 0.0) & ~np.signbit(starts))

        def no_continuation(*args):
            raise AssertionError("a chunk was left uncertified")

        monkeypatch.setattr(fractal, "_recurrence", no_continuation)
        out = fractal._lockstep_orbit(offsets, choices, 0.3, np.array([1e-320]), 8, 256)
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))

    def test_huge_centers(self):
        model = IFSModel(np.array([[1e154, -3.0], [-1e154, 7.0]]), gamma=0.5, radius=1.5e154)
        _assert_orbit_is_apply_loop(model, 20_000, seed=8, burn_in=64)

    def test_tiny_centers_stay_on_the_lockstep(self, monkeypatch):
        """The bracket bound scales with the centers: at +-1e-300 every
        bracket closes, so no chunk takes the scalar continuation."""
        def no_continuation(*args):
            raise AssertionError("a chunk was left uncertified")

        monkeypatch.setattr(fractal, "_recurrence", no_continuation)
        model = IFSModel(np.array([[1e-300], [-1e-300]]), gamma=1.0 / 3.0, radius=1.0)
        _assert_orbit_is_apply_loop(model, 100_000, seed=3, burn_in=64)

    def test_huge_centers_inside_the_radius(self):
        """A center whose squared norm overflows is measured scaled by its
        largest entry: accepted inside R, with no overflow warning, and
        refused outside it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = IFSModel([[1e200], [-1e200]], 0.5, 1e300)
            IFSModel([[3e200, 4e200], [0.0, 0.0]], 0.5, 5e200)
            with pytest.raises(ValueError, match="inside the radius-R ball"):
                IFSModel([[3e200, 4e200], [0.0, 0.0]], 0.5, 4.9e200)
            with pytest.raises(ValueError, match="inside the radius-R ball"):
                IFSModel([[1e308, 1e308], [0.0, 0.0]], 0.5, 1e308)
        _assert_orbit_is_apply_loop(model, 1_000, seed=2, burn_in=64)

    def test_infinite_bound_never_coalesces(self):
        """Centers near 1e308 make M = 2*max|c| + 2^-1022 overflow to inf.  No
        bracket can coalesce from +-inf, so every chunk after the first
        continues from the one before it."""
        offsets = 0.5 * np.array([[1e308], [-1e308]])
        choices = substream(9).integers(0, 2, size=20_000)
        with np.errstate(over="ignore"):
            bound = 2.0 * np.abs(offsets / 0.5).max(axis=0) + fractal._ORBIT_FLOOR
        assert np.isinf(bound).all()
        out = fractal._lockstep_orbit(offsets, choices, 0.5, bound, 64, 256)
        ref = fractal._scalar_orbit(offsets, choices.tolist(), 0.5, 0, choices.size)
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("total", [300, 64 * 256 + 5], ids=["scalar", "lockstep"])
    def test_no_burn_in_and_single_point(self, total):
        model = IFSModel(np.array([[1.0, 0.5], [-1.0, 0.25]]), gamma=0.5, radius=2.0)
        _assert_orbit_is_apply_loop(model, total, seed=1, burn_in=0)
        _assert_orbit_is_apply_loop(model, 1, seed=1, burn_in=total - 1)

    @pytest.mark.parametrize("centers", [
        np.zeros((0, 2)), [], np.zeros((2, 0)), [[1.0], [2.0, 3.0]], [[[1.0], [-1.0]]],
    ], ids=["no-maps", "empty-list", "zero-dim", "ragged", "three-axes"])
    def test_centers_must_be_nonempty_rows(self, centers):
        with pytest.raises(ValueError, match="centers must be a non-empty"):
            IFSModel(centers, gamma=0.5, radius=1.0)

    def test_negative_burn_in_rejected(self):
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=1.0 / 3.0, radius=1.0)
        with pytest.raises(ValueError, match="burn_in"):
            model.sample_attractor(100, burn_in=-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centers_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IFSModel(np.array([[bad], [1.0]]), gamma=0.5, radius=1.0)


def _scalar_reference(model, n_points, seed, burn_in):
    choices = substream(seed).integers(0, model.n_maps, size=burn_in + n_points)
    return fractal._scalar_orbit((1.0 - model.gamma) * model.centers, choices.tolist(),
                                 float(model.gamma), burn_in, n_points).view(np.int64)


def _assert_orbit_is_apply_loop(model, n_points, seed, burn_in):
    """The orbit is bitwise the one a loop of ``model.apply`` calls gives."""
    choices = substream(seed).integers(0, model.n_maps, size=burn_in + n_points)
    theta = np.zeros(model.dim)
    ref = np.empty((choices.size, model.dim))
    for k, i in enumerate(choices.tolist()):
        theta = ref[k] = model.apply(i, theta)
    out = model.sample_attractor(n_points, seed=seed, burn_in=burn_in)
    assert out.shape == (n_points, model.dim) and out.dtype == np.float64
    np.testing.assert_array_equal(out.view(np.int64), ref[burn_in:].view(np.int64))
    return out


class TestBoxCounting:
    def test_line_segment_dimension(self):
        rng = np.random.default_rng(51)
        t = rng.uniform(0, 1, 20_000)
        pts = np.stack([2.0 * t - 1.0, (2.0 * t - 1.0) * 0.5], axis=1)
        fit = box_counting_dimension(pts, np.geomspace(0.5, 0.004, 6))
        assert abs(fit.dimension - 1.0) <= 0.1

    def test_identical_points_have_dimension_zero(self):
        pts = np.zeros((2000, 2))
        fit = box_counting_dimension(pts, [1.0, 0.1, 0.01, 0.001])
        assert fit.dimension == 0.0

    def test_cantor_orbit(self):
        model = IFSModel(np.array([[1.0], [-1.0]]), gamma=1.0 / 3.0, radius=1.0)
        pts = model.sample_attractor(60_000, seed=6)
        scales = [2.0 / 3.0**k for k in range(1, 8)]
        fit = box_counting_dimension(pts, scales)
        assert abs(fit.dimension - math.log(2) / math.log(3)) <= 0.05

    def test_preconditions(self):
        pts = np.random.default_rng(0).uniform(size=(500, 2))
        with pytest.raises(ValueError):
            box_counting_dimension(pts, [1.0, 0.1, 0.01, 0.001])  # too few points
        pts = np.random.default_rng(0).uniform(size=(2000, 2))
        with pytest.raises(ValueError):
            box_counting_dimension(pts, [1.0, 0.5, 0.2, 0.1])  # under two decades
        with pytest.raises(ValueError):
            box_counting_dimension(pts, [1.0, 0.01, 0.001])  # too few scales

    def test_point_shapes(self):
        """A flat vector is that many one-dim points; one row is one point,
        however long; a stack of point arrays is refused."""
        line = np.random.default_rng(0).uniform(size=2000)
        scales = [1.0, 0.1, 0.01, 0.001]
        assert (box_counting_dimension(line, scales).counts
                == box_counting_dimension(line[:, None], scales).counts).all()
        with pytest.raises(ValueError, match="at least 1000 points"):
            box_counting_dimension(line[None, :], scales)
        with pytest.raises(ValueError, match=r"\(N, d\) array, got shape \(1000, 2, 1\)"):
            box_counting_dimension(line.reshape(1000, 2, 1), scales)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(0).uniform(size=(2000, 2))
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            box_counting_dimension(pts, [1.0, 0.1, 0.01, 0.001])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, bad):
        pts = np.random.default_rng(0).uniform(size=(2000, 2))
        with pytest.raises(ValueError, match="finite"):
            box_counting_dimension(pts, [1.0, 0.1, 0.01, 0.001, bad])

    def test_scale_beyond_int64_box_indices_rejected(self):
        """At 1e-30 the unit extent spans ~1e30 boxes, which the int64 cast
        cannot hold: distinct points would share a box."""
        pts = np.random.default_rng(0).uniform(size=(2000, 1))
        with pytest.raises(ValueError, match="too small"):
            box_counting_dimension(pts, [1.0, 0.1, 0.01, 1e-30])
        span = float(np.ptp(pts))
        fit = box_counting_dimension(pts, [1.0, 0.1, 0.01, 2.0 * span / 2.0**63])
        assert fit.counts[-1] == np.unique(pts).size

    @pytest.mark.parametrize("grid", [(8000,), (8001,), (80, 100), (89, 90)])
    def test_bitmap_and_sort_agree_around_eight_boxes_per_point(self, monkeypatch, grid):
        """1000 lattice points whose finest grid has just under or just over
        8 boxes per point: the bitmap, the sort and the default choice
        between them count the same boxes as np.unique."""
        rng = np.random.default_rng(len(grid) + grid[-1])
        pts = rng.integers(0, grid, size=(1000, len(grid))).astype(float)
        pts[0], pts[1] = 0.0, np.subtract(grid, 1)  # pin the extent to the grid
        assert (math.prod(grid) <= 8 * len(pts)) == (grid in [(8000,), (80, 100)])
        scales = [1000.0, 100.0, 10.0, 1.0]
        reference = [np.unique(np.floor(pts / s).astype(np.int64), axis=0).shape[0]
                     for s in scales]
        for boxes_per_point in (8, 0, 10**6):  # default, sort only, bitmap only
            monkeypatch.setattr(fractal, "_BITMAP_BOXES_PER_POINT", boxes_per_point)
            assert box_counting_dimension(pts, scales).counts.tolist() == reference

    @pytest.mark.parametrize("grid, whole_rows", [
        ((2**21, 2**21, 2**21 - 1), False),
        ((2**21, 2**21, 2**21), True),
    ], ids=["2^63-2^42-boxes-sort", "2^63-boxes-whole-rows"])
    def test_grids_at_the_int64_limit(self, monkeypatch, grid, whole_rows):
        """d = 3 lattice points whose finest grid has one int64 key per box
        short of 2^63 boxes, or 2^63 boxes, which int64 cannot index: the first
        sorts keys, the second compares whole rows, and both count the same
        boxes as np.unique."""
        rng = np.random.default_rng(63)
        pts = rng.integers(0, grid, size=(1000, 3)).astype(float)
        pts[0], pts[1] = 0.0, np.subtract(grid, 1)  # pin the extent to the grid
        assert (math.prod(grid) > np.iinfo(np.int64).max) == whole_rows
        scales = [1000.0, 100.0, 10.0, 1.0]
        reference = [np.unique(np.floor(pts / s).astype(np.int64), axis=0).shape[0]
                     for s in scales]
        unique, row_compares = np.unique, []

        def spy(ar, *args, **kwargs):
            row_compares.append(kwargs.get("axis"))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        assert box_counting_dimension(pts, scales).counts.tolist() == reference
        # only the finest grid can lack int64 keys
        assert row_compares == ([0] if whole_rows else [])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    def test_counts_equal_distinct_rows(self, d):
        """Counts equal the distinct grid rows, also on grids with more boxes
        than int64 can index (d=8 at scale 1e-9), which count whole rows."""
        rng = np.random.default_rng(d)
        # a few thousand points on a coarse lattice, so boxes repeat at every scale
        pts = rng.integers(-40, 40, size=(3000, d)) / 16.0
        scales = [4.0, 1.0, 0.3, 0.1, 0.01, 1e-9]
        fit = box_counting_dimension(pts, scales)
        lo = pts.min(axis=0)
        for s, count in zip(fit.scales, fit.counts):
            idx = np.floor((pts - lo) / s).astype(np.int64)
            assert count == np.unique(idx, axis=0).shape[0]
        if d == 8:
            with pytest.raises(ValueError):
                np.ravel_multi_index(idx.T, idx.max(axis=0) + 1)
